"""Sparse exact linear algebra over a fixed cyclotomic field.

Matrices are kept as dicts mapping (row, col) -> nonzero Cyc entry.  Sizes
stay small (module dimensions), so the emphasis is on exactness and
simplicity rather than asymptotics.
"""

from __future__ import annotations

from .cyclo import Cyc
from .errors import DimensionMismatch


class Mat:
    """Square-or-rectangular sparse matrix with entries in Q(zeta_ell)."""

    __slots__ = ("ell", "nrows", "ncols", "data")

    def __init__(self, ell: int, nrows: int, ncols: int):
        self.ell = ell
        self.nrows = nrows
        self.ncols = ncols
        self.data: dict[tuple[int, int], Cyc] = {}

    # -- construction -------------------------------------------------------

    @classmethod
    def zero(cls, ell: int, nrows: int, ncols: int | None = None) -> "Mat":
        return cls(ell, nrows, ncols if ncols is not None else nrows)

    @classmethod
    def identity(cls, ell: int, n: int) -> "Mat":
        m = cls(ell, n, n)
        one = Cyc.one(ell)
        for i in range(n):
            m.data[(i, i)] = one
        return m

    @classmethod
    def diagonal(cls, ell: int, values) -> "Mat":
        values = list(values)
        m = cls(ell, len(values), len(values))
        for i, v in enumerate(values):
            m[i, i] = v
        return m

    def copy(self) -> "Mat":
        m = Mat(self.ell, self.nrows, self.ncols)
        m.data = dict(self.data)
        return m

    # -- entry access -------------------------------------------------------

    def _coerce(self, value) -> Cyc:
        if isinstance(value, Cyc):
            if value.ell != self.ell:
                raise DimensionMismatch(
                    f"entry over Q(zeta_{value.ell}) in a matrix over Q(zeta_{self.ell})")
            return value
        return Cyc.from_rational(self.ell, value)

    def __getitem__(self, key) -> Cyc:
        v = self.data.get(key)
        return Cyc.zero(self.ell) if v is None else v

    def __setitem__(self, key, value):
        value = self._coerce(value)
        if value.is_zero():
            self.data.pop(key, None)
        else:
            self.data[key] = value

    # -- arithmetic ---------------------------------------------------------

    def _check_same_size(self, other: "Mat"):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch(
                f"{self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}")
        if self.ell != other.ell:
            raise DimensionMismatch("matrices over different fields")

    def _combine(self, other: "Mat", subtract: bool) -> "Mat":
        """self - other or self + other, merged on the canonical entries."""
        self._check_same_size(other)
        out = self.copy()
        for key, v in other.data.items():
            w = out.data.get(key)
            if w is None:
                out.data[key] = -v if subtract else v
                continue
            w = w - v if subtract else w + v
            if w.is_zero():
                del out.data[key]
            else:
                out.data[key] = w
        return out

    def __add__(self, other: "Mat") -> "Mat":
        return self._combine(other, False)

    def __sub__(self, other: "Mat") -> "Mat":
        return self._combine(other, True)

    def __neg__(self) -> "Mat":
        out = Mat(self.ell, self.nrows, self.ncols)
        out.data = {key: -v for key, v in self.data.items()}
        return out

    def __mul__(self, other: "Mat") -> "Mat":
        if self.ell != other.ell:
            raise DimensionMismatch("matrices over different fields")
        if self.ncols != other.nrows:
            raise DimensionMismatch(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        by_row: dict[int, list[tuple[int, Cyc]]] = {}
        for (i, j), v in other.data.items():
            by_row.setdefault(i, []).append((j, v))
        out = Mat(self.ell, self.nrows, other.ncols)
        acc: dict[tuple[int, int], Cyc] = {}
        for (i, k), u in self.data.items():
            for j, v in by_row.get(k, ()):
                key = (i, j)
                prod = u * v
                acc[key] = acc[key] + prod if key in acc else prod
        out.data = {key: v for key, v in acc.items() if not v.is_zero()}
        return out

    def scale(self, scalar) -> "Mat":
        scalar = self._coerce(scalar)
        out = Mat(self.ell, self.nrows, self.ncols)
        if scalar.is_zero():
            return out
        out.data = {key: scalar * v for key, v in self.data.items()}
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.ell == other.ell and self.nrows == other.nrows
                and self.ncols == other.ncols and self.data == other.data)

    def is_zero(self) -> bool:
        return not self.data

    def __repr__(self) -> str:
        return f"Mat({self.ell}, {self.nrows}x{self.ncols}, {len(self.data)} entries)"

    # -- views --------------------------------------------------------------

    def dense(self) -> list[list[Cyc]]:
        zero = Cyc.zero(self.ell)
        rows = [[zero] * self.ncols for _ in range(self.nrows)]
        for (i, j), v in self.data.items():
            rows[i][j] = v
        return rows

    def diagonal_entries(self) -> list[Cyc]:
        return [self[i, i] for i in range(min(self.nrows, self.ncols))]


def block_diag(ell: int, mats) -> Mat:
    mats = list(mats)
    out = Mat(ell, sum(m.nrows for m in mats), sum(m.ncols for m in mats))
    r = c = 0
    for m in mats:
        if m.ell != ell:
            raise DimensionMismatch("block over a different field")
        for (i, j), v in m.data.items():
            out.data[(r + i, c + j)] = v
        r += m.nrows
        c += m.ncols
    return out


def nullspace_dim(rows: list[dict[int, Cyc]], ncols: int, ell: int) -> int:
    """Dimension of the solution space of the sparse homogeneous system.

    ``rows`` holds one equation per entry as {variable index: coefficient}.
    Straightforward exact Gaussian elimination; rank = number of pivots.
    """
    pivots: dict[int, dict[int, Cyc]] = {}  # pivot column -> normalized row
    for row in rows:
        row = {j: v for j, v in row.items() if not v.is_zero()}
        while row:
            j = min(row)
            if j in pivots:
                coef = row.pop(j)
                for k, v in pivots[j].items():
                    if k in row:
                        w = row[k] - coef * v
                        if w.is_zero():
                            del row[k]
                        else:
                            row[k] = w
                    else:
                        row[k] = -(coef * v)
            else:
                inv = row[j].inverse()
                pivots[j] = {k: inv * v for k, v in row.items() if k != j}
                row = {}
    return ncols - len(pivots)
