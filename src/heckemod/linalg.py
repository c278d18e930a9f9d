"""Sparse exact linear algebra over a fixed cyclotomic field.

The public ``Mat`` keeps a dict mapping (row, col) -> nonzero Cyc entry.
Sizes stay small (module dimensions), so the emphasis is on exactness and
simplicity rather than asymptotics.

The package's own verification runs on ``_ScaledMat``: one positive integer
scale L and one matrix A, standing for A / L, kept as rows
{row: {col: x}} with no zero entries and no empty rows.  L is the lcm of the
entries' denominators, so each x is a plain int or an integral ``Cyc``, and a
matrix read from a ``Mat`` holds a ``Cyc`` only where its entry is not
rational.  ``Cyc`` folds its own products, so this kernel never sees the
power basis and builds no list of length phi(ell).  A product multiplies
the rows at scale L_a L_b; a sum brings both sides to the lcm of their
scales.  A module the package builds has rational s-matrices, so every
product there is one plain integer product.  A ``Cyc`` is built for a
rational entry only when it is read out (``entry``, ``to_mat``).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

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


# ---------------------------------------------------------------------------
# integer-scaled kernel

def _int_product(a: dict, b: dict) -> dict:
    """a b for matrices kept as rows {row: {col: x}}, x an int or an integral Cyc."""
    out = {}
    for r, arow in a.items():
        acc: dict[int, int | Cyc] = {}
        get = acc.get
        for k, x in arow.items():
            brow = b.get(k)
            if brow is not None:
                for c, y in brow.items():
                    acc[c] = get(c, 0) + x * y
        if not all(acc.values()):
            acc = {c: v for c, v in acc.items() if v}
        if acc:
            out[r] = acc
    return out


def _int_combine(a: dict, fa: int, b: dict, fb: int) -> dict:
    """fa a + fb b for matrices kept as rows, fa and fb nonzero ints."""
    out = {r: ({c: v * fa for c, v in row.items()} if fa != 1 else dict(row))
           for r, row in a.items()}
    for r, row in b.items():
        target = out.get(r)
        if target is None:
            out[r] = {c: v * fb for c, v in row.items()} if fb != 1 else dict(row)
            continue
        for c, v in row.items():
            x = target.get(c, 0) + v * fb
            if x:
                target[c] = x
            else:
                del target[c]
        if not target:
            del out[r]
    return out


class _ScaledMat:
    """A square matrix over Q(zeta_ell) as rows {row: {col: x}} over one
    positive integer ``scale`` (module docstring), each x an int or an
    integral Cyc.  Immutable by convention: every operation returns a new
    one."""

    __slots__ = ("ell", "dim", "scale", "rows")

    def __init__(self, ell: int, dim: int, scale: int, rows: dict):
        self.ell = ell
        self.dim = dim
        self.scale = scale
        self.rows = rows

    @classmethod
    def of(cls, m: Mat) -> "_ScaledMat":
        """The square Mat m, read once."""
        scale = lcm(*(v._den for v in m.data.values()))
        rows: dict = {}
        for (i, j), v in m.data.items():
            rows.setdefault(i, {})[j] = (v._num[0] * (scale // v._den) if v.is_rational()
                                         else v * scale)
        return cls(m.ell, m.nrows, scale, rows)

    @classmethod
    def diagonal(cls, ell: int, values: list[int], den: int = 1) -> "_ScaledMat":
        """diag(values) / den for integer values and a positive integer den."""
        return cls(ell, len(values), den, {t: {t: x} for t, x in enumerate(values) if x})

    def _check_field(self, other: "_ScaledMat"):
        if self.ell != other.ell:
            raise DimensionMismatch("matrices over different fields")

    def __mul__(self, other: "_ScaledMat") -> "_ScaledMat":
        self._check_field(other)
        return _ScaledMat(self.ell, self.dim, self.scale * other.scale,
                          _int_product(self.rows, other.rows))

    def _combine(self, other: "_ScaledMat", sign: int) -> "_ScaledMat":
        self._check_field(other)
        if sign < 0 and self.scale == other.scale and self.rows == other.rows:
            # the residual of a relation that holds, found by one dict comparison
            return _ScaledMat(self.ell, self.dim, 1, {})
        scale = lcm(self.scale, other.scale)
        fa, fb = scale // self.scale, sign * (scale // other.scale)
        return _ScaledMat(self.ell, self.dim, scale, _int_combine(self.rows, fa, other.rows, fb))

    def __add__(self, other: "_ScaledMat") -> "_ScaledMat":
        return self._combine(other, 1)

    def __sub__(self, other: "_ScaledMat") -> "_ScaledMat":
        return self._combine(other, -1)

    def first_mismatch(self, col: list, row: list) -> tuple[int, int] | None:
        """The least position (p, q) of a nonzero entry with col[q] != row[p],
        or None."""
        return min([(p, q) for p, entries in self.rows.items()
                    for q in entries if col[q] != row[p]], default=None)

    def first(self) -> tuple[int, int] | None:
        """The least position of a nonzero entry, or None for zero."""
        if not self.rows:
            return None
        p = min(self.rows)
        return p, min(self.rows[p])

    def entry(self, p: int, q: int) -> Cyc:
        x = self.rows.get(p, {}).get(q, 0)
        if x.__class__ is int:
            return Cyc.from_rational(self.ell, Fraction(x, self.scale))
        return x * Fraction(1, self.scale)

    def to_mat(self) -> Mat:
        m = Mat(self.ell, self.dim, self.dim)
        m.data = {(p, q): self.entry(p, q) for p, entries in self.rows.items() for q in entries}
        return m
