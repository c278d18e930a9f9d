"""Sparse exact linear algebra over a fixed cyclotomic field.

A ``Mat`` over Q(zeta_ell) stores one positive integer denominator ``den``
and one matrix A, standing for A / den, kept as ``rows`` {row: {col: x}}
with no zero entries and no empty rows.  Each x is a plain int or an
integral ``Cyc``.  A matrix built from its entries (set one by one, a
diagonal, a copy, a negation, a block sum) stores an int for every rational
entry and a ``Cyc`` only where the entry leaves Q, so every matrix of a
module the package builds holds only ints.  A product, sum or scaling may
hold a rational ``Cyc``, as a product of irrational entries can be rational
(zeta_3 * zeta_3^2 = 1).  ``Cyc`` folds its own products, so this module
never sees the power basis.

A product multiplies the rows at denominator den_a den_b, without
reducing; a sum or difference brings both sides to the lcm of their
denominators.  ``==`` compares values, whatever the two denominators are.
A ``Cyc`` is built for an entry only when it is read out (``m[i, j]``,
``dense``, the ``data`` view).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from types import MappingProxyType

from .cyclo import Cyc, _raw, _reduced, fraction_from_str
from .errors import DimensionMismatch


def _split(ell: int, value) -> tuple:
    """value as (x, q): an int, or an integral Cyc where value leaves Q, over
    the positive integer q."""
    if isinstance(value, Cyc):
        if value.ell != ell:
            raise DimensionMismatch(f"entry over Q(zeta_{value.ell}) in a matrix over Q(zeta_{ell})")
        if value.is_rational():
            return value._num[0], value._den
        return _raw(ell, value._num, 1), value._den
    if value.__class__ is not int and value.__class__ is not Fraction:
        value = fraction_from_str(value, "coefficient")
    return value.numerator, value.denominator


def _entry(ell: int, x, den: int) -> Cyc:
    """The canonical Cyc of the entry x / den."""
    if x.__class__ is int:
        return Cyc.from_rational(ell, Fraction(x, den))
    return _reduced(ell, list(x._num), den)


def _new(ell: int, nrows: int, ncols: int, den: int, rows: dict) -> "Mat":
    m = Mat(ell, nrows, ncols)
    m.den = den
    m.rows = rows
    return m


def _diagonal(ell: int, values, den: int = 1) -> "Mat":
    """diag(values) / den for int values and a positive integer den."""
    values = list(values)
    return _new(ell, len(values), len(values), den,
                {t: {t: x} for t, x in enumerate(values) if x})


class Mat:
    """Square-or-rectangular sparse matrix with entries in Q(zeta_ell), kept
    as integer ``rows`` over one positive ``den`` (module docstring)."""

    __slots__ = ("ell", "nrows", "ncols", "den", "rows")

    def __init__(self, ell: int, nrows: int, ncols: int):
        self.ell = ell
        self.nrows = nrows
        self.ncols = ncols
        self.den = 1
        self.rows: dict[int, dict[int, int | Cyc]] = {}

    # -- construction -------------------------------------------------------

    @classmethod
    def zero(cls, ell: int, nrows: int, ncols: int | None = None) -> "Mat":
        return cls(ell, nrows, ncols if ncols is not None else nrows)

    @classmethod
    def identity(cls, ell: int, n: int) -> "Mat":
        return _diagonal(ell, [1] * n)

    @classmethod
    def diagonal(cls, ell: int, values) -> "Mat":
        pairs = [_split(ell, v) for v in values]
        den = lcm(*(q for _, q in pairs))
        return _diagonal(ell, [x * (den // q) for x, q in pairs], den)

    def copy(self) -> "Mat":
        return _new(self.ell, self.nrows, self.ncols, self.den,
                    {i: dict(row) for i, row in self.rows.items()})

    # -- entry access -------------------------------------------------------

    def __getitem__(self, key) -> Cyc:
        i, j = key
        x = self.rows.get(i, {}).get(j)
        return Cyc.zero(self.ell) if x is None else _entry(self.ell, x, self.den)

    def __setitem__(self, key, value):
        i, j = key
        x, q = _split(self.ell, value)
        if not x:
            row = self.rows.get(i)
            if row is not None and row.pop(j, None) is not None and not row:
                del self.rows[i]
            return
        den = lcm(self.den, q)
        if den != self.den:
            f = den // self.den
            self.rows = {r: {c: v * f for c, v in row.items()} for r, row in self.rows.items()}
            self.den = den
        self.rows.setdefault(i, {})[j] = x * (den // q)

    @property
    def data(self) -> MappingProxyType:
        """A read-only view {(row, col): Cyc} of the nonzero entries."""
        ell, den = self.ell, self.den
        return MappingProxyType({(i, j): _entry(ell, x, den)
                                 for i, row in self.rows.items() for j, x in row.items()})

    # -- arithmetic ---------------------------------------------------------

    def _check_same_size(self, other: "Mat"):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch(
                f"{self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}")
        if self.ell != other.ell:
            raise DimensionMismatch("matrices over different fields")

    def _combine(self, other: "Mat", sign: int) -> "Mat":
        """self + sign * other, at the lcm of the two denominators."""
        self._check_same_size(other)
        den = lcm(self.den, other.den)
        return _new(self.ell, self.nrows, self.ncols, den,
                    _int_combine(self.rows, den // self.den, other.rows,
                                 sign * (den // other.den)))

    def __add__(self, other: "Mat") -> "Mat":
        return self._combine(other, 1)

    def __sub__(self, other: "Mat") -> "Mat":
        return self._combine(other, -1)

    def __neg__(self) -> "Mat":
        return _new(self.ell, self.nrows, self.ncols, self.den,
                    {i: {j: -x for j, x in row.items()} for i, row in self.rows.items()})

    def __mul__(self, other: "Mat") -> "Mat":
        if self.ell != other.ell:
            raise DimensionMismatch("matrices over different fields")
        if self.ncols != other.nrows:
            raise DimensionMismatch(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        return _new(self.ell, self.nrows, other.ncols, self.den * other.den,
                    _int_product(self.rows, other.rows))

    def scale(self, scalar) -> "Mat":
        x, q = _split(self.ell, scalar)
        if not x:
            return Mat(self.ell, self.nrows, self.ncols)
        return _new(self.ell, self.nrows, self.ncols, self.den * q,
                    {i: {j: v * x for j, v in row.items()} for i, row in self.rows.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        if (self.ell, self.nrows, self.ncols) != (other.ell, other.nrows, other.ncols):
            return False
        if self.den == other.den:
            return self.rows == other.rows
        den = lcm(self.den, other.den)
        return not _int_combine(self.rows, den // self.den, other.rows, -(den // other.den))

    def is_zero(self) -> bool:
        return not self.rows

    def __repr__(self) -> str:
        nnz = sum(map(len, self.rows.values()))
        return f"Mat({self.ell}, {self.nrows}x{self.ncols}, {nnz} entries)"

    # -- views --------------------------------------------------------------

    def dense(self) -> list[list[Cyc]]:
        zero = Cyc.zero(self.ell)
        out = [[zero] * self.ncols for _ in range(self.nrows)]
        for i, row in self.rows.items():
            for j, x in row.items():
                out[i][j] = _entry(self.ell, x, self.den)
        return out

    def diagonal_entries(self) -> list[Cyc]:
        return [self[i, i] for i in range(min(self.nrows, self.ncols))]


def block_diag(ell: int, mats) -> Mat:
    """The block-diagonal matrix of ``mats``, at the lcm of their denominators."""
    mats = list(mats)
    if any(m.ell != ell for m in mats):
        raise DimensionMismatch("block over a different field")
    den = lcm(*(m.den for m in mats))
    rows: dict = {}
    r = c = 0
    for m in mats:
        f = den // m.den
        for i, row in m.rows.items():
            rows[r + i] = {c + j: x * f for j, x in row.items()}
        r += m.nrows
        c += m.ncols
    return _new(ell, r, c, den, rows)


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
