"""Reference oracle for ``heckemod.linalg.Mat``: a dict of field entries.

This is the matrix heckemod used before ``Mat`` kept integer rows over one
denominator: a dict mapping (row, col) to a nonzero field element, with every
sum and product taken entry by entry in the field.  It is generic in the
entry class, ``Cyc`` or ``cyclo_reference.RefCyc``, shares no code with
``linalg``, and is slow, so the tests compare the two on small inputs.
"""

from __future__ import annotations

from heckemod.cyclo import Cyc
from heckemod.errors import DimensionMismatch


class RefMat:
    """A sparse matrix over Q(zeta_ell) with entries of class ``field``."""

    __slots__ = ("field", "ell", "nrows", "ncols", "entries")

    def __init__(self, field, ell: int, nrows: int, ncols: int | None = None, entries=()):
        self.field = field
        self.ell = ell
        self.nrows = nrows
        self.ncols = nrows if ncols is None else ncols
        self.entries: dict = {}
        for key, value in entries:
            self[key] = value

    @classmethod
    def identity(cls, field, ell: int, n: int) -> "RefMat":
        return cls(field, ell, n, n, (((t, t), 1) for t in range(n)))

    @classmethod
    def of(cls, m, field=Cyc) -> "RefMat":
        """The values of a ``heckemod.linalg.Mat``, read entry by entry and,
        for another ``field``, rebuilt from their coefficients."""
        out = cls(field, m.ell, m.nrows, m.ncols)
        out.entries = {key: v if field is Cyc else field(m.ell, v.coeffs)
                       for key, v in m.data.items()}
        return out

    def _with(self, entries: dict, ncols: int | None = None) -> "RefMat":
        """A matrix of this field and row count holding ``entries``, a dict
        of nonzero field elements."""
        out = RefMat(self.field, self.ell, self.nrows, self.ncols if ncols is None else ncols)
        out.entries = entries
        return out

    def copy(self) -> "RefMat":
        return self._with(dict(self.entries))

    def __getitem__(self, key):
        v = self.entries.get(key)
        return self.field.zero(self.ell) if v is None else v

    def __setitem__(self, key, value):
        if not isinstance(value, self.field):
            value = self.field.from_rational(self.ell, value)
        elif value.ell != self.ell:
            raise DimensionMismatch("entry over a different field")
        if value.is_zero():
            self.entries.pop(key, None)
        else:
            self.entries[key] = value

    def _same_size(self, other: "RefMat"):
        if (self.ell, self.nrows, self.ncols) != (other.ell, other.nrows, other.ncols):
            raise DimensionMismatch("matrices of different sizes or fields")

    def _combine(self, other: "RefMat", subtract: bool) -> "RefMat":
        self._same_size(other)
        acc = dict(self.entries)
        for key, v in other.entries.items():
            if key not in acc:
                acc[key] = -v if subtract else v
                continue
            w = acc[key] - v if subtract else acc[key] + v
            if w.is_zero():
                del acc[key]
            else:
                acc[key] = w
        return self._with(acc)

    def __add__(self, other: "RefMat") -> "RefMat":
        return self._combine(other, False)

    def __sub__(self, other: "RefMat") -> "RefMat":
        return self._combine(other, True)

    def __neg__(self) -> "RefMat":
        return self._with({key: -v for key, v in self.entries.items()})

    def __mul__(self, other: "RefMat") -> "RefMat":
        if self.ell != other.ell or self.ncols != other.nrows:
            raise DimensionMismatch("matrices of incompatible sizes or fields")
        by_row: dict = {}
        for (k, j), v in other.entries.items():
            by_row.setdefault(k, []).append((j, v))
        acc: dict = {}
        for (i, k), u in self.entries.items():
            for j, v in by_row.get(k, ()):
                key = (i, j)
                acc[key] = acc[key] + u * v if key in acc else u * v
        return self._with({key: v for key, v in acc.items() if not v.is_zero()}, other.ncols)

    def scale(self, scalar) -> "RefMat":
        if not scalar:
            return self._with({})
        return self._with({key: v * scalar for key, v in self.entries.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, RefMat):
            return NotImplemented
        return ((self.ell, self.nrows, self.ncols) == (other.ell, other.nrows, other.ncols)
                and self.entries == other.entries)

    __hash__ = None

    def is_zero(self) -> bool:
        return not self.entries

    def first(self):
        """The least (key, value) over the nonzero entries, or None."""
        return min(self.entries.items(), default=None)


def block_diag(field, ell: int, mats) -> RefMat:
    mats = list(mats)
    out = RefMat(field, ell, sum(m.nrows for m in mats), sum(m.ncols for m in mats))
    r = c = 0
    for m in mats:
        for (i, j), v in m.entries.items():
            out[r + i, c + j] = v
        r += m.nrows
        c += m.ncols
    return out
