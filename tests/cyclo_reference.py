"""Reference oracle for ``heckemod.cyclo``: Q(zeta_ell) as Fraction polynomials.

This is the field implementation heckemod used before its integer-backed
``Cyc``: every coefficient is a ``Fraction`` and every product is reduced by
polynomial long division modulo the ell-th cyclotomic polynomial.  It is slow
and independent of the production code path (which keeps integer numerators
over one common denominator and folds products with a precomputed table), so
the tests compare the two on random data.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from heckemod.errors import MismatchedField

# ---------------------------------------------------------------------------
# dense polynomial helpers over Q (lists of Fractions, lowest degree first)

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _poly_trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def _poly_mul(a, b):
    out = [_ZERO] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] += ai * bj
    return _poly_trim(out)


def _poly_divmod(a, b):
    """Quotient and remainder of a by b over Q; b need not be monic."""
    a = list(a)
    _poly_trim(a)
    db, lead = len(b) - 1, b[-1]
    if db < 0:
        raise ZeroDivisionError("polynomial division by zero")
    q = [_ZERO] * max(len(a) - db, 0)
    while len(a) - 1 >= db:
        c = a[-1] / lead
        q[len(a) - 1 - db] = c
        for k in range(db + 1):
            a[len(a) - 1 - db + k] -= c * b[k]
        _poly_trim(a)
        if not a:
            break
    return q, a


@lru_cache(maxsize=None)
def cyclotomic_polynomial(ell: int) -> tuple[Fraction, ...]:
    """Coefficients of the ell-th cyclotomic polynomial, lowest degree first.

    Computed by dividing ``x**ell - 1`` by the cyclotomic polynomials of all
    proper divisors of ell; exact over Q.
    """
    if ell < 1:
        raise ValueError("ell must be a positive integer")
    if ell == 1:
        return (Fraction(-1), _ONE)
    num = [Fraction(-1)] + [_ZERO] * (ell - 1) + [_ONE]
    for d in range(1, ell):
        if ell % d == 0:
            num, rem = _poly_divmod(num, list(cyclotomic_polynomial(d)))
            if rem:
                raise AssertionError("cyclotomic division left a remainder")
    return tuple(num)


@lru_cache(maxsize=None)
def degree(ell: int) -> int:
    """Degree of Q(zeta_ell) over Q, i.e. Euler's totient of ell."""
    return len(cyclotomic_polynomial(ell)) - 1


def _reduce(ell, raw):
    phi = degree(ell)
    p = [c if isinstance(c, Fraction) else Fraction(c) for c in raw]
    _poly_trim(p)
    if len(p) > phi:
        _, p = _poly_divmod(p, list(cyclotomic_polynomial(ell)))
    p += [_ZERO] * (phi - len(p))
    return tuple(p)


def _poly_sub(a, b):
    n = max(len(a), len(b))
    out = [(a[i] if i < len(a) else _ZERO) - (b[i] if i < len(b) else _ZERO)
           for i in range(n)]
    return _poly_trim(out)


def _ext_gcd(a, b):
    """Return (g, s) with s*a == g modulo b, g a nonzero constant, for a
    coprime to b over Q[x]."""
    r0, r1 = list(a), list(b)
    s0, s1 = [_ONE], []
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
    if len(r0) != 1:
        raise ZeroDivisionError("element is not invertible")
    return r0[0], s0


class RefCyc:
    """An element of Q(zeta_ell) in canonical power-basis form.

    ``RefCyc(ell, coeffs)`` accepts coefficients of any length and reduces them
    modulo the ell-th cyclotomic polynomial, so construction is idempotent on
    already-canonical data.
    """

    __slots__ = ("ell", "coeffs")

    def __init__(self, ell: int, coeffs):
        object.__setattr__(self, "ell", int(ell))
        object.__setattr__(self, "coeffs", _reduce(self.ell, coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("Cyc is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rational(cls, ell, value) -> "RefCyc":
        return cls(ell, [Fraction(value)])

    @classmethod
    def zero(cls, ell) -> "RefCyc":
        return cls(ell, [])

    @classmethod
    def one(cls, ell) -> "RefCyc":
        return cls(ell, [_ONE])

    # -- predicates and conversions -----------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0]

    def __bool__(self):
        return any(self.coeffs)

    # -- field operations ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RefCyc):
            if other.ell != self.ell:
                raise MismatchedField(f"ell={self.ell} vs ell={other.ell}")
            return other
        if isinstance(other, (int, Fraction)):
            return RefCyc.from_rational(self.ell, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RefCyc(self.ell, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return RefCyc(self.ell, [-a for a in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RefCyc(self.ell, [a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RefCyc(self.ell, _poly_mul(list(self.coeffs), list(o.coeffs)))

    __rmul__ = __mul__

    def inverse(self) -> "RefCyc":
        if self.is_zero():
            raise ZeroDivisionError("division by zero in Q(zeta_ell)")
        g, s = _ext_gcd(_poly_trim(list(self.coeffs)),
                        list(cyclotomic_polynomial(self.ell)))
        return RefCyc(self.ell, [c / g for c in s])

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = RefCyc.one(self.ell)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparison / hashing -------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RefCyc.from_rational(self.ell, other)
        if not isinstance(other, RefCyc):
            return NotImplemented
        return self.ell == other.ell and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ell, self.coeffs))

    def __repr__(self):
        return f"Cyc({self.ell}, {[str(c) for c in self.coeffs]})"

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        return {"ell": self.ell, "coeffs": [fraction_to_str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, data: dict) -> "RefCyc":
        return cls(int(data["ell"]), [fraction_from_str(c) for c in data["coeffs"]])


def ref_root_of_unity(ell: int, k: int) -> RefCyc:
    k %= ell
    return RefCyc(ell, [_ZERO] * k + [_ONE])


def fraction_to_str(q) -> str:
    return str(Fraction(q))


def fraction_from_str(s) -> Fraction:
    if isinstance(s, bool):
        raise ValueError("not a rational")
    if isinstance(s, int):
        return Fraction(s)
    return Fraction(str(s))
