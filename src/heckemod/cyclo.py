"""Exact arithmetic in the cyclotomic field Q(zeta_ell).

An element is stored on the power basis ``1, zeta, ..., zeta**(phi-1)``,
phi = phi(ell), after reduction modulo the ell-th cyclotomic polynomial
Phi_ell: as a tuple of phi integer numerators over one positive common
denominator, in lowest terms (the gcd of the denominator and every
numerator is 1, and zero is all zeros over 1).  Reducing modulo Phi_ell
(rather than ``x**ell - 1``) makes the representation canonical and the ring
a field, so equality is plain integer comparison and every nonzero element
has an inverse.

Phi_ell is monic with integer coefficients, so reduction never leaves the
integers, and one division (``_divmod_monic``) does every reduction.  Each
field operation has one code path for every ell.  Sums and differences
share one body on the numerators alone, with a shortcut for equal
denominators.  A product convolves the numerators and divides by Phi_ell
only when the convolution reaches degree phi.  The inverse of a rational
element is read off directly.  Any other element a = A/den, A with integer
coefficients, is inverted through its norm: with sigma_k the Galois
automorphism zeta -> zeta**k, the product P = prod(sigma_k(A)) over
1 < k < ell with gcd(k, ell) = 1 makes A*P = N(A) a nonzero integer, so
a**-1 = den * P / N(A), all in integer arithmetic.
``coeffs`` gives the coefficients as ``Fraction``s.  One record per field
(Phi_ell, ``zero`` and ``one``) is kept for the 256 fields used last.

No floating point is used anywhere.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, index, sub

from .errors import MismatchedField

# ---------------------------------------------------------------------------
# integer polynomials (lists of ints, lowest degree first)


def _divmod_monic(a, b):
    """Quotient and remainder of a by the monic b; the remainder is padded to
    ``len(b) - 1`` entries."""
    db = len(b) - 1
    r = list(a) + [0] * (db - len(a))
    q = [0] * max(len(r) - db, 0)
    for top in range(len(r) - 1, db - 1, -1):
        c = r[top]
        if c:
            base = top - db
            q[base] = c
            for i in range(db):
                r[base + i] -= c * b[i]
    return q, r[:db]


# the record of Q(zeta_ell): Phi_ell as ints (lowest degree first), 0 and 1
_Field = namedtuple("_Field", "poly zero one")


# no ell below 10**6 has more than 240 divisors, so the divisor recursion of
# _field builds each divisor's record once
@lru_cache(maxsize=256)
def _field(ell: int) -> _Field:
    ell = index(ell)  # True and 1 share a key: the elements carry the int
    if ell < 1:
        raise ValueError("ell must be a positive integer")
    num = [-1] + [0] * (ell - 1) + [1]
    for d in range(1, ell):
        if ell % d == 0:
            num, rem = _divmod_monic(num, _field(d).poly)
            if any(rem):
                raise AssertionError("cyclotomic division left a remainder")
    return _Field(tuple(num), _raw(ell, (0,) * (len(num) - 1), 1),
                  _raw(ell, (1,) + (0,) * (len(num) - 2), 1))


def cyclotomic_polynomial(ell: int) -> tuple[Fraction, ...]:
    """Coefficients of the ell-th cyclotomic polynomial, lowest degree first.

    Computed by dividing ``x**ell - 1`` by the cyclotomic polynomials of all
    proper divisors of ell; exact over Z.
    """
    return tuple(Fraction(c) for c in _field(ell).poly)


def degree(ell: int) -> int:
    """Degree of Q(zeta_ell) over Q, i.e. Euler's totient of ell."""
    return len(_field(ell).poly) - 1


# ---------------------------------------------------------------------------
# the field

_new = object.__new__


def _raw(ell, num, den):
    """An element from canonical data, unchecked."""
    c = _new(Cyc)
    c._ell = ell
    c._num = num
    c._den = den
    return c


def _reduced(ell, num, den):
    """An element from integer numerators of length phi over den > 0."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [x // g for x in num]
            den //= g
    return _raw(ell, tuple(num), den)


class Cyc:
    """An element of Q(zeta_ell) in canonical power-basis form.

    ``Cyc(ell, coeffs)`` takes a positive int ``ell`` (not a bool) and
    rational coefficients of any length (ints, ``Fraction``s, or what
    ``fraction_from_str`` reads; a float or bool raises ValueError) and
    reduces them modulo the ell-th cyclotomic polynomial, so construction is
    idempotent on already-canonical data.  Elements are
    immutable: ``ell`` and ``coeffs`` are read-only.
    """

    __slots__ = ("_ell", "_num", "_den")

    def __init__(self, ell: int, coeffs):
        ell = _checked_ell(ell, "Cyc")
        poly = _field(ell).poly
        fracs = [c if c.__class__ is int or c.__class__ is Fraction
                 else fraction_from_str(c, "coefficient") for c in coeffs]
        den = lcm(*(c.denominator for c in fracs))
        num = [c.numerator * (den // c.denominator) for c in fracs]
        num = _divmod_monic(num, poly)[1]
        g = gcd(den, *num)
        self._ell = ell
        self._num = tuple(x // g for x in num)
        self._den = den // g

    @property
    def ell(self) -> int:
        return self._ell

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coefficients as Fractions."""
        den = self._den
        return tuple(Fraction(x, den) for x in self._num)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rational(cls, ell, value) -> "Cyc":
        if value.__class__ is not int and value.__class__ is not Fraction:
            value = fraction_from_str(value, "coefficient")
        return _raw(ell, (value.numerator,) + cls.zero(ell)._num[1:], value.denominator)

    @classmethod
    def zero(cls, ell) -> "Cyc":
        return _field(_checked_ell(ell, "Cyc")).zero

    @classmethod
    def one(cls, ell) -> "Cyc":
        return _field(_checked_ell(ell, "Cyc")).one

    # -- predicates and conversions -----------------------------------------

    def is_zero(self) -> bool:
        return not any(self._num)

    def is_rational(self) -> bool:
        return not any(self._num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self._num[0], self._den)

    def __bool__(self):
        return any(self._num)

    # -- field operations ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Cyc):
            if other._ell != self._ell:
                raise MismatchedField(f"ell={self._ell} vs ell={other._ell}")
            return other
        if isinstance(other, (int, Fraction)):
            return Cyc.from_rational(self._ell, other)
        return None

    def _addsub(self, other, op, reflected=False):
        """self op other (other op self if ``reflected``) for op in {add, sub}:
        the one body of the four sum and difference operators, which call it
        directly so that none of them goes through another."""
        o = (other if other.__class__ is Cyc and other._ell == self._ell
             else self._coerce(other))
        if o is None:
            return NotImplemented
        a, da, b, db = self._num, self._den, o._num, o._den
        if reflected:
            a, da, b, db = b, db, a, da
        if da == db:
            return _reduced(self._ell, list(map(op, a, b)), da)
        return _reduced(self._ell, [op(x * db, y * da) for x, y in zip(a, b)], da * db)

    def __add__(self, other):
        return self._addsub(other, add)

    __radd__ = __add__

    def __neg__(self):
        return _raw(self._ell, tuple(-x for x in self._num), self._den)

    def __sub__(self, other):
        return self._addsub(other, sub)

    def __rsub__(self, other):
        return self._addsub(other, sub, True)

    def __mul__(self, other):
        o = (other if other.__class__ is Cyc and other._ell == self._ell
             else self._coerce(other))
        if o is None:
            return NotImplemented
        a, b = self._num, o._num
        phi = len(a)
        out = [0] * (2 * phi - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        if any(out[phi:]):
            out = _divmod_monic(out, _field(self._ell).poly)[1]
        del out[phi:]
        return _reduced(self._ell, out, self._den * o._den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyc":
        a, den = self._num, self._den
        x = a[0]
        if not any(a[1:]):  # a rational element, in particular every one when phi = 1
            if not x:
                raise ZeroDivisionError("division by zero in Q(zeta_ell)")
            return _raw(self._ell, (den if x > 0 else -den,) + a[1:], abs(x))
        # 1/a = den * P / N(A) with a = A/den, as in the module docstring
        ell = self._ell
        conj = _field(ell).one
        for k in range(2, ell):
            if gcd(k, ell) == 1:
                img = [0] * ell  # sigma_k sends zeta**j to zeta**(j*k mod ell)
                for j, c in enumerate(a):
                    img[j * k % ell] += c
                conj = conj * Cyc(ell, img)
        norm = conj * _raw(ell, a, 1)
        assert norm.is_rational(), "the norm of a field element is rational"
        return conj * (den / norm.as_rational())

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
        out = Cyc.one(self._ell)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparison / hashing -------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Cyc):  # across fields, only equal rationals are equal
            a, b = self._num, other._num
            return self._den == other._den and (a == b if self._ell == other._ell
                                                else a[0] == b[0] and not any(a[1:] + b[1:]))
        if isinstance(other, (int, Fraction)):
            a = self._num
            return (self._den == other.denominator and a[0] == other.numerator
                    and not any(a[1:]))
        return NotImplemented

    def __hash__(self):  # a rational element hashes like the number it equals
        a = self._num
        return hash((self._ell, a, self._den) if any(a[1:]) else Fraction(a[0], self._den))

    def __repr__(self):
        return f"Cyc({self._ell}, {[str(c) for c in self.coeffs]})"

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        return {"ell": self._ell, "coeffs": [fraction_to_str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, data: dict) -> "Cyc":
        coeffs = data["coeffs"]
        if not isinstance(coeffs, (list, tuple)):
            raise ValueError(f"Cyc field 'coeffs' must be an array, got {coeffs!r}")
        return cls(data["ell"], [fraction_from_str(c, "Cyc field 'coeffs'") for c in coeffs])


def root_of_unity(ell: int, k: int) -> Cyc:
    """zeta_ell**k as a canonical field element (k taken modulo ell)."""
    k = _checked_int(k, "k") % _checked_ell(ell, "Cyc")
    return Cyc(ell, [0] * k + [1])


def _checked_ell(ell, kind: str) -> int:
    if type(ell) is not int or ell < 1:  # type(True) is bool: bools are rejected
        raise ValueError(f"{kind} field 'ell' must be a positive integer, got {ell!r}")
    return ell


def _checked_int(value, name: str) -> int:
    if type(value) is not int:  # type(True) is bool: bools are refused
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def fraction_to_str(q) -> str:
    """Serialize an int or a Fraction as "p" or "p/q" in lowest terms; any
    other value (a float or a bool included) raises a ValueError."""
    if type(q) is int or type(q) is Fraction:
        return str(q)
    raise ValueError(f"only an int or a Fraction is written as a rational, got {q!r}")


# plain ASCII "p" and "p/q", which int() reads exactly as Fraction() does
_ASCII_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
# a closing decimal exponent, which Fraction() expands to a power of ten in
# full; one above 4 300 (the digit limit of a rational) is refused first
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")
# the longest text the memo of plain texts takes: far below 640, the least
# digit limit Python allows, so int() never refuses a text it holds
_MEMO_CHARS = 40


class _NotPlain(Exception):
    """A text outside plain ASCII "p" / "p/q"; raised, so never memoised."""


def _read_plain(s: str) -> Fraction:
    m = _ASCII_RATIONAL.fullmatch(s)
    if m is None:
        raise _NotPlain
    p, q = m.groups()
    return Fraction(int(p)) if q is None else Fraction(int(p), int(q))


# plain texts only: anything else, and a refusal such as "5/0", raises
_memo_plain = lru_cache(maxsize=1 << 12)(_read_plain)


def fraction_from_str(s, what: str = "value") -> Fraction:
    """An exact rational: an int or a string in Python's ``Fraction`` syntax
    such as "p/q".  A float, bool, unreadable string or zero denominator
    raises a ValueError naming ``what``, and so do a decimal exponent beyond
    +-4 300 and a numerator or denominator too long for ``str`` to write
    (``sys.get_int_max_str_digits()``), which ``int()`` refuses to read too.

    A plain ASCII "p" or "p/q" string (optional "-") of at most 40
    characters is answered from a memo of the last 4 096 such texts.  Every
    other value is read afresh: a bool never shares the key of "1", a
    refusal is never cached, and no cached answer depends on the digit
    limit."""
    if type(s) is int:
        return Fraction(s)
    if type(s) is str:
        try:
            try:
                return _memo_plain(s) if len(s) <= _MEMO_CHARS else _read_plain(s)
            except _NotPlain:
                pass
            e = _EXPONENT.search(s)
            if e is None or abs(int(e.group(1))) <= 4300:
                q = Fraction(s)
                str(q.numerator), str(q.denominator)  # ValueError past the digit limit
                return q
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"{what} must be a rational (an integer or a string such as "
                     f"-3/2), got {s!r}")
