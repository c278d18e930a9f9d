"""The complex reflection group G(ell,1,n) and its group algebra.

Elements are kept in the normal form ``zeta^a w``: ``colors`` is the tuple of
exponents (a_1, ..., a_n) with 0 <= a_i < ell, and ``perm`` is the one-line
notation (w(1), ..., w(n)).  The product works out to

    (zeta^a w)(zeta^b v) = zeta^(a + w.b) (w v),   (w.b)_{w(j)} = b_j,

matching the conjugation rule w zeta_j w^{-1} = zeta_{w(j)}.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclo import Cyc, root_of_unity
from .errors import DimensionMismatch
from .linalg import Mat


@dataclass(frozen=True)
class GroupElement:
    ell: int
    n: int
    colors: tuple[int, ...]
    perm: tuple[int, ...]

    def __post_init__(self):
        if len(self.colors) != self.n or len(self.perm) != self.n:
            raise ValueError("colors and perm must have length n")
        if sorted(self.perm) != list(range(1, self.n + 1)):
            raise ValueError(f"{self.perm} is not a permutation of 1..{self.n}")
        if any(not 0 <= a < self.ell for a in self.colors):
            object.__setattr__(self, "colors",
                               tuple(a % self.ell for a in self.colors))

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        _same_group(self, other)
        colors = list(self.colors)
        for j, bj in enumerate(other.colors):
            colors[self.perm[j] - 1] = (colors[self.perm[j] - 1] + bj) % self.ell
        perm = tuple(self.perm[v - 1] for v in other.perm)
        return GroupElement(self.ell, self.n, tuple(colors), perm)

    def inverse(self) -> "GroupElement":
        inv_perm = [0] * self.n
        colors = [0] * self.n
        for i, wi in enumerate(self.perm):
            inv_perm[wi - 1] = i + 1
            colors[i] = (-self.colors[wi - 1]) % self.ell
        return GroupElement(self.ell, self.n, tuple(colors), tuple(inv_perm))

    def is_identity(self) -> bool:
        return (all(a == 0 for a in self.colors)
                and self.perm == tuple(range(1, self.n + 1)))


def _same_group(x, y):
    if x.ell != y.ell or x.n != y.n:
        raise DimensionMismatch(
            f"elements of G({x.ell},1,{x.n}) and G({y.ell},1,{y.n})")


def identity(ell: int, n: int) -> GroupElement:
    return GroupElement(ell, n, (0,) * n, tuple(range(1, n + 1)))


def simple_transposition(ell: int, n: int, i: int) -> GroupElement:
    """s_i, swapping i and i+1 (1 <= i <= n-1)."""
    if not 1 <= i <= n - 1:
        raise IndexError(f"s_{i} does not exist for n={n}")
    perm = list(range(1, n + 1))
    perm[i - 1], perm[i] = perm[i], perm[i - 1]
    return GroupElement(ell, n, (0,) * n, tuple(perm))


def transposition(ell: int, n: int, i: int, j: int) -> GroupElement:
    if i == j or not (1 <= i <= n and 1 <= j <= n):
        raise IndexError(f"transposition ({i} {j}) out of range for n={n}")
    perm = list(range(1, n + 1))
    perm[i - 1], perm[j - 1] = perm[j - 1], perm[i - 1]
    return GroupElement(ell, n, (0,) * n, tuple(perm))


def color_generator(ell: int, n: int, i: int, k: int = 1) -> GroupElement:
    """zeta_i^k."""
    if not 1 <= i <= n:
        raise IndexError(f"zeta_{i} does not exist for n={n}")
    colors = [0] * n
    colors[i - 1] = k % ell
    return GroupElement(ell, n, tuple(colors), tuple(range(1, n + 1)))


def reduced_word(g: GroupElement) -> list[int]:
    """A reduced word for a bare permutation in the simple transpositions."""
    if any(g.colors):
        raise ValueError("only pure permutations have a reduced word")
    return _perm_word(g.perm)


def _perm_word(perm) -> list[int]:
    """Indices i with perm = s_{i_1} ... s_{i_k}, via bubble sort.

    Swapping a descent at positions (j, j+1) of the one-line notation is
    right multiplication by s_j, so sorting to the identity spells the word
    in reverse.
    """
    line = list(perm)
    swaps = []
    done = False
    while not done:
        done = True
        for j in range(len(line) - 1):
            if line[j] > line[j + 1]:
                line[j], line[j + 1] = line[j + 1], line[j]
                swaps.append(j + 1)
                done = False
    return swaps[::-1]


class GroupAlgebraElement:
    """Finite Q(zeta_ell)-linear combination of group elements."""

    __slots__ = ("ell", "n", "terms")

    def __init__(self, ell: int, n: int, terms=None):
        self.ell = ell
        self.n = n
        self.terms: dict[GroupElement, Cyc] = {}
        if terms:
            for g, c in (terms.items() if isinstance(terms, dict) else terms):
                self._add_term(g, self._coerce(c))

    def _coerce(self, c) -> Cyc:
        if isinstance(c, Cyc):
            if c.ell != self.ell:
                raise DimensionMismatch("coefficient over a different field")
            return c
        return Cyc.from_rational(self.ell, c)

    def _add_term(self, g: GroupElement, c: Cyc):
        _same_group(self, g)
        acc = self.terms.get(g)
        acc = c if acc is None else acc + c
        if acc.is_zero():
            self.terms.pop(g, None)
        else:
            self.terms[g] = acc

    @classmethod
    def from_group(cls, g: GroupElement, coeff=1) -> "GroupAlgebraElement":
        return cls(g.ell, g.n, [(g, coeff)])

    def __add__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        _same_group(self, other)
        out = GroupAlgebraElement(self.ell, self.n, self.terms)
        for g, c in other.terms.items():
            out._add_term(g, c)
        return out

    def __neg__(self) -> "GroupAlgebraElement":
        return GroupAlgebraElement(self.ell, self.n,
                                   [(g, -c) for g, c in self.terms.items()])

    def __sub__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        return self + (-other)

    def __mul__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        _same_group(self, other)
        out = GroupAlgebraElement(self.ell, self.n)
        for g, c in self.terms.items():
            for h, d in other.terms.items():
                out._add_term(g * h, c * d)
        return out

    def scale(self, scalar) -> "GroupAlgebraElement":
        scalar = self._coerce(scalar)
        return GroupAlgebraElement(self.ell, self.n,
                                   [(g, scalar * c) for g, c in self.terms.items()])

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        return (self.ell, self.n) == (other.ell, other.n) and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self) -> str:
        return f"GroupAlgebraElement({self.ell},{self.n}; {len(self.terms)} terms)"


def jm_element(ell: int, n: int, i: int) -> GroupAlgebraElement:
    """The i-th Jucys-Murphy sum: over j < i and all colors k, the element
    zeta_i^k zeta_j^{-k} (i j).  Empty (zero) for i = 1."""
    if not 1 <= i <= n:
        raise IndexError(f"index {i} out of range for n={n}")
    return GroupAlgebraElement(ell, n, [
        (color_generator(ell, n, i, k) * color_generator(ell, n, j, -k)
         * transposition(ell, n, i, j), 1)
        for j in range(1, i) for k in range(ell)])


def pi_element(ell: int, n: int, i: int) -> GroupAlgebraElement:
    """sum_k zeta_i^k zeta_{i+1}^{-k}, the color-averaging factor appearing
    in the mixed commutation relation at position i."""
    if not 1 <= i <= n - 1:
        raise IndexError(f"index {i} out of range for n={n}")
    return GroupAlgebraElement(ell, n, [
        (color_generator(ell, n, i, k) * color_generator(ell, n, i + 1, -k), 1)
        for k in range(ell)])


def evaluate_in_module(x, module):
    """Matrix of a group (algebra) element in a module (ell, n, dim, mat_s
    and the weights of its basis vectors).  zeta^a w maps to the diagonal
    matrix with entry zeta^(a_1 b_1 + ... + a_n b_n) on a basis vector with
    color exponents b, times the product of s-matrices spelling w, summed
    over the terms with their coefficients.  A term builds zeta^k only for
    the exponents k that occur on the basis.
    """
    if isinstance(x, GroupElement):
        x = GroupAlgebraElement.from_group(x)
    ell = module.ell
    if x.ell != ell or x.n != module.n:
        raise DimensionMismatch(
            f"element of C[G({x.ell},1,{x.n})] in a module for ({ell},{module.n})")
    total = Mat.zero(ell, module.dim)
    for g, coeff in x.terms.items():
        exponents = [sum(a * b for a, b in zip(g.colors, w.b)) % ell for w in module.weights]
        scaled = {k: coeff * root_of_unity(ell, k) for k in set(exponents)}
        m = Mat.diagonal(ell, [scaled[k] for k in exponents])
        for i in _perm_word(g.perm):
            m = m * module.mat_s[i - 1]
        total = total + m
    return total
