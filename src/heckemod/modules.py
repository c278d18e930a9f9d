"""Seminormal modules on standard tableaux of a multi-coordinate skew shape.

``build_module`` realizes the simple module attached to a shape D: the basis
is SYT(D), the polynomial generators u_i and the color generators zeta_i act
diagonally through the weight of each tableau, and the simple transpositions
act by the rational seminormal rule driven by content differences.  The rest
of the module is verification machinery: exhaustive relation checks,
intertwiner checks, a commutant-dimension irreducibility oracle, central
characters, Jucys-Murphy consistency on partition shapes, and the two
automorphism twists (content shift and index reversal).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import compress
from math import gcd, lcm
from operator import add, mul

from .cyclo import Cyc, fraction_from_str, root_of_unity
from .errors import DimensionMismatch, HeckemodError, NotAPartition, NotScalar
from .linalg import Mat, _diagonal, _new, block_diag, nullspace_dim
from .shapes import (SkewShapeL, Weight, enumerate_syt, is_partition_shape, shape_to_json,
                     tableau_to_json, weight_to_json)


@dataclass(frozen=True)
class ModuleRep:
    """A module given by its s-matrices and the weights of its basis vectors.

    u_i and zeta_i act diagonally: on basis vector t, u_i by the eigenvalue
    ``weights[t].a[i-1]`` and zeta_i by zeta^``weights[t].b[i-1]`` (a color
    exponent in 0..ell-1); ``generator_matrix`` turns them into matrices.
    ``shape`` is the shape it was built from, its basis ``enumerate_syt(shape)``;
    twists and direct sums set it to None, and equality ignores it.
    """

    ell: int
    n: int
    dim: int
    mat_s: tuple[Mat, ...]
    weights: tuple[Weight, ...]
    shape: SkewShapeL | None = field(default=None, compare=False)

    __hash__ = None

    @cached_property
    def _scaled(self) -> tuple[list[list[int]], int, list[list[int]]]:
        """U, den and B, read from ``weights`` once per module: u_{i+1} acts on
        basis vector t by U[i][t] / den (den the common denominator of every
        u-eigenvalue) and zeta_{i+1} by zeta^B[i][t], B[i][t] in 0..ell-1."""
        ell, weights = self.ell, self.weights
        den = lcm(*(x.denominator for w in weights for x in w.a))
        u = [[w.a[i].numerator * (den // w.a[i].denominator) for w in weights]
             for i in range(self.n)]
        b = [[w.b[i] % ell for w in weights] for i in range(self.n)]
        return u, den, b

    @cached_property
    def _forms(self) -> tuple:
        """The involution form (P, A, C) of each s-matrix's integer rows
        (``_involution_form``), read once per module.  None for a matrix
        with no such form, and for one whose size or field disagrees with
        the module (not dim x dim over Q(zeta_ell), or a weight count other
        than dim): the lists would not line up, so the products check it."""
        dim = self.dim
        return tuple(_involution_form(m) if (m.ell, m.nrows, m.ncols, len(self.weights))
                     == (self.ell, dim, dim, dim) else None for m in self.mat_s)


@dataclass(frozen=True)
class RelationCheck:
    name: str
    ok: bool
    witness: tuple[int, int, str] | None = None


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[RelationCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[RelationCheck]:
        return [c for c in self.checks if not c.ok]

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [
                {"relation": c.name, "ok": c.ok,
                 **({"witness": {"row": c.witness[0], "col": c.witness[1],
                                 "value": c.witness[2]}} if c.witness else {})}
                for c in self.checks
            ],
        }


@lru_cache(maxsize=1 << 14)
def _holds(name: str) -> RelationCheck:
    """The passing check of a relation, built once per name: a check is
    frozen, so every report shares it."""
    return RelationCheck(name, True)


def _report(name: str, left: Mat, right: Mat) -> RelationCheck:
    """The check of the relation left = right, decided by ``==``.  Only a
    failing relation forms its residual left - right, whose least nonzero
    entry is the witness, read out as a Cyc."""
    if left == right:
        return _holds(name)
    residual = left - right
    p = min(residual.rows)
    q = min(residual.rows[p])
    return RelationCheck(name, False, (p, q, repr(residual[p, q])))


def _side_report(name: str, x: Mat, col: list[int], row: list[int], value,
                 negate: bool = False) -> RelationCheck:
    """``_report`` for x diag(value(col)) - diag(value(row)) x, for integer
    keys col and row of an injective ``value``: the u-eigenvalues as
    integers over their common denominator, or the color exponents of
    zeta.  Its entry (p, q) is x[p, q] (value(col[q]) - value(row[p])),
    nonzero exactly where x[p, q] is and col[q] != row[p], so only the
    witness is computed in the field."""
    key = min([(p, q) for p, entries in x.rows.items() for q in entries if col[q] != row[p]],
              default=None)
    if key is None:
        return _holds(name)
    p, q = key
    witness = x[p, q] * (value(col[q]) - value(row[p]))
    return RelationCheck(name, False, (p, q, repr(-witness if negate else witness)))


def _pi_values(module: ModuleRep, i: int) -> list[int]:
    """The eigenvalue of pi_i = sum_k zeta_i^k zeta_{i+1}^-k on each basis
    vector: the geometric sum of zeta^(b_i - b_{i+1}), ell where
    b_i = b_{i+1} mod ell and 0 otherwise."""
    ell, b = module.ell, module._scaled[2]
    return [ell if x == y else 0 for x, y in zip(b[i - 1], b[i])]


# ---------------------------------------------------------------------------
# involution forms
#
# Each s_i of a seminormal module maps basis vector p into span{p, P p} for an
# involution P of the basis, so its integer rows are row p = A[p] e_p +
# C[p] e_{P p}.  The checks below decide an identity on these lists, slot by
# slot: a row of a product of such forms has its terms at the columns reached
# through P and Q, and equal values at equal columns give equal matrices.  A
# check that does not hold decides nothing; its identity goes to the matrix
# products, which also form the witness.

def _involution_form(m: Mat) -> tuple[list[int], list[int], list[int]] | None:
    """(P, A, C) with row p of m's integer rows A[p] e_p + C[p] e_{P[p]} and
    C[p] = 0 exactly where P[p] = p; None when an entry is not an int, a row
    holds an entry outside {p, P[p]}, or P is not an involution."""
    dim = m.nrows
    P, A, C = list(range(dim)), [0] * dim, [0] * dim
    for p, row in m.rows.items():
        for q, x in row.items():
            if x.__class__ is not int:
                return None
            if q == p:
                A[p] = x
            elif C[p]:
                return None
            else:
                P[p], C[p] = q, x
    return (P, A, C) if _at(P, P) == list(range(dim)) else None


def _at(values: list, keys) -> list:
    """values[k] for each k of keys: a list composed with a permutation."""
    return list(map(values.__getitem__, keys))


def _scaled_by(values: list, f: int) -> list:
    return values if f == 1 else [x * f for x in values]


def _square_holds(form, target: list[int]) -> bool:
    """X^2 = diag(target) for the form X = (P, A, C): slot p of row p is
    A^2 + C C(P), slot P p is C (A + A(P))."""
    P, A, C = form
    return ([a * a + c * cp for a, c, cp in zip(A, C, _at(C, P))] == target
            and not any(map(mul, C, map(add, A, _at(A, P)))))


def _pairs(form) -> tuple[list[int], list[int]]:
    """The rows p of the form (P, A, C) with an off-diagonal entry, C[p] != 0,
    and their partners P p."""
    P, _, C = form
    return list(compress(range(len(P)), C)), list(compress(P, C))


def _side_holds(A: list[int], pairs, col: list[int], row: list[int]) -> bool:
    """X diag(col) = diag(row) X for a form X = (P, A, C) with ``_pairs``
    pairs, and integer keys of an injective value, as in ``_side_report``:
    col[q] = row[p] at every nonzero entry (p, q), the diagonal ones masked
    by A, the others at the pairs."""
    rows, partners = pairs
    return ((col is row or list(compress(col, A)) == list(compress(row, A)))
            and _at(col, partners) == _at(row, rows))


def _commute_holds(f, g) -> bool:
    """F G = G F for the forms F = (P, A, C) and G = (Q, B, D).  Row p of
    F G holds A B at p, A D at Q p, C B(P) at P p and C D(P) at Q P p; of
    G F, B A, D A(Q), B C and D C(Q) at P Q p.  So A = A(Q) where D is
    nonzero, B = B(P) where C is, C D(P) = D C(Q), and where that last slot
    is nonzero, Q P = P Q."""
    P, A, C = f
    Q, B, D = g
    if (list(compress(A, D)) != _at(A, compress(Q, D))
            or list(compress(B, C)) != _at(B, compress(P, C))):
        return False
    last = list(map(mul, C, _at(D, P)))
    return (last == list(map(mul, D, _at(C, Q)))
            and list(compress(_at(Q, P), last)) == list(compress(_at(P, Q), last)))


def _braid_holds(f, lf: int, g, lg: int) -> bool:
    """lg F G F = lf G F G for the forms F = (P, A, C) and G = (Q, B, D),
    integer rows over the denominators lf and lg.  Row p of H = F G holds
    H0 = A B at p, H1 = A D at Q p, H2 = C B(P) at P p and H3 = C D(P) at
    Q P p.  So row p of H F has its terms at p, P p, Q p, P Q p, Q P p and
    P Q P p, and of G H at the same five and at Q P Q p: the six slots are
    compared, and the keys of the last where it is nonzero."""
    P, A, C = f
    Q, B, D = g
    QP = _at(Q, P)
    H = (list(map(mul, A, B)), list(map(mul, A, D)),
         list(map(mul, C, _at(B, P))), list(map(mul, C, _at(D, P))))
    H0, H1, H2, H3 = H
    H0Q, H1Q, H2Q, H3Q = (_at(h, Q) for h in H)
    L0, L1, L2, L3 = H if lg == 1 else ([x * lg for x in h] for h in H)
    B, D = _scaled_by(B, lf), _scaled_by(D, lf)
    slots = (
        (map(add, map(mul, L0, A), map(mul, L2, _at(C, P))),
         map(add, map(mul, B, H0), map(mul, D, H1Q))),
        (map(add, map(mul, L0, C), map(mul, L2, _at(A, P))), map(mul, B, H2)),
        (map(mul, L1, _at(A, Q)), map(add, map(mul, B, H1), map(mul, D, H0Q))),
        (map(mul, L1, _at(C, Q)), map(mul, D, H2Q)),
        (map(mul, L3, _at(A, QP)), map(mul, B, H3)))
    for left, right in slots:
        if list(left) != list(right):
            return False
    last = list(map(mul, L3, _at(C, QP)))
    return (last == list(map(mul, D, H3Q))
            and list(compress(_at(P, QP), last)) == list(compress(_at(QP, Q), last)))


def _crossing_holds(A: list[int], pairs, scale: int, ui: list[int], unext: list[int],
                    pis: list[int]) -> bool:
    """X U_i + scale pi = U_{i+1} X for a form X = (P, A, C) with ``_pairs``
    pairs: slot p is A U_i + scale pi against U_{i+1} A, and slot P p holds
    C U_i(P) against U_{i+1} C, so U_i(P) = U_{i+1} at the pairs."""
    rows, partners = pairs
    return ([a * x + scale * pi for a, x, pi in zip(A, ui, pis)] == list(map(mul, unext, A))
            and _at(ui, partners) == _at(unext, rows))


def _jm_step_holds(form, lden: int, den: int, ui: list[int], unext: list[int],
                   pis: list[int]) -> bool:
    """X U_i X + L den pi X = L^2 U_{i+1} for the form X = (P, A, C) of
    integer rows over L = lden: slot p is A (A U_i + L den pi) +
    C C(P) U_i(P) against L^2 U_{i+1}, and slot P p is
    C (A U_i + A(P) U_i(P) + L den pi), which must vanish."""
    P, A, C = form
    k, up = lden * den, _at(ui, P)
    return ([a * (a * x + k * pi) + c * cp * xp
             for a, c, cp, x, xp, pi in zip(A, C, _at(C, P), ui, up, pis)]
            == _scaled_by(unext, lden * lden)
            and not any([c * (a * x + ap * xp + k * pi)
                         for a, c, ap, x, xp, pi in zip(A, C, _at(A, P), ui, up, pis)]))


# ---------------------------------------------------------------------------
# construction

def build_module(shape: SkewShapeL) -> ModuleRep:
    """The seminormal module on SYT(shape).

    On a basis vector f_T with labels i, i+1 in boxes b, b' (content
    difference d = ct(b') - ct(b)):

      * different coordinates: s_i f_T = f_{s_i T};
      * b' adjacent right of b: s_i f_T = f_T (d = 1);
      * b' adjacent below b: s_i f_T = -f_T (d = -1);
      * otherwise s_i f_T = (1/d) f_T + gamma f_{s_i T}, where gamma = 1 when
        i sits in the reading-earlier box and 1 - 1/d^2 when it does not.
    """
    ell = shape.ell
    n = shape.n
    ctx = shape._ctx
    positions = ctx.all_positions()
    index = {p: t for t, p in enumerate(positions)}
    dim = len(positions)
    content, beta = ctx.content, ctx.beta

    # contents as integers over one common denominator cd: a content
    # difference is D / cd, so 1/d = cd / D and 1 - 1/d^2 = (D^2 - cd^2) / D^2,
    # and s_i is written as integer rows over the lcm of its entries'
    # denominators, without a Fraction per entry
    cd = lcm(*(x.denominator for x in content))
    cint = [x.numerator * (cd // x.denominator) for x in content]
    mats = []
    for i in range(1, n):
        # column t of s_i as (t, the row of its off-diagonal entry or None,
        # D and cd over their gcd, with 0 for D where there is no diagonal
        # entry, and whether the off-diagonal entry is 1)
        cols = []
        dens = {1}
        for t, pos in enumerate(positions):
            b1, b2 = pos[i - 1], pos[i]
            if beta[b1] != beta[b2]:
                cols.append((t, index[pos[:i - 1] + (b2, b1) + pos[i + 1:]], 0, 1, True))
                continue
            d = cint[b2] - cint[b1]
            if b2 in ctx.blocked[b1]:
                cols.append((t, None, d // cd, 1, True))  # d = +-1: row or column neighbor
                continue
            if d in (0, cd, -cd):  # the gap rule and standardness exclude this
                raise HeckemodError(f"build_module: content difference "
                                    f"{Fraction(d, cd)} between non-adjacent boxes")
            g = gcd(d, cd)
            dd, cc, one = d // g, cd // g, b1 < b2
            dens.add(abs(dd) if one else dd * dd)
            cols.append((t, index[pos[:i - 1] + (b2, b1) + pos[i + 1:]], dd, cc, one))
        den = lcm(*dens)
        rows: dict = {}
        for t, target, dd, cc, one in cols:
            if dd:
                rows.setdefault(t, {})[t] = den // dd * cc
            if target is not None:
                rows.setdefault(target, {})[t] = den if one else (dd * dd - cc * cc) * (den // (dd * dd))
        mats.append(_new(ell, dim, dim, den, rows))

    return ModuleRep(ell, n, dim, tuple(mats), tuple(map(ctx.weight, positions)), shape)


def direct_sum(m1: ModuleRep, m2: ModuleRep) -> ModuleRep:
    if (m1.ell, m1.n) != (m2.ell, m2.n):
        raise DimensionMismatch("summands over different algebras")
    return ModuleRep(m1.ell, m1.n, m1.dim + m2.dim,
                     tuple(block_diag(m1.ell, [x, y]) for x, y in zip(m1.mat_s, m2.mat_s)),
                     m1.weights + m2.weights)


# ---------------------------------------------------------------------------
# generator access

def _correction(module: ModuleRep, i: int) -> tuple[list[int], int]:
    """The correction c of tau_i = s_i - c, from the module's u-eigenvalues
    U / den: the diagonal pi/(u_{i+1} - u_i) = pi den/(U[i] - U[i-1]) on each
    basis vector, zero where pi vanishes, as integers over a positive scale."""
    u, den, _ = module._scaled
    pis = _pi_values(module, i)
    gaps = [hi - lo for hi, lo in zip(u[i], u[i - 1])]
    for t, (pi, gap) in enumerate(zip(pis, gaps)):
        if pi and not gap:
            raise ZeroDivisionError(
                f"intertwiner {i} undefined: equal u-eigenvalues with "
                f"matching color at basis vector {t}")
    scale = lcm(*(gap for pi, gap in zip(pis, gaps) if pi))
    return [pi * den * (scale // gap) if pi else 0 for pi, gap in zip(pis, gaps)], scale


def _tau(module: ModuleRep, i: int) -> tuple[Mat, Mat]:
    """tau_i = s_i - c and its correction c (``_correction``) as matrices."""
    c = _diagonal(module.ell, *_correction(module, i))
    return module.mat_s[i - 1] - c, c


def generator_matrix(module: ModuleRep, kind: str, i: int) -> Mat:
    """Matrix of a named generator: kind in {"u", "zeta", "s", "tau", "pi"},
    index 1-based (u/zeta: 1..n, s/tau/pi: 1..n-1)."""
    ell, n = module.ell, module.n
    if kind in ("u", "zeta"):
        if not 1 <= i <= n:
            raise IndexError(f"{kind}_{i} out of range for n={n}")
        u, den, b = module._scaled
        if kind == "zeta":
            roots = {k: root_of_unity(ell, k) for k in set(b[i - 1])}
            return Mat.diagonal(ell, [roots[k] for k in b[i - 1]])
        return _diagonal(ell, u[i - 1], den)
    if kind in ("s", "tau", "pi"):
        if not 1 <= i <= n - 1:
            raise IndexError(f"{kind}_{i} out of range for n={n}")
        if kind == "s":
            return module.mat_s[i - 1].copy()
        if kind == "tau":
            return _tau(module, i)[0]
        return Mat.diagonal(ell, _pi_values(module, i))
    raise ValueError(f"unknown generator kind {kind!r}")


# ---------------------------------------------------------------------------
# verification

def verify_relations(module: ModuleRep) -> VerificationReport:
    """Exact check of every defining relation: the symmetric-group and
    color-group relations, the commutation relations between the polynomial
    and group generators, and the mixed crossing relation
    s_i u_i = u_{i+1} s_i - pi_i (pi_i from ``_pi_values``).

    Everything runs on the integer rows S_i = L_i s_i of the s-matrices,
    L_i their denominator ``den``: S_i^2 = L_i^2 I, L_{i+1} S_i S_{i+1} S_i =
    L_i S_{i+1} S_i S_{i+1} and S_i S_j = S_j S_i.  A relation with a diagonal
    side, X D = D' X, holds exactly when X[p, q] (d_q - d'_p) vanishes at every
    nonzero entry of X: an integer test for the u-eigenvalues over their
    common denominator, and for zeta a comparison of color exponents.  The
    crossing relation compares S_i U_i + L_i den pi_i with U_{i+1} S_i, U_i
    the diagonal of u_i over that denominator.  Each relation is first
    decided on the involution forms of the S_i (``ModuleRep._forms``) by
    whole-list comparisons; one that those do not confirm, or whose s-matrix
    has no such form, is decided again by exact matrix products (``_report``,
    ``_side_report``), which also form a failing relation's witness.  The
    relations among the diagonal generators (zeta_i^ell = 1 and the zeta/u
    commutations) hold by the storage, which gives each zeta_i as zeta^b with
    an integer b and every diagonal generator as an eigenvalue vector on one
    basis, so they are reported without arithmetic."""
    ell, n, dim = module.ell, module.n, module.dim
    s, forms = module.mat_s, module._forms
    pairs = [form and _pairs(form) for form in forms]
    u, den, z = module._scaled
    rational, root = partial(Fraction, denominator=den), partial(root_of_unity, ell)
    checks = []
    add = checks.append

    def side(name, i, col, row, value):
        form = forms[i - 1]
        add(_holds(name) if form and _side_holds(form[1], pairs[i - 1], col, row)
            else _side_report(name, s[i - 1], col, row, value))

    for i in range(1, n):
        name, x, sq = f"s{i}^2=1", s[i - 1], s[i - 1].den ** 2
        add(_holds(name) if forms[i - 1] and _square_holds(forms[i - 1], [sq] * dim)
            else _report(name, x * x, _diagonal(ell, [sq] * dim, sq)))
    for i in range(1, n - 1):
        name, x, y, f, g = (f"s{i}s{i + 1}s{i}=s{i + 1}s{i}s{i + 1}", s[i - 1], s[i],
                            forms[i - 1], forms[i])
        add(_holds(name) if f and g and _braid_holds(f, x.den, g, y.den)
            else _report(name, x * y * x, y * x * y))
    for i in range(1, n):
        for j in range(i + 2, n):
            name, x, y, f, g = f"s{i}s{j}=s{j}s{i}", s[i - 1], s[j - 1], forms[i - 1], forms[j - 1]
            add(_holds(name) if f and g and _commute_holds(f, g) else _report(name, x * y, y * x))
    for i in range(1, n + 1):
        add(_holds(f"zeta{i}^{ell}=1"))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            add(_holds(f"zeta{i}zeta{j}=zeta{j}zeta{i}"))
    for i in range(1, n):
        side(f"s{i}zeta{i}=zeta{i + 1}s{i}", i, z[i - 1], z[i], root)
        for j in range(1, n + 1):
            if j not in (i, i + 1):
                side(f"s{i}zeta{j}=zeta{j}s{i}", i, z[j - 1], z[j - 1], root)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            add(_holds(f"zeta{i}u{j}=u{j}zeta{i}"))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            add(_holds(f"u{i}u{j}=u{j}u{i}"))
    for i in range(1, n):
        for j in range(1, n + 1):
            if j not in (i, i + 1):
                side(f"s{i}u{j}=u{j}s{i}", i, u[j - 1], u[j - 1], rational)
        name, x, form, pis = f"s{i}u{i}=u{i + 1}s{i}-pi{i}", s[i - 1], forms[i - 1], _pi_values(module, i)
        if form and _crossing_holds(form[1], pairs[i - 1], x.den * den, u[i - 1], u[i], pis):
            add(_holds(name))
        else:
            ui, unext = (_diagonal(ell, u[k], den) for k in (i - 1, i))
            add(_report(name, x * ui + _diagonal(ell, pis), unext * x))
    return VerificationReport(tuple(checks))


def verify_intertwiners(module: ModuleRep) -> VerificationReport:
    """Exact checks that the tau_i behave as weight intertwiners:

    (a) u_j tau_i = tau_i u_{s_i(j)} and the same with zeta, entry by entry
        as in ``verify_relations``;
    (b) tau_i^2 is diagonal with entry ((u_i-u_{i+1})^2 - pi^2)/(u_i-u_{i+1})^2
        evaluated on each basis vector (taken to be 1 where pi vanishes);
    (c) the braid relation for tau.

    Each correction c = pi/(u_{i+1} - u_i) of tau_i = s_i - c is computed
    once by ``_correction``, whose guard runs for every i before any check,
    and the expected tau_i^2 is 1 - c^2.  tau_i has the partner list of s_i,
    so its involution form is that of s_i minus c, over lcm(L_i, scale), and
    every check is first decided on these forms as in ``verify_relations``.
    The matrices tau_i and c (``_tau``) are built only for a check that the
    forms do not confirm, whose products decide it and form its witness.
    """
    ell, n, dim = module.ell, module.n, module.dim
    u, den, z = module._scaled
    rational, root = partial(Fraction, denominator=den), partial(root_of_unity, ell)
    corrections = [_correction(module, i) for i in range(1, n)]
    taus: dict[int, tuple[Mat, Mat]] = {}

    def mats(i):
        if i not in taus:
            taus[i] = _tau(module, i)
        return taus[i]

    # the form of tau_i, its denominator, the integer diagonal of tau_i^2
    # and the pairs of s_i
    forms = []
    for form, m, (values, scale) in zip(module._forms, module.mat_s, corrections):
        if form is None:
            forms.append((None, None, None, None))
            continue
        P, A, C = form
        top = lcm(m.den, scale)
        f, g = top // m.den, top // scale
        forms.append(((P, [a * f - x * g for a, x in zip(A, values)], _scaled_by(C, f)),
                      top, [top * top - (x * g) ** 2 for x in values], _pairs(form)))
    checks = []
    add = checks.append

    def side(name, i, col, row, value):
        form, _, _, pairs = forms[i - 1]
        add(_holds(name) if form and _side_holds(form[1], pairs, col, row)
            else _side_report(name, mats(i)[0], col, row, value, negate=True))

    for i in range(1, n):
        for j in range(1, n + 1):
            k = {i: i + 1, i + 1: i}.get(j, j)
            side(f"u{j}tau{i}=tau{i}u{k}", i, u[k - 1], u[j - 1], rational)
            side(f"zeta{j}tau{i}=tau{i}zeta{k}", i, z[k - 1], z[j - 1], root)
        name, (form, _, target, _) = (f"tau{i}^2=((u{i}-u{i + 1})^2-pi^2)/(u{i}-u{i + 1})^2",
                                      forms[i - 1])
        if form and _square_holds(form, target):
            add(_holds(name))
        else:
            tau, c = mats(i)
            add(_report(name, tau * tau, Mat.identity(ell, dim) - c * c))
    for i in range(1, n - 1):
        name, (f, lf, _, _), (g, lg, _, _) = (f"tau{i}tau{i + 1}tau{i}=tau{i + 1}tau{i}tau{i + 1}",
                                              forms[i - 1], forms[i])
        if f and g and _braid_holds(f, lf, g, lg):
            add(_holds(name))
        else:
            x, y = mats(i)[0], mats(i + 1)[0]
            add(_report(name, x * y * x, y * x * y))
    return VerificationReport(tuple(checks))


def _components(size: int, edges) -> int:
    """The number of connected components of the graph on 0..size-1 with the
    given edges, by union-find."""
    parent = list(range(size))

    def root(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    count = size
    for p, q in edges:
        a, b = root(p), root(q)
        if a != b:
            parent[a] = b
            count -= 1
    return count


def commutant_dimension(module: ModuleRep) -> int:
    """Dimension of the space of matrices commuting with every generator.

    Commuting with the diagonal u- and zeta-matrices forces X[s, t] = 0
    unless basis vectors s, t carry the same full weight, so only those
    entries are kept as unknowns.  When every weight is distinct, the
    unknowns are the diagonal entries x_t and the s-matrix equations read
    g[p, q] (x_p - x_q) = 0, so the dimension is the number of connected
    components of the support graph of the s_i.  Otherwise the equations
    are solved exactly.  Value 1 certifies irreducibility.
    """
    ell = module.ell
    classes: dict = {}
    for t, w in enumerate(module.weights):
        classes.setdefault(w, []).append(t)
    if len(classes) == module.dim:
        return _components(module.dim, ((p, q) for g in module.mat_s
                                        for p, row in g.rows.items() for q in row))
    var: dict[tuple[int, int], int] = {}
    for members in classes.values():
        for a in members:
            for b in members:
                var[(a, b)] = len(var)

    same = {t: classes[w] for t, w in enumerate(module.weights)}
    system = []
    for g in module.mat_s:
        eqs: dict[tuple[int, int], dict[int, Cyc]] = {}

        def bump(eq_key, v, coef):
            row = eqs.setdefault(eq_key, {})
            row[v] = row.get(v, Cyc.zero(ell)) + coef

        # residual of X g - g X at (i, j), keeping only the allowed unknowns
        entries = [(p, q, g[p, q]) for p, row in g.rows.items() for q in row]
        for k, j, gv in entries:
            for i in same[k]:
                bump((i, j), var[(i, k)], gv)
        for i, k, gv in entries:
            for j in same[k]:
                bump((i, j), var[(k, j)], -gv)
        system.extend(eqs.values())
    return nullspace_dim(system, len(var), ell)


def _elementary(values) -> list:
    """e_1..e_m of the m values (ints or field elements): the coefficients
    of prod (x + v) below the leading one."""
    coeffs = [1] + [0] * len(values)
    for m, v in enumerate(values, 1):
        for k in range(m, 0, -1):
            coeffs[k] = coeffs[k] + v * coeffs[k - 1]
    return coeffs[1:]


def central_character(module: ModuleRep) -> list[Cyc]:
    """Scalars of the elementary symmetric polynomials e_1..e_n in the u's
    followed by e_1..e_n in the zetas.  NotScalar if any evaluation fails to
    be a scalar matrix.

    e_k on a basis vector depends only on the multiset of its eigenvalues,
    so it is evaluated once per distinct multiset: for the u's in integers,
    on the module's u-eigenvalues U over their common denominator den (so
    e_k is E_k / den^k), and for the zetas in the field, on the roots of
    unity of the color exponents B that occur."""
    ell = module.ell
    u, den, b = module._scaled
    exponents = {tuple(sorted(v)) for v in zip(*b)}
    roots = {k: root_of_unity(ell, k) for k in set().union(*exponents)}
    u_values = [_elementary(key) for key in {tuple(sorted(v)) for v in zip(*u)}]
    zeta_values = [_elementary([roots[k] for k in key]) for key in exponents]
    for per_multiset, label in ((u_values, "u"), (zeta_values, "zeta")):
        for k in range(module.n):
            scalars = {e[k] for e in per_multiset}
            if len(scalars) > 1:
                raise NotScalar(
                    f"e_{k + 1}({label}) takes {len(scalars)} distinct values")
    out = [Cyc.from_rational(ell, Fraction(e, den ** k))
           for k, e in enumerate(u_values[0] if u_values else [], 1)]
    return out + (zeta_values[0] if zeta_values else [])


# ---------------------------------------------------------------------------
# twists

def twist(module: ModuleRep, auto: str, kappa=None) -> ModuleRep:
    """Relabel the module through an automorphism.

    ``auto="t"`` shifts every u-eigenvalue by the rational kappa (an int, a
    Fraction or a string such as "-3/2"; a float or bool raises ValueError);
    ``auto="rho"`` reverses indices: u_i -> -u_{n-i+1},
    zeta_i -> zeta_{n-i+1}, s_i -> s_{n-i}.  The result carries no shape.
    """
    ell, n = module.ell, module.n
    if auto == "t":
        if kappa is None:
            raise ValueError("content-shift twist needs a rational kappa")
        kappa = kappa if type(kappa) is Fraction else fraction_from_str(kappa, "kappa")
        return ModuleRep(ell, n, module.dim, module.mat_s, tuple(
            Weight(tuple(x + kappa for x in w.a), w.b) for w in module.weights))
    if auto == "rho":
        if kappa is not None:
            raise ValueError("index-reversal twist takes no parameter")
        return ModuleRep(
            ell, n, module.dim,
            tuple(module.mat_s[n - 2 - i] for i in range(n - 1)),
            tuple(Weight(tuple(-x for x in reversed(w.a)), w.b[::-1])
                  for w in module.weights))
    raise ValueError(f"unknown automorphism {auto!r}")


# ---------------------------------------------------------------------------
# Jucys-Murphy consistency

def jm_consistency(module: ModuleRep) -> VerificationReport:
    """Check that the group-algebra Jucys-Murphy sums reproduce the diagonal
    u-matrices.  Only meaningful when the module comes from a tuple of
    partitions (so its restriction to the group is the usual seminormal
    module); anything else is refused.

    phi_i = sum over j < i and colors k of zeta_i^k zeta_j^-k (j i) is built
    by the Okounkov-Vershik recurrence phi_1 = 0,
    phi_{i+1} = s_i phi_i s_i + pi_i s_i (pi_i from ``_pi_values``).  While
    the last check holds, phi_i = u_i, so phi_{i+1} is
    s_i u_i s_i + pi_i s_i, compared with u_{i+1} as two lists on the
    involution form of s_i (``_jm_step_holds``).  A step those do not
    confirm rebuilds phi_i as the diagonal of u_i, and the recurrence runs
    on sparse products, two per step, until a check holds again.  It is an identity in
    the group algebra, so wherever the s-only and s-zeta relations hold the
    matrices, and the reports, are those of ``grpalg.evaluate_in_module``.
    On a module where those relations fail, the report is that of the
    recurrence's matrices; ``verify_relations`` rejects such a module."""
    if module.shape is None or not is_partition_shape(module.shape):
        raise NotAPartition(
            "Jucys-Murphy comparison needs a module built from partitions "
            "anchored at content 0")
    ell, s, forms = module.ell, module.mat_s, module._forms
    u, den, _ = module._scaled
    phi, held = Mat.zero(ell, module.dim), True  # held: the last check held
    checks = []
    for i in range(1, module.n + 1):
        name = f"phi{i}=u{i}"
        if i > 1:
            si, pis, form = s[i - 2], _pi_values(module, i - 1), forms[i - 2]
            if held:  # phi_{i-1} = u_{i-1}
                if form is not None and _jm_step_holds(form, si.den, den, u[i - 2], u[i - 1], pis):
                    checks.append(_holds(name))
                    continue
                phi = _diagonal(ell, u[i - 2], den)
            phi = si * phi * si + _diagonal(ell, pis) * si
        check = _report(name, phi, _diagonal(ell, u[i - 1], den))
        checks.append(check)
        held = check.ok
    return VerificationReport(tuple(checks))


# ---------------------------------------------------------------------------
# serialization

def _mat_to_json(m: Mat) -> dict:
    return {"rows": m.nrows,
            "entries": [[i, j, m[i, j].to_json()] for i in sorted(m.rows) for j in sorted(m.rows[i])]}


def _mat_to_dense_json(m: Mat) -> list:
    return [[v.to_json() for v in row] for row in m.dense()]


def module_to_json(module: ModuleRep, include_matrices=False, dense=False) -> dict:
    data = {
        "ell": module.ell,
        "n": module.n,
        "dim": module.dim,
        "shape": shape_to_json(module.shape) if module.shape is not None else None,
        "weights": [weight_to_json(w, module.ell) for w in module.weights],
    }
    if module.shape is not None:
        data["basis"] = [tableau_to_json(t) for t in enumerate_syt(module.shape)]
    if include_matrices:
        conv = _mat_to_dense_json if dense else _mat_to_json
        for kind in ("u", "zeta"):
            data[f"mat_{kind}"] = [conv(generator_matrix(module, kind, i))
                                   for i in range(1, module.n + 1)]
        data["mat_s"] = [conv(m) for m in module.mat_s]
    return data
