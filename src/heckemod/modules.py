"""Seminormal modules on standard tableaux of a multi-coordinate skew shape.

``build_module`` realizes the simple module of a shape D on the basis
SYT(D): u_i and zeta_i act diagonally through the weight of each tableau,
and s_i, which maps basis vector t into span{t, s_i t}, is a ``Mat`` kept
as its involution form, writing its rows only when read.  The rest is
verification: relations, intertwiners, a commutant-dimension irreducibility
oracle, central characters, Jucys-Murphy consistency on partition shapes,
and the two automorphism twists (content shift and index reversal).  The
relation, intertwiner and Jucys-Murphy checks come from one table per (ell, n).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import chain, compress, repeat
from math import gcd, lcm
from operator import add, is_, lt, mul, sub

from .cyclo import Cyc, fraction_from_str, root_of_unity
from .errors import DimensionMismatch, HeckemodError, NotAPartition, NotScalar
from .linalg import Mat, _diagonal, _new, block_diag, nullspace_dim
from .shapes import (SkewShapeL, Weight, _normalize_weight, enumerate_syt, is_partition_shape,
                     shape_to_json, tableau_to_json, weight_to_json)


class _FormMat(Mat):
    """The ``Mat`` of an s_i kept as its involution ``form``: ``rows`` is
    written by ``_mat_of_form`` on first read, and an entry set in place
    drops the form, so the checks then read the edited rows."""

    __slots__ = ("form",)

    def __init__(self, ell: int, form):
        self.ell, self.nrows, self.ncols, self.den = ell, len(form[0]), len(form[0]), form[3]
        self.form = form

    def __getattr__(self, name):
        if name != "rows":
            raise AttributeError(name)
        self.rows = _mat_of_form(self.form)
        return self.rows

    def __setitem__(self, key, value):
        super().__setitem__(key, value)  # reads, so writes, the rows first
        self.form = None

    def __repr__(self) -> str:
        if self.form is None:
            return super().__repr__()
        nnz = sum(map(bool, chain(self.form[1], self.form[2])))
        return f"Mat({self.ell}, {self.nrows}x{self.ncols}, {nnz} entries)"

    def __reduce__(self):  # pickle and deepcopy keep the form, else copy the rows
        return ((_new, (self.ell, self.nrows, self.ncols, self.den, self.rows))
                if self.form is None else (_FormMat, (self.ell, self.form)))


def _mat_of_form(form) -> dict:
    """The integer rows, over L, of the s-matrix of the form (P, A, C, L)."""
    P, A, C, _ = form
    return {p: {p: a, q: c} if a and c else {p: a} if a else {q: c}
            for p, q, a, c in zip(range(len(P)), P, A, C) if a or c}


@dataclass(frozen=True)
class ModuleRep:
    """A module given by its s-matrices and the weights of its basis vectors.

    On basis vector t, u_i acts by ``weights[t].a[i-1]`` and zeta_i by
    zeta^``weights[t].b[i-1]`` (b in 0..ell-1).  ``mat_s`` is a tuple of n - 1
    dim x dim ``Mat``s over ell and ``weights`` one of dim weights, else
    ``DimensionMismatch`` (for a weight without n entries, once ``_scaled``
    reads it, which then reads each entry as the weight readers do, else
    ValueError).  The s-matrices of ``build_module``, its ``twist``s and direct
    sums keep their involution forms and write their rows only when read (by
    ``generator_matrix``, ``module_to_json`` with matrices, or a product
    deciding what the forms do not confirm); products decide the checks of a
    matrix that keeps no form.  A built module stores ``_scaled`` too, the
    checks ``_views``, and nothing else; ``dataclasses.replace`` of ``mat_s``
    or ``weights`` reads the new field afresh.  ``shape`` is the shape it was
    built from, its basis ``enumerate_syt(shape)``; twists and direct sums
    set it to None, and equality ignores it.
    """

    ell: int
    n: int
    dim: int
    mat_s: tuple[Mat, ...]
    weights: tuple[Weight, ...]
    shape: SkewShapeL | None = field(default=None, compare=False)

    __hash__ = None

    def __post_init__(self):
        ell, dim, count = self.ell, self.dim, max(self.n - 1, 0)
        if (len(self.mat_s), len(self.weights)) != (count, dim):
            raise DimensionMismatch(f"n={self.n} and dim={dim} need {count} s-matrices and {dim} "
                                    f"weights, got {len(self.mat_s)} and {len(self.weights)}")
        for i, m in enumerate(self.mat_s, 1):
            if not isinstance(m, Mat) or (m.ell, m.nrows, m.ncols) != (ell, dim, dim):
                raise DimensionMismatch(f"s{i} is not a {dim}x{dim} Mat over ell={ell}: {m!r}")

    @cached_property
    def _scaled(self) -> tuple[list[list[int]], int, list[list[int]]]:
        """U, den and B: u_{i+1} acts on basis vector t by U[i][t] / den, den
        the lcm of the u-denominators, and zeta_{i+1} by zeta^B[i][t]."""
        n = self.n
        for t, w in enumerate(self.weights):
            if len(w.a) != n or len(w.b) != n:
                raise DimensionMismatch(f"weight {t} has {len(w.a)} u- and {len(w.b)} "
                                        f"zeta-entries, not n={n}")
        entries = [_normalize_weight(w, self.ell) for w in self.weights]  # (p, q, b) each
        den = lcm(*(q for row in entries for _, q, _ in row))
        return ([[row[i][0] * (den // row[i][1]) for row in entries] for i in range(n)], den,
                [[row[i][2] for row in entries] for i in range(n)])


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


@lru_cache(maxsize=64)
def _table(ell: int, n: int) -> tuple:
    """Per verifier (relations, intertwiners) its all-pass report, built once
    per (ell, n) and shared (frozen), with what decides its checks for
    ``_check``: (index, kind, i - 1, ...), the kind "square", "braid",
    ("commute", j - 1), "crossing", or a side "u" or "zeta" with its col and
    row key indices, the weight storage holding the rest; then Jucys-Murphy's."""
    r, pairs = range(1, n + 1), [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    rel = [(f"s{i}^2=1", "square", i - 1) for i in r[:-1]]
    rel += [(f"s{i}s{i + 1}s{i}=s{i + 1}s{i}s{i + 1}", "braid", i - 1) for i in r[:-2]]
    rel += [(f"s{i}s{j}=s{j}s{i}", "commute", i - 1, j - 1) for i, j in pairs if i + 1 < j < n]
    rel += [(f"zeta{i}^{ell}=1",) for i in r]
    rel += [(f"zeta{i}zeta{j}=zeta{j}zeta{i}",) for i, j in pairs]
    for i in r[:-1]:
        rel += [(f"s{i}zeta{i}=zeta{i + 1}s{i}", "zeta", i - 1, i - 1, i)]
        rel += [(f"s{i}zeta{j}=zeta{j}s{i}", "zeta", i - 1, j - 1, j - 1)
                for j in r if j not in (i, i + 1)]
    rel += [(f"zeta{i}u{j}=u{j}zeta{i}",) for i in r for j in r]
    rel += [(f"u{i}u{j}=u{j}u{i}",) for i, j in pairs]
    for i in r[:-1]:
        rel += [(f"s{i}u{j}=u{j}s{i}", "u", i - 1, j - 1, j - 1) for j in r if j not in (i, i + 1)]
        rel += [(f"s{i}u{i}=u{i + 1}s{i}-pi{i}", "crossing", i - 1)]
    tau = []
    for i in r[:-1]:
        for j in r:
            k = i + 1 if j == i else i if j == i + 1 else j
            tau += [(f"u{j}tau{i}=tau{i}u{k}", "u", i - 1, k - 1, j - 1),
                    (f"zeta{j}tau{i}=tau{i}zeta{k}", "zeta", i - 1, k - 1, j - 1)]
        tau += [(f"tau{i}^2=((u{i}-u{i + 1})^2-pi^2)/(u{i}-u{i + 1})^2", "square", i - 1)]
    tau += [(f"tau{i}tau{i + 1}tau{i}=tau{i + 1}tau{i}tau{i + 1}", "braid", i - 1) for i in r[:-2]]
    rel, tau = ((VerificationReport(tuple(RelationCheck(c[0], True) for c in checks)),
                 tuple((k, *c[1:]) for k, c in enumerate(checks) if len(c) > 1))
                for checks in (rel, tau))
    return rel, tau, VerificationReport(tuple(RelationCheck(f"phi{i}=u{i}", True) for i in r))


def _witness(left: Mat, right: Mat) -> tuple[int, int, str] | None:
    """None where left = right by ``==``; else the least nonzero entry of the
    residual left - right, formed only then."""
    if left == right:
        return None
    residual = left - right
    p = min(residual.rows)
    q = min(residual.rows[p])
    return p, q, repr(residual[p, q])


# ---------------------------------------------------------------------------
# involution forms
#
# s_i maps basis vector p into span{p, P p} for an involution P, so its
# integer rows over its denominator L are A[p] e_p + C[p] e_{P p}: the form
# (P, A, C, L).  The checks below compare such lists slot by slot: a row of a
# product of forms has its terms at the columns reached through P and Q, and
# equal values at equal columns give equal matrices.  A check that fails
# decides nothing; its identity goes to the products, which give the witness.

def _at(values, keys) -> list:
    """values[k] for each k of keys: a list composed with a permutation."""
    return list(map(values.__getitem__, keys))


def _scaled_by(values: list, f: int) -> list:
    return values if f == 1 else [x * f for x in values]


def _square_holds(form, target: list[int]) -> bool:
    """X^2 = diag(target) for the form X = (P, A, C, L): slot p of row p is
    A^2 + C C(P), slot P p is C (A + A(P))."""
    P, A, C, _ = form
    return ([a * a + c * cp for a, c, cp in zip(A, C, _at(C, P))] == target
            and not any(map(mul, C, map(add, A, _at(A, P)))))


def _constant(values: list, P: list[int]) -> bool:
    """values[P p] = values[p] at every row p: a form's partner list P fixes
    each row with C[p] = 0, so this is the test on its off-diagonal rows."""
    return _at(values, P) == values


def _side_holds(form, col: list[int], row: list[int], term: list | None = None) -> bool:
    """X diag(col) + diag(term) = diag(row) X for a form X = (P, A, C, L) and
    integer keys of an injective value (u over den, or color exponents):
    A col + term = row A (no term: col = row where A is nonzero) and
    col[P p] = row[p] at every row p with C[p] != 0."""
    P, A, C, _ = form
    if term is None:
        diagonal = col is row or list(compress(col, A)) == list(compress(row, A))
    else:
        diagonal = list(map(add, map(mul, A, col), term)) == list(map(mul, row, A))
    return diagonal and _at(col, compress(P, C)) == list(compress(row, C))


def _braid_holds(f, g) -> bool:
    """lg F G F = lf G F G for the forms F = (P, A, C, lf), G = (Q, B, D, lg).
    Row p of H = F G holds H0 = A B at p, H1 = A D at Q p, H2 = C B(P) at
    P p and H3 = C D(P) at Q P p.  So row p of H F has its terms at p, P p,
    Q p, P Q p, Q P p and P Q P p, and of G H at those five and Q P Q p: the
    six slots are compared, and the keys of the last where it is nonzero."""
    P, A, C, lf = f
    Q, B, D, lg = g
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


def _pi(module: ModuleRep, x: int) -> list[int]:
    """pi_{x+1} = sum_k zeta_{x+1}^k zeta_{x+2}^-k: ell where b_{x+1} = b_{x+2}, else 0."""
    ell, b = module.ell, module._scaled[2]
    return [ell if p == q else 0 for p, q in zip(b[x], b[x + 1])]


def _views(module: ModuleRep) -> tuple:
    """Per s_i the form its ``_FormMat`` keeps (None for a matrix that keeps
    none: made by hand, or edited in place, so exact products decide its
    checks), and whether the form alone shows s_i^2 = 1, the crossing
    relation, and every u_j and zeta_j but j = i, i+1 constant along its
    partner list.  Stored on the module, and reused while each matrix keeps
    the form stored: a set entry drops it."""
    forms = [getattr(m, "form", None) for m in module.mat_s]
    view = module.__dict__.get("_views")
    if view and all(map(is_, forms, view[0])):
        return view
    u, den, b = module._scaled
    squares = [f is not None and _square_holds(f, [f[3] ** 2] * module.dim) for f in forms]
    crossings = [f is not None and _side_holds(f, u[i], u[i + 1], _scaled_by(_pi(module, i), f[3] * den))
                 for i, f in enumerate(forms)]
    fixed = [f is not None and all(_constant(v, f[0]) for v in u[:i] + u[i + 2:] + b[:i] + b[i + 2:])
             for i, f in enumerate(forms)]
    module.__dict__["_views"] = view = forms, squares, crossings, fixed
    return view


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

    s_i is written as its form from its values on each pair of boxes of i,
    i+1, kept by a ``Mat`` that writes no rows until read, and the weights as
    U, den and B from the per-box tables.
    """
    ell, n, ctx = shape.ell, shape.n, shape._ctx
    positions = ctx.all_positions()
    dim, labels = len(positions), list(zip(*positions))  # labels[k][t]: the box of label k+1
    content, beta, blocked = ctx.content, ctx.beta, ctx.blocked
    # filling t as the base-n number code[t] with digits labels[0][t], ...:
    # swapping boxes b1, b2 of labels i, i+1 adds (b2 - b1)(n - 1) n^(n-1-i)
    code = [0] * dim
    for col in labels:
        code = list(map(add, map(mul, code, repeat(n)), col))
    index = dict(zip(code, range(dim)))
    # contents as integers D over one denominator cd: 1/d = cd / D and
    # 1 - 1/d^2 = (D^2 - cd^2) / D^2, over the lcm of the s_i denominators
    cd = lcm(*(x.denominator for x in content))
    cint = [x.numerator * (cd // x.denominator) for x in content]
    forms = []
    for i in range(1, n):
        first, second = labels[i - 1], labels[i]
        keys = list(map(add, map(mul, first, repeat(n)), second))  # boxes b1, b2 as b1 n + b2
        # per pair: D and cd over their gcd (D = 0: no diagonal entry) and the
        # rule of row t's off-diagonal entry, whose column is the partner
        # filling, with i in b2: none, 1, or (b1 reading-earlier) 1 - 1/d^2
        steps, dens = {}, {1}
        for key in dict.fromkeys(keys):
            b1, b2 = divmod(key, n)
            d = cint[b2] - cint[b1]
            if beta[b1] != beta[b2]:
                steps[key] = (0, 1, 1)
            elif b2 in blocked[b1]:
                steps[key] = (d // cd, 1, 0)  # d = +-1: row or column neighbor
            elif d in (0, cd, -cd):  # the gap rule and standardness exclude this
                raise HeckemodError(f"build_module: content difference "
                                    f"{Fraction(d, cd)} between non-adjacent boxes")
            else:
                g = gcd(d, cd)
                steps[key] = (d // g, cd // g, 1 if b2 < b1 else 2)
                dens.add(abs(d // g) if b1 < b2 else (d // g) ** 2)
        den = lcm(*dens)
        A = {key: den // dd * cc if dd else 0 for key, (dd, cc, _) in steps.items()}
        C = {key: den if rule == 1 else (dd * dd - cc * cc) * (den // (dd * dd)) if rule else 0
             for key, (dd, cc, rule) in steps.items()}
        step = (n - 1) * n ** (n - 1 - i)
        swapped = map(add, code, map(mul, map(sub, second, first), repeat(step)))
        forms.append((list(map(index.get, swapped, range(dim))), _at(A, keys), _at(C, keys), den))
    aden = lcm(*(x.denominator for x in ctx.a))
    aint = [x.numerator * (aden // x.denominator) for x in ctx.a]
    u, b = [_at(aint, col) for col in labels], [_at(beta, col) for col in labels]
    weights = tuple(map(Weight, zip(*(_at(ctx.a, col) for col in labels)), zip(*b)))
    module = ModuleRep(ell, n, dim, tuple(_FormMat(ell, f) for f in forms), weights, shape)
    module.__dict__["_scaled"] = u, aden, b  # what the cached_property would read
    return module


def direct_sum(m1: ModuleRep, m2: ModuleRep) -> ModuleRep:
    """The block sum: two s-matrices that keep involution forms give their
    joined form, at the lcm of their denominators; others ``block_diag``."""
    if (m1.ell, m1.n) != (m2.ell, m2.n):
        raise DimensionMismatch("summands over different algebras")
    ell, mat_s = m1.ell, []
    for x, y in zip(m1.mat_s, m2.mat_s):
        f, g, L = getattr(x, "form", None), getattr(y, "form", None), lcm(x.den, y.den)
        joined = f and g and (
            f[0] + [p + len(f[0]) for p in g[0]],
            *(_scaled_by(v, L // f[3]) + _scaled_by(w, L // g[3]) for v, w in zip(f[1:3], g[1:3])), L)
        mat_s.append(_FormMat(ell, joined) if joined else block_diag(ell, [x, y]))
    return ModuleRep(ell, m1.n, m1.dim + m2.dim, tuple(mat_s), m1.weights + m2.weights)


# ---------------------------------------------------------------------------
# generator access

def _correction(module: ModuleRep, i: int) -> tuple[list[int], int]:
    """c = pi/(u_{i+1} - u_i) of tau_i = s_i - c, as integers over a scale."""
    u, den, _ = module._scaled
    pis, gaps = _pi(module, i - 1), [hi - lo for hi, lo in zip(u[i], u[i - 1])]
    for t, (pi, gap) in enumerate(zip(pis, gaps)):
        if pi and not gap:
            raise ZeroDivisionError(
                f"intertwiner {i} undefined: equal u-eigenvalues with "
                f"matching color at basis vector {t}")
    scale = lcm(*(gap for pi, gap in zip(pis, gaps) if pi))
    return [pi * den * (scale // gap) if pi else 0 for pi, gap in zip(pis, gaps)], scale


def _roots(ell: int, exponents: list[int]) -> Mat:
    """diag(zeta^b) over the color exponents b, each root built once."""
    roots = {k: root_of_unity(ell, k) for k in set(exponents)}
    return Mat.diagonal(ell, [roots[k] for k in exponents])


def generator_matrix(module: ModuleRep, kind: str, i: int) -> Mat:
    """Matrix of a named generator: kind in {"u", "zeta", "s", "tau", "pi"},
    index 1-based (u/zeta: 1..n, s/tau/pi: 1..n-1)."""
    ell, n = module.ell, module.n
    if kind in ("u", "zeta"):
        if not 1 <= i <= n:
            raise IndexError(f"{kind}_{i} out of range for n={n}")
        u, den, b = module._scaled
        return _roots(ell, b[i - 1]) if kind == "zeta" else _diagonal(ell, u[i - 1], den)
    if kind in ("s", "tau", "pi"):
        if not 1 <= i <= n - 1:
            raise IndexError(f"{kind}_{i} out of range for n={n}")
        return (module.mat_s[i - 1].copy() if kind == "s"
                else module.mat_s[i - 1] - _diagonal(ell, *_correction(module, i)) if kind == "tau"
                else Mat.diagonal(ell, _pi(module, i - 1)))
    raise ValueError(f"unknown generator kind {kind!r}")


# ---------------------------------------------------------------------------
# verification

def _check(module: ModuleRep, entry: tuple, view: tuple, tau=None) -> VerificationReport:
    """The report of an ``entry`` of ``_table`` on the s_i through their
    ``view`` (``_views``), or on the tau_i as ``tau`` = (forms, whether each
    square holds on its form, and as callables of x the matrix of X_{x+1} and
    its square).  F G = G F at |i - j| > 1 for the forms (P, A, C, L) and
    (Q, B, D, M) where P Q = Q P and each is ``_constant`` along the other's
    partners: row p of either product holds A B at p, A D at Q p, B C at P p,
    C D at P Q p.  An unconfirmed check goes to exact products, whose
    residual is its witness; a tau_i side is diag(row) X = X diag(col)."""
    ell, dim = module.ell, module.dim
    u, den, z = module._scaled
    forms, squares, crossings, fixed = view
    forms, squares, mat, rhs = tau or (forms, squares, module.mat_s.__getitem__,
                                       lambda x: Mat.identity(ell, dim))
    keys = {"u": (u, partial(_diagonal, ell, den=den)), "zeta": (z, partial(_roots, ell))}
    passing, failed = entry[0], {}
    for k, kind, x, *more in entry[1]:
        f = forms[x]
        if kind == "square":
            if squares[x]:
                continue
            left, right = mat(x) * mat(x), rhs(x)
        elif kind == "braid":
            if f and forms[x + 1] and _braid_holds(f, forms[x + 1]):
                continue
            left, right = mat(x) * mat(x + 1) * mat(x), mat(x + 1) * mat(x) * mat(x + 1)
        elif kind == "commute":
            y, g = more[0], forms[more[0]]
            if f and g and _at(f[0], g[0]) == _at(g[0], f[0]) and all(
                    _constant(v, P) for v, P in zip(f[1:3] + g[1:3], (g[0], g[0], f[0], f[0]))):
                continue
            left, right = mat(x) * mat(y), mat(y) * mat(x)
        elif kind == "crossing":  # s_i u_i + pi_i = u_{i+1} s_i
            if crossings[x]:
                continue
            left = mat(x) * _diagonal(ell, u[x], den) + _diagonal(ell, _pi(module, x))
            right = _diagonal(ell, u[x + 1], den) * mat(x)
        else:
            values, diag = keys[kind]
            col, row = values[more[0]], values[more[1]]
            if f and (col is row and fixed[x] or _side_holds(f, col, row)):
                continue
            left, right = mat(x) * diag(col), diag(row) * mat(x)
            if tau:
                left, right = right, left
        witness = _witness(left, right)
        if witness:
            failed[k] = witness
    if not failed:
        return passing
    return VerificationReport(tuple(RelationCheck(c.name, False, failed[k]) if k in failed else c
                                    for k, c in enumerate(passing.checks)))


def verify_relations(module: ModuleRep) -> VerificationReport:
    """Exact check of every defining relation: the symmetric-group and
    color-group relations, the commutations of the polynomial and group
    generators, and the crossing relation s_i u_i = u_{i+1} s_i - pi_i.

    ``_check`` decides each check of ``_table`` on the forms of S_i = L_i s_i
    (S_i^2 = L_i^2, the braid scaled by L_i, L_{i+1}, S_i U_i + L_i den pi_i
    = U_{i+1} S_i for U over den, a side by its keys, a far one or a far
    commutation by ``_constant``), and the rest by exact products, the
    witnesses.  zeta_i^ell = 1 and the zeta/u commutations hold by storage."""
    return _check(module, _table(module.ell, module.n)[0], _views(module))


def verify_intertwiners(module: ModuleRep) -> VerificationReport:
    """Exact checks that the tau_i behave as weight intertwiners:

    (a) u_j tau_i = tau_i u_{s_i(j)} and the same with zeta;
    (b) tau_i^2 is diagonal with entry ((u_i-u_{i+1})^2 - pi^2)/(u_i-u_{i+1})^2
        on each basis vector (1 where pi vanishes);
    (c) the braid relation for tau.

    tau_i = s_i - c for c from ``_correction``, whose guard runs for every i
    first.  Each tau_i is made once: its form, s_i's minus c over lcm(L_i,
    scale), decided as in ``verify_relations``; its matrix for the products,
    a ``_FormMat`` of that form (s_i - c where s_i keeps no form); and the
    diagonal 1 - c^2 its square should be, which the form check and the
    products both compare against."""
    ell, n = module.ell, module.n
    corrections = [_correction(module, i) for i in range(1, n)]
    view, forms, squares, mats, targets = _views(module), [], [], [], []
    for s, form, (vals, scale) in zip(module.mat_s, view[0], corrections):
        P, A, C, L = form or (None, (), (), 1)
        top = lcm(L, scale)
        f, g = top // L, top // scale
        targets.append(([top * top - (x * g) ** 2 for x in vals], top * top))
        forms.append(form and (P, [a * f - x * g for a, x in zip(A, vals)], _scaled_by(C, f), top))
        squares.append(form is not None and _square_holds(forms[-1], targets[-1][0]))
        mats.append(_FormMat(ell, forms[-1]) if form else s - _diagonal(ell, vals, scale))
    return _check(module, _table(ell, n)[1], view, (forms, squares, mats.__getitem__,
                  lambda x: _diagonal(ell, *targets[x])))


def _components(size: int, edges) -> int:
    """The number of components of the graph on 0..size-1, by union-find."""
    parent, count = list(range(size)), size
    for p, q in edges:
        while parent[p] != p:
            parent[p] = p = parent[parent[p]]
        while parent[q] != q:
            parent[q] = q = parent[parent[q]]
        if p != q:
            parent[p] = q
            count -= 1
    return count


def commutant_dimension(module: ModuleRep) -> int:
    """Dimension of the space of matrices commuting with every generator (1:
    irreducible).  X[s, t] = 0 unless s, t share a weight (integer columns
    of U and B).  With distinct weights, g[p, q] (x_p - x_q) = 0 for the
    diagonal x_t: the components of the edges (p, P p) of the forms (of the
    support, without a form); otherwise the equations are solved."""
    ell, dim = module.ell, module.dim
    u, _, b = module._scaled
    keys = list(zip(*u, *b) if ell > 1 else zip(*u))  # every exponent is 0 mod 1
    if len(set(keys)) == dim:
        return _components(dim, chain.from_iterable(
            compress(enumerate(f[0]), map(lt, range(dim), f[0])) if f
            else ((p, q) for p, row in m.rows.items() for q in row)
            for f, m in zip(_views(module)[0], module.mat_s)))
    classes: dict = {}
    for t, key in enumerate(keys):
        classes.setdefault(key, []).append(t)
    var = {key: v for v, key in enumerate((a, c) for members in classes.values()
                                          for a in members for c in members)}
    same = {t: members for members in classes.values() for t in members}
    system = []
    for g in module.mat_s:  # X g - g X at (i, j), on the allowed unknowns
        eqs: dict = defaultdict(lambda: defaultdict(partial(Cyc.zero, ell)))
        for (p, q), gv in g.data.items():
            for i in same[p]:
                eqs[i, q][var[i, p]] += gv
            for j in same[q]:
                eqs[p, j][var[q, j]] -= gv
        system.extend(map(dict, eqs.values()))
    return nullspace_dim(system, len(var), ell)


def _elementary(values) -> list[int]:
    """e_1..e_m of m ints: the coefficients of prod (x + v) below the top."""
    coeffs = [1] + [0] * len(values)
    for m, v in enumerate(values, 1):
        for k in range(m, 0, -1):
            coeffs[k] += v * coeffs[k - 1]
    return coeffs[1:]


def _color_elementary(ell: int, exponents) -> list[tuple]:
    """e_1..e_m of zeta^b over m exponents b, in the group ring Z[C_ell]:
    entry r of e_k counts the k-subsets of exponents summing to r mod ell."""
    coeffs = [[1] + [0] * (ell - 1)] + [[0] * ell for _ in exponents]
    for m, b in enumerate(exponents, 1):
        for k in range(m, 0, -1):  # e_k += zeta^b e_{k-1}, a rotation by b
            coeffs[k] = list(map(add, coeffs[k], coeffs[k - 1][-b:] + coeffs[k - 1][:-b]))
    return [tuple(e) for e in coeffs[1:]]


def central_character(module: ModuleRep) -> list[Cyc]:
    """Scalars of e_1..e_n in the u's followed by e_1..e_n in the zetas;
    NotScalar if an evaluation is not a scalar matrix.  e_k is taken once
    per multiset of eigenvalues in integers: on U over den (E_k / den^k), and
    in the group ring of the exponents B (``_color_elementary``), where
    distinct vectors can be equal in the field (1 + zeta_2 = 0)."""
    ell = module.ell
    u, den, b = module._scaled
    u_values = list(map(_elementary, set(map(tuple, map(sorted, zip(*u))))))
    zeta_values = [_color_elementary(ell, key)
                   for key in set(map(tuple, map(sorted, set(zip(*b)))))]
    for per_multiset, label in ((u_values, "u"), (zeta_values, "zeta")):
        for k in range(module.n):
            scalars = {e[k] for e in per_multiset}
            if label == "zeta" and len(scalars) > 1:
                scalars = {Cyc(ell, e) for e in scalars}
            if len(scalars) > 1:
                raise NotScalar(f"e_{k + 1}({label}) takes {len(scalars)} distinct values")
    out = [Cyc.from_rational(ell, Fraction(e, den ** k))
           for k, e in enumerate(u_values[0] if u_values else [], 1)]
    return out + [Cyc(ell, e) for e in (zeta_values[0] if zeta_values else [])]


# ---------------------------------------------------------------------------
# twists

def twist(module: ModuleRep, auto: str, kappa=None) -> ModuleRep:
    """Relabel the module through an automorphism; the result has no shape.

    ``auto="t"`` shifts every u-eigenvalue by the rational kappa (an int, a
    Fraction or a string such as "-3/2"; a float or bool raises ValueError);
    ``auto="rho"`` reverses indices: u_i -> -u_{n-i+1},
    zeta_i -> zeta_{n-i+1}, s_i -> s_{n-i}, reordering the s-matrices.
    """
    ell, n, s = module.ell, module.n, module.mat_s
    if auto == "t":
        if kappa is None:
            raise ValueError("content-shift twist needs a rational kappa")
        kappa = kappa if type(kappa) is Fraction else fraction_from_str(kappa, "kappa")
        return ModuleRep(ell, n, module.dim, s, tuple(
            Weight(tuple(x + kappa for x in w.a), w.b) for w in module.weights))
    if auto == "rho":
        if kappa is not None:
            raise ValueError("index-reversal twist takes no parameter")
        order = [n - 2 - i for i in range(n - 1)]
        return ModuleRep(ell, n, module.dim, tuple(_at(s, order)),
                         tuple(Weight(tuple(-x for x in reversed(w.a)), w.b[::-1])
                               for w in module.weights))
    raise ValueError(f"unknown automorphism {auto!r}")


# ---------------------------------------------------------------------------
# Jucys-Murphy consistency

def jm_consistency(module: ModuleRep) -> VerificationReport:
    """Check that the group-algebra Jucys-Murphy sums reproduce the diagonal
    u-matrices, for a module built from a tuple of partitions only.

    phi_i = sum over j < i and colors k of zeta_i^k zeta_j^-k (j i) follows
    phi_1 = 0, phi_{i+1} = s_i phi_i s_i + pi_i s_i (Okounkov-Vershik).  So
    phi_1 = u_1 asks that U_1 be zero, and s_i^2 = 1 with the crossing
    relation s_i u_i + pi_i = u_{i+1} s_i carries phi_i = u_i to
        phi_{i+1} = (s_i u_i + pi_i) s_i = u_{i+1} s_i s_i = u_{i+1}:
    where U_1 = 0 and the forms of ``_views`` show both for every s_i, the
    report is the one shared by (ell, n).  Otherwise the recurrence runs on
    products, the matrices of ``grpalg.evaluate_in_module`` wherever the
    s-only and s-zeta relations hold."""
    if module.shape is None or not is_partition_shape(module.shape):
        raise NotAPartition(
            "Jucys-Murphy comparison needs a module built from partitions "
            "anchored at content 0")
    (u, den, _), ell, s = module._scaled, module.ell, module.mat_s
    passing = _table(ell, module.n)[2]
    view = not any(u[0]) and _views(module)
    if view and all(view[1][x] and view[2][x] for x in range(module.n - 1)):
        return passing
    phi, checks = Mat.zero(ell, module.dim), []
    for x, check in enumerate(passing.checks):
        if x:
            phi = s[x - 1] * phi * s[x - 1] + _diagonal(ell, _pi(module, x - 1)) * s[x - 1]
        witness = _witness(phi, _diagonal(ell, u[x], den))
        checks.append(RelationCheck(check.name, witness is None, witness))
    return VerificationReport(tuple(checks))


# ---------------------------------------------------------------------------
# serialization

def _mat_to_json(m: Mat, dense: bool) -> dict | list:
    if dense:
        return [[v.to_json() for v in row] for row in m.dense()]
    return {"rows": m.nrows,
            "entries": [[i, j, m[i, j].to_json()] for i in sorted(m.rows) for j in sorted(m.rows[i])]}


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
        for kind in ("u", "zeta"):
            data[f"mat_{kind}"] = [_mat_to_json(generator_matrix(module, kind, i), dense)
                                   for i in range(1, module.n + 1)]
        data["mat_s"] = [_mat_to_json(m, dense) for m in module.mat_s]
    return data
