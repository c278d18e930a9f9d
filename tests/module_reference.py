"""Reference oracle for the verification in ``heckemod.modules``: full
matrix products throughout.

These are the relation, intertwiner, commutant, central-character and
weight routines heckemod used while a module stored u_i and zeta_i as
diagonal matrices.  Every relation is a product of whole matrices compared by
subtraction, and every eigenvalue is read back off a diagonal.  The matrices
come from ``generator_matrix`` and the module's s-matrices, read into
``mat_reference.RefMat`` with ``Cyc`` entries, so no product or sum here goes
through ``heckemod.linalg``.  The production path keeps one
weight per basis vector and checks relations with a diagonal side entry by
entry, so the tests compare the two.  For the Jucys-Murphy check there are
two: ``jm_consistency`` evaluates the group-algebra sums term by term, and
``jm_recurrence`` runs the recurrence of ``modules.jm_consistency`` on
whole matrices.  ``s_matrices`` is the rows writer ``build_module`` used
before a built module stored its s-matrices as involution forms: it writes
each ``Mat`` column by column, finding each partner filling by its tuple.
``commute_holds`` is the slot criterion that decided a far commutation of
two involution forms before ``modules._check`` asked for constancy along
the pairs.  ``involution_form`` is the reader that took a form off the rows
of a matrix that kept none, before such a matrix was left to products.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from operator import mul

from heckemod import grpalg
from heckemod.cyclo import Cyc, root_of_unity
from heckemod.errors import HeckemodError, NotScalar
from heckemod.grpalg import GroupAlgebraElement, GroupElement, _perm_word
from heckemod.linalg import Mat, _new, nullspace_dim
from heckemod.modules import RelationCheck, VerificationReport, generator_matrix
from heckemod.shapes import Weight
from mat_reference import RefMat


def _residual(name: str, left: RefMat, right: RefMat) -> RelationCheck:
    first = (left - right).first()
    if first is None:
        return RelationCheck(name, True)
    (i, j), v = first
    return RelationCheck(name, False, (i, j, repr(v)))


def _s(module) -> list[RefMat]:
    return [RefMat.of(m) for m in module.mat_s]


_last_diagonals: list = [None, None]


def diagonals(module):
    """The u- and zeta-matrices, built by ``generator_matrix``.  They depend
    only on ell and the weights, and the checks of one module run one after
    another, so the last module's pair is kept; callers do not mutate it."""
    key = (module.ell, module.weights)
    if _last_diagonals[0] != key:
        n = module.n
        _last_diagonals[:] = key, (
            [RefMat.of(generator_matrix(module, "u", i)) for i in range(1, n + 1)],
            [RefMat.of(generator_matrix(module, "zeta", i)) for i in range(1, n + 1)])
    return _last_diagonals[1]


def evaluate(x, module, z) -> RefMat:
    """zeta^a w as Z_1^{a_1} ... Z_n^{a_n} times the s-matrices spelling w,
    for the zeta-matrices z of ``diagonals``."""
    if isinstance(x, GroupElement):
        x = GroupAlgebraElement.from_group(x)
    s = _s(module)
    total = RefMat(Cyc, module.ell, module.dim)
    for g, coeff in x.terms.items():
        m = RefMat.identity(Cyc, module.ell, module.dim)
        for i, a in enumerate(g.colors):
            for _ in range(a):
                m = m * z[i]
        for i in _perm_word(g.perm):
            m = m * s[i - 1]
        total = total + m.scale(coeff)
    return total


def tau_matrix(module, i: int, u, z) -> RefMat:
    ell = module.ell
    ui, uj = u[i - 1], u[i]
    zi, zj = z[i - 1], z[i]
    m = RefMat.of(module.mat_s[i - 1])
    for t in range(module.dim):
        if zi[t, t] == zj[t, t]:
            d = uj[t, t] - ui[t, t]
            if d.is_zero():
                raise ZeroDivisionError(f"intertwiner {i} undefined at {t}")
            m[t, t] = m[t, t] - Cyc.from_rational(ell, ell) * d.inverse()
    return m


def verify_relations(module) -> VerificationReport:
    ell, n = module.ell, module.n
    s = _s(module)
    u, z = diagonals(module)
    one = RefMat.identity(Cyc, ell, module.dim)
    checks = []
    add = checks.append

    for i in range(1, n):
        add(_residual(f"s{i}^2=1", s[i - 1] * s[i - 1], one))
    for i in range(1, n - 1):
        add(_residual(f"s{i}s{i + 1}s{i}=s{i + 1}s{i}s{i + 1}",
                      s[i - 1] * s[i] * s[i - 1], s[i] * s[i - 1] * s[i]))
    for i in range(1, n):
        for j in range(i + 2, n):
            add(_residual(f"s{i}s{j}=s{j}s{i}",
                          s[i - 1] * s[j - 1], s[j - 1] * s[i - 1]))
    for i in range(1, n + 1):
        m = one
        for _ in range(ell):
            m = m * z[i - 1]
        add(_residual(f"zeta{i}^{ell}=1", m, one))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            add(_residual(f"zeta{i}zeta{j}=zeta{j}zeta{i}",
                          z[i - 1] * z[j - 1], z[j - 1] * z[i - 1]))
    for i in range(1, n):
        add(_residual(f"s{i}zeta{i}=zeta{i + 1}s{i}",
                      s[i - 1] * z[i - 1], z[i] * s[i - 1]))
        for j in range(1, n + 1):
            if j not in (i, i + 1):
                add(_residual(f"s{i}zeta{j}=zeta{j}s{i}",
                              s[i - 1] * z[j - 1], z[j - 1] * s[i - 1]))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            add(_residual(f"zeta{i}u{j}=u{j}zeta{i}",
                          z[i - 1] * u[j - 1], u[j - 1] * z[i - 1]))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            add(_residual(f"u{i}u{j}=u{j}u{i}",
                          u[i - 1] * u[j - 1], u[j - 1] * u[i - 1]))
    for i in range(1, n):
        for j in range(1, n + 1):
            if j not in (i, i + 1):
                add(_residual(f"s{i}u{j}=u{j}s{i}",
                              s[i - 1] * u[j - 1], u[j - 1] * s[i - 1]))
        pi = evaluate(grpalg.pi_element(ell, n, i), module, z)
        add(_residual(f"s{i}u{i}=u{i + 1}s{i}-pi{i}",
                      s[i - 1] * u[i - 1], u[i] * s[i - 1] - pi))
    return VerificationReport(tuple(checks))


def verify_intertwiners(module) -> VerificationReport:
    ell, n = module.ell, module.n
    u, z = diagonals(module)
    checks = []
    taus = [tau_matrix(module, i, u, z) for i in range(1, n)]
    ell_sq = Cyc.from_rational(ell, ell * ell)

    for i in range(1, n):
        tau = taus[i - 1]
        for j in range(1, n + 1):
            k = {i: i + 1, i + 1: i}.get(j, j)
            checks.append(_residual(f"u{j}tau{i}=tau{i}u{k}",
                                    u[j - 1] * tau, tau * u[k - 1]))
            checks.append(_residual(f"zeta{j}tau{i}=tau{i}zeta{k}",
                                    z[j - 1] * tau, tau * z[k - 1]))
        expected = RefMat(Cyc, ell, module.dim)
        for t in range(module.dim):
            if z[i - 1][t, t] == z[i][t, t]:
                d = u[i - 1][t, t] - u[i][t, t]
                expected[t, t] = (d * d - ell_sq) * (d * d).inverse()
            else:
                expected[t, t] = 1
        checks.append(_residual(f"tau{i}^2=((u{i}-u{i + 1})^2-pi^2)/(u{i}-u{i + 1})^2",
                                tau * tau, expected))
    for i in range(1, n - 1):
        checks.append(_residual(
            f"tau{i}tau{i + 1}tau{i}=tau{i + 1}tau{i}tau{i + 1}",
            taus[i - 1] * taus[i] * taus[i - 1],
            taus[i] * taus[i - 1] * taus[i]))
    return VerificationReport(tuple(checks))


def jm_consistency(module) -> VerificationReport:
    u, z = diagonals(module)
    return VerificationReport(tuple(
        _residual(f"phi{i}=u{i}",
                  evaluate(grpalg.jm_element(module.ell, module.n, i), module, z), u[i - 1])
        for i in range(1, module.n + 1)))


def jm_recurrence(module) -> VerificationReport:
    """phi_i by the Okounkov-Vershik recurrence phi_1 = 0,
    phi_{i+1} = s_i phi_i s_i + pi_i s_i, on whole matrices, with pi_i the
    group-algebra ``pi_element`` evaluated term by term.  It agrees with
    ``jm_consistency`` above wherever the s-only and s-zeta relations hold,
    and gives the report of ``modules.jm_consistency`` everywhere."""
    ell, n = module.ell, module.n
    u, z = diagonals(module)
    s = _s(module)
    phi = RefMat(Cyc, ell, module.dim)
    checks = []
    for i in range(1, n + 1):
        if i > 1:
            pi = evaluate(grpalg.pi_element(ell, n, i - 1), module, z)
            phi = s[i - 2] * phi * s[i - 2] + pi * s[i - 2]
        checks.append(_residual(f"phi{i}=u{i}", phi, u[i - 1]))
    return VerificationReport(tuple(checks))


def commutant_dimension(module) -> int:
    ell, dim = module.ell, module.dim
    u, z = diagonals(module)
    key = [tuple(m[t, t] for m in u) + tuple(m[t, t] for m in z) for t in range(dim)]
    classes: dict = {}
    for t, k in enumerate(key):
        classes.setdefault(k, []).append(t)
    var: dict[tuple[int, int], int] = {}
    for members in classes.values():
        for a in members:
            for b in members:
                var[(a, b)] = len(var)
    same = {t: classes[key[t]] for t in range(dim)}
    system = []
    for g in module.mat_s:
        eqs: dict[tuple[int, int], dict[int, Cyc]] = {}

        def bump(eq_key, v, coef):
            row = eqs.setdefault(eq_key, {})
            row[v] = row.get(v, Cyc.zero(ell)) + coef

        for (k, j), gv in g.data.items():
            for i in same[k]:
                bump((i, j), var[(i, k)], gv)
        for (i, k), gv in g.data.items():
            for j in same[k]:
                bump((i, j), var[(k, j)], -gv)
        system.extend(eqs.values())
    return nullspace_dim(system, len(var), ell)


def central_character(module) -> list[Cyc]:
    """e_1..e_n of the eigenvalues read off the diagonals, on every basis
    vector, once per multiset of them: the rational u-eigenvalues in
    Fractions, and the zeta ones in the field."""
    ell, n, dim = module.ell, module.n, module.dim

    def elementary(values, one, seen):
        if values not in seen:
            coeffs = [one] + [one * 0] * len(values)
            for v in values:
                for k in range(len(values), 0, -1):
                    coeffs[k] = coeffs[k] + v * coeffs[k - 1]
            seen[values] = coeffs[1:]
        return seen[values]

    u, z = diagonals(module)
    u_seen, zeta_seen = {}, {}
    u_vectors = [elementary(tuple(sorted(m[t, t].as_rational() for m in u)), Fraction(1), u_seen)
                 for t in range(dim)]
    zeta_vectors = [elementary(tuple(sorted((m[t, t] for m in z), key=repr)), Cyc.one(ell),
                               zeta_seen) for t in range(dim)]
    out = []
    for vectors, label in ((u_vectors, "u"), (zeta_vectors, "zeta")):
        for k in range(n):
            scalars = {pv[k] for pv in vectors}
            if len(scalars) > 1:
                raise NotScalar(f"e_{k + 1}({label}) takes {len(scalars)} distinct values")
        out.extend(Cyc.from_rational(ell, x) if label == "u" else x for x in (vectors[0] if vectors else []))
    return out


def module_weights(module) -> list[Weight]:
    """Rational u-eigenvalues and zeta exponents, found by searching the
    powers of zeta."""
    ell = module.ell
    powers = [root_of_unity(ell, k) for k in range(ell)]
    u, z = diagonals(module)
    return [Weight(tuple(m[t, t].as_rational() for m in u),
                   tuple(powers.index(m[t, t]) for m in z))
            for t in range(module.dim)]


def s_matrices(shape) -> tuple[Mat, ...]:
    """The s-matrices of the seminormal module on SYT(shape), written column
    by column: column t of s_i holds its diagonal entry and, where s_i moves
    filling t, the entry at the row of the filling with labels i and i+1
    swapped, looked up by its tuple; integer rows over the lcm of the
    entries' denominators."""
    ell, n, ctx = shape.ell, shape.n, shape._ctx
    positions = ctx.all_positions()
    index = {p: t for t, p in enumerate(positions)}
    dim = len(positions)
    content, beta = ctx.content, ctx.beta
    cd = lcm(*(x.denominator for x in content))
    cint = [x.numerator * (cd // x.denominator) for x in content]
    mats = []
    for i in range(1, n):
        cols = []
        dens = {1}
        for t, pos in enumerate(positions):
            b1, b2 = pos[i - 1], pos[i]
            if beta[b1] != beta[b2]:
                cols.append((t, index[pos[:i - 1] + (b2, b1) + pos[i + 1:]], 0, 1, True))
                continue
            d = cint[b2] - cint[b1]
            if b2 in ctx.blocked[b1]:
                cols.append((t, None, d // cd, 1, True))
                continue
            if d in (0, cd, -cd):
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
    return tuple(mats)


def commute_holds(f, g) -> bool:
    """F G = G F for the involution forms F = (P, A, C, L), G = (Q, B, D, M),
    slot by slot.  Row p of F G holds A B at p, A D at Q p, C B(P) at P p and
    C D(P) at Q P p; of G F, B A, D A(Q), B C and D C(Q) at P Q p.  So
    A = A(Q) where D is nonzero, B = B(P) where C is, C D(P) = D C(Q), and
    where that is nonzero, Q P = P Q."""
    P, A, C, _ = f
    Q, B, D, _ = g

    def at(values, keys):
        return [values[k] for k in keys]

    if (list(compress(A, D)) != at(A, compress(Q, D))
            or list(compress(B, C)) != at(B, compress(P, C))):
        return False
    last = list(map(mul, C, at(D, P)))
    return (last == list(map(mul, D, at(C, Q)))
            and list(compress(at(Q, P), last)) == list(compress(at(P, Q), last)))


def involution_form(m: Mat) -> tuple[list[int], list[int], list[int], int] | None:
    """(P, A, C, m.den) with row p of m's integer rows A[p] e_p + C[p] e_{P[p]}
    and C[p] = 0 exactly where P[p] = p; None when an entry is not an int, a
    row holds an entry outside {p, P[p]}, or P is not an involution.  The
    checks once read a matrix that kept no form this way; the tests use it
    to hand their matrices to the checks as kept forms."""
    dim = m.nrows
    P, A, C = list(range(dim)), [0] * dim, [0] * dim
    for p, row in m.rows.items():
        off = [(q, x) for q, x in row.items() if q != p]
        if len(off) > 1 or any(x.__class__ is not int for x in row.values()):
            return None
        A[p] = row.get(p, 0)
        P[p], C[p] = off[0] if off else (p, 0)
    return (P, A, C, m.den) if [P[q] for q in P] == list(range(dim)) else None
