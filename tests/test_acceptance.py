"""End-to-end acceptance suite.

Each test covers one battery over the full catalogue corpus (all canonical
shapes with ell in {1,2,3} at window n, plus extra shapes carrying a
half-offset component) and prints a single summary line.  Everything is exact
rational/cyclotomic arithmetic; there are no tolerances anywhere.
"""

import itertools
from fractions import Fraction

import pytest

from heckemod import (
    Cyc,
    GroupAlgebraElement,
    Weight,
    apply_transposition,
    build_module,
    central_character,
    check_weight_condition,
    color_generator,
    commutant_dimension,
    direct_sum,
    enumerate_shapes,
    enumerate_syt,
    generator_matrix,
    hook_dimension,
    inversion_set,
    is_standard,
    jm_consistency,
    jm_element,
    partition_shape,
    pi_element,
    reconstruct,
    root_of_unity,
    row_reading_tableau,
    shift_contents,
    simple_transposition,
    tableau_path,
    twist,
    validate_and_canonicalize,
    verify_intertwiners,
    verify_relations,
    violation_holds,
    weight_of,
)


def half_offset_shapes():
    """At least five corpus-adjacent shapes with one component moved to
    offset 1/2 (which detaches it from every integral-offset component)."""
    out = []
    seen = set()
    for n in (3, 4):
        for D in enumerate_shapes(2, n, n):
            if len(D.components) < 2:
                continue
            comps = [(c.beta, c.offset, c.cells) for c in D.components]
            beta, _, cells = comps[0]
            lifted = validate_and_canonicalize(
                2, [(beta, Fraction(1, 2), cells)] + comps[1:])
            if lifted not in seen:
                seen.add(lifted)
                out.append(lifted)
            if len(out) >= 6:
                return out
    return out


def multipartitions(ell, n):
    def partitions_of(k):
        def rec(left, cap):
            if left == 0:
                yield []
                return
            for first in range(min(left, cap), 0, -1):
                for rest in rec(left - first, first):
                    yield [first] + rest
        yield from rec(k, k)

    for split in itertools.product(*(range(n + 1) for _ in range(ell))):
        if sum(split) == n:
            for parts in itertools.product(*(list(partitions_of(k)) for k in split)):
                yield [list(p) for p in parts]


@pytest.fixture(scope="module")
def corpus_n4():
    shapes = [D for ell in (1, 2, 3) for n in (1, 2, 3, 4)
              for D in enumerate_shapes(ell, n, n)]
    extras = half_offset_shapes()
    assert len(shapes) == 454
    assert len(extras) >= 5
    return shapes + extras


@pytest.fixture(scope="module")
def modules_n4(corpus_n4):
    return [(D, build_module(D)) for D in corpus_n4]


def test_criterion_01_defining_relations(modules_n4):
    checked = 0
    for D, M in modules_n4:
        report = verify_relations(M)
        assert report.ok, (D, [c.name for c in report.failures()])
        checked += len(report.checks)
    print(f"\nCRITERION 1 PASS: {len(modules_n4)} modules, "
          f"{checked} relation identities, zero residual")


def test_criterion_02_intertwiners(modules_n4):
    checked = 0
    for D, M in modules_n4:
        report = verify_intertwiners(M)
        assert report.ok, (D, [c.name for c in report.failures()])
        checked += len(report.checks)
    # spot value: tau_2 squared on the two-dimensional weight pair of (2,1)
    M = build_module(partition_shape(1, [[2, 1]]))
    tau2 = generator_matrix(M, "tau", 2)
    assert (tau2 * tau2).diagonal_entries() == [Fraction(3, 4), Fraction(3, 4)]
    assert (tau2 * tau2)[0, 1].is_zero()
    print(f"\nCRITERION 2 PASS: {checked} intertwiner identities, "
          f"tau_2^2 = 3/4 on (2,1)")


def test_criterion_03_jucys_murphy():
    module_checks = 0
    for ell in (1, 2, 3):
        for n in (1, 2, 3, 4):
            for parts in multipartitions(ell, n):
                M = build_module(partition_shape(ell, parts))
                report = jm_consistency(M)
                assert report.ok, (ell, parts, [c.name for c in report.failures()])
                module_checks += len(report.checks)
    symbolic = 0
    for ell in (1, 2, 3):
        for n in (2, 3, 4):
            phis = [jm_element(ell, n, i) for i in range(1, n + 1)]
            zetas = [GroupAlgebraElement.from_group(color_generator(ell, n, i))
                     for i in range(1, n + 1)]
            ss = [GroupAlgebraElement.from_group(simple_transposition(ell, n, i))
                  for i in range(1, n)]
            for i in range(n):
                for j in range(n):
                    assert (zetas[i] * phis[j] - phis[j] * zetas[i]).is_zero()
                    symbolic += 1
            for i in range(n - 1):
                for j in range(n):
                    if j not in (i, i + 1):
                        assert (ss[i] * phis[j] - phis[j] * ss[i]).is_zero()
                        symbolic += 1
                assert (ss[i] * phis[i]
                        - (phis[i + 1] * ss[i] - pi_element(ell, n, i + 1))).is_zero()
                symbolic += 1
    print(f"\nCRITERION 3 PASS: {module_checks} module identities, "
          f"{symbolic} symbolic group-algebra identities")


def test_criterion_04_hook_formula():
    checked = 0
    for ell in (1, 2, 3):
        for n in range(1, 7):
            for parts in multipartitions(ell, n):
                D = partition_shape(ell, parts)
                assert hook_dimension(ell, parts) == len(enumerate_syt(D)), parts
                checked += 1
    print(f"\nCRITERION 4 PASS: hook formula exact on {checked} multipartitions")


def test_criterion_05_irreducibility(modules_n4):
    for D, M in modules_n4:
        assert commutant_dimension(M) == 1, D
    M = build_module(partition_shape(1, [[2, 1]]))
    assert commutant_dimension(direct_sum(M, M)) == 4
    print(f"\nCRITERION 5 PASS: commutant is scalar for all "
          f"{len(modules_n4)} modules; doubled module gives 4")


def test_criterion_06_classification_roundtrip():
    shapes = tableaux = 0
    for ell in (1, 2, 3):
        for n in range(1, 6):
            for D in enumerate_shapes(ell, n, n):
                shapes += 1
                for T in enumerate_syt(D):
                    w = weight_of(T)
                    assert check_weight_condition(w, ell) is None
                    got_D, got_T = reconstruct(w, ell)
                    assert got_D == D and got_T == T
                    tableaux += 1
    print(f"\nCRITERION 6 PASS: weight -> (shape, tableau) roundtrip on "
          f"{tableaux} tableaux over {shapes} shapes")


def test_criterion_07_rejections():
    rejected = 0
    # adjacent equal pairs, in every coordinate
    v = check_weight_condition(Weight((Fraction(0), Fraction(0)), (0, 0)), 1)
    assert v is not None and v.kind == "AdjacentEqual" and (v.i, v.j) == (1, 2)
    for ell in (1, 2, 3):
        for b in range(ell):
            w = Weight((Fraction(2), Fraction(2)), (b, b))
            v = check_weight_condition(w, ell)
            assert v is not None and v.kind == "AdjacentEqual"
            assert violation_holds(w, ell, v)
            rejected += 1
    # every violating weight in a small exhaustive window reproduces its
    # own witness on re-check
    for n in (2, 3, 4):
        for a in itertools.product(range(-2, 3), repeat=n):
            w = Weight(tuple(Fraction(x) for x in a), (0,) * n)
            v = check_weight_condition(w, 1)
            if v is None:
                continue
            assert violation_holds(w, 1, v), (a, v)
            assert 1 <= v.i < v.j <= n
            if v.kind != "AdjacentEqual":
                assert v.required_a is not None
            rejected += 1
    print(f"\nCRITERION 7 PASS: {rejected} rejected weights, "
          f"each witness re-checked")


def swap_labels(pair, i):
    def s(x):
        return i + 1 if x == i else i if x == i + 1 else x
    p, q = s(pair[0]), s(pair[1])
    return (p, q) if p < q else (q, p)


def test_criterion_08_combinatorial_lemmas():
    # (a) removing the adjacent inversion (i, i+1) relabels the rest
    # (b) no inversions exactly for the row-reading filling
    swaps = 0
    for ell in (1, 2, 3):
        for n in range(1, 6):
            for D in enumerate_shapes(ell, n, n):
                reading = row_reading_tableau(D)
                for T in enumerate_syt(D):
                    inv = inversion_set(T)
                    assert (not inv) == (T == reading)
                    for i in range(1, n):
                        if (i, i + 1) not in inv:
                            continue
                        swapped = apply_transposition(T, i)
                        expect = frozenset(
                            swap_labels(p, i) for p in inv if p != (i, i + 1))
                        assert inversion_set(swapped) == expect, (D, T, i)
                        swaps += 1
    # (c) every filling reaches the row-reading one through standard
    # fillings by adjacent swaps; checked at position level for speed with
    # the same legality rule apply_transposition enforces
    walked = 0
    for ell in (1, 2, 3):
        for n in range(1, 7):
            for D in enumerate_shapes(ell, n, n):
                ctx = D._ctx
                reading = tuple(range(n))
                limit = n * (n - 1) // 2
                for pos in ctx.all_positions():
                    cur = list(pos)
                    for _ in range(limit + 1):
                        for i in range(n - 1):
                            if ctx.above(cur[i + 1], cur[i]):
                                assert cur[i + 1] not in ctx.blocked[cur[i]]
                                cur[i], cur[i + 1] = cur[i + 1], cur[i]
                                break
                        else:
                            break
                    assert tuple(cur) == reading, (D, pos)
                    walked += 1
    # the Tableau-level path API agrees on a sample
    for D in enumerate_shapes(2, 4, 4)[:20]:
        ts = enumerate_syt(D)
        for T in ts:
            cur = T
            for i in tableau_path(T, ts[-1]):
                cur = apply_transposition(cur, i)
                assert is_standard(cur)
            assert cur == ts[-1]
    print(f"\nCRITERION 8 PASS: inversion identity on {swaps} swaps; "
          f"{walked} fillings connected to the reading filling")


def test_criterion_09_automorphism_twists():
    shapes = [D for ell in (1, 2, 3) for n in (1, 2, 3, 4)
              for D in enumerate_shapes(ell, n, n)]
    twisted = 0
    for D in shapes:
        M = build_module(D)
        base = [T.labels for T in enumerate_syt(D)]
        for kappa in (1, Fraction(1, 2)):
            shifted = twist(M, "t", kappa)
            target = shift_contents(D, Fraction(kappa, M.ell))
            for w, labels in zip(shifted.weights, base):
                got_D, got_T = reconstruct(w, M.ell)
                assert got_D == target and got_T.labels == labels
            twisted += 1
        R = twist(M, "rho")
        assert verify_relations(R).ok, D
        images = {reconstruct(w, M.ell)[0] for w in R.weights}
        assert len(images) == 1
        back = twist(R, "rho")
        assert back == M
        assert {reconstruct(w, M.ell)[0] for w in back.weights} == {D}
        twisted += 1
    print(f"\nCRITERION 9 PASS: {twisted} twists classified over "
          f"{len(shapes)} shapes")


def test_criterion_10_central_character(modules_n4):
    for D, M in modules_n4:
        cc = central_character(M)  # NotScalar would propagate and fail
        assert len(cc) == 2 * M.n
        # the top zeta value is the product of all color eigenvalues
        prod = Cyc.from_rational(M.ell, 1)
        for b in M.weights[0].b:
            prod = prod * root_of_unity(M.ell, b)
        assert cc[2 * M.n - 1] == prod
    # frozen spot values for the (2,1) module
    cc = central_character(build_module(partition_shape(1, [[2, 1]])))
    one = Cyc.from_rational(1, 1)
    assert cc == [one * 0, -one, one * 0, one * 3, one * 3, one]
    print(f"\nCRITERION 10 PASS: scalar central characters for "
          f"{len(modules_n4)} modules")
