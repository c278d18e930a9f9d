import itertools

import pytest
from hypothesis import given, settings, strategies as st

from heckemod import (
    Cyc,
    DimensionMismatch,
    GroupAlgebraElement,
    GroupElement,
    build_module,
    color_generator,
    enumerate_shapes,
    evaluate_in_module,
    generator_matrix,
    identity,
    jm_element,
    partition_shape,
    pi_element,
    reduced_word,
    root_of_unity,
    simple_transposition,
    transposition,
)


def test_normal_form_product():
    # (zeta_1 s_1)(zeta_1 s_1) = zeta_1 zeta_2
    x = color_generator(3, 2, 1) * simple_transposition(3, 2, 1)
    assert x * x == color_generator(3, 2, 1) * color_generator(3, 2, 2)
    assert (x * x).colors == (1, 1)
    assert (x * x).perm == (1, 2)


def test_identity_and_inverse():
    e = identity(2, 3)
    assert e.is_identity()
    g = color_generator(2, 3, 2) * transposition(2, 3, 1, 3)
    assert g * g.inverse() == e
    assert g.inverse() * g == e
    assert e * g == g and g * e == g


def test_color_generator_order():
    z = color_generator(3, 2, 1)
    assert z * z * z == identity(3, 2)
    assert not (z * z).is_identity()


def test_conjugation_moves_colors():
    s = simple_transposition(3, 3, 1)
    z1 = color_generator(3, 3, 1)
    z2 = color_generator(3, 3, 2)
    assert s * z1 * s == z2
    # colors at untouched positions commute
    z3 = color_generator(3, 3, 3)
    assert s * z3 == z3 * s


def group_closure(ell, n):
    gens = [simple_transposition(ell, n, i) for i in range(1, n)]
    if ell > 1:
        gens.append(color_generator(ell, n, 1))
    seen = {identity(ell, n)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                for prod in (g * h, h * g):
                    if prod not in seen:
                        seen.add(prod)
                        nxt.append(prod)
        frontier = nxt
    return seen


def test_group_orders():
    import math
    for ell, n in ((1, 3), (2, 2), (2, 3), (3, 2)):
        assert len(group_closure(ell, n)) == ell ** n * math.factorial(n)


def test_invalid_elements():
    with pytest.raises(ValueError):
        GroupElement(2, 2, (0, 0), (1, 1))  # not a permutation
    with pytest.raises(ValueError):
        GroupElement(2, 2, (0,), (1, 2))  # wrong color length
    with pytest.raises(IndexError):
        simple_transposition(2, 3, 3)
    with pytest.raises(IndexError):
        color_generator(2, 3, 0)
    with pytest.raises(IndexError, match=r"^transposition \(1 1\) out of range for n=3$"):
        transposition(1, 3, 1, 1)
    for make in (lambda: jm_element(1, 3, 4), lambda: jm_element(1, 3, 0),
                 lambda: pi_element(1, 3, 3)):
        with pytest.raises(IndexError, match="^index [0-9]+ out of range for n=3$"):
            make()
    # colours are read mod ell; elements of two groups do not multiply
    assert GroupElement(3, 2, (4, -1), (1, 2)).colors == (1, 2)
    with pytest.raises(DimensionMismatch, match=r"^elements of G\(2,1,2\) and G\(3,1,2\)$"):
        identity(2, 2) * identity(3, 2)


def test_reduced_word_rebuilds_and_counts_inversions():
    assert reduced_word(identity(1, 4)) == []
    assert reduced_word(transposition(1, 3, 1, 3)) == [1, 2, 1]
    for perm in itertools.permutations((1, 2, 3, 4)):
        g = GroupElement(1, 4, (0, 0, 0, 0), perm)
        word = reduced_word(g)
        inv = sum(1 for i in range(4) for j in range(i + 1, 4)
                  if perm[i] > perm[j])
        assert len(word) == inv
        prod = identity(1, 4)
        for i in word:
            prod = prod * simple_transposition(1, 4, i)
        assert prod == g


def test_reduced_word_rejects_colored_elements():
    g = color_generator(2, 2, 1)
    with pytest.raises(ValueError):
        reduced_word(g)


def test_algebra_arithmetic():
    e = GroupAlgebraElement.from_group(identity(2, 2))
    s = GroupAlgebraElement.from_group(simple_transposition(2, 2, 1))
    assert (s * s) == e
    assert (s + s.neg()).is_zero() if hasattr(s, "neg") else (s - s).is_zero()
    two_e = e + e
    assert two_e.scale(Cyc.from_rational(2, 1) / 2) == e
    assert (e - e).is_zero()
    assert repr(two_e) == "GroupAlgebraElement(2,2; 1 terms)"
    assert e.__eq__(1) is NotImplemented and e != 1
    with pytest.raises(DimensionMismatch, match="^coefficient over a different field$"):
        GroupAlgebraElement(2, 2, [(identity(2, 2), root_of_unity(3, 1))])


def test_jm_elements():
    assert jm_element(1, 3, 1).is_zero()
    assert jm_element(2, 4, 1).is_zero()
    s12 = GroupAlgebraElement.from_group(transposition(1, 3, 1, 2))
    assert jm_element(1, 3, 2) == s12
    # phi_3 = (1 3) + (2 3) for ell = 1
    phi3 = jm_element(1, 3, 3)
    expect = (GroupAlgebraElement.from_group(transposition(1, 3, 1, 3))
              + GroupAlgebraElement.from_group(transposition(1, 3, 2, 3)))
    assert phi3 == expect


def test_pi_element_small():
    # ell = 1: pi_i is the identity of the group algebra
    assert pi_element(1, 3, 1) == GroupAlgebraElement.from_group(identity(1, 3))
    # ell = 2: e + zeta_i zeta_{i+1}
    pi = pi_element(2, 2, 1)
    expect = (GroupAlgebraElement.from_group(identity(2, 2))
              + GroupAlgebraElement.from_group(
                  color_generator(2, 2, 1) * color_generator(2, 2, 2)))
    assert pi == expect


def phi_relations_hold(ell, n):
    phis = [jm_element(ell, n, i) for i in range(1, n + 1)]
    zetas = [GroupAlgebraElement.from_group(color_generator(ell, n, i))
             for i in range(1, n + 1)]
    ss = [GroupAlgebraElement.from_group(simple_transposition(ell, n, i))
          for i in range(1, n)]
    for i in range(n):
        for j in range(n):
            if not (zetas[i] * phis[j] - phis[j] * zetas[i]).is_zero():
                return False
    for i in range(n - 1):
        for j in range(n):
            if j in (i, i + 1):
                continue
            if not (ss[i] * phis[j] - phis[j] * ss[i]).is_zero():
                return False
    for i in range(n - 1):
        lhs = ss[i] * phis[i]
        rhs = phis[i + 1] * ss[i] - pi_element(ell, n, i + 1)
        if not (lhs - rhs).is_zero():
            return False
    return True


def test_jm_defining_relations():
    assert phi_relations_hold(1, 3)
    assert phi_relations_hold(2, 3)
    assert phi_relations_hold(3, 2)


def test_jm_elements_commute():
    for ell, n in itertools.product((1, 2, 3), (2, 3, 4)):
        phis = [jm_element(ell, n, i) for i in range(1, n + 1)]
        for a, b in itertools.combinations(phis, 2):
            assert (a * b - b * a).is_zero()


def test_pi_squares_to_ell_times_pi():
    for ell, n in ((1, 3), (2, 2), (2, 3), (3, 2), (3, 3)):
        for i in range(1, n):
            pi = pi_element(ell, n, i)
            assert (pi * pi - pi.scale(ell)).is_zero()


def test_jm_commutes_with_whole_prefix_subgroup():
    # phi_i commutes with every element generated by zeta_1..zeta_{i-1} and
    # s_1..s_{i-2}, not merely with those generators one at a time
    import math
    for ell, n, i in ((1, 4, 4), (2, 3, 3), (3, 3, 3)):
        gens = [color_generator(ell, n, j) for j in range(1, i)]
        gens += [simple_transposition(ell, n, j) for j in range(1, i - 1)]
        seen = {identity(ell, n)}
        frontier = list(seen)
        while frontier:
            g = frontier.pop()
            for h in gens:
                prod = g * h
                if prod not in seen:
                    seen.add(prod)
                    frontier.append(prod)
        assert len(seen) == ell ** (i - 1) * math.factorial(i - 1)
        phi = jm_element(ell, n, i)
        for g in seen:
            ga = GroupAlgebraElement.from_group(g)
            assert (ga * phi - phi * ga).is_zero()


def test_evaluate_in_module():
    M = build_module(partition_shape(1, [[2, 1]]))
    s1 = evaluate_in_module(
        GroupAlgebraElement.from_group(simple_transposition(1, 3, 1)), M)
    assert s1 == generator_matrix(M, "s", 1)
    # phi_i acts exactly as u_i on a partition module
    for i in (1, 2, 3):
        phi = evaluate_in_module(jm_element(1, 3, i), M)
        assert phi == generator_matrix(M, "u", i)
    word = (GroupAlgebraElement.from_group(simple_transposition(1, 3, 1))
            * GroupAlgebraElement.from_group(simple_transposition(1, 3, 2)))
    assert evaluate_in_module(word, M) == (
        generator_matrix(M, "s", 1) * generator_matrix(M, "s", 2))
    # pi as an algebra element evaluates to the diagonal projector matrix
    for ell, parts in ((2, [[2], [1]]), (3, [[1], [], [2]])):
        M2 = build_module(partition_shape(ell, parts))
        for i in (1, 2):
            assert evaluate_in_module(pi_element(ell, 3, i), M2) == (
                generator_matrix(M2, "pi", i))


def test_evaluate_in_module_checks_parameters():
    M = build_module(partition_shape(1, [[2, 1]]))
    with pytest.raises(DimensionMismatch):
        evaluate_in_module(GroupAlgebraElement.from_group(identity(2, 3)), M)
    with pytest.raises(DimensionMismatch):
        evaluate_in_module(GroupAlgebraElement.from_group(identity(1, 4)), M)
    # a bare group element is read as itself with coefficient 1
    assert evaluate_in_module(simple_transposition(1, 3, 1), M) == generator_matrix(M, "s", 1)


@st.composite
def elements_in_modules(draw):
    """A module for ell <= 3, n <= 4, sound or corrupted in one s entry, u
    eigenvalue or color exponent, with a group-algebra element whose terms
    often share a permutation."""
    import random

    from test_modules import _corrupted

    ell = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value=4))
    shapes = enumerate_shapes(ell, n, n)
    M = build_module(draw(st.sampled_from(shapes)))
    kind = draw(st.sampled_from([None, "s", "u", "zeta"]))
    if kind is not None:
        M = _corrupted(M, random.Random(draw(st.integers(0, 2 ** 16))), kind)
    perms = draw(st.lists(st.permutations(list(range(1, n + 1))), min_size=1, max_size=3))
    colors = st.tuples(*(st.integers(min_value=0, max_value=ell - 1) for _ in range(n)))
    coeff = st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=ell)
    terms = draw(st.lists(st.tuples(colors, st.sampled_from(perms), coeff), max_size=8))
    x = GroupAlgebraElement(ell, n, [(GroupElement(ell, n, a, tuple(p)), Cyc(ell, c))
                                     for a, p, c in terms])
    return x, M


@given(elements_in_modules())
@settings(max_examples=150, deadline=None)
def test_evaluate_in_module_matches_reference(case):
    import module_reference as ref
    from mat_reference import RefMat

    x, M = case
    assert RefMat.of(evaluate_in_module(x, M)) == ref.evaluate(x, M, ref.diagonals(M)[1])


@st.composite
def random_elements(draw):
    perm1 = draw(st.permutations(list(range(1, 4))))
    perm2 = draw(st.permutations(list(range(1, 4))))
    perm3 = draw(st.permutations(list(range(1, 4))))
    colors = st.tuples(*(st.integers(min_value=0, max_value=2) for _ in range(3)))
    return [GroupElement(3, 3, draw(colors), tuple(p))
            for p in (perm1, perm2, perm3)]


@given(random_elements())
@settings(max_examples=80)
def test_group_axioms(gs):
    a, b, c = gs
    assert (a * b) * c == a * (b * c)
    assert (a * b).inverse() == b.inverse() * a.inverse()
    assert a * a.inverse() == identity(3, 3)
