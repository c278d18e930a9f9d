import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from classify_reference import (classify_roundtrip as reference_roundtrip, first_violation,
                                reconstruct as reference_reconstruct)
from heckemod import (
    ConditionFailed,
    EmptyShape,
    NoAddablePosition,
    Weight,
    check_weight_condition,
    classify_roundtrip,
    enumerate_shapes,
    enumerate_syt,
    is_standard,
    partition_shape,
    reconstruct,
    shift_contents,
    validate_and_canonicalize,
    violation_holds,
    weight_of,
)
from heckemod import classify
from heckemod.classify import ADJACENT_EQUAL, ConditionViolation


def w(a, b=None):
    a = tuple(Fraction(x) for x in a)
    return Weight(a, tuple(b) if b is not None else (0,) * len(a))


# ---------------------------------------------------------------------------
# the pairwise weight condition


def test_condition_accepts_tableau_weights():
    assert check_weight_condition(w([0, 1, -1]), 1) is None
    assert check_weight_condition(w([0, 1, -1, 0]), 1) is None
    assert check_weight_condition(w([0, 2, 1, 3, 2]), 1) is None
    assert check_weight_condition(w([0, 0], [0, 1]), 2) is None


def test_condition_adjacent_equal():
    v = check_weight_condition(w([0, 0]), 1)
    assert v is not None
    assert (v.kind, v.i, v.j) == ("AdjacentEqual", 1, 2)
    assert v.required_a is None
    assert v.to_json() == {"kind": "AdjacentEqual", "i": 1, "j": 2}
    # colors must match for the pair to clash
    assert check_weight_condition(w([0, 0], [0, 1]), 2) is None
    v2 = check_weight_condition(w([0, 0], [1, 1]), 2)
    assert v2 is not None and v2.kind == "AdjacentEqual"


def test_condition_missing_steps():
    v = check_weight_condition(w([0, -1, 0]), 1)
    assert (v.kind, v.i, v.j, v.required_a) == ("MissingUpStep", 1, 3, Fraction(1))
    assert v.to_json() == {"kind": "MissingUpStep", "i": 1, "j": 3, "required_a": "1"}
    v = check_weight_condition(w([0, 1, 0]), 1)
    assert (v.kind, v.i, v.j, v.required_a) == ("MissingDownStep", 1, 3, Fraction(-1))
    # steps are of size ell, and the up step is checked first
    v = check_weight_condition(w([0, 2, 0], [0, 0, 0]), 2)
    assert (v.kind, v.required_a) == ("MissingDownStep", Fraction(-2))


def test_condition_steps_of_wrong_color_do_not_count():
    # a_2 provides the up step numerically but in the wrong coordinate
    v = check_weight_condition(w([0, 2, 0], [0, 1, 0]), 2)
    assert v is not None
    assert v.kind == "MissingUpStep" and (v.i, v.j) == (1, 3)
    assert v.required_a == Fraction(2)


def test_violation_holds():
    weight = w([0, -1, 0])
    v = check_weight_condition(weight, 1)
    assert violation_holds(weight, 1, v)
    # the same witness against a weight that does have the step is no witness
    good = w([0, 1, -1])
    assert not violation_holds(good, 1, v)
    tampered = type(v)(kind=v.kind, i=2, j=3, required_a=v.required_a)
    assert not violation_holds(weight, 1, tampered)


# ---------------------------------------------------------------------------
# reconstruction


def test_reconstruct_partition_examples():
    D, T = reconstruct(w([0, 1, -1]), 1)
    assert D == partition_shape(1, [[2, 1]])
    assert T.labels == ((1, 2, 3),)
    D, T = reconstruct(w([0, -1, 1]), 1)
    assert D == partition_shape(1, [[2, 1]])
    assert T.labels == ((1, 3, 2),)
    D, T = reconstruct(w([0, 1, -1, 0]), 1)
    assert D == partition_shape(1, [[2, 2]])
    assert T.labels == ((1, 2, 3, 4),)


def test_reconstruct_needs_a_bridge():
    # label 3 joins the two earlier singletons into one skew hook
    D, T = reconstruct(w([0, 2, 1]), 1)
    assert len(D.components) == 1
    assert D.components[0].cells == ((1, 2), (2, 0), (2, 1))
    assert T.labels == ((2, 1, 3),)
    # same effect one step later
    D2, T2 = reconstruct(w([0, -1, 1, 0]), 1)
    assert D2 == partition_shape(1, [[2, 2]])
    assert T2.labels == ((1, 3, 2, 4),)


def test_reconstruct_separated_boxes():
    D, T = reconstruct(w([0, 5]), 1)
    assert [c.cells for c in D.components] == [((1, 0),), ((1, 5),)]
    assert T.labels == ((1,), (2,))


def test_reconstruct_splits_by_color():
    # same content, different colors: two independent single boxes
    D, T = reconstruct(w([0, 0], [0, 1]), 2)
    comps = D.components
    assert [(c.beta, c.offset, c.cells) for c in comps] == [
        (0, Fraction(0), ((1, 0),)),
        (1, Fraction(0), ((1, 0),)),
    ]
    assert T.labels == ((1,), (2,))


def test_reconstruct_offset_groups():
    # odd eigenvalue for ell = 2 lands in the half-offset family
    D, T = reconstruct(w([0, 1], [0, 1]), 2)
    comps = D.components
    assert [(c.beta, c.offset) for c in comps] == [(0, Fraction(0)), (1, Fraction(1, 2))]
    assert T.labels == ((1,), (2,))


def test_reconstruct_rejects_empty_weight():
    with pytest.raises(EmptyShape, match="at least one box"):
        reconstruct(Weight((), ()), 1)


def test_reconstruct_rejects_bad_weights():
    with pytest.raises(ConditionFailed) as exc:
        reconstruct(w([0, 0]), 1)
    assert exc.value.violation.kind == "AdjacentEqual"
    with pytest.raises(ConditionFailed) as exc:
        reconstruct(w([0, -1, 0]), 1)
    assert exc.value.violation.kind == "MissingUpStep"


def test_reconstruct_inverts_weight_of_exhaustively():
    # unique-preimage oracle: tabulate the weights of every filling of every
    # catalogue shape and compare against the reconstruction
    for ell, n in ((1, 3), (2, 3)):
        table = {}
        for D in enumerate_shapes(ell, n, n):
            for T in enumerate_syt(D):
                key = weight_of(T)
                assert key not in table, "weights must separate simple modules"
                table[key] = (D, T)
        for key, (D, T) in table.items():
            got_D, got_T = reconstruct(key, ell)
            assert got_D == D and got_T == T


def test_reconstruct_matches_incremental_reference(monkeypatch):
    # with the condition check switched off, every weight of the grid either
    # faults in both the diagonal rule and the incremental oracle, or gives
    # both the same pair: integral and half-integral a, mixed colours
    monkeypatch.setattr("heckemod.classify._first_violation", lambda entries, ell: None)

    def outcome(rebuild, weight, ell):
        try:
            return rebuild(weight, ell)
        except NoAddablePosition:
            return None

    grid = [(1, [(x, 0) for x in range(-2, 3)], 6),
            (2, [(x, b) for x in range(-2, 3) for b in (0, 1)]
             + [(Fraction(x, 2), 0) for x in (-1, 1, 3)], 4),
            (3, [(x, b) for x in (-3, 0, 3) for b in (0, 1, 2)] + [(Fraction(3, 2), 0)], 4)]
    faults = rebuilt = 0
    for ell, entries, max_n in grid:
        for n in range(1, max_n + 1):
            for entry in itertools.product(entries, repeat=n):
                a, b = zip(*entry)
                weight = w(a, b)
                got = outcome(reconstruct, weight, ell)
                assert got == outcome(reference_reconstruct, weight, ell), (ell, weight)
                faults += got is None
                rebuilt += got is not None
    assert (faults, rebuilt) == (36074, 25506)


def test_classify_roundtrip_reports():
    for D in enumerate_shapes(2, 3, 3):
        report = classify_roundtrip(D)
        assert report.ok
        assert len(report.checks) == len(enumerate_syt(D))
    report = classify_roundtrip(partition_shape(1, [[2, 1]]))
    assert [c.name for c in report.checks] == ["T1", "T2"]


def test_classify_roundtrip_offset_shape():
    D = validate_and_canonicalize(
        2, [(0, 0, [(1, 0), (1, 1)]), (1, Fraction(1, 2), [(1, 0)])])
    assert classify_roundtrip(D).ok


def test_classify_roundtrip_matches_per_tableau_reference():
    # the integer round trip against reconstruct(weight_of(T)) == (D, T) on
    # every catalogue shape, slid by 1/2, and with a distinct offset per
    # component (integral a with rem > 0 at ell = 3, half-integral a at ell = 1)
    compared = 0
    for ell in (1, 2, 3):
        for n in range(1, 5):
            for D in enumerate_shapes(ell, n, n):
                spread = validate_and_canonicalize(
                    ell, [(c.beta, c.offset + Fraction(k, n + 1), c.cells)
                          for k, c in enumerate(D.components)])
                for shape in (D, shift_contents(D, Fraction(1, 2)), spread):
                    report = classify_roundtrip(shape)
                    assert report.ok and report == reference_roundtrip(shape)
                    compared += len(report.checks)
    assert compared == 3 * 3860


def test_is_isomorphic():
    a = partition_shape(1, [[2, 1]])
    slid = validate_and_canonicalize(1, [(0, 0, [(5, 0), (5, 1), (6, -1)])])
    assert a == slid
    assert a != partition_shape(1, [[3]])
    assert a != shift_contents(a, 1)


@st.composite
def corpus_weights(draw):
    ell = draw(st.integers(min_value=1, max_value=2))
    shapes = enumerate_shapes(ell, 4, 4)
    D = shapes[draw(st.integers(min_value=0, max_value=len(shapes) - 1))]
    ts = enumerate_syt(D)
    T = ts[draw(st.integers(min_value=0, max_value=len(ts) - 1))]
    return ell, D, T


@given(corpus_weights())
@settings(max_examples=80, deadline=None)
def test_roundtrip_property(args):
    ell, D, T = args
    got_D, got_T = reconstruct(weight_of(T), ell)
    assert got_D == D and got_T == T


@st.composite
def colored_weights(draw):
    """ell <= 4 and n <= 10, with colour exponents and rational u-eigenvalues
    of denominator at most 3."""
    ell = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=10))
    a = draw(st.lists(st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3])),
                      min_size=n, max_size=n))
    b = draw(st.lists(st.integers(min_value=0, max_value=ell - 1), min_size=n, max_size=n))
    return ell, Weight(tuple(a), tuple(b))


@given(colored_weights())
@settings(max_examples=200, deadline=None)
def test_condition_passing_weights_always_reconstruct(case):
    # the classification theorem: every weight that passes the condition
    # comes from a shape and a standard tableau
    ell, weight = case
    if check_weight_condition(weight, ell) is not None:
        return
    D, T = reconstruct(weight, ell)
    assert validate_and_canonicalize(ell, D.components) == D
    assert is_standard(T)
    assert weight_of(T) == weight


@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=5))
@settings(max_examples=120, deadline=None)
def test_condition_failure_witnesses_hold(a):
    weight = w(a)
    v = check_weight_condition(weight, 1)
    if v is None:
        return
    assert violation_holds(weight, 1, v)
    assert 1 <= v.i < v.j <= len(a)


# ---------------------------------------------------------------------------
# library weights are strict


@pytest.mark.parametrize("weight, ell, field", [
    (Weight((Fraction(0), Fraction(1)), (0, 1.5)), 2, "'b'"),   # not read as colour 1
    (Weight((Fraction(0), Fraction(1)), (0, True)), 2, "'b'"),  # nor is a bool
    (Weight((Fraction(0), 0.5), (0, 1)), 2, "'a'"),             # a float is no rational
    (Weight((Fraction(0), "1/2"), (0, 1)), 2, "'a'"),           # nor is a string
    (Weight((Fraction(0), Fraction(1)), (0, 1)), 0, "'ell'"),   # no bare ZeroDivisionError
    (Weight((Fraction(0),), (0,)), True, "'ell'"),
    (Weight((0.5, Fraction(1)), (0, True)), 2, "'b'"),          # a bad 'b' wins over 'a'
    (Weight((0,), (0, 0)), 1, "'b'"),                           # 'b' longer than 'a'
])
def test_library_weights_are_strict(weight, ell, field):
    for call in (lambda: reconstruct(weight, ell),
                 lambda: check_weight_condition(weight, ell)):
        with pytest.raises(ValueError, match=f"weight field {field}"):
            call()


def test_library_weights_accept_int_eigenvalues():
    assert reconstruct(Weight((0, 1, -1), (0, 0, 0)), 1) == reconstruct(w([0, 1, -1]), 1)
    v = check_weight_condition(Weight((0, -1, 0), (2, 2, 0)), 2)
    assert (v.kind, v.required_a) == ("MissingUpStep", Fraction(2))
    assert type(v.required_a) is Fraction


# ---------------------------------------------------------------------------
# the one-pass condition scan against the quadratic pair scan


def test_condition_matches_reference_exhaustively():
    compared = 0
    for ell in (1, 2):
        for n in range(1, 5):
            for a in itertools.product(range(-2, 3), repeat=n):
                for b in itertools.product(range(ell), repeat=n):
                    weight = w(a, b)
                    assert check_weight_condition(weight, ell) == first_violation(weight, ell)
                    compared += 1
    assert compared == 780 + 11110


@st.composite
def random_weights(draw):
    ell = draw(st.integers(min_value=1, max_value=4))
    den = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(min_value=1, max_value=12))
    a = draw(st.lists(st.integers(min_value=-2 * ell * den, max_value=2 * ell * den),
                      min_size=n, max_size=n))
    b = draw(st.lists(st.integers(min_value=0, max_value=ell - 1), min_size=n, max_size=n))
    return ell, Weight(tuple(Fraction(x, den) for x in a), tuple(b))


@given(random_weights())
@settings(max_examples=400, deadline=None)
def test_condition_matches_reference(args):
    ell, weight = args
    v = check_weight_condition(weight, ell)
    assert v == first_violation(weight, ell)
    assert v is None or violation_holds(weight, ell, v)


@st.composite
def passing_weights(draw):
    """Weights grown one entry at a time among the entries that keep the
    condition: appending only adds the pair ending at the new entry.  Values
    stay in a narrow band so that boxes meet and merge; a value far from all
    others (content 100 * step) always keeps the condition."""
    ell = draw(st.integers(min_value=1, max_value=4))
    colours = draw(st.integers(min_value=1, max_value=ell))
    den = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(min_value=1, max_value=12))
    values = [Fraction(x, den) for x in range(-2 * ell * den, 2 * ell * den + 1)]
    a, b = (), ()
    for step in range(1, n + 1):
        options = [(x, c) for x in values for c in range(colours)
                   if check_weight_condition(Weight(a + (x,), b + (c,)), ell) is None]
        x, c = draw(st.sampled_from(options + [(Fraction(100 * ell * step), 0)]))
        a, b = a + (x,), b + (c,)
    return ell, Weight(a, b)


@given(passing_weights())
@settings(max_examples=200, deadline=None)
def test_passing_weights_reconstruct_canonically(args):
    ell, weight = args
    assert check_weight_condition(weight, ell) is None
    D, T = reconstruct(weight, ell)
    assert validate_and_canonicalize(ell, D.components) == D
    assert is_standard(T)
    assert weight_of(T) == weight


def test_classify_roundtrip_names_its_two_witnesses(monkeypatch):
    # every tableau weight passes the condition and reconstructs to its own
    # pair, so both witnesses are reached only with the classifier patched;
    # the placement keeps its cells but reverses its labels, which count too
    D = partition_shape(1, [[2, 1]])
    place = classify._place
    with monkeypatch.context() as patch:
        patch.setattr("heckemod.classify._place", lambda entries, ell: [
            (key, cells, labels[::-1]) for key, cells, labels in place(entries, ell)])
        report = classify_roundtrip(D)
    assert [(c.name, c.ok, c.witness) for c in report.checks] == [
        ("T1", False, (1, 0, "reconstructed a different pair")),
        ("T2", False, (2, 0, "reconstructed a different pair"))]
    violation = ConditionViolation(ADJACENT_EQUAL, 1, 2)
    monkeypatch.setattr("heckemod.classify._first_violation", lambda entries, ell: violation)
    report = classify_roundtrip(D)
    assert not report.ok and [c.witness for c in report.checks] == [
        (t, 0, f"condition: {violation}") for t in (1, 2)]
    assert report == reference_roundtrip(D)
