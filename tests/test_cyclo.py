import fractions
import json
import math
import operator
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from heckemod import Cyc, MismatchedField, cyclotomic_polynomial, root_of_unity
from heckemod import cyclo
from heckemod.cyclo import degree, fraction_from_str, fraction_to_str

from cyclo_reference import RefCyc, _poly_divmod as ref_divmod, ref_root_of_unity


def test_cyclotomic_polynomial_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    with pytest.raises(ValueError, match="^ell must be a positive integer$"):
        cyclotomic_polynomial(0)


def test_degree_is_totient():
    for ell in range(1, 25):
        phi = sum(1 for k in range(1, ell + 1) if math.gcd(k, ell) == 1)
        assert degree(ell) == phi
        assert len(cyclotomic_polynomial(ell)) == phi + 1


def test_product_of_cyclotomics_is_x_to_ell_minus_one():
    # prod_{d | ell} Phi_d(x) = x^ell - 1
    for ell in (1, 2, 3, 4, 6, 8, 12):
        prod = [Fraction(1)]
        for d in range(1, ell + 1):
            if ell % d == 0:
                phi_d = cyclotomic_polynomial(d)
                out = [Fraction(0)] * (len(prod) + len(phi_d) - 1)
                for i, p in enumerate(prod):
                    for j, q in enumerate(phi_d):
                        out[i + j] += p * q
                prod = out
        expect = [Fraction(0)] * (ell + 1)
        expect[0] = Fraction(-1)
        expect[ell] = Fraction(1)
        assert list(prod) == expect


def test_root_of_unity_basics():
    for ell in range(1, 10):
        z = root_of_unity(ell, 1)
        assert z ** ell == Cyc.from_rational(ell, 1)
        assert root_of_unity(ell, 0).is_rational()
    z3 = root_of_unity(3, 1)
    assert z3 + z3 ** 2 + 1 == 0
    assert root_of_unity(4, 1) ** 2 == -1
    assert root_of_unity(6, 1) ** 3 == -1
    assert root_of_unity(2, 1) == -1
    assert root_of_unity(1, 1) == 1
    # exponents reduce mod ell
    assert root_of_unity(5, 7) == root_of_unity(5, 2)


def test_geometric_sum_vanishes():
    for ell in (2, 3, 4, 5, 6, 7):
        for j in range(1, ell):
            total = sum((root_of_unity(ell, j) ** k for k in range(ell)),
                        Cyc.zero(ell))
            if math.gcd(j, ell) == ell:
                assert total == ell
            else:
                assert total.is_zero()


def test_inverse_examples():
    z = root_of_unity(3, 1)
    inv = (1 + z).inverse()
    assert inv == -z
    assert (1 + z) * inv == 1
    i = root_of_unity(4, 1)
    assert (1 - i).inverse() == Cyc(4, ["1/2", "1/2"])
    with pytest.raises(ZeroDivisionError):
        Cyc.zero(5).inverse()


def test_rational_detection():
    z = root_of_unity(3, 1)
    assert (z + z ** 2).as_rational() == Fraction(-1)
    assert not z.is_rational()
    with pytest.raises(ValueError):
        z.as_rational()
    assert Cyc(6, ["2/3"]).as_rational() == Fraction(2, 3)


def test_mismatched_field():
    with pytest.raises(MismatchedField):
        root_of_unity(2, 1) + root_of_unity(3, 1)
    with pytest.raises(MismatchedField):
        root_of_unity(2, 1) * root_of_unity(4, 1)


def test_json_roundtrip():
    x = Cyc(5, ["1/2", "-3", "0", "7/4"])
    data = x.to_json()
    assert data["ell"] == 5
    assert Cyc.from_json(data) == x
    assert Cyc.from_json(Cyc.zero(1).to_json()).is_zero()


def test_fraction_strings():
    assert fraction_to_str(Fraction(-3, 7)) == "-3/7"
    assert fraction_to_str(Fraction(5)) == "5"
    assert fraction_from_str("-3/7") == Fraction(-3, 7)
    assert fraction_from_str("5") == Fraction(5)
    assert fraction_from_str(-2) == Fraction(-2)
    # inexact, non-numeric and non-finite values are refused by name
    for bad in (0.5, float("nan"), float("inf"), True, "1/0", "x", None):
        with pytest.raises(ValueError, match="^coefficient must be a rational"):
            fraction_from_str(bad, "coefficient")


def test_coefficients_are_read_exactly():
    # a coefficient that is not an int or a Fraction is read by
    # fraction_from_str: strings are read, floats and bools refused by name
    assert Cyc(3, ["1/2", -1, Fraction(2, 3)]) == Cyc(3, [Fraction(1, 2), -1, Fraction(2, 3)])
    assert Cyc.from_rational(3, "-3/2") == Fraction(-3, 2)
    for bad in (0.1, True, float("nan"), "x", None):
        message = f"^coefficient must be a rational .*, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            Cyc(1, [bad])
        with pytest.raises(ValueError, match=message):
            Cyc.from_rational(3, bad)


# the fraction_from_str oracle: every string, on the ASCII fast path or not,
# reads as Fraction(s) reads it, and a string Fraction refuses is refused
rational_texts = st.one_of(
    st.text(alphabet="0123456789-+/._eE \t\u0663\uff15\u00b2", max_size=12),
    st.builds(lambda p, q, form: form.format(p, q), st.integers(-10 ** 30, 10 ** 30),
              st.integers(0, 10 ** 30), st.sampled_from(["{0}", "{0}/{1}", " {0}/{1}",
                                                         "+{1}", "{1}/{0}", "0{1}"])))


def _fraction_or_refused(s):
    # the reader refuses a decimal exponent beyond +-4 300 before Fraction
    # would expand it, so the oracle reads Fraction's own exponent group and
    # never builds such a number either; it also refuses a numerator or
    # denominator with more digits than the interpreter writes, as int() does
    try:
        m = fractions._RATIONAL_FORMAT.match(s)
        if m and m.group("exp") and abs(int(m.group("exp"))) > 4300:
            return None
        q = Fraction(s)
    except (ValueError, ZeroDivisionError):
        return None
    bound = 10 ** sys.get_int_max_str_digits()
    return q if abs(q.numerator) < bound and q.denominator < bound else None


def _read_or_refused(s):
    try:
        q = fraction_from_str(s, "entry")
    except ValueError as exc:
        assert str(exc) == f"entry must be a rational (an integer or a string such as -3/2), got {s!r}"
        return None
    assert type(q) is Fraction
    return q


@given(rational_texts)
@settings(max_examples=400)
def test_fraction_from_str_reads_as_fraction_does(s):
    # each text read cold, then warm (from the memo, if it is plain)
    cyclo._memo_plain.cache_clear()
    expected = _fraction_or_refused(s)
    assert _read_or_refused(s) == expected
    assert _read_or_refused(s) == expected


@pytest.mark.parametrize("s", ["+5", " 5 ", "-0", "007", "3/-6", "5/0", "0/0", "1.5", "1e3",
                               "1_0", "", "/2", "9" * 5000, "-3/6", "0/7", "\u0663/\uff15",
                               "5\n", "1/2/3", "--1", "1 /2", "\u00b2", "1.5e-3", "0E10",
                               "1e4300", "1e-4300", " 1e+4300 ", "1e4301", "1e-999999999",
                               "0E1000000", "1e9_999_999", "1e\u0664\u0663\u0660\u0661",
                               "1e\u0663", "1e" + "0" * 5000 + "1"])
def test_fraction_from_str_edge_cases(s):
    assert _read_or_refused(s) == _fraction_or_refused(s)


def test_memo_takes_only_plain_texts():
    memo = cyclo._memo_plain
    assert fraction_from_str("1") == fraction_from_str(1) == 1
    # a bool or float equal to 1 would share the key of "1"; it is refused
    for bad in (True, 1.0, False):
        with pytest.raises(ValueError, match=f"^entry must be a rational .*, got {re.escape(repr(bad))}$"):
            fraction_from_str(bad, "entry")
    # a refusal is not cached: each message names its own caller
    for what in ("weight field 'a'", "KAPPA"):
        with pytest.raises(ValueError, match=f"^{re.escape(what)} must be a rational .*, got '5/0'$"):
            fraction_from_str("5/0", what)
    # a text of more than 40 characters is read afresh, plain or not
    for long in ("9" * 41, "-" + "9" * 40, "1/" + "7" * 39, " " + "3" * 40):
        size = memo.cache_info().currsize
        assert fraction_from_str(long) == Fraction(long)
        assert memo.cache_info().currsize == size


def test_memo_answers_never_depend_on_the_digit_limit():
    texts = ("1e700", "9" * 700, "1/" + "3" * 700)
    for s in texts:
        assert fraction_from_str(s) == Fraction(s)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for s in texts:
            with pytest.raises(ValueError, match="^entry must be a rational"):
                fraction_from_str(s, "entry")
        assert fraction_from_str("-" + "9" * 39) == -(10 ** 39 - 1)
    finally:
        sys.set_int_max_str_digits(limit)


def test_per_ell_caches_are_bounded():
    assert cyclo._field.cache_info().maxsize == 256
    # more fields than the bound, each with a product that reaches degree phi
    for ell in range(1, 301):
        assert degree(ell) == len(cyclotomic_polynomial(ell)) - 1
        assert Cyc.zero(ell) + Cyc.one(ell) == 1
        last = root_of_unity(ell, ell - 1)
        assert last * last == root_of_unity(ell, ell - 2)
    assert cyclo._field.cache_info().currsize == 256
    # an evicted field is rebuilt the same
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyc_reads_ell_and_coeffs_strictly():
    for bad in (2.9, 2.0, True, 0, -1, "3", None):
        message = f"^Cyc field 'ell' must be a positive integer, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            Cyc(bad, [1])
        with pytest.raises(ValueError, match=message):
            Cyc.from_json({"ell": bad, "coeffs": ["1"]})
        for make in (lambda: Cyc.from_rational(bad, 5), lambda: Cyc.zero(bad),
                     lambda: Cyc.one(bad), lambda: root_of_unity(bad, 1)):
            with pytest.raises(ValueError, match=message):
                make()
    for bad in ("12", 12, None, {"0": "1"}):
        message = f"^Cyc field 'coeffs' must be an array, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            Cyc.from_json({"ell": 3, "coeffs": bad})
    with pytest.raises(ValueError, match=r"^Cyc field 'coeffs' must be a rational .*, got 0\.5$"):
        Cyc.from_json({"ell": 3, "coeffs": ["1", 0.5]})
    assert Cyc.from_json({"ell": 3, "coeffs": ["1", 2]}) == Cyc(3, [1, 2])


def test_fraction_to_str_writes_only_exact_rationals():
    assert fraction_to_str(-4) == "-4"
    assert fraction_to_str(Fraction(6, -4)) == "-3/2"
    for bad in (0.1, 0.5, 2.0, True, False, "1/2", None, Cyc(1, [1])):
        message = f"^only an int or a Fraction is written as a rational, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            fraction_to_str(bad)


def test_power_identities():
    z = root_of_unity(5, 1)
    assert z ** -3 == z ** 2
    assert z ** 0 == 1
    assert (1 + z) ** -2 == ((1 + z).inverse()) ** 2


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def field_elements(draw, ell=None):
    if ell is None:
        ell = draw(st.integers(min_value=1, max_value=6))
    coeffs = draw(st.lists(rationals, min_size=1, max_size=degree(ell)))
    return Cyc(ell, coeffs)


@st.composite
def element_triples(draw):
    ell = draw(st.integers(min_value=1, max_value=6))
    return (draw(field_elements(ell=ell)), draw(field_elements(ell=ell)),
            draw(field_elements(ell=ell)))


@given(element_triples())
def test_ring_axioms(xs):
    a, b, c = xs
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero()
    assert a + (-a) == 0


@given(field_elements())
def test_multiplicative_inverse(x):
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        assert x * x.inverse() == 1
        assert (x / x) == 1


@given(field_elements())
def test_json_roundtrip_property(x):
    assert Cyc.from_json(x.to_json()) == x


# ---------------------------------------------------------------------------
# differential tests against the Fraction-polynomial reference oracle

# small denominators with common factors, so sums and products cancel
small_rationals = st.builds(Fraction, st.integers(-12, 12),
                            st.sampled_from([1, 2, 3, 4, 6, 12]))


@st.composite
def raw_pairs(draw, max_ell=12):
    """(ell, coefficient list) with lists up to twice the degree plus three,
    so inputs longer than phi(ell) are reduced."""
    ell = draw(st.integers(min_value=1, max_value=max_ell))
    coeffs = draw(st.lists(small_rationals, max_size=2 * degree(ell) + 3))
    return ell, coeffs


def same(x, ref):
    assert isinstance(x, Cyc)
    assert x.ell == ref.ell
    assert all(type(c) is Fraction for c in x.coeffs)
    assert x.coeffs == ref.coeffs
    assert repr(x) == repr(ref)
    assert json.dumps(x.to_json()) == json.dumps(ref.to_json())


def canonical(x):
    num, den = x._num, x._den
    assert len(num) == degree(x.ell) and den > 0
    assert math.gcd(den, *num) == 1
    return x


@given(raw_pairs(), st.data())
def test_matches_reference(pair, data):
    ell, ca = pair
    cb = data.draw(st.lists(small_rationals, max_size=2 * degree(ell) + 3))
    a, b = canonical(Cyc(ell, ca)), canonical(Cyc(ell, cb))
    ra, rb = RefCyc(ell, ca), RefCyc(ell, cb)
    same(a, ra)
    same(b, rb)
    same(canonical(a + b), ra + rb)
    same(canonical(a - b), ra - rb)
    same(canonical(-a), -ra)
    same(canonical(a * b), ra * rb)
    q = data.draw(small_rationals)
    k = data.draw(st.integers(-5, 5))
    for x, rx in ((q, q), (k, k)):
        same(a + x, ra + rx)
        same(x + a, rx + ra)
        same(a - x, ra - rx)
        same(x - a, rx - ra)
        same(a * x, ra * rx)
        same(x * a, rx * ra)
        assert (a == x) == (ra == rx)
        assert Cyc.from_rational(ell, x) == x == Cyc(ell, [x])
        assert Cyc(ell, [x]) != x + 1
    if b:
        same(canonical(b.inverse()), rb.inverse())
        same(a / b, ra / rb)
        same(k / b, k / rb)
    e = data.draw(st.integers(-3, 3))
    if a or e >= 0:
        same(canonical(a ** e), ra ** e)
    assert (a == b) == (ra == rb)
    assert Cyc.from_json(json.loads(json.dumps(a.to_json()))) == a


@given(raw_pairs(max_ell=30))
@settings(deadline=None)
def test_inverse_matches_reference_up_to_degree_28(pair):
    ell, coeffs = pair
    x = Cyc(ell, coeffs)
    if x:
        same(canonical(x.inverse()), RefCyc(ell, coeffs).inverse())
    else:
        with pytest.raises(ZeroDivisionError):
            x.inverse()


@given(raw_pairs(), st.data())
def test_hash_agrees_with_equality(pair, data):
    ell, coeffs = pair
    x = Cyc(ell, coeffs)
    # the same element, reached by adding a multiple of Phi_ell and by
    # rescaling numerator and denominator
    m = data.draw(small_rationals)
    phi_multiple = [m * c for c in cyclotomic_polynomial(ell)]
    padded = list(coeffs) + [0] * (len(phi_multiple) - len(coeffs))
    y = Cyc(ell, [p + f for p, f in zip(padded, phi_multiple)]
            + padded[len(phi_multiple):])
    z = (x * 6) / 6
    for other in (y, z, x + 0, Cyc.from_json(x.to_json())):
        assert other == x and hash(other) == hash(x)
    if x.is_rational():
        assert x == x.as_rational()
        assert hash(x) == hash(x.as_rational())


def test_shared_factors_cancel():
    x = Cyc(3, ["1/6", "1/3"]) + Cyc(3, ["1/3", "1/6"])
    assert x.coeffs == (Fraction(1, 2), Fraction(1, 2))
    assert canonical(x)._den == 2
    y = Cyc(4, ["2/4", "6/4", "0", "0", "1/2"])  # x**4 = 1 modulo x**2 + 1
    assert y.coeffs == (Fraction(1), Fraction(3, 2))
    assert canonical(Cyc(5, ["1/3", "-1/3"]) * 3)._den == 1
    assert canonical(Cyc(1, ["2/3"]) - Fraction(2, 3)) == 0
    assert Cyc(2, [4]) / 6 == Fraction(2, 3)


def test_degree_phi_products_match_polynomial_division():
    # zeta**i * zeta**j with i, j < phi and phi <= i + j <= 2*phi - 2: every
    # degree above phi - 1 that a product's convolution reaches
    for ell in range(1, 31):
        phi = degree(ell)
        poly = list(cyclotomic_polynomial(ell))
        for k in range(phi, 2 * phi - 1):
            _, rem = ref_divmod([Fraction(0)] * k + [Fraction(1)], poly)
            rem += [Fraction(0)] * (phi - len(rem))
            for i in range(k - phi + 1, phi):
                product = root_of_unity(ell, i) * root_of_unity(ell, k - i)
                assert list(product.coeffs) == rem, (ell, i, k - i)
                same(product, ref_root_of_unity(ell, i) * ref_root_of_unity(ell, k - i))


def test_products_below_degree_phi_never_divide(monkeypatch):
    # a product whose convolution stays below degree phi (phi = 210 here)
    # truncates it and never divides by Phi_ell
    ell = 211
    phi = degree(ell)
    half, third = Cyc.from_rational(ell, Fraction(1, 2)), Cyc.from_rational(ell, Fraction(-2, 3))
    z5, z100, z109 = (root_of_unity(ell, k) for k in (5, 100, phi - 101))
    half_z5, top = Cyc(ell, [0] * 5 + [Fraction(1, 2)]), root_of_unity(ell, phi - 1)
    z1 = root_of_unity(ell, 1)
    calls = []
    divmod_monic = cyclo._divmod_monic
    monkeypatch.setattr(cyclo, "_divmod_monic",
                        lambda a, b: calls.append(len(a)) or divmod_monic(a, b))
    assert half * third == Fraction(-1, 3)
    assert half * z5 == half_z5
    assert z100 * z109 == top
    assert calls == []
    # one division for a product that reaches degree phi
    product = top * z1
    assert calls == [2 * phi - 1]
    same(product, ref_root_of_unity(ell, phi - 1) * ref_root_of_unity(ell, 1))


def test_foreign_operands_are_refused():
    x = root_of_unity(3, 1)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        for a, b in ((x, "1"), ("1", x), (x, 0.5), (None, x)):
            with pytest.raises(TypeError):
                op(a, b)
    assert x.__eq__("x") is NotImplemented
    assert (x == "x") is False and x != "x"


def test_elements_are_read_only():
    x = root_of_unity(3, 1)
    with pytest.raises(AttributeError):
        x.ell = 4
    with pytest.raises(AttributeError):
        x.coeffs = (Fraction(1), Fraction(0))
    with pytest.raises(AttributeError):
        x.extra = 1


def test_zero_and_one_are_shared():
    assert Cyc.zero(3) is Cyc.zero(3) and Cyc.one(3) is Cyc.one(3)
    assert Cyc.zero(3).coeffs == (0, 0) and Cyc.one(3).coeffs == (1, 0)
    assert Cyc.zero(3) + root_of_unity(3, 1) == root_of_unity(3, 1)
    # the field is named by an int: a bool is refused before the per-ell
    # cache, where True and 1 share a key
    for make in (Cyc.zero, Cyc.one, lambda ell: Cyc.from_rational(ell, 2)):
        with pytest.raises(ValueError, match="^Cyc field 'ell' must be a positive integer"):
            make(True)
        assert type(make(1).ell) is int


def test_equality_is_transitive_across_fields():
    # rational elements of different fields are equal when their values are,
    # so a set of them does not depend on insertion order; irrational ones of
    # different fields stay unequal, and arithmetic across fields still raises
    a, b = Cyc.one(1), Cyc.one(2)
    assert a == 1 == b and a == b
    assert len({a, 1, b}) == len({1, a, b}) == 1
    assert Cyc(3, ["-2/3", "0"]) == Cyc(5, ["-2/3"]) == Fraction(-2, 3)
    assert Cyc.zero(4) == Cyc.zero(1) and Cyc(3, ["1/2"]) != Cyc(4, ["1/3"])
    assert root_of_unity(3, 1) != root_of_unity(6, 2)
    assert Cyc(3, ["1", "1"]) != Cyc(4, ["1", "1"]) and Cyc(3, ["1", "1"]) != Cyc.one(1)
    with pytest.raises(MismatchedField):
        a + b
