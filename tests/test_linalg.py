from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from heckemod import Cyc, DimensionMismatch, Mat, block_diag, nullspace_dim, root_of_unity
from cyclo_reference import RefCyc, ref_root_of_unity
from mat_reference import RefMat, block_diag as ref_block_diag


def test_constructors_and_indexing():
    m = Mat.zero(3, 2, 2)
    assert m.is_zero()
    m[0, 1] = 5
    assert m[0, 1] == 5
    assert m[1, 0].is_zero()
    m[0, 1] = 0
    assert m.is_zero()
    eye = Mat.identity(3, 4)
    assert eye.diagonal_entries() == [Cyc.from_rational(3, 1)] * 4
    d = Mat.diagonal(2, [1, Fraction(1, 2), -1])
    assert d[1, 1] == Fraction(1, 2)
    assert d.nrows == d.ncols == 3
    # the entries as Cycs, in a view that cannot be written through
    assert d.data == {(0, 0): 1, (1, 1): Fraction(1, 2), (2, 2): -1}
    with pytest.raises(TypeError):
        d.data[0, 1] = 1
    with pytest.raises(AttributeError):
        d.data = {}
    # a string coefficient is read exactly; an entry over another field is refused
    assert Mat.diagonal(2, ["1/2", "-3"]) == Mat.diagonal(2, [Fraction(1, 2), -3])
    with pytest.raises(DimensionMismatch,
                       match=r"^entry over Q\(zeta_5\) in a matrix over Q\(zeta_3\)$"):
        m[0, 0] = root_of_unity(5, 1)


def test_arithmetic():
    z = root_of_unity(3, 1)
    a = Mat.zero(3, 2, 2)
    a[0, 0] = 1
    a[0, 1] = z
    a[1, 1] = 2
    b = Mat.zero(3, 2, 2)
    b[0, 0] = z
    b[1, 0] = 1
    c = a * b
    # [[1, z], [0, 2]] * [[z, 0], [1, 0]] = [[z + z, 0], [2, 0]]
    assert c[0, 0] == z + z
    assert c[1, 0] == 2
    assert c[0, 1].is_zero() and c[1, 1].is_zero()
    assert (a - a).is_zero()
    assert a + (-a) == Mat.zero(3, 2, 2)
    assert a.scale(z)[0, 1] == z * z
    eye = Mat.identity(3, 2)
    assert a * eye == a and eye * a == a


def test_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        Mat.zero(2, 2, 2) + Mat.zero(2, 3, 3)
    with pytest.raises(DimensionMismatch):
        Mat.zero(2, 2, 3) * Mat.zero(2, 2, 3)
    for combine in (lambda a, b: a + b, lambda a, b: a * b):
        with pytest.raises(DimensionMismatch, match="^matrices over different fields$"):
            combine(Mat.identity(3, 2), Mat.identity(2, 2))


def test_dense_and_column():
    m = Mat.zero(1, 2, 3)
    m[1, 2] = Fraction(7, 2)
    rows = m.dense()
    assert len(rows) == 2 and len(rows[0]) == 3
    assert rows[1][2] == Fraction(7, 2)
    assert rows[0][0].is_zero()


def test_block_diag():
    a = Mat.identity(2, 2)
    b = Mat.zero(2, 1, 1)
    b[0, 0] = -1
    m = block_diag(2, [a, b])
    assert m.nrows == m.ncols == 3
    assert m[0, 0] == 1 and m[1, 1] == 1 and m[2, 2] == -1
    assert m[0, 2].is_zero() and m[2, 0].is_zero()
    with pytest.raises(DimensionMismatch, match="^block over a different field$"):
        block_diag(2, [a, Mat.identity(3, 1)])


def test_nullspace_dim():
    one = Cyc.from_rational(3, 1)
    z = root_of_unity(3, 1)
    # no equations: everything is free
    assert nullspace_dim([], 4, 3) == 4
    # independent unit rows
    rows = [{0: one}, {1: one}]
    assert nullspace_dim(rows, 3, 3) == 1
    # second row is z^2 * first: (1, z) and (z^2, z^3=1)
    rows = [{0: one, 1: z}, {0: z * z, 1: one}]
    assert nullspace_dim(rows, 2, 3) == 1
    # genuinely independent pair
    rows = [{0: one, 1: z}, {0: one, 1: -z}]
    assert nullspace_dim(rows, 2, 3) == 0
    # zero rows contribute nothing
    assert nullspace_dim([{}, {0: Cyc.zero(3)}], 2, 3) == 2


@st.composite
def small_matrices(draw):
    z = root_of_unity(3, 1)
    basis = [Cyc.from_rational(3, 1), z, z * z, Cyc.from_rational(3, -2)]
    mats = []
    for _ in range(3):
        m = Mat.zero(3, 2, 2)
        for i in range(2):
            for j in range(2):
                pick = draw(st.integers(min_value=-1, max_value=3))
                if pick >= 0:
                    m[i, j] = basis[pick]
        mats.append(m)
    return mats


@given(small_matrices())
@settings(deadline=None)
def test_matrix_ring_axioms(mats):
    a, b, c = mats
    assert (a + b) * c == a * c + b * c
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a


small_fractions = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6]))


def pair(ell, nrows, ncols, entries):
    """A Mat and a reference matrix over RefCyc with the same entries, given
    as {(row, col): Fraction or RefCyc}."""
    m = Mat.zero(ell, nrows, ncols)
    ref = RefMat(RefCyc, ell, nrows, ncols)
    for key, v in entries.items():
        m[key] = Cyc(ell, v.coeffs) if isinstance(v, RefCyc) else v
        ref[key] = v
    return m, ref


def agrees(m, ref, from_entries=False):
    """m holds ref's values, in integer rows over one positive denominator.

    Each stored x is an int or an integral Cyc.  A matrix built from its
    entries (``from_entries``: set entry by entry, copied, negated, a
    diagonal or a block sum) stores an int for every rational entry, so a
    Cyc only where the entry leaves Q; a product, sum or scaling may hold a
    rational integral Cyc, as zeta_3 * zeta_3**2 = 1."""
    assert m.den > 0 and all(m.rows.values())
    xs = [x for row in m.rows.values() for x in row.values()]
    if from_entries:
        assert all(type(x) is int or (not x.is_rational() and x._den == 1) for x in xs)
    else:
        assert all(type(x) is int or x._den == 1 for x in xs)
    return (m.nrows, m.ncols) == (ref.nrows, ref.ncols) and RefMat.of(m, RefCyc) == ref


@st.composite
def kernel_triples(draw):
    """Matrices a, a2 (r x k) and b (k x c) over one field, with entries 0,
    small rationals and rational multiples of zeta**k, so the rows mix ints
    and integral Cycs."""
    ell = draw(st.integers(min_value=1, max_value=6))
    r, k, c = (draw(st.integers(min_value=1, max_value=4)) for _ in range(3))
    entries = st.one_of(st.just(Fraction(0)), small_fractions,
                        st.builds(lambda q, e: q * ref_root_of_unity(ell, e),
                                  small_fractions, st.integers(0, ell - 1)))

    def draw_pair(nrows, ncols):
        return pair(ell, nrows, ncols, {(i, j): draw(entries)
                                        for i in range(nrows) for j in range(ncols)})
    return draw_pair(r, k), draw_pair(r, k), draw_pair(k, c), draw(entries)


@given(kernel_triples())
def test_scaled_kernel_matches_mat(case):
    # the dict-of-entries reference over RefCyc is the oracle for Mat's
    # integer rows: no code is shared with linalg or cyclo
    (a, ra), (a2, ra2), (b, rb), scalar = case
    for m, ref in ((a, ra), (a2, ra2), (b, rb)):
        assert agrees(m, ref, from_entries=True)
        assert agrees(m.copy(), ref, from_entries=True) and agrees(-m, -ref, from_entries=True)
        assert [[RefCyc(m.ell, v.coeffs) for v in row] for row in m.dense()] == \
            [[ref[i, j] for j in range(ref.ncols)] for i in range(ref.nrows)]
        values = [ref[0, j] for j in range(ref.ncols)]
        assert agrees(Mat.diagonal(m.ell, [Cyc(m.ell, v.coeffs) for v in values]),
                      RefMat(RefCyc, m.ell, ref.ncols, ref.ncols,
                             (((t, t), v) for t, v in enumerate(values))),
                      from_entries=True)
    assert agrees(block_diag(a.ell, [a, b]), ref_block_diag(RefCyc, a.ell, [ra, rb]),
                  from_entries=True)
    assert agrees(a * b, ra * rb)
    assert agrees(a + a2, ra + ra2)
    assert agrees(a - a2, ra - ra2)
    assert (a - a).is_zero() and a - a == Mat.zero(a.ell, a.nrows, a.ncols)
    c = Cyc(a.ell, scalar.coeffs) if isinstance(scalar, RefCyc) else scalar
    assert agrees(a.scale(c), ra.scale(scalar))
    assert (a == a2) == (ra == ra2)
    first = min((a - a2).data.items(), default=None)
    expected = (ra - ra2).first()
    assert (first if first is None else (first[0], RefCyc(a.ell, first[1].coeffs))) == expected


def test_equality_across_denominators():
    third = Fraction(1, 3)
    a, ra = pair(1, 2, 2, {(0, 0): Fraction(1, 2), (1, 1): Fraction(1)})
    b, rb = pair(1, 2, 2, {(0, 1): third, (0, 0): Fraction(1, 2), (1, 1): Fraction(1)})
    b[0, 1] = 0
    rb[0, 1] = 0
    assert (a.den, b.den) == (2, 6)
    assert agrees(a, ra, from_entries=True) and agrees(b, rb, from_entries=True) and ra == rb
    assert a == b and b == a
    b[1, 0] = third
    rb[1, 0] = third
    assert a != b and ra != rb
    assert (a - b) + b == a and agrees((a - b) + b, ra)
    # no other value, shape or field is equal
    assert a.__eq__(0) is NotImplemented and a != 0
    assert Mat.zero(1, 2, 3) != Mat.zero(1, 3, 2) and Mat.identity(1, 2) != Mat.identity(2, 2)


def test_zero_after_a_non_integer_entry():
    z = root_of_unity(3, 1)
    for value in (Fraction(1, 2), z * Fraction(2, 5)):
        m = Mat.zero(3, 2, 2)
        ref = RefMat(RefCyc, 3, 2, 2)
        m[1, 0] = value
        m[1, 0] = 0
        assert m.is_zero() and m.data == {} and m == Mat.zero(3, 2)
        assert agrees(m, ref, from_entries=True)
        m[0, 1] = 7
        ref[0, 1] = 7
        assert agrees(m, ref, from_entries=True) and m[0, 1] == 7


def test_block_diag_of_denominators_2_and_3():
    z = ref_root_of_unity(3, 2)
    a, ra = pair(3, 1, 1, {(0, 0): Fraction(1, 2)})
    b, rb = pair(3, 2, 1, {(0, 0): z * Fraction(1, 3), (1, 0): Fraction(-2, 3)})
    m = block_diag(3, [a, b])
    assert m.den == 6 and (m.nrows, m.ncols) == (3, 2)
    assert agrees(m, ref_block_diag(RefCyc, 3, [ra, rb]), from_entries=True)


def test_rectangular_product():
    z = ref_root_of_unity(4, 1)
    a, ra = pair(4, 2, 3, {(0, 0): Fraction(1, 2), (0, 2): z, (1, 1): Fraction(-3, 4)})
    b, rb = pair(4, 3, 1, {(0, 0): Fraction(2), (1, 0): z * Fraction(1, 3), (2, 0): z})
    assert agrees(a, ra, from_entries=True) and agrees(b, rb, from_entries=True)
    p = a * b
    assert (p.nrows, p.ncols) == (2, 1)
    assert agrees(p, ra * rb)
    with pytest.raises(DimensionMismatch):
        b * b
