from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from heckemod import Cyc, DimensionMismatch, Mat, block_diag, nullspace_dim, root_of_unity
from heckemod.linalg import _ScaledMat


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
def test_matrix_ring_axioms(mats):
    a, b, c = mats
    assert (a + b) * c == a * c + b * c
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a


small_fractions = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6]))


@st.composite
def kernel_pairs(draw):
    """Two square matrices over one field with entries 0, small rationals
    and rational multiples of zeta**k, so the kernel's rows mix ints and
    integral Cycs."""
    ell = draw(st.integers(min_value=1, max_value=6))
    dim = draw(st.integers(min_value=1, max_value=4))
    entries = st.one_of(st.just(0), small_fractions,
                        st.builds(lambda q, k: q * root_of_unity(ell, k),
                                  small_fractions, st.integers(0, ell - 1)))
    mats = []
    for _ in range(2):
        m = Mat.zero(ell, dim)
        for i in range(dim):
            for j in range(dim):
                m[i, j] = draw(entries)
        mats.append(m)
    return mats


@given(kernel_pairs())
def test_scaled_kernel_matches_mat(mats):
    # Mat arithmetic is the oracle for the integer-scaled verification kernel
    a, b = mats
    sa, sb = _ScaledMat.of(a), _ScaledMat.of(b)
    for m, s in ((a, sa), (b, sb)):
        assert s.to_mat() == m
        assert all(type(x) is int or (not x.is_rational() and x._den == 1)
                   for row in s.rows.values() for x in row.values())
    assert (sa * sb).to_mat() == a * b
    assert (sa + sb).to_mat() == a + b
    assert (sa - sb).to_mat() == a - b
    assert (sa - sa).first() is None
    diff = sa - sb
    key = diff.first()
    expected = min((a - b).data.items(), default=None)
    if key is None:
        assert expected is None
    else:
        assert (key, diff.entry(*key)) == expected
