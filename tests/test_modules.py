import dataclasses
from fractions import Fraction

import pytest

from heckemod import (
    Cyc,
    DimensionMismatch,
    Mat,
    ModuleRep,
    NotAPartition,
    NotScalar,
    NotStandard,
    Weight,
    apply_transposition,
    build_module,
    central_character,
    commutant_dimension,
    direct_sum,
    enumerate_shapes,
    enumerate_syt,
    generator_matrix,
    is_partition_shape,
    jm_consistency,
    module_to_json,
    partition_shape,
    root_of_unity,
    shift_contents,
    tableau_to_json,
    twist,
    validate_and_canonicalize,
    verify_intertwiners,
    verify_relations,
    weight_of,
)
from heckemod.linalg import block_diag
from heckemod.modules import _FormMat, _views


def module_21():
    return build_module(partition_shape(1, [[2, 1]]))


def test_module_21_matrices():
    M = module_21()
    assert M.dim == 2 and M.ell == 1 and M.n == 3
    half = Fraction(1, 2)
    assert generator_matrix(M, "u", 1).diagonal_entries() == [0, 0]
    assert generator_matrix(M, "u", 2).diagonal_entries() == [1, -1]
    assert generator_matrix(M, "u", 3).diagonal_entries() == [-1, 1]
    s1 = generator_matrix(M, "s", 1)
    assert s1 == Mat.diagonal(1, [1, -1])
    s2 = generator_matrix(M, "s", 2)
    assert s2[0, 0] == -half and s2[1, 1] == half
    assert s2[0, 1] == Fraction(3, 4) and s2[1, 0] == 1
    assert s2 * s2 == Mat.identity(1, 2)
    # ell = 1 means trivial colors and pi = identity
    assert generator_matrix(M, "zeta", 2) == Mat.identity(1, 2)
    assert generator_matrix(M, "pi", 1) == Mat.identity(1, 2)


def test_intertwiner_matrices():
    M = module_21()
    tau1 = generator_matrix(M, "tau", 1)
    assert tau1.is_zero()  # labels 1, 2 are adjacent in both fillings
    tau2 = generator_matrix(M, "tau", 2)
    assert tau2[0, 0].is_zero() and tau2[1, 1].is_zero()
    assert tau2[0, 1] == Fraction(3, 4) and tau2[1, 0] == 1
    assert tau2 * tau2 == Mat.identity(1, 2).scale(Fraction(3, 4))


def test_generator_matrix_argument_checks():
    M = module_21()
    with pytest.raises(ValueError):
        generator_matrix(M, "q", 1)
    with pytest.raises(IndexError):
        generator_matrix(M, "s", 3)
    with pytest.raises(IndexError):
        generator_matrix(M, "u", 0)
    with pytest.raises(IndexError):
        generator_matrix(M, "tau", 0)


def test_verify_relations_passes():
    shapes = [
        partition_shape(1, [[2, 1]]),
        partition_shape(1, [[2, 2]]),
        partition_shape(2, [[2], [1]]),
        partition_shape(3, [[1], [1], [1]]),
        validate_and_canonicalize(1, [(0, 0, [(1, 1), (2, 0), (2, -1)])]),
        validate_and_canonicalize(2, [(0, 0, [(1, 0)]),
                                      (0, Fraction(1, 2), [(1, 0), (1, 1)])]),
    ]
    for D in shapes:
        M = build_module(D)
        report = verify_relations(M)
        assert report.ok, (D, [c.name for c in report.failures()])
        assert len(report.checks) > 0


def test_verify_relations_isolates_corruption():
    M = module_21()
    bad_s = list(M.mat_s)
    m = bad_s[1].copy()
    m[0, 1] = -m[0, 1]
    bad_s[1] = _kept(m)
    bad = dataclasses.replace(M, mat_s=tuple(bad_s))
    report = verify_relations(bad)
    assert not report.ok
    assert {c.name for c in report.failures()} == {"s2^2=1", "s1s2s1=s2s1s2"}
    # witnesses point at a concrete matrix position
    failure = report.failures()[0]
    assert failure.witness is not None


def test_verify_intertwiners():
    for D in (partition_shape(1, [[2, 1]]), partition_shape(2, [[2], [1]])):
        report = verify_intertwiners(build_module(D))
        assert report.ok, [c.name for c in report.failures()]
    names = {c.name for c in verify_intertwiners(module_21()).checks}
    assert "tau1tau2tau1=tau2tau1tau2" in names
    assert "tau2^2=((u2-u3)^2-pi^2)/(u2-u3)^2" in names


def test_tau_on_cross_coordinate_pair_is_plain_swap():
    # both boxes carry different colors, so tau equals s itself
    D = partition_shape(2, [[1], [1]])
    M = build_module(D)
    assert generator_matrix(M, "tau", 1) == generator_matrix(M, "s", 1)
    assert generator_matrix(M, "s", 1) * generator_matrix(M, "s", 1) == Mat.identity(2, 2)


def test_tau_kills_exactly_the_blocked_same_color_vectors():
    # the column of tau_i at f_T vanishes precisely when the boxes of i and
    # i + 1 share a color and swapping them is illegal
    shapes = [D for n in (2, 3, 4) for D in enumerate_shapes(1, n, n)]
    shapes += list(enumerate_shapes(2, 3, 3))
    for D in shapes:
        M = build_module(D)
        for i in range(1, M.n):
            tau = generator_matrix(M, "tau", i)
            zi = generator_matrix(M, "zeta", i)
            zj = generator_matrix(M, "zeta", i + 1)
            for t, T in enumerate(enumerate_syt(D)):
                column_zero = all(tau[r, t].is_zero() for r in range(M.dim))
                same_color = zi[t, t] == zj[t, t]
                try:
                    apply_transposition(T, i)
                    blocked = False
                except NotStandard:
                    blocked = True
                assert column_zero == (same_color and blocked)


def test_tau_guard_on_colliding_eigenvalues():
    M = module_21()
    # u_2 takes the eigenvalues of u_1 on every basis vector
    bad = dataclasses.replace(M, weights=tuple(
        Weight((w.a[0], w.a[0]) + w.a[2:], w.b) for w in M.weights))
    with pytest.raises(ZeroDivisionError):
        generator_matrix(bad, "tau", 1)


def test_module_weights_match_tableaux():
    # weight_of and a built module read the per-box tables; both must give
    # the Fraction formula of the oracle on every basis tableau, at integral,
    # half-integral and shifted contents
    import shapes_reference as ref
    from test_acceptance import half_offset_shapes

    shapes = [partition_shape(1, [[2, 1]]), partition_shape(2, [[2], [1]]),
              validate_and_canonicalize(2, [(1, Fraction(1, 2), [(1, 0), (2, -1)])])]
    shapes += [D for ell in (1, 2, 3) for n in range(1, 6)
               for D in enumerate_shapes(ell, n, n)] + half_offset_shapes()
    shapes += [shift_contents(D, delta) for delta in (Fraction(1, 2), Fraction(-3, 2))
               for D in shapes]
    assert len(shapes) > 3000
    for D in shapes:
        tableaux = enumerate_syt(D)
        expected = [ref.weight_of(t) for t in tableaux]
        assert [weight_of(t) for t in tableaux] == expected
        assert list(build_module(D).weights) == expected


def test_commutant_dimension():
    M = module_21()
    assert commutant_dimension(M) == 1
    assert commutant_dimension(direct_sum(M, M)) == 4
    single = build_module(partition_shape(1, [[1]]))
    assert commutant_dimension(single) == 1
    # two non-isomorphic summands: 1 + 1
    other = build_module(partition_shape(1, [[3]]))
    assert commutant_dimension(direct_sum(M, other)) == 2


def test_direct_sum():
    M = module_21()
    other = build_module(partition_shape(1, [[3]]))
    S = direct_sum(M, other)
    assert S.dim == M.dim + other.dim
    assert S.weights == M.weights + other.weights
    assert verify_relations(S).ok
    assert S.shape is None
    for far in (build_module(partition_shape(2, [[2, 1], []])),
                build_module(partition_shape(1, [[3, 1]]))):
        with pytest.raises(DimensionMismatch, match="^summands over different algebras$"):
            direct_sum(M, far)


def test_central_character_values():
    M = module_21()
    cc = central_character(M)
    one = Cyc.from_rational(1, 1)
    assert cc == [one * 0, -one, one * 0, one * 3, one * 3, one]
    # e_k(zeta) sees the coordinates: two boxes of colors 0 and 1 for ell=2
    D = partition_shape(2, [[1], [1]])
    cc2 = central_character(build_module(D))
    z = Cyc.from_rational(2, 1)
    assert cc2[2] == z * 0  # e_1(zeta) = 1 + (-1)
    assert cc2[3] == -z  # e_2(zeta) = product of colors


def test_central_character_rejects_non_scalar():
    M = module_21()
    w = M.weights[0]
    bad = dataclasses.replace(
        M, weights=(Weight((Fraction(5),) + w.a[1:], w.b),) + M.weights[1:])
    with pytest.raises(NotScalar):
        central_character(bad)


def test_central_character_witness_beyond_e1():
    # two basis vectors whose eigenvalue multisets agree in e_1 and first
    # differ at e_2: the message names k = 2, as the matrix oracle's does
    import module_reference as ref

    def two_vectors(ell, a, b):
        return ModuleRep(ell, 2, 2, (Mat.zero(ell, 2),),
                         tuple(Weight(tuple(map(Fraction, x)), y) for x, y in zip(a, b)))

    for M, text in ((two_vectors(6, [(0, 0), (0, 0)], [(0, 3), (2, 5)]), "e_2(zeta)"),
                    (two_vectors(1, [(1, -1), (2, -2)], [(0, 0), (0, 0)]), "e_2(u)")):
        messages = []
        for fn in (central_character, ref.central_character):
            with pytest.raises(NotScalar) as info:
                fn(M)
            messages.append(str(info.value))
        assert messages[0] == messages[1] == f"{text} takes 2 distinct values"


def test_central_character_and_zeta_matrix_at_large_ell():
    # only the roots of unity that occur are built, so ell = 100003 is cheap
    ell = 100003
    for beta in (0, 5):
        M = build_module(validate_and_canonicalize(ell, [(beta, 0, [(1, 0), (1, 1)])]))
        z = root_of_unity(ell, beta)
        assert M.dim == 1 and M.weights[0].b == (beta, beta)
        assert generator_matrix(M, "zeta", 2) == Mat.diagonal(ell, [z])
        assert central_character(M) == [Cyc.from_rational(ell, ell), Cyc.zero(ell),
                                        z + z, z * z]


def test_twist_translation():
    M = module_21()
    assert twist(M, "t", 0) == M
    shifted = twist(M, "t", Fraction(1, 2))
    assert verify_relations(shifted).ok
    for w, w0 in zip(shifted.weights, M.weights):
        assert [x - x0 for x, x0 in zip(w.a, w0.a)] == [Fraction(1, 2)] * 3
        assert w.b == w0.b
    # composing translations adds offsets
    assert twist(shifted, "t", Fraction(-1, 2)) == M


def test_twist_rho_is_an_involution():
    for D in (partition_shape(1, [[2, 1]]), partition_shape(2, [[2], [1]])):
        M = build_module(D)
        R = twist(M, "rho")
        assert verify_relations(R).ok
        assert twist(R, "rho") == M
        # weights are reversed and negated
        for w, w0 in zip(R.weights, M.weights):
            assert w.a == tuple(-x for x in reversed(w0.a))
            assert w.b == tuple((-b) % M.ell for b in reversed(w0.b))


def test_twist_rejects_unknown_automorphism():
    with pytest.raises(ValueError):
        twist(module_21(), "sigma")
    with pytest.raises(ValueError):
        twist(module_21(), "t")  # missing kappa
    with pytest.raises(ValueError, match="^index-reversal twist takes no parameter$"):
        twist(module_21(), "rho", 1)


def test_edited_s_matrix_keeps_its_repr():
    # a kept form counts its entries without writing the rows; once an entry
    # is set the rows answer, in Mat's own words
    s = module_21().mat_s[0]
    before = repr(s)
    s[0, 0] = s[0, 0]
    assert s.form is None and repr(s) == before == repr(s.copy())


def test_twist_reads_kappa_exactly():
    M = module_21()
    half = twist(M, "t", Fraction(1, 2))
    assert twist(M, "t", "1/2") == half
    assert twist(M, "t", 2) == twist(M, "t", "2")
    for bad in (0.1, 0.5, True, "x", "1/0"):
        with pytest.raises(ValueError, match="kappa must be a rational"):
            twist(M, "t", bad)


def test_jm_consistency():
    for ell, parts in ((1, [[2, 1]]), (2, [[2], [1]]), (2, [[1], [1]]),
                       (3, [[1], [], [2]])):
        M = build_module(partition_shape(ell, parts))
        report = jm_consistency(M)
        assert report.ok, [c.name for c in report.failures()]
        assert len(report.checks) == M.n


def test_jm_matches_matrix_reference_at_n5_n6():
    # the recurrence agrees report for report with term-by-term evaluation
    # of the Jucys-Murphy sums wherever the group relations hold: on sound
    # modules and on copies with one u-eigenvalue corrupted.  Copies
    # corrupted in one s entry or one color exponent break those relations,
    # so they are held to the recurrence on whole matrices
    import random

    import module_reference as ref
    from test_acceptance import multipartitions

    rng = random.Random(56)
    bipartitions = [p for n in (5, 6) for p in multipartitions(2, n)][::4]
    partitions = [p for n in (5, 6) for p in multipartitions(1, n)][::2]
    sound = ([build_module(partition_shape(2, p)) for p in bipartitions]
             + [build_module(partition_shape(1, p)) for p in partitions])
    corrupted = [_corrupted(M, rng, "s") for M in sound]
    corrupted += [_corrupted(M, rng, "zeta") for M in sound if M.ell == 2]
    u_corrupted = [_corrupted(M, rng, "u") for M in sound]
    assert len(bipartitions) >= 20 and {M.n for M in sound} == {5, 6}
    for M in sound:
        report = jm_consistency(M)
        assert report.ok and report == ref.jm_consistency(M) == ref.jm_recurrence(M)
    u_failing = 0
    for M in u_corrupted:
        report = jm_consistency(M)
        assert report == ref.jm_consistency(M) == ref.jm_recurrence(M)
        u_failing += not report.ok
    assert u_failing > 0
    failing = 0
    for M in corrupted:
        report = jm_consistency(M)
        assert report == ref.jm_recurrence(M)
        failing += not report.ok
    assert failing > len(corrupted) // 2
    # the relation checks too, where the denominators of the s-matrices
    # are larger than anywhere in the n <= 4 corpus; a built module's
    # s-matrices are rational, so they store only ints
    assert max(m.den for M in sound for m in M.mat_s) >= 100
    assert all(type(x) is int for M in sound for m in M.mat_s
               for row in m.rows.values() for x in row.values())
    for k, M in enumerate(sound + corrupted):
        for fast, slow in ((verify_relations, ref.verify_relations),
                           (verify_intertwiners, ref.verify_intertwiners)):
            got = _outcome(fast, M)
            assert got == _outcome(slow, M), (fast.__name__, M.weights)
            assert k >= len(sound) or got.ok


def test_rational_module_verifies_without_field_products(monkeypatch):
    # a module the package builds has rational s-matrices, so its checks
    # run on integer rows and forms and multiply no two field elements
    ell = 211
    M = build_module(partition_shape(ell, [[2, 1], [1]] + [[]] * (ell - 2)))
    assert M.dim == 8

    def refuse(*args):
        raise AssertionError("a field product in a rational module's check")

    monkeypatch.setattr(Cyc, "__mul__", refuse)
    monkeypatch.setattr(Cyc, "__rmul__", refuse)
    for check in (verify_relations, verify_intertwiners, jm_consistency):
        assert check(M).ok, check.__name__


def test_jm_consistency_requires_partition_shape():
    skew = validate_and_canonicalize(1, [(0, 0, [(1, 1), (2, 0), (2, -1)])])
    with pytest.raises(NotAPartition):
        jm_consistency(build_module(skew))
    shifted = build_module(shift_contents(partition_shape(1, [[2, 1]]), 1))
    with pytest.raises(NotAPartition):
        jm_consistency(shifted)
    with pytest.raises(NotAPartition):
        jm_consistency(twist(module_21(), "t", Fraction(1, 2)))


def test_offset_half_module():
    D = validate_and_canonicalize(
        2, [(0, 0, [(1, 0), (1, 1)]), (1, Fraction(1, 2), [(1, 0)])])
    M = build_module(D)
    assert verify_relations(M).ok
    assert verify_intertwiners(M).ok
    # the half-offset coordinate contributes odd eigenvalues for ell = 2
    ws = M.weights
    assert [list(w.a) for w in ws] == [[0, 2, 1], [0, 1, 2], [1, 0, 2]]
    assert [w.b for w in ws] == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    # a genuinely fractional offset shows up in the eigenvalues themselves
    frac = build_module(validate_and_canonicalize(
        2, [(0, Fraction(1, 3), [(1, 0)])]))
    assert frac.weights[0].a == (Fraction(2, 3),)


def test_module_to_json():
    M = module_21()
    data = module_to_json(M)
    assert data["ell"] == 1 and data["n"] == 3 and data["dim"] == 2
    assert "mat_s" not in data
    assert len(data["weights"]) == 2
    # the basis is read off the shape, so modules without one have none
    D = partition_shape(1, [[2, 1]])
    assert data["basis"] == [tableau_to_json(t) for t in enumerate_syt(D)]
    for derived in (twist(M, "rho"), direct_sum(M, M)):
        assert "basis" not in module_to_json(derived)
    full = module_to_json(M, include_matrices=True)
    assert len(full["mat_s"]) == 2 and len(full["mat_u"]) == 3
    assert full["mat_u"][0] == {"rows": 2, "entries": []}
    dense = module_to_json(M, include_matrices=True, dense=True)
    assert dense["mat_s"][1][0][1] == {"ell": 1, "coeffs": ["3/4"]}


def test_report_to_json():
    report = verify_relations(module_21())
    data = report.to_json()
    assert data["ok"] is True
    assert all(item["ok"] for item in data["checks"])


def test_verify_relations_full_small_corpus():
    for D in enumerate_shapes(2, 3, 3):
        M = build_module(D)
        assert verify_relations(M).ok
        assert verify_intertwiners(M).ok
        assert commutant_dimension(M) == 1


def _outcome(fn, module):
    try:
        return fn(module)
    except Exception as exc:  # noqa: BLE001 - the exception type is compared
        return type(exc)


def _kept(m):
    """m as a ``_FormMat`` keeping the involution form read off its rows, so
    that the checks decide it on that form; m itself where its rows hold
    none, so that products decide it."""
    import module_reference as ref

    form = ref.involution_form(m)
    return m if form is None else _FormMat(m.ell, form)


def _zeta_conjugated(M, rng):
    """M in a basis rescaled by powers of zeta: each s-matrix becomes
    D s D^-1 for D = diag(zeta^k_t) with random exponents.  The weights do
    not change, the module stays sound, and its s-entries leave Q (a
    diagonal s-matrix stays rational, and keeps its form)."""
    exponents = [rng.randrange(M.ell) for _ in range(M.dim)]
    d = Mat.diagonal(M.ell, [root_of_unity(M.ell, k) for k in exponents])
    d_inv = Mat.diagonal(M.ell, [root_of_unity(M.ell, -k) for k in exponents])
    return dataclasses.replace(M, mat_s=tuple(_kept(d * m * d_inv) for m in M.mat_s))


def _rescaled(M, rng):
    """M in a basis rescaled by D = diag(d_t) with random positive integers
    d_t: each s-matrix becomes D s D^-1.  Its entries stay rational, so it
    keeps the involution form read off its rows, but an off-diagonal entry
    (p, q) is scaled by d_p / d_q, so it need not stay constant along another
    s_j's pairs.  The module stays sound."""
    ds = [rng.randint(1, 3) for _ in range(M.dim)]
    d, d_inv = Mat.diagonal(M.ell, ds), Mat.diagonal(M.ell, [Fraction(1, x) for x in ds])
    return dataclasses.replace(M, mat_s=tuple(_kept(d * m * d_inv) for m in M.mat_s))


def _corrupted(M, rng, kind):
    """M with one s entry, one u eigenvalue or one zeta exponent changed.
    Kind "outside" sets an s entry (p, q) with q neither p nor the partner
    of p, and "unpaired" clears the mirror (q, p) of an off-diagonal entry
    (p, q), so that no partner list reads the s-matrix: both leave the
    involution form.  Where M has no such entry, it is returned as it is.  A
    changed s-matrix keeps the form read off its rows, if it has one."""
    if kind in ("outside", "unpaired"):
        for k in rng.sample(range(len(M.mat_s)), len(M.mat_s)):
            m = M.mat_s[k].copy()
            if kind == "outside":
                keys = [(p, q) for p, row in m.rows.items() if row.keys() - {p}
                        for q in range(M.dim) if q != p and q not in row]
            else:
                keys = [(q, p) for p, row in m.rows.items() for q in row if q != p]
            if keys:
                m[rng.choice(keys)] = rng.choice([1, -1, Fraction(1, 2)]) if kind == "outside" else 0
                return dataclasses.replace(M, mat_s=M.mat_s[:k] + (m,) + M.mat_s[k + 1:])
        return M
    if kind == "s" and M.mat_s:
        k = rng.randrange(len(M.mat_s))
        m = M.mat_s[k].copy()
        key = rng.choice(sorted(m.data))
        m[key] = m[key] + rng.choice([1, -1, Fraction(1, 2)])
        return dataclasses.replace(M, mat_s=M.mat_s[:k] + (_kept(m),) + M.mat_s[k + 1:])
    t, i = rng.randrange(M.dim), rng.randrange(M.n)
    w = M.weights[t]
    if kind == "zeta" and M.ell > 1:
        w = Weight(w.a, w.b[:i] + ((w.b[i] + 1) % M.ell,) + w.b[i + 1:])
    else:
        shift = rng.choice([1, -1, Fraction(1, 2)])
        w = Weight(w.a[:i] + (w.a[i] + shift,) + w.a[i + 1:], w.b)
    return dataclasses.replace(M, weights=M.weights[:t] + (w,) + M.weights[t + 1:])


def test_matches_matrix_reference(monkeypatch):
    # every report, witness, value and raised exception type agrees with the
    # matrix-product oracle, on sound modules and on corrupted ones, and every
    # far commutation the forms confirm passes the oracle's slot criterion
    import random

    import module_reference as ref

    from heckemod import modules as md
    from test_acceptance import half_offset_shapes

    rng = random.Random(6)
    # at ell = 4 and 6 a nonzero residue r has sum_k zeta^(k r) = 0 only
    # through cancellation in the field, which pi_i relies on
    shapes = [D for ell in (1, 2, 3) for n in (1, 2, 3, 4)
              for D in enumerate_shapes(ell, n, n)] + half_offset_shapes()
    shapes += [D for ell in (4, 6) for n in (1, 2, 3) for D in enumerate_shapes(ell, n, n)]
    modules = [build_module(D) for D in shapes]

    def stored_weights(M):  # the weights as stored, against the diagonals read back
        return list(M.weights)

    pairs = [(verify_relations, ref.verify_relations),
             (verify_intertwiners, ref.verify_intertwiners),
             (commutant_dimension, ref.commutant_dimension),
             (central_character, ref.central_character),
             (stored_weights, ref.module_weights)]
    seen = set()

    def refuse_check(*args):
        raise AssertionError("jm_consistency called _check")

    def check(M):
        """Compare M's reports with the oracle's; return the far pairs (i, j)
        of s-matrix indices whose commutation went to the products."""
        outcomes, products, product = {}, set(), Mat.__mul__
        index = {id(m): k for k, m in enumerate(M.mat_s)}

        # of the checks, only a declined far commutation multiplies s_i by s_j
        def recording(left, right):
            if id(left) in index and id(right) in index:
                products.add((index[id(left)], index[id(right)]))
            return product(left, right)

        for fast, slow in pairs:
            with monkeypatch.context() as patch:
                patch.setattr(Mat, "__mul__", recording)
                got = outcomes[fast] = _outcome(fast, M)
            assert got == _outcome(slow, M), (fast.__name__, M.weights)
            seen.add(got if isinstance(got, type) else getattr(got, "ok", None))
        far = [(i, j) for i in range(M.n - 1) for j in range(i + 2, M.n - 1)]
        declined = {pair for pair in far if pair in products}
        forms = _views(M)[0]
        for i, j in set(far) - declined:  # confirmed by constancy: the slot criterion agrees
            assert ref.commute_holds(forms[i], forms[j]), (i, j, M.weights)
        if M.shape is not None and is_partition_shape(M.shape):
            with monkeypatch.context() as patch:  # the view or the recurrence decides
                patch.setattr(md, "_check", refuse_check)
                report = jm_consistency(M)
            assert report == ref.jm_recurrence(M)
            # the s-only and s-zeta relations: every check not naming a u
            relations = outcomes[verify_relations].checks
            if all(c.ok for c in relations if "u" not in c.name):
                assert report == ref.jm_consistency(M)
        return declined

    # each sound module caches its integer view here, before the copies
    # below are made from it, so a view carried into a copy would show;
    # constancy confirms every far commutation of a built module
    for M in modules:
        assert not check(M)
    sums = [direct_sum(modules[k], modules[k + 1]) for k in range(0, len(modules) - 1, 23)
            if (modules[k].ell, modules[k].n) == (modules[k + 1].ell, modules[k + 1].n)]
    sums.append(direct_sum(module_21(), module_21()))
    corrupted = [_corrupted(M, rng, ("s", "u", "zeta")[k % 3])
                 for k, M in enumerate(modules[::2])]
    # copies whose s-matrices leave the involution form, so that only the
    # matrix products decide their relations
    rng_form = random.Random(24)
    formless = [_corrupted(M, rng_form, kind) for kind in ("outside", "unpaired")
                for M in modules[1::4]]
    formless = [M for M in formless if None in _views(M)[0]]
    assert len(formless) > 100
    # a twist whose u-eigenvalues have denominator 3, and a hand-made module
    # whose eigenvalues are plain ints
    twisted = [twist(M, "t", Fraction(1, 3)) for M in modules if M.ell == 2][::7]
    hand_made = [ModuleRep(M.ell, M.n, M.dim, M.mat_s,
                           tuple(Weight(tuple(int(x) for x in w.a), w.b) for w in M.weights))
                 for M in modules[::11] if all(x.denominator == 1 for w in M.weights for x in w.a)]
    assert twisted and hand_made
    # modules with irrational s-entries, sound and corrupted: the integer
    # kernel's integral Cyc entries (phi(ell) = 2 and 4)
    rng_zeta = random.Random(13)
    irrational = [_zeta_conjugated(build_module(partition_shape(ell, parts)), rng_zeta)
                  for ell, parts in ((3, [[2, 1], [1], []]), (4, [[2], [1], [1], []]),
                                     (5, [[1], [1], [1], [], []]))]
    for M in irrational:
        assert M.dim >= 3
        assert any(not v.is_rational() for m in M.mat_s for v in m.data.values())
        assert verify_relations(M).ok and verify_intertwiners(M).ok
    irrational += [_corrupted(M, rng_zeta, "s") for M in irrational]
    for M in sums + twisted:
        assert not check(M)
    for M in corrupted + formless + hand_made + irrational:
        check(M)
    # sound modules whose forms are not constant along some far pairs: those
    # commutations go to the products, and the reports are the oracle's
    rng_scale = random.Random(1)
    for ell, parts in ((1, [[3, 2]]), (2, [[2, 1], [1, 1]]), (1, [[3, 2, 1]])):
        M = _rescaled(build_module(partition_shape(ell, parts)), rng_scale)
        assert None not in _views(M)[0]
        assert check(M) and verify_relations(M).ok
    # plain-Mat copies keep no form: products decide every far commutation,
    # and every report is still the oracle's
    plain = [dataclasses.replace(M, mat_s=tuple(m.copy() for m in M.mat_s))
             for M in modules[::41] + sums[:3]]
    assert sum(M.n > 3 for M in plain) > 3
    for M in plain:
        assert all(f is None for f in _views(M)[0])
        assert check(M) == {(i, j) for i in range(M.n - 1) for j in range(i + 2, M.n - 1)}
    # the corruptions reach failing reports and both guarded exceptions
    assert len(sums) > 10
    assert {True, False, ZeroDivisionError, NotScalar} <= seen


def _sheared(M):
    """M + M in the basis of X = [[I, D], [0, I]] with D = diag(1, ..., dim).
    X commutes with every u and zeta, as both copies carry the same weights,
    so the module stays sound; but X s X^-1 holds D s - s D off the diagonal
    blocks, so an s-matrix with an off-diagonal entry leaves the involution
    form; the others keep the form read off their rows."""
    S, d = direct_sum(M, M), M.dim
    x, x_inv = Mat.identity(M.ell, 2 * d), Mat.identity(M.ell, 2 * d)
    for t in range(d):
        x[t, d + t], x_inv[t, d + t] = t + 1, -(t + 1)
    return dataclasses.replace(S, mat_s=tuple(_kept(x * m * x_inv) for m in S.mat_s))


def test_sheared_sums_are_decided_by_products():
    # the sound modules whose s-matrices have no involution form: every
    # relation goes to the products, and every report is the oracle's
    import module_reference as ref
    from test_acceptance import multipartitions

    shapes = [partition_shape(ell, p) for ell in (1, 2) for n in (3, 4)
              for p in multipartitions(ell, n)]
    for D in shapes:
        base = build_module(D)
        M = _sheared(base)
        assert (None in _views(M)[0]) == any(any(C) for _, _, C, _ in _views(base)[0])
        for fast, slow in ((verify_relations, ref.verify_relations),
                           (verify_intertwiners, ref.verify_intertwiners)):
            report = fast(M)
            assert report.ok and report == slow(M), (fast.__name__, D)
        # the Jucys-Murphy sums act on both copies as the u's, in any basis
        # that keeps the u's diagonal; the shape only admits the check
        M = dataclasses.replace(M, shape=D)
        report = jm_consistency(M)
        assert report.ok and report == ref.jm_consistency(M) == ref.jm_recurrence(M)


def test_forms_confirm_only_what_their_keys_show():
    # permutation modules with no fixed points, so every slot value is 0 or
    # 1 on both sides and only the keys of the last slot tell them apart:
    # (0 1)(2 3) and (0 2)(1 3) commute, so s1 s2 s1 = s2 != s1 = s2 s1 s2,
    # and (0 1)(2 3)(4 5) and (1 2)(3 4)(5 0) do not.  A 3-cycle reads as a
    # partner list that is no involution, whose square the slot formulas
    # would take for the identity
    import module_reference as ref

    def perm_module(n, perms):
        dim = len(perms[0])
        mats = []
        for perm in perms:
            m = Mat.zero(1, dim)
            for p, q in enumerate(perm):
                m[p, q] = 1
            mats.append(_kept(m))
        return ModuleRep(1, n, dim, tuple(mats), (Weight((Fraction(0),) * n, (0,) * n),) * dim)

    for M, failing in ((perm_module(3, [(1, 0, 3, 2), (2, 3, 0, 1)]), "s1s2s1=s2s1s2"),
                       (perm_module(4, [(1, 0, 3, 2, 5, 4)] * 2 + [(5, 2, 1, 4, 3, 0)]),
                        "s1s3=s3s1"),
                       (perm_module(2, [(1, 2, 0)]), "s1^2=1")):
        assert (None in _views(M)[0]) == (failing == "s1^2=1")
        report = verify_relations(M)
        assert report == ref.verify_relations(M)
        assert failing in {c.name for c in report.failures()}


def test_sound_modules_are_decided_without_products(monkeypatch):
    # on a module the package builds, every s-matrix is in involution form
    # and the forms confirm every identity, so no matrix is multiplied
    shapes = [D for ell in (1, 2, 3) for n in (1, 2, 3, 4) for D in enumerate_shapes(ell, n, n)]
    modules = [build_module(D) for D in shapes]

    def refuse(self, other):
        raise AssertionError("a sound module reached a matrix product")

    monkeypatch.setattr(Mat, "__mul__", refuse)
    for D, M in zip(shapes, modules):
        assert None not in _views(M)[0]
        assert verify_relations(M).ok and verify_intertwiners(M).ok
        if is_partition_shape(D):
            assert jm_consistency(M).ok


def test_jm_is_decided_by_squares_and_crossings_at_n5_n6(monkeypatch):
    # past the n <= 4 corpus, a sound partition module's Jucys-Murphy check
    # is decided by the square and crossing of each s_i on forms alone, and
    # returns the report shared by its (ell, n); after verify_relations it
    # reads them off the module's view and decides no check again
    from heckemod import modules as md
    from test_acceptance import multipartitions

    def sound():
        return [build_module(partition_shape(ell, p)) for ell in (1, 2) for n in (5, 6)
                for p in multipartitions(ell, n)]

    fresh, verified = sound(), sound()
    assert len(fresh) == 7 + 11 + 36 + 65
    assert all(verify_relations(M).ok for M in verified)

    def refuse(*args):
        raise AssertionError("a sound module reached a matrix product or a second check")

    monkeypatch.setattr(Mat, "__mul__", refuse)
    for M in fresh:
        assert jm_consistency(M) is md._table(M.ell, M.n)[2]
    for name in ("_square_holds", "_side_holds", "_check"):
        monkeypatch.setattr(md, name, refuse)
    for M in verified:
        assert jm_consistency(M) is md._table(M.ell, M.n)[2]


def test_check_names_match_the_oracles_to_n7():
    # the one table names every check in the oracles' order beyond the
    # n <= 4 corpus: on the one-row module, of dimension 1, for each ell, n
    import module_reference as ref

    for ell in (1, 2, 3):
        for n in (5, 6, 7):
            M = build_module(partition_shape(ell, [[n]] + [[]] * (ell - 1)))
            assert M.dim == 1
            for fast, slow in ((verify_relations, ref.verify_relations),
                               (verify_intertwiners, ref.verify_intertwiners),
                               (jm_consistency, ref.jm_consistency)):
                report = fast(M)
                assert report.ok and report == slow(M), (fast.__name__, ell, n)


def test_commutant_counts_components_of_the_support():
    # zeroing one off-diagonal pair of an s-matrix may split the support
    # graph; with distinct weights the commutant dimension is then the
    # number of components, which the exact solve of the oracle confirms
    import module_reference as ref

    split = 0
    for D in (partition_shape(1, [[3, 2]]), partition_shape(2, [[2], [1]])):
        M = build_module(D)
        assert len(set(M.weights)) == M.dim
        for k, m in enumerate(M.mat_s):
            for p, q in sorted(key for key in m.data if key[0] < key[1]):
                cut = m.copy()
                cut[p, q] = cut[q, p] = 0
                N = dataclasses.replace(M, mat_s=M.mat_s[:k] + (_kept(cut),) + M.mat_s[k + 1:])
                dim = commutant_dimension(N)
                assert dim == ref.commutant_dimension(N)
                split += dim > 1
    assert split > 0


def test_stored_forms_match_the_rows_writer():
    # a built module stores each s_i as its involution form; the Mat built
    # from it on request is the one the rows writer wrote, entry for entry
    # and over the same denominator, on the n <= 5 corpus, half-offset
    # shapes and (9,8), and after direct sums and rho-twists
    import module_reference as ref
    from test_acceptance import half_offset_shapes

    shapes = [D for ell in (1, 2, 3) for n in range(1, 6) for D in enumerate_shapes(ell, n, n)]
    shapes += half_offset_shapes() + [partition_shape(1, [[9, 8]])]
    modules = [build_module(D) for D in shapes]
    expected = [ref.s_matrices(D) for D in shapes]
    assert len(shapes) == 2179 + len(half_offset_shapes()) + 1 and modules[-1].dim == 4862

    def same(got, want):
        assert len(got) == len(want)
        for x, y in zip(got, want):
            assert (x.ell, x.nrows, x.ncols, x.den, x.rows) == (y.ell, y.nrows, y.ncols, y.den, y.rows)

    for M, want in zip(modules, expected):
        same(M.mat_s, want)
        same(twist(M, "rho").mat_s, want[::-1])
    sums = 0
    for k in range(0, len(modules) - 1, 7):
        M, N = modules[k], modules[k + 1]
        if (M.ell, M.n) == (N.ell, N.n):
            same(direct_sum(M, N).mat_s,
                 [block_diag(M.ell, [x, y]) for x, y in zip(expected[k], expected[k + 1])])
            sums += 1
    assert sums > 250


def test_sound_pipeline_builds_no_s_matrix(monkeypatch):
    # every stage reads the stored forms and integer weights, so verifying a
    # built module, or a sum of two, never builds the Mat of an s_i; a module
    # whose forms confirm every identity gets the report shared by its (ell, n)
    from heckemod import modules as md

    def refuse(*args):
        raise AssertionError("an s-matrix Mat was built")

    monkeypatch.setattr(md, "_mat_of_form", refuse)
    shapes = [D for ell in (1, 2, 3) for n in (1, 2, 3, 4) for D in enumerate_shapes(ell, n, n)]
    assert len(shapes) == 454
    for D in shapes:
        M = build_module(D)
        (relations, _), (intertwiners, _), jm = md._table(M.ell, M.n)
        assert verify_relations(M) is relations and verify_intertwiners(M) is intertwiners
        assert commutant_dimension(M) == 1
        central_character(M)
        if is_partition_shape(D):
            assert jm_consistency(M) is jm
        assert twist(twist(M, "rho"), "rho") == M
    # a direct sum of built modules keeps their joined forms
    S = direct_sum(module_21(), build_module(partition_shape(1, [[3]])))
    assert verify_relations(S).ok and verify_intertwiners(S).ok and commutant_dimension(S) == 2


def test_replaced_fields_are_read_afresh():
    # a built module stores its forms and its integer weights; a copy with
    # other s-matrices or other weights reads those, never the stored views
    import random

    import module_reference as ref

    rng = random.Random(26)
    shapes = [D for ell in (1, 2) for n in (3, 4) for D in enumerate_shapes(ell, n, n)]
    pairs = [(verify_relations, ref.verify_relations),
             (verify_intertwiners, ref.verify_intertwiners),
             (commutant_dimension, ref.commutant_dimension),
             (central_character, ref.central_character)]
    copies = 0
    for D in shapes:
        M = build_module(D)
        assert _views(M)[0] and M._scaled  # the stored views, read before the copies
        assert dataclasses.replace(M, mat_s=tuple(M.mat_s)) == M
        for kind in ("s", "outside", "u", "zeta"):
            N = _corrupted(M, rng, kind)
            if N is M or (N.mat_s == M.mat_s and N.weights == M.weights):
                continue
            if kind in ("s", "outside"):
                assert N.weights is M.weights and _views(N)[0] != _views(M)[0]
            else:
                assert N.mat_s is M.mat_s and N._scaled != M._scaled
            for fast, slow in pairs:
                assert _outcome(fast, N) == _outcome(slow, N), (fast.__name__, kind, D)
            copies += 1
    assert copies > 100


def test_central_character_matches_reference_to_n5():
    # e_k of the zetas in the group ring, one field element per k, against
    # the oracle's field arithmetic on the diagonals: the n <= 5 corpus,
    # direct sums, both twists, and a sum of two modules that differ
    import module_reference as ref

    modules = [build_module(D) for ell in (1, 2, 3) for n in range(1, 6)
               for D in enumerate_shapes(ell, n, n)]
    assert len(modules) == 2179
    modules += [direct_sum(M, M) for M in modules[::29]]
    modules += [twist(M, "rho") for M in modules[::11]] + [twist(M, "t", "1/3") for M in modules[::13]]
    for M in modules:
        assert central_character(M) == ref.central_character(M)
    mixed = direct_sum(build_module(partition_shape(2, [[2], []])),
                       build_module(partition_shape(2, [[1], [1]])))
    messages = []
    for fn in (central_character, ref.central_character):
        with pytest.raises(NotScalar) as info:
            fn(mixed)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_central_character_compares_colors_in_the_field():
    # at ell = 4, zeta^0 + zeta^2 = zeta + zeta^3 = 0: the two basis vectors
    # differ in e_1(zeta) as group-ring vectors but not in the field, so the
    # first e_k that is not scalar is e_2 (zeta^2 = -1 against zeta^4 = 1)
    import module_reference as ref

    zero = (Fraction(0),) * 2
    M = ModuleRep(4, 2, 2, (Mat.zero(4, 2),), (Weight(zero, (0, 2)), Weight(zero, (1, 3))))
    for fn in (central_character, ref.central_character):
        with pytest.raises(NotScalar, match=r"^e_2\(zeta\) takes 2 distinct values$"):
            fn(M)


def test_entries_set_in_place_are_what_the_checks_read():
    # an off-diagonal s entry negated in place, on a freshly built module and
    # on a hand-made module of plain Mats, before any check or after every
    # check has read the module: the checks read the edited rows, as the
    # matrix oracles do, not the form the matrix held before
    import module_reference as ref

    checks = ((verify_relations, ref.verify_relations),
              (verify_intertwiners, ref.verify_intertwiners),
              (commutant_dimension, ref.commutant_dimension),
              (jm_consistency, ref.jm_recurrence))
    edited = 0
    for D in (partition_shape(1, [[2, 1]]), partition_shape(1, [[3, 2]]),
              partition_shape(2, [[2, 1], [1]]), partition_shape(3, [[2], [1], []])):
        for k in range(D.n - 1):
            for checked_first in (False, True):
                source = build_module(D)
                off = [key for key in source.mat_s[k].data if key[0] != key[1]]
                if not off:
                    continue
                p, q = min(off)
                value = -source.mat_s[k][p, q]
                hand_made = ModuleRep(source.ell, source.n, source.dim,
                                      tuple(m.copy() for m in source.mat_s), source.weights, D)
                assert type(hand_made.mat_s[k]) is Mat
                for M in (build_module(D), hand_made):
                    m = M.mat_s[k]
                    if checked_first:
                        assert verify_relations(M).ok and verify_intertwiners(M).ok
                        assert commutant_dimension(M) == 1 and jm_consistency(M).ok
                    elif M is not hand_made:  # no rows yet: the edit is what writes them
                        with pytest.raises(AttributeError):
                            object.__getattribute__(m, "rows")
                    m[p, q] = value
                    assert not verify_relations(M).ok
                    for fast, slow in checks:
                        assert _outcome(fast, M) == _outcome(slow, M), (fast.__name__, D, k)
                    edited += 1
    assert edited > 30


def test_built_modules_keep_forms_through_repr_pickle_and_deepcopy(monkeypatch):
    # a built, twisted or summed module's mat_s is a tuple of Mats; repr of
    # a built one writes no rows, and a pickled or deep-copied module is
    # equal to the original, with equal reports
    import copy
    import pickle

    from heckemod import modules as md

    D = partition_shape(2, [[2, 1], [1]])
    M, N = build_module(D), build_module(D)
    plain = dataclasses.replace(N, mat_s=tuple(m.copy() for m in N.mat_s))
    for X in (M, twist(M, "rho"), twist(M, "t", 1), direct_sum(N, N)):
        assert type(X.mat_s) is tuple and all(isinstance(m, Mat) for m in X.mat_s)
    with monkeypatch.context() as patch:
        def refuse(*args):
            raise AssertionError("an s-matrix Mat was built")

        patch.setattr(md, "_mat_of_form", refuse)
        assert repr(M) == repr(plain)
    checks = (verify_relations, verify_intertwiners, commutant_dimension, jm_consistency)
    for X in (M, twist(M, "rho"), direct_sum(M, M)):
        for Y in (pickle.loads(pickle.dumps(X)), copy.deepcopy(X)):
            assert Y == X and Y.mat_s == X.mat_s
            assert [_outcome(f, Y) for f in checks] == [_outcome(f, X) for f in checks]


def test_pickle_and_deepcopy_of_a_built_module_write_no_rows():
    # a _FormMat with its form set reduces to the form: the original keeps
    # its rows slot unset and the copy keeps the form; once an entry is set
    # in place, the copy holds the edited rows
    import copy
    import pickle

    def rows_written(m):
        try:
            object.__getattribute__(m, "rows")
        except AttributeError:
            return False
        return True

    M = build_module(partition_shape(1, [[3, 2]]))
    copies = (pickle.loads(pickle.dumps(M)), copy.deepcopy(M))
    assert not any(map(rows_written, M.mat_s))
    for Y in copies:
        assert [y.form for y in Y.mat_s] == [m.form for m in M.mat_s]
        assert not any(map(rows_written, Y.mat_s))
    for Y in copies:  # == reads the rows
        assert verify_relations(Y) == verify_relations(M)
        assert verify_intertwiners(Y) == verify_intertwiners(M)
        assert Y == M
    edited = copy.deepcopy(M)
    edited.mat_s[0][0, 0] = -edited.mat_s[0][0, 0]
    for Y in (pickle.loads(pickle.dumps(edited)), copy.deepcopy(edited)):
        assert Y == edited != M and type(Y.mat_s[0]) is Mat
        assert verify_relations(Y) == verify_relations(edited)


def test_a_checked_module_stores_its_forms_and_verdicts_only():
    # after every check, a built module holds its integer weights and one view
    # of its s-matrices: the kept forms and three lists of verdicts, nothing
    # derived from them (no partner pairs, no pi lists)
    for ell, parts in ((1, [[3, 2]]), (2, [[2, 1], [1]]), (3, [[2], [1], [1]])):
        M = build_module(partition_shape(ell, parts))
        assert verify_relations(M).ok and verify_intertwiners(M).ok and jm_consistency(M).ok
        assert commutant_dimension(M) == 1
        central_character(M)
        assert {key for key in vars(M) if key.startswith("_")} == {"_scaled", "_views"}
        view = _views(M)
        assert len(view) == 4 and all(view[0][k] is m.form for k, m in enumerate(M.mat_s))
        for verdicts in view[1:]:
            assert len(verdicts) == M.n - 1 and all(type(x) is bool for x in verdicts)


def test_forms_move_exactly_the_rows_with_an_off_diagonal_entry():
    # C[p] = 0 exactly where P p = p, on every form the checks read: built on
    # the n <= 5 corpus and half-offset shapes, joined by direct sums, reordered
    # by rho-twists, and read off the rows of rescaled copies by the tests' reader
    import random

    from test_acceptance import half_offset_shapes

    shapes = [D for ell in (1, 2, 3) for n in range(1, 6) for D in enumerate_shapes(ell, n, n)]
    modules = [build_module(D) for D in shapes + half_offset_shapes()]
    modules += [twist(M, "rho") for M in modules]
    modules += [direct_sum(M, N) for M, N in zip(modules[::7], modules[1::7])
                if (M.ell, M.n) == (N.ell, N.n)]
    rng = random.Random(33)
    rescaled = [_rescaled(M, rng) for M in modules[::5]]
    forms = 0
    for M in modules + rescaled:
        for f in _views(M)[0]:
            P, _, C, _ = f
            assert [c == 0 for c in C] == [p == q for p, q in enumerate(P)]
            forms += 1
    assert all(type(m) is _FormMat for M in rescaled for m in M.mat_s)
    assert forms > 20000


def test_module_rep_refuses_inconsistent_sizes():
    # a module is made with n - 1 dim x dim s-matrices over its ell and dim
    # weights, or not at all: one missing s_2 would get commutant dimension 2,
    # one with a spare s-matrix would pass every check.  A weight without n
    # entries is refused where the checks first read the weights
    M = module_21()
    s1, s2 = M.mat_s
    w = M.weights
    for fields in ({"mat_s": ()}, {"mat_s": (s1,)}, {"mat_s": (s1, s2, s1)},
                   {"mat_s": (s1, Mat.zero(1, 3))}, {"mat_s": (s1, Mat.zero(1, 2, 3))},
                   {"mat_s": (s1, Mat.zero(2, 2))}, {"mat_s": (s1, s2.form)},
                   {"weights": w[:1]}, {"weights": w + w[:1]}):
        with pytest.raises(DimensionMismatch):
            dataclasses.replace(M, **fields)
    message = "^n=1 and dim=1 need 0 s-matrices and 1 weights, got 1 and 1$"
    with pytest.raises(DimensionMismatch, match=message):
        ModuleRep(1, 1, 1, (Mat.zero(1, 1),), (Weight((Fraction(0),), (0,)),))
    with pytest.raises(DimensionMismatch, match="^s2 is not a 2x2 Mat over ell=1: "):
        ModuleRep(1, 3, 2, (s1, Mat.zero(1, 3)), w)
    checks = (verify_relations, verify_intertwiners, commutant_dimension, central_character,
              jm_consistency, lambda N: generator_matrix(N, "u", 1))
    for short in (Weight(w[1].a[:2], w[1].b), Weight(w[1].a, w[1].b + (0,))):
        N = dataclasses.replace(M, weights=(w[0], short))
        for check in checks:
            with pytest.raises(DimensionMismatch, match="^weight 1 has"):
                check(N)
    # then each entry as the weight readers read it: a float or a string is
    # no u-eigenvalue, and a bool no colour exponent
    for bad, field in ((Weight((0.5,) + w[1].a[1:], w[1].b), "'a' must hold integers or Fractions"),
                       (Weight(("1/2",) + w[1].a[1:], w[1].b), "'a' must hold integers or Fractions"),
                       (Weight(w[1].a, (True,) + w[1].b[1:]), "'b' must hold integers")):
        N = dataclasses.replace(M, weights=(w[0], bad))
        for check in checks:
            with pytest.raises(ValueError, match=f"^weight field {field}") as info:
                check(N)
            assert type(info.value) is ValueError
