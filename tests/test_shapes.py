import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from heckemod import (
    Component,
    DegenerateShape,
    EmptyShape,
    NotAPartition,
    NotConnected,
    NotSkew,
    NotStandard,
    SkewShapeL,
    Tableau,
    Weight,
    apply_transposition,
    enumerate_shapes,
    enumerate_syt,
    hook_dimension,
    inversion_set,
    is_partition_shape,
    is_standard,
    joint_placement,
    partition_shape,
    partitions_of,
    reconstruct,
    row_reading_tableau,
    shape_from_json,
    shape_to_json,
    shift_contents,
    tableau_from_json,
    tableau_path,
    tableau_to_json,
    validate_and_canonicalize,
    weight_from_json,
    weight_of,
    weight_to_json,
)
from heckemod import shapes
from heckemod.shapes import shape_count
import shapes_reference
from shapes_reference import connected_classes, shape_fault
from test_acceptance import half_offset_shapes, multipartitions


def shape_21():
    return partition_shape(1, [[2, 1]])


# ---------------------------------------------------------------------------
# validation and canonical form


def test_canonical_partition_cells():
    D = shape_21()
    assert len(D.components) == 1
    comp = D.components[0]
    assert comp.beta == 0
    assert comp.offset == 0
    assert comp.cells == ((1, 0), (1, 1), (2, -1))
    assert D.n == 3


def test_row_shift_invariance():
    # sliding a component along its diagonal leaves the canonical form alone
    base = validate_and_canonicalize(1, [(0, 0, [(1, 0), (1, 1), (2, -1)])])
    slid = validate_and_canonicalize(1, [(0, 0, [(4, 0), (4, 1), (5, -1)])])
    assert base == slid


def test_offset_folding():
    D = validate_and_canonicalize(2, [(0, Fraction(3, 2), [(1, 0), (1, 1)])])
    comp = D.components[0]
    assert comp.offset == Fraction(1, 2)
    assert comp.cells == ((1, 1), (1, 2))
    assert min(c for _, c in comp.cells) + comp.offset == Fraction(3, 2)


def test_component_ordering_is_canonical():
    a = (0, 0, [(1, 0)])
    b = (1, 0, [(1, 0), (1, 1)])
    assert validate_and_canonicalize(2, [a, b]) == validate_and_canonicalize(2, [b, a])


def test_not_skew():
    with pytest.raises(NotSkew):
        validate_and_canonicalize(1, [(0, 0, [(1, 0), (1, 2)])])
    with pytest.raises(NotSkew):
        # missing inner corner of a 2x2 square
        validate_and_canonicalize(1, [(0, 0, [(1, 0), (1, 1), (2, 0)])])
    with pytest.raises(NotSkew):
        validate_and_canonicalize(2, [(5, 0, [(1, 0)])])


def test_not_connected():
    # corner-touching boxes satisfy closure but are not edgewise connected
    with pytest.raises(NotConnected):
        validate_and_canonicalize(1, [(0, 0, [(1, 1), (2, -1)])])


def test_degenerate_gap():
    with pytest.raises(DegenerateShape):
        validate_and_canonicalize(1, [(0, 0, [(1, 0)]), (0, 0, [(1, 1)])])
    # gap of exactly 2 is fine
    D = validate_and_canonicalize(1, [(0, 0, [(1, 0)]), (0, 0, [(1, 2)])])
    assert len(D.components) == 2
    # different offsets never interact
    ok = validate_and_canonicalize(
        2, [(0, 0, [(1, 0)]), (0, Fraction(1, 2), [(1, 0)])])
    assert len(ok.components) == 2


def test_degenerate_gap_half_integer_offset():
    half = Fraction(1, 2)
    domino, single, pair = [(1, 0), (2, -1)], [(1, 3)], [(1, 4), (1, 5)]
    with pytest.raises(DegenerateShape) as info:
        validate_and_canonicalize(
            2, [(1, half, pair), (1, half, domino), (1, half, single)])
    # the offset is part of the reported contents
    assert str(info.value) == ("content intervals [7/2,7/2] and [9/2,11/2] in one "
                               "coordinate are closer than 2")
    # the middle box one content to the left keeps both gaps at 2
    ok = validate_and_canonicalize(
        2, [(1, half, pair), (1, half, domino), (1, half, [(1, 2)])])
    assert [c.offset for c in ok.components] == [half] * 3


def test_empty_shape():
    with pytest.raises(EmptyShape):
        validate_and_canonicalize(1, [])
    with pytest.raises(EmptyShape):
        validate_and_canonicalize(1, [(0, 0, [])])


def test_gap_criterion_matches_joint_placement():
    # all pairs of small connected components in one coordinate: the interval
    # criterion (gaps >= 2) must agree with the brute-force placement search
    pool = [
        [(1, 0)],
        [(1, 0), (1, 1)],
        [(1, 0), (2, -1)],
        [(1, 0), (1, 1), (2, -1)],
        [(1, 0), (1, 1), (2, 0)],  # not skew alone, skip below
        [(1, 0), (1, 1), (1, 2)],
    ]
    anchors = range(-1, 4)
    for cells1, cells2 in itertools.product(pool, repeat=2):
        for d1, d2 in itertools.product(anchors, repeat=2):
            comps = [(0, 0, [(r, c + d1) for r, c in cells1]),
                     (0, 0, [(r, c + d2) for r, c in cells2])]
            try:
                validate_and_canonicalize(1, comps)
                accepted = True
            except DegenerateShape:
                accepted = False
            except NotSkew:
                continue
            placed = joint_placement([comps[0][2], comps[1][2]])
            assert accepted == (placed is not None), (comps, placed)
    # groups of three components, which only the gap criterion now validates
    for cells1, cells2, cells3 in itertools.product(pool[:4], repeat=3):
        for d2, d3 in itertools.product(range(0, 6), repeat=2):
            comps = [(0, 0, cells1),
                     (0, 0, [(r, c + d2) for r, c in cells2]),
                     (0, 0, [(r, c + d3) for r, c in cells3])]
            try:
                validate_and_canonicalize(1, comps)
                accepted = True
            except DegenerateShape:
                accepted = False
            placed = joint_placement([cells for _, _, cells in comps])
            assert accepted == (placed is not None), (comps, placed)
    # a lone component stays where it is
    assert joint_placement([pool[3]]) == [0]


def grid_subsets(width, height):
    """Every nonempty set of boxes at grid positions x < width, 1 <= y <=
    height, as cells (row, c) = (y, x - y)."""
    grid = [(y, x - y) for x in range(width) for y in range(1, height + 1)]
    for mask in range(1, 1 << len(grid)):
        yield {cell for k, cell in enumerate(grid) if mask >> k & 1}


GRIDS = [(4, 4), (3, 5), (5, 3)]


@pytest.mark.parametrize("width, height", GRIDS)
def test_shape_fault_matches_reference_on_grid_subsets(width, height):
    for cells in grid_subsets(width, height):
        assert shapes._shape_fault(cells) is shape_fault(cells), sorted(cells)


def _validated(cells):
    try:
        return validate_and_canonicalize(1, [(0, 0, cells)])
    except (NotSkew, NotConnected) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("width, height", GRIDS)
def test_validation_matches_reference_on_grid_subsets(width, height, monkeypatch):
    subsets = list(grid_subsets(width, height))
    got = [_validated(cells) for cells in subsets]
    monkeypatch.setattr(shapes, "_shape_fault", shape_fault)
    assert got == [_validated(cells) for cells in subsets]


BOX = st.tuples(st.integers(1, 12), st.integers(1, 12))  # grid position (x, y)


@st.composite
def box_sets(draw):
    """Sets of at most 30 boxes in a 12 x 12 box, as cells: arbitrary sets,
    and skew sets (row bounds falling from row to row, empty rows allowed;
    possibly empty) of at most 5 rows within 6 columns, with one box maybe
    toggled."""
    if draw(st.booleans()):
        points = draw(st.sets(BOX, min_size=1, max_size=30))
    else:
        x0, y0 = draw(st.integers(0, 6)), draw(st.integers(1, 8))
        rows = draw(st.integers(1, 5))
        bounds = [sorted(draw(st.lists(st.integers(1, 6), min_size=rows, max_size=rows)),
                         reverse=True) for _ in range(2)]
        points = {(x0 + x, y0 + k) for k, (lo, hi) in enumerate(zip(*bounds))
                  for x in range(lo, hi + 1)}
        flip = draw(st.none() | BOX)
        if flip is not None and len(points ^ {flip}) <= 30:
            points ^= {flip}
    return {(y, x - y) for x, y in points}


@given(box_sets().filter(bool))
@settings(max_examples=400, deadline=None)
def test_shape_fault_matches_reference_in_a_box(cells):
    assert shapes._shape_fault(cells) is shape_fault(cells)


def test_connected_classes_match_reference_growth():
    # a window drops exactly the classes whose contents span more than
    # window + 1; window 6 drops none of at most 7 boxes
    for window in range(7):
        grown = shapes._connected_classes(7, window)
        assert len(grown) == 8
        for m in range(1, 8):
            expect = tuple(cls for cls in connected_classes(m)
                           if max(c for _, c in cls) <= window)
            assert grown[m] == expect, (m, window)


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_shapes_counts():
    assert [len(enumerate_shapes(1, n, n)) for n in (1, 2, 3, 4)] == [1, 3, 8, 21]
    assert [len(enumerate_shapes(2, n, n)) for n in (1, 2, 3)] == [2, 7, 24]
    assert len(enumerate_shapes(3, 3, 3)) == 49
    # one box in one of more colors than Python's default recursion limit
    assert [D.components[0].beta for D in enumerate_shapes(1100, 1, 0)] == list(range(1100))


def test_shape_count_matches_enumeration():
    # the count reads only the sizes of the one-color catalogs, so it agrees
    # with the enumeration on every small grid point and costs nothing at a
    # large ell
    cases = [(ell, n, window) for ell in range(1, 6) for n in range(1, 6)
             for window in range(n + 2)]
    assert len(cases) == 125
    for case in cases:
        assert shape_count(*case) == len(enumerate_shapes(*case)), case
    assert shape_count(1100, 1, 0) == 1100
    assert shape_count(1009, 2, 2) == 511_563
    assert shape_count(100003, 2, 2) == 5_000_550_012
    with pytest.raises(EmptyShape):
        shape_count(2, 0, 2)


def brute_force_shapes(ell, n, window):
    """Grid-subset enumeration, independent of the library's generator."""
    found = set()
    grid = [(beta, r, c) for beta in range(ell)
            for r in range(1, n + 1) for c in range(0, window + 1)]
    for combo in itertools.combinations(grid, n):
        by_beta = {}
        for beta, r, c in combo:
            by_beta.setdefault(beta, set()).add((r, c))
        comps = []
        ok = True
        for beta, cells in by_beta.items():
            # split into edge-connected pieces
            cells = set(cells)
            while cells:
                piece = {min(cells)}
                frontier = [min(cells)]
                while frontier:
                    r, c = frontier.pop()
                    for q in ((r, c + 1), (r, c - 1), (r - 1, c + 1), (r + 1, c - 1)):
                        if q in cells and q not in piece:
                            piece.add(q)
                            frontier.append(q)
                cells -= piece
                comps.append((beta, 0, sorted(piece)))
        # every coordinate present must reach content 0 and stay in window
        for beta in range(ell):
            mine = [c for b, _, cs in comps if b == beta for _, c in cs]
            if mine and (min(mine) != 0 or max(mine) > window):
                ok = False
        if not ok:
            continue
        try:
            found.add(validate_and_canonicalize(ell, comps))
        except (NotSkew, NotConnected, DegenerateShape):
            continue
    return found


def test_enumerate_shapes_against_grid_subsets():
    for ell, n in ((1, 2), (1, 3), (1, 4), (2, 2), (2, 3)):
        expect = brute_force_shapes(ell, n, n)
        got = set(enumerate_shapes(ell, n, n))
        assert got == expect, (ell, n, len(got), len(expect))
    # the shapes are built canonical, not validated: each is what the
    # validator makes of its own components, in the validator's order
    for case in [(ell, n, n) for ell in (1, 2, 3) for n in range(1, 6)] + [(2, 6, 6)]:
        got = enumerate_shapes(*case)
        assert all(D == validate_and_canonicalize(D.ell, D.components) for D in got), case
        keys = [tuple(c.sort_key() for c in D.components) for D in got]
        assert keys == sorted(keys) and len(set(keys)) == len(keys), case


def test_enumerate_shapes_window_widens():
    assert len(enumerate_shapes(1, 3, 4)) >= len(enumerate_shapes(1, 3, 3))
    # every 3-box shape spans contents {0, 1, 2} once anchored, so a narrow
    # window keeps only the four connected ones and then nothing at all
    assert len(enumerate_shapes(1, 3, 2)) == 4
    assert len(enumerate_shapes(1, 3, 1)) == 0


def test_enumerate_anchoring():
    for D in enumerate_shapes(2, 3, 3):
        for beta in range(2):
            contents = [c for comp in D.components if comp.beta == beta
                        for _, c in comp.cells]
            if contents:
                assert min(contents) == 0


# ---------------------------------------------------------------------------
# standard tableaux


def test_enumerate_syt_shape_21():
    ts = enumerate_syt(shape_21())
    assert [t.labels for t in ts] == [((1, 2, 3),), ((1, 3, 2),)]
    assert ts[0] == row_reading_tableau(shape_21())
    assert all(is_standard(t) for t in ts)
    # built afresh on each call: no tableau list is kept once its caller is done
    assert not hasattr(enumerate_syt, "cache_clear")
    assert enumerate_syt(shape_21()) == ts and enumerate_syt(shape_21()) is not ts


def test_enumerate_syt_against_permutation_filter():
    for ell, n in ((1, 3), (1, 4), (2, 3)):
        for D in enumerate_shapes(ell, n, n):
            sizes = [comp.size for comp in D.components]
            valid = set()
            for perm in itertools.permutations(range(1, n + 1)):
                labels = []
                k = 0
                for s in sizes:
                    labels.append(tuple(perm[k:k + s]))
                    k += s
                t = Tableau(D, tuple(labels))
                if is_standard(t):
                    valid.add(t)
            assert valid == set(enumerate_syt(D))


def reference_shapes():
    """The shapes the tableau layer is held to its reference on: the
    ell <= 3, n <= 5 catalogue, the half-offset shapes and three larger
    partition shapes."""
    return ([D for ell in (1, 2, 3) for n in range(1, 6) for D in enumerate_shapes(ell, n, n)]
            + half_offset_shapes()
            + [partition_shape(1, [[8, 7]]), partition_shape(1, [[4, 3, 2, 2, 1, 1, 1]]),
               partition_shape(2, [[3, 2], [2, 1, 1]])])


def test_tableau_layer_matches_reference():
    # ordered lists, not sets: the order of the fillings is the order of the
    # basis, so it fixes every matrix a module prints
    for D in reference_shapes():
        ctx, old = D._ctx, shapes_reference.ShapeContext(D)
        assert (ctx.boxes, ctx.rank, ctx.blocked) == (old.boxes, old.rank, old.blocked)
        positions = ctx.all_positions()
        assert positions == old.all_positions(), D
        tableaux = [Tableau(D, ctx.labels_of(pos)) for pos in positions]
        assert tableaux == [old.tableau_from_positions(pos) for pos in positions]
        assert [ctx.positions_of(tab) for tab in tableaux] == positions
        assert [old.positions_of(tab) for tab in tableaux] == positions
        if D.n <= 4:
            assert ([inversion_set(tab) for tab in tableaux]
                    == [shapes_reference.inversions(old, tab) for tab in tableaux])


def test_is_standard_matches_reference():
    # every arrangement of 1..n, standard or not, against the dict-scan oracle
    shapes_seen = [D for ell in (1, 2, 3) for n in range(1, 5)
                   for D in enumerate_shapes(ell, n, n)] + half_offset_shapes()
    standard = 0
    for D in shapes_seen:
        for perm in itertools.permutations(range(1, D.n + 1)):
            t = Tableau(D, D._ctx.split(perm))
            verdict = is_standard(t)
            assert verdict == shapes_reference.is_standard(t), t
            standard += verdict
    assert standard == sum(len(enumerate_syt(D)) for D in shapes_seen)


def test_shape_holds_its_context():
    # the context is kept on the shape, not in a table keyed by shape, so a
    # shape that has built it still compares and hashes as its fields do
    D = partition_shape(2, [[2, 1], [1]])
    enumerate_syt(D)
    assert "_ctx" in vars(D)
    fresh = validate_and_canonicalize(2, [(c.beta, c.offset, c.cells) for c in D.components])
    assert "_ctx" not in vars(fresh)
    assert fresh == D and hash(fresh) == hash(D) and len({D, fresh}) == 1
    assert not hasattr(enumerate_shapes, "cache_clear")
    first = enumerate_shapes(2, 3, 3)
    assert enumerate_shapes(2, 3, 3) == first


def test_component_cells_are_sorted():
    # the box numbering follows the flattened labels, which is reading order
    # only because every component keeps its cells sorted by (row, c)
    catalogue = [D for ell in (1, 2, 3) for n in range(1, 6) for D in enumerate_shapes(ell, n, n)]
    partitions = [partition_shape(ell, parts) for ell in (1, 2, 3) for n in range(1, 6)
                  for parts in multipartitions(ell, n)]
    shifted = [shift_contents(D, delta) for D in catalogue + half_offset_shapes()
               for delta in ("1/2", "-5/3")]
    # criterion 6's weights: every tableau of a shape reconstructs that shape,
    # so the row-reading one stands for all of them
    rebuilt = [reconstruct(weight_of(row_reading_tableau(D)), D.ell)[0] for D in catalogue]
    for D in catalogue + partitions + shifted + rebuilt:
        assert all(list(comp.cells) == sorted(comp.cells) for comp in D.components), D


def test_hook_dimension_values():
    assert hook_dimension(1, [[2, 1]]) == 2
    assert hook_dimension(1, [[3, 2]]) == 5
    assert hook_dimension(1, [[2, 2]]) == 2
    assert hook_dimension(1, [[1, 1, 1]]) == 1
    assert hook_dimension(2, [[1], [1]]) == 2
    assert hook_dimension(2, [[2], [1]]) == 3
    assert hook_dimension(3, [[1], [], [2]]) == 3
    with pytest.raises(EmptyShape, match="^empty multipartition$"):
        hook_dimension(2, [[], []])


def test_hook_dimension_counts_tableaux():
    for ell in (1, 2):
        for n in (1, 2, 3, 4):
            for parts in multipartitions(ell, n):
                D = partition_shape(ell, parts)
                assert hook_dimension(ell, parts) == len(enumerate_syt(D))


def test_partition_shape_rejects_non_partition():
    with pytest.raises(NotAPartition):
        partition_shape(1, [[2, -1]])
    for ell, parts, error, message in (
            (1, [[]], EmptyShape, "a shape needs at least one box"),
            (1, [[1, 2]], NotAPartition, "[1, 2] is not a weakly decreasing list of positive ints"),
            (2, [[1]], NotAPartition, "expected 2 partitions, got 1")):  # wrong number of coordinates
        with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
            partition_shape(ell, parts)
        assert type(info.value) is error
    # built canonical, not validated: each is what the validator makes of
    # its cells, rows from 1 and the corner box at content 0
    for ell in (1, 2, 3):
        for n in range(1, 6):
            for parts in multipartitions(ell, n):
                cells = [(beta, 0, [(r, x - r) for r, row_len in enumerate(lam, 1)
                                    for x in range(1, row_len + 1)])
                         for beta, lam in enumerate(parts) if lam]
                assert partition_shape(ell, parts) == validate_and_canonicalize(ell, cells), parts


def test_repeated_cells_are_malformed():
    for cells in ([(1, 0), (1, 0)], [(1, 0), (1, 1), (2, -1), (1, 1)]):
        with pytest.raises(ValueError, match=r"repeats the cell \[1, \d\]") as info:
            validate_and_canonicalize(1, [(0, 0, cells)])
        assert type(info.value) is ValueError
    assert validate_and_canonicalize(1, [(0, 0, [(1, 1), (1, 0)])]).n == 2


@pytest.mark.parametrize("build, field", [
    # the binary expansion of 0.1 is not read as an offset
    (lambda: validate_and_canonicalize(1, [(0, 0.1, [(1, 0)])]), "'offset'"),
    (lambda: validate_and_canonicalize(1, [(0, True, [(1, 0)])]), "'offset'"),
    # a float cell is not truncated, nor a bool read as a row
    (lambda: validate_and_canonicalize(1, [(0, 0, [(1.7, 0.2)])]), "'cells'"),
    (lambda: validate_and_canonicalize(1, [(0, 0, [(True, 0)])]), "'cells'"),
    (lambda: validate_and_canonicalize(1, [(0, 0, [(1, 0, 0)])]), "'cells'"),
    # a bool is not a colour
    (lambda: validate_and_canonicalize(2, [(True, 0, [(1, 0)])]), "'beta'"),
    (lambda: validate_and_canonicalize(2, [(1.0, 0, [(1, 0)])]), "'beta'"),
    # nor is ell anything but a positive int
    (lambda: validate_and_canonicalize(2.5, [(0, 0, [(1, 0)])]), "'ell'"),
    (lambda: validate_and_canonicalize(True, [(0, 0, [(1, 0)])]), "'ell'"),
    (lambda: validate_and_canonicalize(0, []), "'ell'"),
    (lambda: partition_shape(2.0, [[1], [1]]), "'ell'"),
    (lambda: hook_dimension(2.0, [[1], [1]]), "'ell'"),
    (lambda: hook_dimension(True, [[2, 1]]), "'ell'"),
    # ell is read before the components, not compared with a colour
    (lambda: validate_and_canonicalize("2", [(0, 0, [(1, 0)])]), "'ell'"),
])
def test_library_shapes_are_strict(build, field):
    # worded as in the shape JSON reader, and not a mathematical rejection
    with pytest.raises(ValueError, match=field) as info:
        build()
    assert type(info.value) is ValueError


def test_library_partitions_are_strict():
    for parts in ([[2.5, 1]], [[2.0, 1]], [[True]], [["2", 1]]):
        with pytest.raises(NotAPartition):
            partition_shape(1, parts)
    with pytest.raises(NotAPartition):
        hook_dimension(1, [[2.9, 1]])
    # exact offsets of every accepted kind
    for offset in (Fraction(1, 2), "1/2", "3/2"):
        comp = validate_and_canonicalize(1, [(0, offset, [(1, 0)])]).components[0]
        assert comp.offset == Fraction(1, 2)
    comp = validate_and_canonicalize(1, [(0, 2, [[1, 0]])]).components[0]
    assert comp.cells == ((1, 2),)  # an int offset moves into the contents


def test_is_partition_shape():
    assert is_partition_shape(shape_21())
    assert is_partition_shape(partition_shape(2, [[2], [1, 1]]))
    skew = validate_and_canonicalize(1, [(0, 0, [(1, 1), (2, 0), (2, -1)])])
    assert not is_partition_shape(skew)
    shifted = shift_contents(shape_21(), 1)
    assert not is_partition_shape(shifted)


def anchored_partition_oracle(shape):
    """Independent check: every component is a left-anchored partition with
    corner content 0, at most one per coordinate, offset 0."""
    seen = set()
    for comp in shape.components:
        if comp.beta in seen or comp.offset != 0:
            return False
        seen.add(comp.beta)
        rows = {}
        for r, c in comp.cells:
            rows.setdefault(r, []).append(c)
        for r, cs in rows.items():
            cs.sort()
            if cs[0] != 1 - r or cs != list(range(cs[0], cs[-1] + 1)):
                return False
        if sorted(rows) != list(range(1, len(rows) + 1)):
            return False
    return True


def test_partitions_of_agrees_with_oracle():
    shapes = [D for ell in (1, 2, 3) for n in range(1, 6)
              for D in enumerate_shapes(ell, n, n)]
    shapes += half_offset_shapes()
    shapes += [shift_contents(D, delta) for D in shapes if anchored_partition_oracle(D)
               for delta in (1, Fraction(1, 2))]
    found = 0
    for D in shapes:
        assert (partitions_of(D) is not None) == anchored_partition_oracle(D), D
        assert is_partition_shape(D) == anchored_partition_oracle(D)
        found += partitions_of(D) is not None
    assert 0 < found < len(shapes)


def test_partitions_of_inverts_partition_shape():
    count = 0
    for ell in (1, 2, 3):
        for n in range(1, 7):
            for parts in multipartitions(ell, n):
                assert partitions_of(partition_shape(ell, parts)) == parts
                count += 1
    assert count > 100


def test_shift_contents_moves_weights():
    D = shape_21()
    t = row_reading_tableau(D)
    shifted = shift_contents(D, Fraction(1, 2))
    t2 = row_reading_tableau(shifted)
    w, w2 = weight_of(t), weight_of(t2)
    assert [x2 - x for x, x2 in zip(w.a, w2.a)] == [Fraction(1, 2)] * 3
    assert shift_contents(shifted, Fraction(-1, 2)) == D


def test_shift_contents_reads_delta_exactly():
    D = shape_21()
    half = shift_contents(D, Fraction(1, 2))
    assert shift_contents(D, "1/2") == half
    assert shift_contents(D, 1) == shift_contents(D, "1")
    for bad in (0.1, 0.5, True, "x", "1/0", None):
        with pytest.raises(ValueError, match="delta must be a rational"):
            shift_contents(D, bad)


# ---------------------------------------------------------------------------
# weights, inversions, transpositions, paths


def test_weight_of_values():
    ts = enumerate_syt(shape_21())
    assert weight_of(ts[0]) == Weight((Fraction(0), Fraction(1), Fraction(-1)), (0, 0, 0))
    assert weight_of(ts[1]) == Weight((Fraction(0), Fraction(-1), Fraction(1)), (0, 0, 0))
    # ell scales contents, offsets enter the eigenvalue
    D = validate_and_canonicalize(2, [(1, Fraction(1, 2), [(1, 0), (1, 1)])])
    w = weight_of(row_reading_tableau(D))
    assert w.a == (Fraction(1), Fraction(3))
    assert w.b == (1, 1)


def test_inversion_set():
    ts = enumerate_syt(shape_21())
    assert inversion_set(ts[0]) == frozenset()
    assert inversion_set(ts[1]) == frozenset({(2, 3)})


def test_row_reading_has_no_inversions():
    for D in enumerate_shapes(2, 4, 4)[:40]:
        assert inversion_set(row_reading_tableau(D)) == frozenset()


def test_apply_transposition():
    ts = enumerate_syt(shape_21())
    assert apply_transposition(ts[0], 2) == ts[1]
    assert apply_transposition(ts[1], 2) == ts[0]
    with pytest.raises(NotStandard):
        apply_transposition(ts[0], 1)  # 1 and 2 share a row
    with pytest.raises(IndexError):
        apply_transposition(ts[0], 3)
    with pytest.raises(IndexError):
        apply_transposition(ts[0], 0)


def brute_swap_is_standard(tab, i):
    swapped = []
    for row in tab.labels:
        swapped.append(tuple(
            i + 1 if x == i else i if x == i + 1 else x for x in row))
    return shapes_reference.is_standard(Tableau(tab.shape, tuple(swapped)))


def test_transposition_matches_brute_force():
    # the O(1) adjacency test agrees with re-checking standardness outright
    for ell, n in ((1, 4), (2, 3), (2, 4)):
        for D in enumerate_shapes(ell, n, n):
            for t in enumerate_syt(D):
                for i in range(1, n):
                    try:
                        apply_transposition(t, i)
                        legal = True
                    except NotStandard:
                        legal = False
                    assert legal == brute_swap_is_standard(t, i), (D, t, i)


def test_tableau_path():
    for ell, n in ((1, 4), (2, 3)):
        for D in enumerate_shapes(ell, n, n):
            ts = enumerate_syt(D)
            for t in ts:
                path = tableau_path(t, ts[0])
                cur = t
                for i in path:
                    cur = apply_transposition(cur, i)
                assert cur == ts[0]
            # a couple of generic pairs
            path = tableau_path(ts[-1], ts[len(ts) // 2])
            cur = ts[-1]
            for i in path:
                cur = apply_transposition(cur, i)
            assert cur == ts[len(ts) // 2]
    t = row_reading_tableau(shape_21())
    assert tableau_path(t, t) == []


def test_tableau_path_rejects_mismatched_shapes():
    t1 = row_reading_tableau(shape_21())
    t2 = row_reading_tableau(partition_shape(1, [[3]]))
    with pytest.raises(ValueError):
        tableau_path(t1, t2)


# ---------------------------------------------------------------------------
# serialization


def test_shape_json_roundtrip():
    for D in enumerate_shapes(2, 3, 3):
        data = shape_to_json(D)
        assert shape_from_json(data) == D
    D = validate_and_canonicalize(2, [(1, Fraction(1, 2), [(1, 0)])])
    data = shape_to_json(D)
    assert data["components"][0]["offset"] == "1/2"
    assert shape_from_json(data) == D


def test_tableau_json_roundtrip():
    for D in enumerate_shapes(2, 3, 3)[:10]:
        for t in enumerate_syt(D):
            assert tableau_from_json(tableau_to_json(t)) == t
    ts = enumerate_syt(partition_shape(1, [[9, 8]]))
    assert len(ts) == 4862
    assert [tableau_from_json(tableau_to_json(t)) for t in ts] == list(ts)
    # one long row: the reader maps each cell to its box in one lookup
    t = row_reading_tableau(partition_shape(1, [[8000]]))
    assert tableau_from_json(tableau_to_json(t)) == t


def test_tableau_json_sorts_any_labels_stably():
    # a hand-made Tableau may repeat labels or hold labels outside 1..n: the
    # entries are sorted by label, ties kept in component-then-cell order
    D = partition_shape(2, [[2, 1], [2]])
    cases = [(((7, 0, 7), (-2, 0)),
              [[1, 0, 1, -2], [1, 1, 0, 0], [1, 1, 1, 0], [1, 0, 0, 7], [2, -1, 0, 7]]),
             (((3, 3, 3), (3, 3)),
              [[1, 0, 0, 3], [1, 1, 0, 3], [2, -1, 0, 3], [1, 0, 1, 3], [1, 1, 1, 3]]),
             (((10, 1, 2), (1, 0)),
              [[1, 1, 1, 0], [1, 1, 0, 1], [1, 0, 1, 1], [2, -1, 0, 2], [1, 0, 0, 10]])]
    for labels, entries in cases:
        data = tableau_to_json(Tableau(D, labels))
        assert data == {**shape_to_json(D), "entries": entries}


def test_tableau_json_rejects_bad_entries():
    t = enumerate_syt(shape_21())[0]
    data = tableau_to_json(t)
    bad = dict(data)
    bad["entries"] = [[r, c, k, 1] for r, c, k, _ in data["entries"]]
    with pytest.raises((NotStandard, ValueError)):
        tableau_from_json(bad)
    swapped = dict(data)
    # swapping labels 1 and 2 puts 2 before 1 in the first row
    swapped["entries"] = [
        [r, c, k, {1: 2, 2: 1}.get(lab, lab)] for r, c, k, lab in data["entries"]]
    with pytest.raises(NotStandard):
        tableau_from_json(swapped)


@pytest.mark.parametrize("entry, bad", [
    (0, [1, 0, 5, 1]),     # component index out of range
    (0, [1, 0, -1, 1]),    # would wrap to the last component
    (0, [1, 0, False, 1]),  # a bool is not an index
    (2, [1, 5, 0, 3]),     # cell not in its component
    (0, [1, 0, 0, 1.5]),   # a fractional label is not truncated
    (0, [1, 0, 0, True]),  # a bool is not a label
    (1, [1, 0, 1, "2"]),   # nor is a string
    (0, [True, 0, 0, 1]),  # a bool is not a row
    (2, [1, True, 1, 3]),  # nor a column
    (0, [1.0, 0, 0, 1]),   # a float row is refused even when integral
    (0, [1, 0, 0]),        # three values, not four
    (1, 2),                # a bare int is no entry
    (None, 5),             # "entries" itself is not a list
])
def test_tableau_json_rejects_bad_entry_positions(entry, bad):
    data = tableau_to_json(enumerate_syt(partition_shape(2, [[1], [2]]))[0])
    if entry is None:
        data["entries"] = bad
    else:
        data["entries"][entry] = bad
    with pytest.raises(ValueError, match=r"'entries'.*" + re.escape(repr(bad))):
        tableau_from_json(data)


def test_tableau_json_rejects_a_cell_listed_twice():
    # one box per colour: label 2 in both would still be a bijection onto 1..2
    data = tableau_to_json(row_reading_tableau(partition_shape(2, [[1], [1]])))
    data["entries"] = [[1, 0, 0, 1], [1, 0, 0, 2], [1, 0, 1, 2]]
    with pytest.raises(ValueError, match=r"'entries'.*" + re.escape(repr([1, 0, 0, 2]))):
        tableau_from_json(data)


def test_weight_json_roundtrip():
    t = enumerate_syt(shape_21())[1]
    w = weight_of(t)
    data = weight_to_json(w, 1)
    assert data == {"ell": 1, "a": ["0", "-1", "1"], "b": [0, 0, 0]}
    w2, ell = weight_from_json(data)
    assert (w2, ell) == (w, 1)
    frac = weight_to_json(Weight((Fraction(1, 2),), (1,)), 2)
    w3, ell3 = weight_from_json(frac)
    assert ell3 == 2 and w3.a == (Fraction(1, 2),) and w3.b == (1,)
    # a float entry is not written as the rational it happens to equal
    with pytest.raises(ValueError, match=r"^only an int or a Fraction .*, got 0\.5$"):
        weight_to_json(Weight((0.5,), (0,)), 1)
    # the lengths are refused in the words of the library check
    with pytest.raises(ValueError, match="^weight field 'b' must have as many entries as 'a'$"):
        weight_from_json({"ell": 1, "a": ["0"], "b": [0, 0]})


# ---------------------------------------------------------------------------
# properties


@st.composite
def corpus_tableaux(draw):
    ell = draw(st.integers(min_value=1, max_value=2))
    n = draw(st.integers(min_value=2, max_value=4))
    shapes = enumerate_shapes(ell, n, n)
    D = shapes[draw(st.integers(min_value=0, max_value=len(shapes) - 1))]
    ts = enumerate_syt(D)
    return ts[draw(st.integers(min_value=0, max_value=len(ts) - 1))]


@given(corpus_tableaux())
@settings(max_examples=60, deadline=None)
def test_tableau_roundtrips_and_path(t):
    assert tableau_from_json(tableau_to_json(t)) == t
    w, ell = weight_from_json(weight_to_json(weight_of(t), t.shape.ell))
    assert w == weight_of(t) and ell == t.shape.ell
    reading = row_reading_tableau(t.shape)
    path = tableau_path(t, reading)
    assert len(path) >= len(inversion_set(t) - inversion_set(reading))
    cur = t
    for i in path:
        cur = apply_transposition(cur, i)
    assert cur == reading


def test_enumeration_refuses_a_bad_ell_or_window(monkeypatch):
    # ell is checked as a shape's is, and a negative window is refused as the
    # CLI refuses --window -1, before a connected class is grown
    def refuse(*args):
        raise AssertionError("the catalogue was started")

    with monkeypatch.context() as patch:
        patch.setattr(shapes, "_connected_classes", refuse)
        for fn in (enumerate_shapes, shape_count):
            for ell in (0, -1, True, 2.0):
                with pytest.raises(ValueError, match="^shape field 'ell' must be a positive integer"):
                    fn(ell, 1, 1)
            with pytest.raises(ValueError, match="^window must be at least 0, got -1$"):
                fn(1, 1, -1)
    assert len(enumerate_shapes(2, 1, 0)) == shape_count(2, 1, 0) == 2


def test_tableau_path_refuses_non_standard_fillings():
    # a filling whose labels are not 1..n increasing along rows and columns is
    # refused at either end, as tableau_from_json refuses it, before any swap
    D = shape_21()
    t = row_reading_tableau(D)
    cases = [(((3, 2, 1),), "do not increase"), (((2, 1, 3),), "do not increase"),
             (((1, 2, 4),), "not a bijection"), (((1, 1, 2),), "not a bijection"),
             (((1, 2),), "not a bijection")]
    for labels, text in cases:
        bad = Tableau(D, labels)
        for ends in ((bad, t), (t, bad), (bad, bad)):
            with pytest.raises(NotStandard, match=text):
                tableau_path(*ends)
        # and by every other reader of the labels: is_standard says no, the
        # readers that need 1..n refuse it, and a swap starts from no such filling
        assert not is_standard(bad)
        readers = [lambda: apply_transposition(bad, 1), lambda: apply_transposition(bad, 2)]
        if text == "not a bijection":
            readers += [lambda: weight_of(bad), lambda: inversion_set(bad)]
        for read in readers:
            with pytest.raises(NotStandard, match=text):
                read()
    # the swap of 1 and 2 in (3, 2, 1) would be legal, and gave (3, 1, 2)
    with pytest.raises(NotStandard, match="^entries do not increase along rows and columns$"):
        apply_transposition(Tableau(D, ((3, 2, 1),)), 1)
    with pytest.raises(NotStandard, match="^entries are not a bijection onto 1..n$"):
        weight_of(Tableau(D, ((1, 2, 4),)))
    assert is_standard(Tableau(D, ((1, 2, 4),))) is False
