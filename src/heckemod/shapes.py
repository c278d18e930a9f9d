"""Multi-coordinate skew shapes and their standard tableaux.

A shape is a finite collection of boxes spread over ``ell`` coordinates
(indexed by ``beta``).  Each connected component lives in one coordinate and
is stored as a set of cells ``(row, c)`` where ``c`` is the integer part of
the box content; the component's rational ``offset`` in ``[0, 1)`` is added
to ``c`` to obtain the actual content.  A cell ``(row, c)`` sits at grid
position ``x = c + row, y = row``, so content is ``x - y`` as usual and
sliding a component along its diagonal only renumbers rows.  A component
must be skew (it holds the whole grid rectangle between comparable boxes)
and edge-connected; ``_shape_fault`` decides both in one linear pass over
its rows, and the brute-force closure it replaced is the test oracle.

Canonical form: every component has minimal row 1, offset in ``[0, 1)``
(the integer part of a supplied offset is folded into the cells), and the
component list is sorted by ``(beta, offset, cells)``.  Two components in
the same coordinate with equal offset interact: their content intervals
must be disjoint with gaps of at least 2, which is exactly the condition
for a simultaneous placement of all components whose union is skew.  The
validator checks the gaps; ``joint_placement`` searches for such a
placement directly and is kept as the independent oracle the gap criterion
is tested against.

Every tableau operation, standardness and the tableau JSON reader included,
reads one numbering of the shape's boxes, which the shape builds on first
use and holds itself (``SkewShapeL._ctx``), with no table keyed by shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, pairwise
from operator import itemgetter

from .cyclo import _checked_ell, fraction_from_str, fraction_to_str
from .errors import (DegenerateShape, EmptyShape, NotAPartition, NotConnected,
                     NotSkew, NotStandard)

Cell = tuple[int, int]  # (row, integer content part)
_ZERO = Fraction(0)


@dataclass(frozen=True)
class Component:
    beta: int
    offset: Fraction
    cells: tuple[Cell, ...]  # sorted by (row, c)

    @property
    def size(self) -> int:
        return len(self.cells)

    def sort_key(self):
        return (self.beta, self.offset, self.cells)


@dataclass(frozen=True)
class SkewShapeL:
    ell: int
    components: tuple[Component, ...]

    @property
    def n(self) -> int:
        return sum(comp.size for comp in self.components)

    @cached_property
    def _ctx(self) -> _ShapeContext:
        """The shape's box numbering, built on first use and kept with it."""
        return _ShapeContext(self)


@dataclass(frozen=True)
class Tableau:
    """A standard filling: labels[k][j] is the entry in the j-th cell of the
    k-th component (cells in their canonical sorted order)."""

    shape: SkewShapeL
    labels: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Weight:
    a: tuple[Fraction, ...]
    b: tuple[int, ...]


def _normalize_weight(w: Weight, ell: int) -> list[tuple[int, int, int]]:
    """Type-check ``ell``, the lengths, ``b`` (ints) and ``a`` (ints or Fractions) in
    turn; entry k becomes (p, q, b_k mod ell), a_k = p/q in lowest terms."""
    _checked_ell(ell, "weight")
    if len(w.a) != len(w.b):
        raise ValueError("weight field 'b' must have as many entries as 'a'")
    entries = []
    for x, y in zip(w.a, w.b):
        if y.__class__ is not int:
            raise ValueError(f"weight field 'b' must hold integers, got {w.b!r}")
        cls = x.__class__
        if cls is int:
            entries.append((x, 1, y % ell))
        elif cls is Fraction:
            p, q = x.as_integer_ratio()
            entries.append((p, q, y % ell))
    if len(entries) < len(w.a):  # an entry of 'a' was skipped; every 'b' passed
        raise ValueError(f"weight field 'a' must hold integers or Fractions, got {w.a!r}")
    return entries


# ---------------------------------------------------------------------------
# low-level lattice helpers

_NEIGHBOR_STEPS = ((0, 1), (0, -1), (-1, 1), (1, -1))  # right, left, up, down


def _shape_fault(cells) -> type[NotSkew] | type[NotConnected] | None:
    """The rule a nonempty set of distinct cells breaks: NotSkew, else
    NotConnected, else None.  Skew means equal to the intersection of its up-
    and down-sets: each row y from the first to the last holds exactly the x
    from the least x over rows <= y to the greatest over rows >= y (its count
    decides), and a gap's empty rows share one such range, which must be
    empty.  A skew set is connected exactly when each row y reaches back to
    the least x over rows < y, sharing a column with the row above."""
    rows: dict[int, list[int]] = {}
    for r, c in cells:
        rows.setdefault(r, []).append(c + r)
    ys = sorted(rows)
    # y -> greatest x over the rows >= y
    reach = dict(zip(ys[::-1], accumulate((max(rows[y]) for y in ys[::-1]), max)))
    connected = True
    prev = ys[0]
    left = min(rows[prev])  # least x over the rows read so far
    for y in ys:
        if reach[y] < left:
            connected = False
        elif y > prev + 1:
            return NotSkew  # the empty rows between would hold [left, reach[y]]
        left = min(left, min(rows[y]))
        if len(rows[y]) != reach[y] - left + 1:
            return NotSkew
        prev = y
    return None if connected else NotConnected


def _component_checked(ell: int, beta, offset, cells) -> Component:
    """The canonical component, read as strictly as JSON: ``beta``, rows and
    contents ints (not bools), ``offset`` a Fraction or a rational."""
    if type(beta) is not int:
        raise ValueError(f"shape field 'beta' must be an integer, got {beta!r}")
    listed = [tuple(cell) if isinstance(cell, (list, tuple)) and len(cell) == 2
              and type(cell[0]) is int and type(cell[1]) is int else None for cell in cells]
    if None in listed:
        raise ValueError(f"shape field 'cells' needs [row, content] integer "
                         f"pairs, got {cells!r}")
    if type(offset) is not Fraction:
        offset = fraction_from_str(offset, "shape field 'offset'")
    cells = set(listed)
    if len(cells) != len(listed):
        repeated = next(cell for k, cell in enumerate(listed) if cell in listed[:k])
        raise ValueError(f"shape field 'cells' repeats the cell {list(repeated)}")
    if not cells:
        raise EmptyShape("component with no cells")
    if not 0 <= beta < ell:
        raise NotSkew(f"coordinate {beta} out of range for ell={ell}")
    whole = math.floor(offset)  # moves into the contents; rows restart at 1
    shift = 1 - min(r for r, _ in cells)
    cells = tuple(sorted((r + shift, c + whole) for r, c in cells))
    fault = _shape_fault(cells)
    if fault is NotSkew:
        raise NotSkew(f"cells {list(cells)} violate skew closure")
    if fault is NotConnected:
        raise NotConnected(f"cells {list(cells)} split into several parts")
    return Component(beta, offset - whole, cells)


def joint_placement(components) -> list[int] | None:
    """Search for row shifts placing all components simultaneously.

    The components are assumed to share a coordinate and a fractional
    offset.  Returns per-component row shifts such that the union of the
    shifted realizations satisfies skew closure and no two components touch,
    or None when no placement exists inside the (provably sufficient)
    search window.  Brute force by design: this is the oracle the faster
    interval-gap criterion is checked against.
    """
    comps = [list(c.cells) if isinstance(c, Component) else list(c) for c in components]
    if len(comps) <= 1:
        return [0] * len(comps)
    order = sorted(range(len(comps)), key=lambda i: min(c for _, c in comps[i]))
    spans = sum(max(r for r, _ in cc) - min(r for r, _ in cc) + 1 for cc in comps)
    allc = [c for cc in comps for _, c in cc]
    window = (max(allc) - min(allc)) + spans + 2
    shifts = [0] * len(comps)

    def attempt(rank: int, placed: set) -> bool:
        if rank == len(order):
            return True
        idx = order[rank]
        for t in range(-window, window + 1):
            cells = {(r + t, c) for r, c in comps[idx]}
            union = placed | cells
            if len(union) != len(placed) + len(cells):
                continue
            if any((r + dr, c + dc) in placed
                   for r, c in cells for dr, dc in _NEIGHBOR_STEPS):
                continue  # touching components would merge
            if _shape_fault(union) is NotSkew:
                continue
            shifts[idx] = t
            if attempt(rank + 1, union):
                return True
        return False

    return shifts if attempt(1, set(comps[order[0]])) else None


def _check_coset_gaps(comps: list[Component]):
    """Same-coordinate, same-offset components must keep content gaps >= 2.

    The components share their offset, so the integer content parts are
    compared and the offset is added only to the message."""
    ivals = sorted((min(c for _, c in comp.cells), max(c for _, c in comp.cells))
                   for comp in comps)
    for (lo1, hi1), (lo2, hi2) in zip(ivals, ivals[1:]):
        if lo2 - hi1 < 2:
            off = comps[0].offset
            raise DegenerateShape(
                f"content intervals [{lo1 + off},{hi1 + off}] and "
                f"[{lo2 + off},{hi2 + off}] in one coordinate are closer than 2")


def validate_and_canonicalize(ell: int, components) -> SkewShapeL:
    """Check raw component data and return the canonical shape.

    Each entry of ``components`` is a Component or a ``(beta, offset, cells)``
    triple with cells ``(row, c)``.  Raises NotSkew / NotConnected /
    DegenerateShape / EmptyShape as appropriate.
    """
    _checked_ell(ell, "shape")
    cosets: dict = {}
    for comp in components:
        if isinstance(comp, Component):
            comp = comp.beta, comp.offset, comp.cells
        comp = _component_checked(ell, *comp)
        cosets.setdefault((comp.beta, comp.offset), []).append(comp)
    if not cosets:
        raise EmptyShape("a shape needs at least one box")
    for group in cosets.values():
        _check_coset_gaps(group)
    comps = chain.from_iterable(cosets.values())
    return SkewShapeL(ell, tuple(sorted(comps, key=Component.sort_key)))


def shift_contents(shape: SkewShapeL, delta) -> SkewShapeL:
    """The same shape with every box content increased by the rational delta
    (an int, a Fraction or a string such as "-3/2"; a float or bool raises
    ValueError)."""
    delta = delta if type(delta) is Fraction else fraction_from_str(delta, "delta")
    return validate_and_canonicalize(
        shape.ell,
        [(c.beta, c.offset + delta, c.cells) for c in shape.components])


# ---------------------------------------------------------------------------
# partitions

def _partition_rows(ell: int, partitions) -> list[list[int]]:
    """The ell row-length lists of a multipartition, checked."""
    _checked_ell(ell, "shape")
    lams = [list(lam) for lam in partitions]
    if len(lams) != ell:
        raise NotAPartition(f"expected {ell} partitions, got {len(lams)}")
    for lam in lams:
        if any(type(p) is not int or p <= 0 for p in lam) or lam != sorted(lam, reverse=True):
            raise NotAPartition(f"{lam} is not a weakly decreasing list of positive ints")
    return lams


def partition_shape(ell: int, partitions) -> SkewShapeL:
    """Shape of a tuple of partitions, one per coordinate, each anchored with
    its corner box at content 0, built canonical from the checked rows."""
    comps = tuple(Component(beta, _ZERO, tuple((r, x - r) for r, row_len in enumerate(lam, 1)
                                               for x in range(1, row_len + 1)))
                  for beta, lam in enumerate(_partition_rows(ell, partitions)) if lam)
    if not comps:
        raise EmptyShape("a shape needs at least one box")
    return SkewShapeL(ell, comps)


def partitions_of(shape: SkewShapeL) -> list[list[int]] | None:
    """The row lengths in each coordinate when every component is a
    partition anchored with its corner box at content 0 (offset 0); None for
    any other shape.  Canonical form implies the rest: two such components
    would share content 0 against the gap rule, and a connected skew
    component whose rows start in grid column 1 is a partition."""
    parts: list[list[int]] = [[] for _ in range(shape.ell)]
    for comp in shape.components:
        if comp.offset:
            return None
        rows: dict[int, int] = {}
        for r, c in comp.cells:  # sorted by (row, c): each row runs left to right
            length = rows.get(r, 0) + 1
            if c + r != length:  # the grid column x = c + r must count 1, 2, ...
                return None
            rows[r] = length
        parts[comp.beta] = list(rows.values())
    return parts


def is_partition_shape(shape: SkewShapeL) -> bool:
    """True when ``partitions_of`` reads a multipartition off the shape."""
    return partitions_of(shape) is not None


def hook_dimension(ell: int, partitions) -> int:
    """Number of standard fillings of an ell-tuple of partitions, by the
    hook-product formula ``n! / prod(h_b)`` over all boxes."""
    lams = _partition_rows(ell, partitions)
    n = sum(sum(lam) for lam in lams)
    if n == 0:
        raise EmptyShape("empty multipartition")
    hooks = [row_len - x + 1 + sum(1 for below in lam[r + 1:] if below >= x)  # arm + 1 + leg
             for lam in lams for r, row_len in enumerate(lam) for x in range(1, row_len + 1)]
    return math.factorial(n) // math.prod(hooks)


# ---------------------------------------------------------------------------
# enumeration of integral shapes

def _connected_classes(n: int, window: int) -> list[tuple[frozenset, ...]]:
    """Entry m <= n: connected skew cell-sets with m boxes anchored at (1, 0)
    whose contents span at most window + 1, each built once, row by row on
    grid columns x = c + r: under [left, right] a skew connected row ends at
    some r in [left, right] and starts at some l <= left, and the
    span, first row's end - 1 less last row's l - y, grows down the rows."""
    classes: list[list[frozenset]] = [[] for _ in range(n + 1)]

    def grow(rows: list[tuple[int, int]], size: int) -> None:
        (left, right), y = rows[-1], len(rows)  # the least content is left - y
        classes[size].append(frozenset((k, x - k - left + y) for k, (lo, hi) in enumerate(rows, 1)
                                       for x in range(lo, hi + 1)))
        for r in range(left, right + 1):  # l - (y + 1) >= rows[0][1] - 1 - window
            for lo in range(max(rows[0][1] + y - window, r + 1 + size - n), left + 1):
                grow(rows + [(lo, r)], size + r - lo + 1)

    for width in range(1, min(n, window + 1) + 1):
        grow([(0, width - 1)], width)
    return [()] + [tuple(sorted(cls, key=sorted)) for cls in classes[1:]]


def _one_coordinate_catalog(n: int, window: int) -> list[tuple[tuple, ...]]:
    """Entry m <= n: all ways to fill one coordinate with m boxes, as tuples of
    (content_anchor, connected class), anchors ascending from 0, consecutive
    content gaps >= 2, max content <= window."""
    if n < 1:
        raise EmptyShape("n must be positive")
    if window < 0:
        raise ValueError(f"window must be at least 0, got {window}")
    classes = _connected_classes(n, window)

    def rec(remaining: int, min_anchor: int, first: bool):
        if remaining == 0:
            yield ()
            return
        for size in range(1, remaining + 1):
            for cls in classes[size]:
                span = max(c for _, c in cls) + 1
                for a in [0] if first else range(min_anchor, window - span + 2):
                    for rest in rec(remaining - size, a + span + 1, False):
                        yield ((a, cls),) + rest

    return [tuple(rec(m, 0, True)) for m in range(n + 1)]


def shape_count(ell: int, n: int, window: int) -> int:
    """len(enumerate_shapes(ell, n, window)) without building a shape: the
    coefficient of x^n in (sum_m |catalog[m]| x^m)^ell, one catalog entry per
    color, by repeated squaring truncated at degree n (cost in log ell)."""
    return _count_of(_checked_ell(ell, "shape"), n, _one_coordinate_catalog(n, window))


def _count_of(ell: int, n: int, catalog: list) -> int:
    power, out = [len(fills) for fills in catalog], [1] + [0] * n
    while ell:
        if ell & 1:
            out = [sum(out[k] * power[m - k] for k in range(m + 1)) for m in range(n + 1)]
        power = [sum(power[k] * power[m - k] for k in range(m + 1)) for m in range(n + 1)]
        ell >>= 1
    return out[n]


def enumerate_shapes(ell: int, n: int, window: int) -> tuple[SkewShapeL, ...]:
    """Deterministic corpus of integral shapes with n boxes and offset 0.

    Representatives are anchored: in every nonempty coordinate the minimal
    content is 0, and all contents lie in [0, window].  Shapes differing only
    by sliding whole coordinates along the diagonal are thus enumerated once.
    The colors are filled one after another, in a loop rather than one
    recursion level each, and a shape is complete once no box is left.
    """
    return _shapes_of(_checked_ell(ell, "shape"), n, _one_coordinate_catalog(n, window))


def _shapes_of(ell: int, n: int, catalog: list) -> tuple[SkewShapeL, ...]:
    """The shapes, built canonical, not validated: colors ascending, anchors
    ascending at gaps >= 2, offsets 0, so (beta, cells) sorts as ``sort_key``."""
    shapes = []
    partial = [((), n)]  # (components of the colors so far, boxes left > 0)
    for beta in range(ell):
        grown = []
        for comps, remaining in partial:
            for m in range(remaining + 1):
                for fill in catalog[m]:
                    more = comps + tuple(
                        Component(beta, _ZERO, tuple(sorted((r, c + anchor) for r, c in cls)))
                        for anchor, cls in fill)
                    if m == remaining:
                        shapes.append(SkewShapeL(ell, more))
                    else:
                        grown.append((more, remaining - m))
        partial = grown
    shapes.sort(key=lambda s: tuple((c.beta, c.cells) for c in s.components))
    return tuple(shapes)


# ---------------------------------------------------------------------------
# tableaux

class _ShapeContext:
    """Precomputed combinatorial data for one shape, which holds it as
    ``SkewShapeL._ctx``; it keeps no reference back to the shape.

    Boxes are numbered once, in the order the flattened ``labels`` are read:
    component by component, cells in their canonical sorted order, so box b
    is ``boxes[b]``, ``number`` maps (component index, cell) back to b and
    ``spans`` cuts the flattened labels into components.  A filling is its
    label->box tuple ``pos``, whose inverse is the flattened labels.
    before[b] lists b's left and upper neighbors, which carry smaller labels,
    and after[b] its right and lower ones; blocked[b] holds its row and
    column neighbors, whose labels may not be swapped with b's when
    consecutive; rank[b] is the dense rank of (component, row); content[b],
    a[b] = ell * content[b] and beta[b] give the weight of the label in b.
    """

    def __init__(self, shape: SkewShapeL):
        self.boxes = [(k, cell) for k, comp in enumerate(shape.components) for cell in comp.cells]
        self.content = [c + shape.components[k].offset for k, (_, c) in self.boxes]
        self.a = [shape.ell * x for x in self.content]
        self.beta = [shape.components[k].beta for k, _ in self.boxes]
        self.spans = list(pairwise(accumulate((c.size for c in shape.components), initial=0)))
        self.number = number = {box: b for b, box in enumerate(self.boxes)}
        self.before, self.after, self.blocked, self.rank = [], [], [], []
        dense: dict[tuple[int, int], int] = {}
        for k, (r, c) in self.boxes:
            self.rank.append(dense.setdefault((k, r), len(dense)))
            right, left, up, down = (number.get((k, (r + dr, c + dc)))
                                     for dr, dc in _NEIGHBOR_STEPS)
            self.before.append([q for q in (left, up) if q is not None])
            self.after.append([q for q in (right, down) if q is not None])
            self.blocked.append({q for q in (right, left, up, down) if q is not None})

    def above(self, b1: int, b2: int) -> bool:
        """Is box b1 strictly above box b2 (cross-component: earlier wins)?"""
        return self.rank[b1] < self.rank[b2]

    def positions_of(self, tab: Tableau) -> tuple[int, ...]:
        """The label->box tuple of tab's filling, the one reader of its labels:
        NotStandard unless they are a bijection onto 1..n."""
        flat = list(chain.from_iterable(tab.labels))
        pos = tuple(map(dict(zip(flat, range(len(flat)))).get, range(1, len(self.boxes) + 1)))
        if len(flat) != len(self.boxes) or None in pos:
            raise NotStandard("entries are not a bijection onto 1..n")
        return pos

    def split(self, flat) -> tuple[tuple[int, ...], ...]:
        """Labels by box number, cut into one tuple per component."""
        return tuple(tuple(flat[i:j]) for i, j in self.spans)

    def labels_of(self, pos) -> tuple[tuple[int, ...], ...]:
        """The labels of the filling pos."""
        flat = [0] * len(pos)
        for lab, b in enumerate(pos, 1):
            flat[b] = lab
        return self.split(flat)

    def weight(self, pos) -> Weight:
        """The weight of the filling pos: label i reads a_i and b_i off its box."""
        return Weight(tuple(self.a[b] for b in pos), tuple(self.beta[b] for b in pos))

    def all_positions(self) -> list[tuple[int, ...]]:
        """Every standard filling as a label->box tuple, lexicographic: free
        boxes are a bit mask taken lowest bit first, and each placed box frees
        those of its right and lower neighbors whose ``before`` boxes, the
        bit mask ``need``, are then all placed."""
        need = [sum(1 << q for q in before) for before in self.before]
        frees = [[(1 << s, need[s]) for s in after] for after in self.after]
        out: list[tuple[int, ...]] = []
        pos: list[int] = []

        def walk(placed: int, free: int):
            if not free:
                out.append(tuple(pos))
                return
            rest = free
            while rest:
                low = rest & -rest
                rest ^= low
                b = low.bit_length() - 1
                now = placed | low
                grown = free ^ low
                for bit, mask in frees[b]:
                    if mask & now == mask:
                        grown |= bit
                pos.append(b)
                walk(now, grown)
                pos.pop()

        walk(0, sum(1 << b for b, mask in enumerate(need) if not mask))
        return out


def enumerate_syt(shape: SkewShapeL) -> tuple[Tableau, ...]:
    """All standard fillings, deterministically ordered; the first one is the
    row-reading tableau.  Not cached: only the shape's box numbering is."""
    ctx = shape._ctx
    return tuple(Tableau(shape, ctx.labels_of(p)) for p in ctx.all_positions())


def row_reading_tableau(shape: SkewShapeL) -> Tableau:
    """Labels assigned along reading order (component, then row, then left
    to right); always standard."""
    return Tableau(shape, shape._ctx.split(range(1, shape.n + 1)))


def is_standard(tab: Tableau) -> bool:
    """The labels are 1..n, and every label exceeds its left (r, c-1) and
    upper (r-1, c+1) neighbors within its component, the shape's ``before``
    boxes."""
    try:
        _checked_standard(tab)
    except NotStandard:
        return False
    return True


def weight_of(tab: Tableau) -> Weight:
    """Eigenvalue data of a filling: a_i = ell * content, b_i = coordinate of
    the box holding label i, read from the shape's per-box tables."""
    ctx = tab.shape._ctx
    return ctx.weight(ctx.positions_of(tab))


def inversion_set(tab: Tableau) -> frozenset[tuple[int, int]]:
    """Pairs (i, j), i < j, whose boxes appear in reversed vertical order:
    the box of j strictly above the box of i (components compared by their
    canonical reading order)."""
    ctx = tab.shape._ctx
    rank = [ctx.rank[b] for b in ctx.positions_of(tab)]
    return frozenset((i + 1, j + 1) for i, low in enumerate(rank)
                     for j in range(i + 1, len(rank)) if rank[j] < low)


def apply_transposition(tab: Tableau, i: int) -> Tableau:
    """Swap labels i and i+1; NotStandard unless tab is standard, and if they
    are row- or column-adjacent in one component."""
    ctx = tab.shape._ctx
    if not 1 <= i < len(ctx.boxes):
        raise IndexError(f"transposition index {i} out of range")
    pos = list(ctx.positions_of(_checked_standard(tab)))
    b1, b2 = pos[i - 1], pos[i]
    if b2 in ctx.blocked[b1]:
        raise NotStandard(f"labels {i} and {i + 1} are adjacent in a row or column")
    pos[i - 1], pos[i] = b2, b1
    return Tableau(tab.shape, ctx.labels_of(pos))


def _descent_path_to_reading(ctx: _ShapeContext, pos: tuple[int, ...]) -> list[int]:
    """Adjacent swaps carrying the standard pos to the row-reading filling,
    smallest applicable index first; each swap removes exactly one inversion."""
    pos = list(pos)
    moves = []
    n = len(pos)
    while True:
        for i in range(1, n):
            if ctx.above(pos[i], pos[i - 1]):
                pos[i - 1], pos[i] = pos[i], pos[i - 1]
                moves.append(i)
                break
        else:
            break
    return moves


def tableau_path(t1: Tableau, t2: Tableau) -> list[int]:
    """Adjacent transpositions carrying t1 to t2 through standard fillings
    (NotStandard unless both are standard); empty exactly when t1 == t2."""
    if t1.shape != t2.shape:
        raise ValueError("tableaux live on different shapes")
    if _checked_standard(t1) == _checked_standard(t2):
        return []
    ctx = t1.shape._ctx
    down = _descent_path_to_reading(ctx, ctx.positions_of(t1))
    up = _descent_path_to_reading(ctx, ctx.positions_of(t2))
    return down + list(reversed(up))


# ---------------------------------------------------------------------------
# serialization

def shape_to_json(shape: SkewShapeL) -> dict:
    return {
        "ell": shape.ell,
        "components": [
            {"beta": c.beta, "offset": fraction_to_str(c.offset),
             "cells": [[r, cc] for r, cc in c.cells]}
            for c in shape.components
        ],
    }


def _object(data, what: str, keys: tuple[str, ...]) -> dict:
    """``data``, which the JSON format makes an object holding ``keys``."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {data!r}")
    for key in keys:
        if key not in data:
            raise ValueError(f"{what} field '{key}' is missing")
    return data


def _array(data: dict, kind: str, field: str) -> list:
    """``data[field]``, which the JSON format makes an array."""
    value = data[field]
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{kind} field '{field}' must be an array, got {value!r}")
    return value


def shape_from_json(data: dict) -> SkewShapeL:
    """Parse a shape; ``ell`` must be a positive integer, ``components`` and
    each ``cells`` arrays, and each component obeys ``_component_checked``."""
    ell = _checked_ell(_object(data, "shape", ("ell", "components"))["ell"], "shape")
    comps = []
    for comp in _array(data, "shape", "components"):
        _object(comp, "shape component", ("beta", "offset", "cells"))
        comps.append((comp["beta"], comp["offset"], _array(comp, "shape", "cells")))
    return validate_and_canonicalize(ell, comps)


def tableau_to_json(tab: Tableau) -> dict:
    data = shape_to_json(tab.shape)
    data["entries"] = [[r, c, k, lab] for k, comp in enumerate(tab.shape.components)
                       for (r, c), lab in zip(comp.cells, tab.labels[k])]
    data["entries"].sort(key=itemgetter(3))  # stable: labels need not be 1..n
    return data


def tableau_from_json(data: dict) -> Tableau:
    shape = shape_from_json(_object(data, "tableau", ("entries",)))
    ctx = shape._ctx
    flat = [None] * shape.n  # labels by box number
    for entry in _array(data, "tableau", "entries"):
        if not isinstance(entry, (list, tuple)) or len(entry) != 4:
            raise ValueError(f"tableau field 'entries' needs [row, column, component, "
                             f"label] lists, got {entry!r}")
        r, c, k, lab = entry
        if any(type(x) is not int for x in (r, c, lab)):
            raise ValueError(f"tableau field 'entries' needs an integer row, column "
                             f"and label, got {entry!r}")
        if type(k) is not int or not 0 <= k < len(shape.components):
            raise ValueError(f"tableau field 'entries' needs a component index in "
                             f"0..{len(shape.components) - 1}, got {entry!r}")
        b = ctx.number.get((k, (r, c)))
        if b is None:
            raise ValueError(f"tableau field 'entries' names a cell outside "
                             f"its component: {entry!r}")
        if flat[b] is not None:
            raise ValueError(f"tableau field 'entries' lists a cell twice: {entry!r}")
        flat[b] = lab
    return _checked_standard(Tableau(shape, ctx.split(flat)))


def _checked_standard(tab: Tableau) -> Tableau:
    """tab, or NotStandard unless its labels are 1..n (``positions_of``)
    increasing along rows and columns."""
    ctx, flat = tab.shape._ctx, tuple(chain.from_iterable(tab.labels))
    ctx.positions_of(tab)
    if not all(flat[q] < lab for lab, before in zip(flat, ctx.before) for q in before):
        raise NotStandard("entries do not increase along rows and columns")
    return tab


def weight_to_json(weight: Weight, ell: int) -> dict:
    return {"ell": ell,
            "a": [fraction_to_str(x) for x in weight.a],
            "b": list(weight.b)}


def weight_from_json(data: dict) -> tuple[Weight, int]:
    """Parse a weight object: ``ell``, then equal lengths of the arrays ``a``
    and ``b``, then ``b``'s ints; ``a`` holds rationals, ``b`` is reduced mod ell."""
    ell = _object(data, "weight", ("ell", "a", "b"))["ell"]
    a, b = _array(data, "weight", "a"), _array(data, "weight", "b")
    _checked_ell(ell, "weight")
    if len(a) != len(b):
        raise ValueError("weight field 'b' must have as many entries as 'a'")
    if not all(type(x) is int for x in b):
        raise ValueError(f"weight field 'b' must hold integers, got {b!r}")
    return Weight(tuple(fraction_from_str(x, "weight field 'a'") for x in a),
                  tuple(x % ell for x in b)), ell
