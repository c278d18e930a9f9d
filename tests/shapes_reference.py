"""Reference oracles for the skew and connectivity rules and the tableau
layer of ``heckemod.shapes``.

The first are the two checks heckemod ran before its one-pass row rule: the
whole-rectangle condition, tested by walking the rectangle spanned by every
comparable pair of boxes, and a flood fill over edge neighbours.  They share
no code with the production rule, so the tests require the two to give the
same verdict on every cell set.

``ShapeContext`` is the tableau layer heckemod ran before it numbered boxes
once and walked fillings over a free-box bit mask: boxes keyed by
(component, cell) through dict tables, and fillings grown by an in-degree
recursion with undo.  The tests require both to list the same fillings in
the same order, since that order fixes every matrix a module prints.

``is_standard`` is the standardness test heckemod ran before it read the
shape's neighbour lists: a dict from cell to label per component, probed at
each cell's left and upper neighbour.

``weight_of`` is the eigenvalue formula heckemod ran before it read weights
from per-box tables: one ``Fraction`` product and sum per label, over
``boxes``, the label->box list that was ``Tableau.boxes()``.
"""

from __future__ import annotations

from heckemod.errors import NotConnected, NotSkew
from heckemod.shapes import Tableau, Weight

_NEIGHBOR_STEPS = ((0, 1), (0, -1), (-1, 1), (1, -1))  # right, left, up, down


def _points(cells) -> set[tuple[int, int]]:
    """Grid realization (x, y) of cells (row, c)."""
    return {(c + r, r) for r, c in cells}


def _closure_ok(points: set[tuple[int, int]]) -> bool:
    """Whole-rectangle condition: comparable pairs span filled rectangles."""
    for x1, y1 in points:
        for x2, y2 in points:
            k, l = x2 - x1, y2 - y1
            if k >= 0 and l >= 0 and (k or l):
                if (k + 1) * (l + 1) > len(points):
                    return False
                for xx in range(x1, x2 + 1):
                    for yy in range(y1, y2 + 1):
                        if (xx, yy) not in points:
                            return False
    return True


def _connected(cells: set[tuple[int, int]]) -> bool:
    start = next(iter(cells))
    seen = {start}
    stack = [start]
    while stack:
        r, c = stack.pop()
        for dr, dc in _NEIGHBOR_STEPS:
            q = (r + dr, c + dc)
            if q in cells and q not in seen:
                seen.add(q)
                stack.append(q)
    return len(seen) == len(cells)


def shape_fault(cells):
    """The verdict of ``heckemod.shapes._shape_fault``, from the two
    reference checks in the order the validator applied them."""
    cells = set(cells)
    if not _closure_ok(_points(cells)):
        return NotSkew
    if not _connected(cells):
        return NotConnected
    return None


def connected_classes(m: int) -> tuple[frozenset, ...]:
    """``heckemod.shapes._connected_classes`` regrown with the reference
    closure: connected skew cell sets with m boxes, anchored at (1, 0)."""
    if m == 1:
        return (frozenset({(1, 0)}),)
    out = set()
    for smaller in connected_classes(m - 1):
        for r, c in smaller:
            for dr, dc in _NEIGHBOR_STEPS:
                q = (r + dr, c + dc)
                if q in smaller:
                    continue
                cand = set(smaller) | {q}
                if not _closure_ok(_points(cand)):
                    continue
                rshift = 1 - min(rr for rr, _ in cand)
                cshift = -min(cc for _, cc in cand)
                out.add(frozenset((rr + rshift, cc + cshift) for rr, cc in cand))
    return tuple(sorted(out, key=sorted))


def boxes(tab) -> list:
    """boxes(tab)[i-1] is the (component index, cell) holding label i."""
    out: list = [None] * tab.shape.n
    for k, comp in enumerate(tab.shape.components):
        for cell, lab in zip(comp.cells, tab.labels[k]):
            out[lab - 1] = (k, cell)
    return out


def is_standard(tab) -> bool:
    """Every label exceeds its left (r, c-1) and upper (r-1, c+1) neighbors
    within its component."""
    for comp, labels in zip(tab.shape.components, tab.labels):
        entry = dict(zip(comp.cells, labels))
        for (r, c), lab in entry.items():
            for q in ((r, c - 1), (r - 1, c + 1)):
                if q in entry and entry[q] >= lab:
                    return False
    return True


def _reading_boxes(shape):
    """All boxes in reading order: by component, then row, then left-to-right."""
    return [(k, cell) for k, comp in enumerate(shape.components)
            for cell in sorted(comp.cells)]


class ShapeContext:
    """Precomputed combinatorial data for one shape.

    boxes are indexed in reading order; preds[b] lists box indices that must
    carry smaller labels (left and upper neighbors inside the component);
    blocked[b] is the set of boxes whose label may not be swapped with b's
    when the labels are consecutive (row/column neighbors in the component).
    """

    def __init__(self, shape):
        self.shape = shape
        self.boxes = _reading_boxes(shape)
        self.index = index = {box: i for i, box in enumerate(self.boxes)}
        n = len(self.boxes)
        self.preds = [[] for _ in range(n)]
        self.blocked = [set() for _ in range(n)]
        self.rank = []  # dense rank of (component, row), non-decreasing in reading order
        dense = {}
        slot = {(k, cell): j for k, comp in enumerate(shape.components)
                for j, cell in enumerate(comp.cells)}
        self.slot = [slot[box] for box in self.boxes]  # box -> index in comp.cells
        for i, (k, (r, c)) in enumerate(self.boxes):
            self.rank.append(dense.setdefault((k, r), len(dense)))
            for q in ((k, (r, c - 1)), (k, (r - 1, c + 1))):
                if q in index:
                    self.preds[i].append(index[q])
            for q in ((k, (r, c + 1)), (k, (r, c - 1)),
                      (k, (r - 1, c + 1)), (k, (r + 1, c - 1))):
                if q in index:
                    self.blocked[i].add(index[q])

    def above(self, b1, b2):
        """Is box b1 strictly above box b2 (cross-component: earlier wins)?"""
        return self.rank[b1] < self.rank[b2]

    def positions_of(self, tab):
        return tuple(self.index[box] for box in boxes(tab))

    def tableau_from_positions(self, pos):
        labels = [[0] * comp.size for comp in self.shape.components]
        for lab0, b in enumerate(pos):
            labels[self.boxes[b][0]][self.slot[b]] = lab0 + 1
        return Tableau(self.shape, tuple(tuple(row) for row in labels))

    def all_positions(self):
        """Every standard filling as a label->box tuple, lexicographic."""
        n = len(self.boxes)
        indeg = [len(self.preds[b]) for b in range(n)]
        succs = [[] for _ in range(n)]
        for b in range(n):
            for p in self.preds[b]:
                succs[p].append(b)
        out = []
        pos = []

        def rec():
            if len(pos) == n:
                out.append(tuple(pos))
                return
            for b in range(n):
                if indeg[b] == 0:
                    indeg[b] = -1
                    for s in succs[b]:
                        indeg[s] -= 1
                    pos.append(b)
                    rec()
                    pos.pop()
                    for s in succs[b]:
                        indeg[s] += 1
                    indeg[b] = 0

        rec()
        return out


def inversions(ctx, tab):
    """Pairs (i, j), i < j, whose boxes appear in reversed vertical order:
    the box of j strictly above the box of i (components compared by their
    canonical reading order)."""
    pos = ctx.positions_of(tab)
    n = len(pos)
    return frozenset((i + 1, j + 1) for i in range(n) for j in range(i + 1, n)
                     if ctx.above(pos[j], pos[i]))


def weight_of(tab) -> Weight:
    """a_i = ell * content and b_i = coordinate of the box holding label i."""
    ell = tab.shape.ell
    a, b = [], []
    for k, cell in boxes(tab):
        comp = tab.shape.components[k]
        a.append(ell * (cell[1] + comp.offset))
        b.append(comp.beta)
    return Weight(tuple(a), tuple(b))
