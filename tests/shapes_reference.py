"""Reference oracle for the skew and connectivity rules in ``heckemod.shapes``.

These are the two checks heckemod ran before its one-pass row rule: the
whole-rectangle condition, tested by walking the rectangle spanned by every
comparable pair of boxes, and a flood fill over edge neighbours.  They share
no code with the production rule, so the tests require the two to give the
same verdict on every cell set.
"""

from __future__ import annotations

from heckemod.errors import NotConnected, NotSkew

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
