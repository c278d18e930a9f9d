"""Brute-force regeneration of the verification corpus, without heckemod.

The corpus for ell colours and n boxes is every shape whose coordinates each
hold connected skew pieces at content gaps of at least 2, with the least
content of every nonempty coordinate at 0 and every content at most n.
Pieces are found by testing every subset of a small grid for skewness and
connectedness, then placed left to right along the content axis.

    python3 perfbench/corpus.py

prints the size of the verify-n4 corpus (ell in {1, 2, 3}, n <= 4) and its
total dimension (the number of standard fillings, counted by
``oracles.filling_count``).
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import combinations, product

from oracles import connected_pieces, filling_count, normal_form


def _skew(cells) -> bool:
    """Grid cells (i, j) form a skew diagram: with any two cells in
    north-west/south-east position, the whole rectangle between them."""
    cells = set(cells)
    return all((i, j) in cells
               for (i1, j1), (i2, j2) in product(cells, cells)
               if i1 <= i2 and j1 <= j2
               for i in range(i1, i2 + 1) for j in range(j1, j2 + 1))


@lru_cache(maxsize=None)
def pieces(m: int) -> tuple[frozenset, ...]:
    """Connected skew pieces with m boxes, as (row, c) cells with rows from
    1 and least content 0, from every m-subset of an m-by-m grid."""
    found = set()
    grid = [(i, j) for i in range(1, m + 1) for j in range(1, m + 1)]
    for subset in combinations(grid, m):
        if _skew(subset) and len(connected_pieces({(i, j - i) for i, j in subset})) == 1:
            top = min(i for i, _ in subset)
            low = min(j - i for i, j in subset)
            found.add(frozenset((i - top + 1, j - i - low) for i, j in subset))
    return tuple(sorted(found, key=sorted))


def coordinate_fills(m: int, window: int):
    """Tuples of pieces with m boxes in all, contents ascending from 0 to at
    most window, consecutive pieces at least 2 apart in content."""
    def rec(left: int, start: int, first: bool):
        if left == 0:
            yield ()
            return
        for size in range(1, left + 1):
            for piece in pieces(size):
                width = max(c for _, c in piece)
                for anchor in ([0] if first else range(start, window - width + 1)):
                    if anchor + width > window:
                        continue
                    placed = frozenset((r, c + anchor) for r, c in piece)
                    for rest in rec(left - size, anchor + width + 2, False):
                        yield (placed,) + rest
    return rec(m, 0, True)


def corpus(ell: int, n: int) -> set[tuple]:
    """Normal forms (``oracles.normal_form``) of every corpus shape."""
    out = set()

    def rec(beta: int, left: int, comps: list):
        if beta == ell:
            if left == 0:
                out.add(normal_form(ell, comps))
            return
        for m in range(left + 1):
            for fill in coordinate_fills(m, n):
                rec(beta + 1, left - m, comps + [(beta, 0, p) for p in fill])

    rec(0, n, [])
    return out


if __name__ == "__main__":
    shapes = [key for ell in (1, 2, 3) for n in range(1, 5) for key in corpus(ell, n)]
    print(json.dumps({"shapes": len(shapes),
                      "total_dimension": sum(filling_count(comps) for _, comps in shapes)}))
