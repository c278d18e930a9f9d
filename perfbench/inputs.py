"""Seeded inputs built by the benchmark itself, without heckemod.

Shapes use the cell convention of ``oracles``: a component is
``(beta, offset, cells)`` with cells ``(row, c)`` and content ``c + offset``.
Weights are random standard fillings of such shapes, read off as
``a_i = ell * content`` and ``b_i = beta`` of the box holding label i.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from oracles import condition_violated

HALF = Fraction(1, 2)


def partitions(n: int, cap: int | None = None):
    """All partitions of n into parts at most cap, largest part first."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap or n), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def multipartitions(ell: int, n: int):
    """All ell-tuples of partitions with n boxes in total."""
    if ell == 1:
        yield from ((lam,) for lam in partitions(n))
        return
    for m in range(n + 1):
        for lam in partitions(m):
            for rest in multipartitions(ell - 1, n - m):
                yield (lam,) + rest


def partition_cells(lam) -> frozenset:
    """The partition's cells with its corner box at content 0."""
    return frozenset((r, x - r) for r, row in enumerate(lam, start=1)
                     for x in range(1, row + 1))


def shape_json(ell: int, components) -> dict:
    """The program's shape JSON for benchmark-built components."""
    return {"ell": ell, "components": [
        {"beta": beta, "offset": str(offset), "cells": sorted([r, c] for r, c in cells)}
        for beta, offset, cells in components]}


# ---------------------------------------------------------------------------
# random shapes

def _connected_skew(rng: random.Random, size: int, partition: bool) -> frozenset:
    """A connected skew diagram of the given size, row by row: each row
    spans grid columns [lo, hi], both weakly decreasing down the rows and
    overlapping the row above (so the diagram is connected).  A partition
    keeps every row starting in column 1."""
    hi = rng.randint(1, size)
    rows = [(1, hi)]
    left = size - hi
    while left:
        lo_above, hi_above = rows[-1]
        if partition:
            lo, hi = 1, rng.randint(1, min(hi_above, left))
        else:
            hi = rng.randint(lo_above, min(hi_above, lo_above + left - 1))
            lo = hi - rng.randint(hi - lo_above + 1, left) + 1
        rows.append((lo, hi))
        left -= hi - lo + 1
    return frozenset((r, x - r) for r, (lo, hi) in enumerate(rows, start=1)
                     for x in range(lo, hi + 1))


def _shift(cells, delta: int) -> frozenset:
    return frozenset((r, c + delta) for r, c in cells)


def random_shape(rng: random.Random, ell: int, n: int, of_partitions: bool) -> list:
    """One of two families with n boxes:

    * a tuple of partitions, one per colour, corners at content 0;
    * one to three connected skew pieces, each with a random colour and
      offset 0 or 1/2, pieces sharing colour and offset kept at content
      gaps of at least 2 (several components of one colour).
    Skew pieces filled in random order make reconstruction merge components.
    """
    if of_partitions:
        cuts = sorted(rng.randint(0, n) for _ in range(ell - 1))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
        return [(beta, Fraction(0), _connected_skew(rng, m, partition=True))
                for beta, m in enumerate(sizes) if m]
    pieces = rng.randint(1, min(3, n))
    cuts = sorted(rng.sample(range(1, n), pieces - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    ends: dict = {}
    out = []
    for m in sizes:
        beta = rng.randrange(ell)
        offset = HALF if rng.random() < 0.3 else Fraction(0)
        cells = _connected_skew(rng, m, partition=False)
        low = min(c for _, c in cells)
        end = ends.get((beta, offset))
        start = rng.randint(-3, 3) if end is None else end + rng.randint(2, 4)
        cells = _shift(cells, start - low)
        ends[(beta, offset)] = max(c for _, c in cells)
        out.append((beta, offset, cells))
    return out


def random_filling(rng: random.Random, ell: int, components) -> tuple[list, list]:
    """A random standard filling, read off as a weight (a, b): each label
    goes to a uniformly chosen box whose left and upper neighbours are
    already filled."""
    def preds(k, r, c):
        return [(k, q) for q in ((r, c - 1), (r - 1, c + 1)) if q in components[k][2]]

    ready = [(k, r, c) for k, (_, _, cells) in enumerate(components)
             for r, c in sorted(cells) if not preds(k, r, c)]
    filled = set()
    a, b = [], []
    while ready:
        k, r, c = ready.pop(rng.randrange(len(ready)))
        filled.add((k, (r, c)))
        beta, offset, cells = components[k]
        a.append(ell * c + ell * offset if offset else ell * c)
        b.append(beta)
        for q in ((r, c + 1), (r + 1, c - 1)):
            if q in cells and all(p in filled for p in preds(k, *q)):
                ready.append((k, *q))
    return a, b


def violate(rng: random.Random, a: list, b: list, ell: int) -> tuple[list, list]:
    """Break the paper's condition by construction: repeat an entry at once
    (AdjacentEqual), or append x, x - ell, x (no x + ell between the equal
    entries) or x, x + ell, x (no x - ell between)."""
    a, b = list(a), list(b)
    i = rng.randrange(len(a))
    how = rng.randrange(3)
    if how == 0:
        a.insert(i + 1, a[i])
        b.insert(i + 1, b[i])
    else:
        step = -ell if how == 1 else ell
        a += [a[i], a[i] + step, a[i]]
        b += [b[i]] * 3
    if not condition_violated(a, b, ell):
        raise AssertionError("constructed weight satisfies the condition")
    return a, b


def weight_text(ell: int, a, b) -> str:
    return json.dumps({"ell": ell, "a": [str(x) for x in a], "b": list(b)})


def classify_inputs(seed: int, counts: dict[str, tuple[int, int, int]]):
    """Distinct weights per band, as (band, ell, shape components, a, b,
    JSON text).  ``counts[band] = (how many, min n, max n)``; the reject
    band breaks fillings of shapes with n in its range.

    Only the shapes and fillings are random.  ell, n and the shape family
    cycle with the item number, so that every seed draws the same mix."""
    rng = random.Random(seed)
    seen = set()
    out = []
    for band, (count, lo, hi) in counts.items():
        made = k = 0
        while made < count:
            ell, n, family = 1 + k % 4, lo + k % (hi - lo + 1), k % 3 == 0
            k += 1
            comps = random_shape(rng, ell, n, of_partitions=family)
            a, b = random_filling(rng, ell, comps)
            if band == "reject":
                a, b = violate(rng, a, b, ell)
            text = weight_text(ell, a, b)
            if text in seen:
                continue
            seen.add(text)
            out.append((band, ell, comps, a, b, text))
            made += 1
    return out
