"""Reference oracle for the weight condition in ``heckemod.classify``.

This is the quadratic pair scan heckemod ran before its one-pass check:
every pair i < j of equal entries (same u-eigenvalue, same color) is
examined in order of i, then j, and the entries strictly between are
searched for the +ell and -ell steps.  It uses no index bookkeeping and
normalises with ``Fraction``, so it is independent of the production scan,
which pairs each entry with the last index of its value in one pass.  The
tests require the two to report identical witnesses.

It also keeps the incremental ``reconstruct`` heckemod ran before reading
components off their diagonals: labels are placed one at a time beside the
lowest boxes of the neighbouring diagonals, and a box that bridges two
components first slides one of them (``_shift_run``).  The tests require it
and the production rule to agree on every weight of a grid, faults included.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby

from heckemod import classify
from heckemod.classify import (ADJACENT_EQUAL, MISSING_DOWN, MISSING_UP,
                               ConditionViolation)
from heckemod.errors import ConditionFailed, EmptyShape, NoAddablePosition
from heckemod.modules import RelationCheck, VerificationReport
from heckemod.shapes import (Component, SkewShapeL, Tableau, Weight, _normalize_weight,
                             enumerate_syt, weight_of)


def first_violation(w: Weight, ell: int) -> ConditionViolation | None:
    """The violation with the smallest i, then the smallest j; for a pair
    at distance more than one the up step is looked for first."""
    a = [Fraction(x) for x in w.a]
    b = [int(x) % ell for x in w.b]
    n = len(a)
    for i in range(n):
        for j in range(i + 1, n):
            if a[i] != a[j] or b[i] != b[j]:
                continue
            if j == i + 1:
                return ConditionViolation(ADJACENT_EQUAL, i + 1, j + 1)
            between = [k for k in range(i + 1, j) if b[k] == b[i]]
            if not any(a[k] == a[i] + ell for k in between):
                return ConditionViolation(MISSING_UP, i + 1, j + 1, a[i] + ell)
            if not any(a[k] == a[i] - ell for k in between):
                return ConditionViolation(MISSING_DOWN, i + 1, j + 1, a[i] - ell)
    return None


def _shift_run(cells: dict, low: dict, start: int, t: int) -> None:
    """Slide the component whose contents run upwards from ``start`` by t
    rows (``cells`` maps cell -> label, ``low`` content -> lowest row)."""
    stop = start
    while stop in low:
        low[stop] += t
        stop += 1
    moved = [(cell, lab) for cell, lab in cells.items() if start <= cell[1] < stop]
    for cell, _ in moved:
        del cells[cell]
    cells.update(((r + t, c), lab) for (r, c), lab in moved)


def reconstruct(w: Weight, ell: int) -> tuple[SkewShapeL, Tableau]:
    """Label i goes to content m = floor(a_i/ell) in the group of color b_i
    and fractional content a_i/ell - m.  The row of the new box follows from
    the lowest boxes of diagonals m-1, m and m+1: one row below the lowest
    box of content m; else just right of the lowest box of content m-1
    (first sliding the component that starts at m+1, if any, so its lowest
    box sits directly above: the merge); else one row below the lowest box
    of content m+1; else a fresh component.  The condition check is
    ``heckemod.classify._first_violation``, looked up at call time, so a
    test that switches it off there switches it off here too."""
    entries = _normalize_weight(w, ell)
    if (violation := classify._first_violation(entries, ell)) is not None:
        raise ConditionFailed(violation)
    if not entries:
        raise EmptyShape("a shape needs at least one box")

    groups: dict[tuple[int, int, int], tuple[dict, dict]] = {}
    for i, (p, q, b) in enumerate(entries, start=1):
        m, rem = divmod(p, q * ell)
        cells, low = groups.setdefault((b, q, rem), ({}, {}))
        addable = True
        if m in low:
            r = low[m] + 1
            addable = (r, m - 1) in cells and (r - 1, m + 1) in cells
        elif m - 1 in low:
            r = low[m - 1]
            if m + 1 in low:
                _shift_run(cells, low, m + 1, r - 1 - low[m + 1])
        else:
            r = low[m + 1] + 1 if m + 1 in low else 1
        if not addable or (r, m + 1) in cells or (r + 1, m - 1) in cells:
            raise NoAddablePosition(f"reconstruct: label {i}: no legal box of content "
                                    f"{Fraction(p, q * ell)} in coordinate {b}")
        cells[(r, m)] = i
        low[m] = r

    filled: list[tuple[Component, tuple[int, ...]]] = []
    for (b, q, rem), (cells, low) in groups.items():
        offset = Fraction(rem, q * ell)
        run_of = {c: c - k for k, c in enumerate(sorted(low))}  # constant on a run
        ordered = sorted(cells.items(), key=lambda item: (run_of[item[0][1]], item[0]))
        for _, run in groupby(ordered, key=lambda item: run_of[item[0][1]]):
            run_cells, run_labels = zip(*run)
            shift = 1 - run_cells[0][0]  # sorted by row: the first row is the least
            filled.append((Component(b, offset, tuple((r + shift, c) for r, c in run_cells)),
                           run_labels))
    comps, labels = zip(*sorted(filled, key=lambda pair: pair[0].sort_key()))
    shape = SkewShapeL(ell, comps)
    return shape, Tableau(shape, labels)


def classify_roundtrip(shape: SkewShapeL) -> VerificationReport:
    """For every standard tableau of the shape: the weight passes the
    condition and ``reconstruct`` gives back exactly this (shape, tableau)."""
    checks = []
    for t_index, tab in enumerate(enumerate_syt(shape), start=1):
        try:
            witness = (None if classify.reconstruct(weight_of(tab), shape.ell) == (shape, tab)
                       else "reconstructed a different pair")
        except ConditionFailed as exc:
            witness = f"condition: {exc.violation}"
        checks.append(RelationCheck(f"T{t_index}", witness is None,
                                    None if witness is None else (t_index, 0, witness)))
    return VerificationReport(tuple(checks))
