"""Weight classification: decide which joint eigenvalue lists arise from
standard tableaux and rebuild the unique shape/tableau pair.

A weight is a pair of lists (a_1..a_n, b_1..b_n): rational u-eigenvalues and
color exponents.  ``check_weight_condition`` tests the pairwise criterion
(equal entries need intermediate +ell and -ell steps in the same color
class), ``reconstruct`` replays the weight box by box without any search:
within a (color, fractional content) group the row of each new box is fixed
by the lowest boxes already on its own diagonal and the two next to it, and
two components merge when a new box lands between them.  Boxes in different
groups never interact, so each group is rebuilt independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cyclo import fraction_to_str
from .errors import ConditionFailed, NoAddablePosition
from .modules import RelationCheck, VerificationReport
from .shapes import (SkewShapeL, Tableau, Weight, enumerate_syt, is_standard,
                     validate_and_canonicalize, weight_of)

ADJACENT_EQUAL = "AdjacentEqual"
MISSING_UP = "MissingUpStep"
MISSING_DOWN = "MissingDownStep"


@dataclass(frozen=True)
class ConditionViolation:
    """Witness of a failed weight condition at the 1-based pair (i, j):
    equal entries with nothing usable strictly between.  For the two Missing
    kinds, ``required_a`` records the absent intermediate u-eigenvalue."""

    kind: str
    i: int
    j: int
    required_a: Fraction | None = None

    def to_json(self) -> dict:
        data = {"kind": self.kind, "i": self.i, "j": self.j}
        if self.required_a is not None:
            data["required_a"] = fraction_to_str(self.required_a)
        return data


def _normalize_weight(w: Weight, ell: int) -> Weight:
    if len(w.a) != len(w.b):
        raise ValueError("weight lists have different lengths")
    return Weight(tuple(Fraction(x) for x in w.a),
                  tuple(int(x) % ell for x in w.b))


def check_weight_condition(w: Weight, ell: int) -> ConditionViolation | None:
    """First violation of the pairwise condition, or None when it holds.

    For every i < j with a_i = a_j and b_i = b_j there must exist k and m
    strictly between with the same color, a_k = a_i + ell and a_m = a_i - ell.
    A pair at adjacent positions can have neither and gets its own kind.
    """
    w = _normalize_weight(w, ell)
    n = len(w.a)
    for i in range(n):
        for j in range(i + 1, n):
            if w.a[i] != w.a[j] or w.b[i] != w.b[j]:
                continue
            if j == i + 1:
                return ConditionViolation(ADJACENT_EQUAL, i + 1, j + 1)
            between = [k for k in range(i + 1, j) if w.b[k] == w.b[i]]
            if not any(w.a[k] == w.a[i] + ell for k in between):
                return ConditionViolation(MISSING_UP, i + 1, j + 1, w.a[i] + ell)
            if not any(w.a[k] == w.a[i] - ell for k in between):
                return ConditionViolation(MISSING_DOWN, i + 1, j + 1, w.a[i] - ell)
    return None


def violation_holds(w: Weight, ell: int, violation: ConditionViolation) -> bool:
    """Re-check a reported violation against the weight it came from."""
    w = _normalize_weight(w, ell)
    i, j = violation.i - 1, violation.j - 1
    if not (0 <= i < j < len(w.a)):
        return False
    if w.a[i] != w.a[j] or w.b[i] != w.b[j]:
        return False
    if violation.kind == ADJACENT_EQUAL:
        return j == i + 1
    if violation.kind == MISSING_UP:
        expected = w.a[i] + ell
    elif violation.kind == MISSING_DOWN:
        expected = w.a[i] - ell
    else:
        return False
    if violation.required_a != expected:
        return False
    return not any(w.a[k] == expected and w.b[k] == w.b[i]
                   for k in range(i + 1, j))


# ---------------------------------------------------------------------------
# reconstruction

Cell = tuple[int, int]


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
    """Rebuild the unique (shape, tableau) with the given weight.

    Label i goes to content m = floor(a_i/ell) in the group of color b_i and
    fractional content a_i/ell - m.  Within a group the boxes of one content
    lie on consecutive rows of their diagonal in label order, so the row of
    the new box follows from the lowest boxes of diagonals m-1, m and m+1:
    one row below the lowest box of content m; else just right of the
    lowest box of content m-1 (first sliding the component that starts at
    m+1, if any, so its lowest box sits directly above: the merge); else one
    row below the lowest box of content m+1; else a fresh component.
    Raises ConditionFailed when the pairwise condition fails,
    NoAddablePosition when the box so found is not addable.
    """
    violation = check_weight_condition(w, ell)
    if violation is not None:
        raise ConditionFailed(violation)
    w = _normalize_weight(w, ell)

    groups: dict[tuple[int, Fraction], tuple[dict, dict]] = {}
    for i, (a, b) in enumerate(zip(w.a, w.b), start=1):
        content = a / ell
        m = math.floor(content)
        cells, low = groups.setdefault((b, content - m), ({}, {}))
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
            raise NoAddablePosition(
                f"label {i}: no legal box of content {content} in coordinate {b}")
        cells[(r, m)] = i
        low[m] = r

    labels: dict[tuple[int, Fraction, tuple[Cell, ...]], tuple[int, ...]] = {}
    for (b, frac), (cells, low) in groups.items():
        run_start: dict[int, int] = {}
        for c in sorted(low):
            run_start[c] = run_start.get(c - 1, c)
        comps: dict[int, dict] = {}
        for cell, lab in cells.items():
            comps.setdefault(run_start[cell[1]], {})[cell] = lab
        for comp in comps.values():
            shift = 1 - min(r for r, _ in comp)
            shifted = {(r + shift, c): lab for (r, c), lab in comp.items()}
            key = (b, frac, tuple(sorted(shifted)))
            labels[key] = tuple(shifted[cell] for cell in key[2])
    shape = validate_and_canonicalize(ell, list(labels))
    tableau = Tableau(shape, tuple(labels[comp.sort_key()] for comp in shape.components))
    assert is_standard(tableau)
    assert weight_of(tableau) == w
    return shape, tableau


def classify_roundtrip(shape: SkewShapeL) -> VerificationReport:
    """For every standard tableau of the shape: the weight passes the
    condition and reconstructs to exactly this (shape, tableau)."""
    checks = []
    for t_index, tab in enumerate(enumerate_syt(shape), start=1):
        name = f"T{t_index}"
        try:
            shape2, tab2 = reconstruct(weight_of(tab), shape.ell)
        except ConditionFailed as exc:
            checks.append(RelationCheck(name, False,
                                        (t_index, 0, f"condition: {exc.violation}")))
            continue
        except NoAddablePosition as exc:
            checks.append(RelationCheck(name, False, (t_index, 0, repr(exc))))
            continue
        if shape2 == shape and tab2 == tab:
            checks.append(RelationCheck(name, True))
        else:
            checks.append(RelationCheck(name, False,
                                        (t_index, 0, "reconstructed a different pair")))
    return VerificationReport(tuple(checks))
