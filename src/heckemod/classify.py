"""Weight classification: decide which joint eigenvalue lists arise from
standard tableaux and rebuild the unique shape/tableau pair.

A weight is a pair of lists (a_1..a_n, b_1..b_n): rational u-eigenvalues
(ints or Fractions) and integer color exponents, normalised once to integer
triples.  ``check_weight_condition`` tests the pairwise criterion (equal
entries need intermediate +ell and -ell steps in the same color class) in
one pass; ``reconstruct`` replays the weight box by box without any search
and builds the canonical shape and tableau directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby

from .cyclo import fraction_to_str
from .errors import ConditionFailed, EmptyShape, NoAddablePosition
from .modules import RelationCheck, VerificationReport
from .shapes import (Component, SkewShapeL, Tableau, Weight, _check_weight_fields,
                     enumerate_syt, weight_of)

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


def _normalize_weight(w: Weight, ell: int) -> list[tuple[int, int, int]]:
    """Type-check a weight; entry k becomes (p, q, b_k mod ell), a_k = p/q in lowest terms."""
    _check_weight_fields(ell, w.a, w.b)
    entries = []
    for x, y in zip(w.a, w.b):
        cls = x.__class__
        if cls is int:
            entries.append((x, 1, y % ell))
        elif cls is Fraction:
            entries.append((x.numerator, x.denominator, y % ell))
        else:
            raise ValueError(f"weight field 'a' must hold integers or Fractions, got {w.a!r}")
    return entries


def _first_violation(entries: list[tuple[int, int, int]], ell: int) -> ConditionViolation | None:
    """One pass: only the next entry j equal to entry i can fail (later equal
    entries see more entries in between), so each j is paired with the last
    index i of its value, and a step a +- ell counts when its last index is after i."""
    last: dict[tuple[int, int, int], int] = {}
    found = None
    for j, (p, q, b) in enumerate(entries, start=1):
        i = last.get((p, q, b))
        last[(p, q, b)] = j
        if i is None or (found is not None and found.i < i):
            continue
        if j == i + 1:
            found = ConditionViolation(ADJACENT_EQUAL, i, j)
        elif last.get((p + ell * q, q, b), 0) < i:
            found = ConditionViolation(MISSING_UP, i, j, Fraction(p + ell * q, q))
        elif last.get((p - ell * q, q, b), 0) < i:
            found = ConditionViolation(MISSING_DOWN, i, j, Fraction(p - ell * q, q))
    return found


def check_weight_condition(w: Weight, ell: int) -> ConditionViolation | None:
    """First violation of the pairwise condition, or None when it holds.

    For every i < j with a_i = a_j and b_i = b_j there must exist k and m
    strictly between with the same color, a_k = a_i + ell and a_m = a_i - ell.
    A pair at adjacent positions can have neither and gets its own kind.
    The reported pair has the smallest i, with j the next index equal to i;
    the up step is tested before the down step.
    """
    return _first_violation(_normalize_weight(w, ell), ell)


def violation_holds(w: Weight, ell: int, violation: ConditionViolation) -> bool:
    """Re-check a reported violation against the weight it came from."""
    entries = _normalize_weight(w, ell)
    i, j = violation.i - 1, violation.j - 1
    if not (0 <= i < j < len(entries)) or entries[i] != entries[j]:
        return False
    if violation.kind == ADJACENT_EQUAL:
        return j == i + 1
    p, q, b = entries[i]
    step = {MISSING_UP: ell, MISSING_DOWN: -ell}.get(violation.kind, 0)
    return (step != 0 and violation.required_a == Fraction(p + step * q, q)
            and (p + step * q, q, b) not in entries[i + 1:j])


# ---------------------------------------------------------------------------
# reconstruction

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
    Each maximal run of consecutive contents in a group is one component;
    it is emitted in canonical form (rows from 1, cells sorted) and the
    components are sorted, so the result needs no further validation.
    Nor is it re-read: the tests check it against is_standard and weight_of.
    Raises ConditionFailed when the pairwise condition fails.  By the
    classification theorem a weight passing the condition always finds an
    addable box, so NoAddablePosition here is an internal fault.
    """
    entries = _normalize_weight(w, ell)
    if (violation := _first_violation(entries, ell)) is not None:
        raise ConditionFailed(violation)
    if not entries:
        raise EmptyShape("a shape needs at least one box")

    # a_i = p/q in lowest terms: m = floor(p / (q*ell)) and the group of
    # fractional content rem / (q*ell) is keyed by the integers (b, q, rem)
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
    condition and reconstructs to exactly this (shape, tableau)."""
    checks = []
    for t_index, tab in enumerate(enumerate_syt(shape), start=1):
        try:
            witness = (None if reconstruct(weight_of(tab), shape.ell) == (shape, tab)
                       else "reconstructed a different pair")
        except ConditionFailed as exc:
            witness = f"condition: {exc.violation}"
        checks.append(RelationCheck(f"T{t_index}", witness is None,
                                    None if witness is None else (t_index, 0, witness)))
    return VerificationReport(tuple(checks))
