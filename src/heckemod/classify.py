"""Weight classification: decide which joint eigenvalue lists arise from
standard tableaux and rebuild the unique shape/tableau pair.

A weight is a pair of lists (a_1..a_n, b_1..b_n): rational u-eigenvalues
(ints or Fractions) and integer color exponents, normalised once to integer
triples.  ``check_weight_condition`` tests the pairwise criterion (equal
entries need intermediate +ell and -ell steps in the same color class) in
one pass; ``reconstruct`` reads each component off its diagonals, with no
search, and builds the canonical shape and tableau directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
            p, q = x.as_integer_ratio()
            entries.append((p, q, y % ell))
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

def _no_box(entries: list[tuple[int, int, int]], ell: int, i: int) -> NoAddablePosition:
    p, q, b = entries[i - 1]
    return NoAddablePosition(f"reconstruct: label {i}: no legal box of content "
                             f"{Fraction(p, q * ell)} in coordinate {b}")


def reconstruct(w: Weight, ell: int) -> tuple[SkewShapeL, Tableau]:
    """Rebuild the unique (shape, tableau) with the given weight.

    Label i lies on diagonal m = floor(a_i/ell) of the group of color b_i
    and fractional content a_i/ell - m; each diagonal holds its labels on
    consecutive rows, downwards in increasing order, and each maximal run of
    consecutive diagonals in a group is one component.  Cell (r, m+1) lies
    right of (r, m) and (r-1, m+1) directly above it, so adjacent diagonals
    alternate in one increasing zigzag: diagonal m starts one row above
    diagonal m-1 exactly when its first label is the smaller.  Components
    are emitted in canonical form (rows from 1, cells sorted) and sorted, so
    the result needs no further validation.  Nor is it re-read: the tests
    check it against is_standard and weight_of.
    Raises ConditionFailed when the pairwise condition fails, and a
    ValueError naming the entry when a component's offset rem/(q ell) has a
    denominator with more digits than ``str`` writes.  By the
    classification theorem a weight passing it has end diagonals of one box
    and alternating neighbours, so NoAddablePosition is an internal fault.
    """
    entries = _normalize_weight(w, ell)
    if (violation := _first_violation(entries, ell)) is not None:
        raise ConditionFailed(violation)
    if not entries:
        raise EmptyShape("a shape needs at least one box")

    # a_i = p/q in lowest terms: m = floor(p / (q*ell)) and the group of
    # fractional content rem / (q*ell) is keyed by the integers (b, q, rem)
    groups: dict[tuple[int, int, int], dict[int, list[int]]] = {}
    for i, (p, q, b) in enumerate(entries, start=1):
        m, rem = divmod(p, q * ell)
        groups.setdefault((b, q, rem), {}).setdefault(m, []).append(i)

    filled: list[tuple[Component, tuple[int, ...]]] = []
    for (b, q, rem), diagonals in groups.items():
        offset = Fraction(rem, q * ell)
        try:
            str(offset.denominator)  # ValueError past the digit limit of int()
        except ValueError:
            first = min(diag[0] for diag in diagonals.values())
            raise ValueError(f"weight field 'a[{first - 1}]': its content offset has a "
                             f"denominator too long to write") from None
        boxes: list[tuple[tuple[int, int], int]] = []  # (cell, label) of the open component
        for m in sorted(diagonals):
            diag = diagonals[m]
            prev = diagonals.get(m - 1)
            last = m + 1 not in diagonals
            if (prev is None or last) and len(diag) > 1:  # an end diagonal holds one box
                raise _no_box(entries, ell, diag[1])
            if prev is None:
                top = 0
            else:
                above = diag[0] < prev[0]
                first = diag if above else prev
                odd = sorted(prev + diag)[0::2]  # the zigzag's 1st, 3rd, ... labels
                if odd != first:
                    raise _no_box(entries, ell, min(set(odd).symmetric_difference(first)))
                top -= above
            boxes += (((top + k, m), label) for k, label in enumerate(diag))
            if last:
                boxes.sort()
                shift = 1 - boxes[0][0][0]
                filled.append((Component(b, offset, tuple((r + shift, c) for (r, c), _ in boxes)),
                               tuple(label for _, label in boxes)))
                boxes = []
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
