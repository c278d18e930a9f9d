"""Weight classification: decide which joint eigenvalue lists arise from
standard tableaux and rebuild the unique shape/tableau pair.

A weight is a pair of lists (a_1..a_n, b_1..b_n): rational u-eigenvalues
(ints or Fractions) and integer color exponents, normalised once to integer
triples.  ``check_weight_condition`` tests the pairwise criterion (equal
entries need intermediate +ell and -ell steps in the same color class) in
one pass.  ``reconstruct`` and ``classify_roundtrip`` decide by ``_place``
alone, which reads each component off its diagonals; the condition names
a refusal only.  A placement proves it: end diagonals hold one box and
neighbouring diagonals alternate, so equal entries enclose their +-ell steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cyclo import fraction_to_str
from .errors import ConditionFailed, EmptyShape, NoAddablePosition
from .modules import RelationCheck, VerificationReport
from .shapes import _ZERO, Component, SkewShapeL, Tableau, Weight, _normalize_weight

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

def _refusal(entries: list[tuple[int, int, int]], ell: int, i: int) -> Exception:
    if (violation := _first_violation(entries, ell)) is not None:
        return ConditionFailed(violation)
    p, q, b = entries[i - 1]
    return NoAddablePosition(f"reconstruct: label {i}: no legal box of content "
                             f"{Fraction(p, q * ell)} in coordinate {b}")


def _place(entries: list[tuple[int, int, int]], ell: int) -> list:
    """One (group key (b, q, rem), cells, labels) per component, in canonical
    order.  Label i lies on diagonal m of group (b_i, q, rem), (m, rem) =
    divmod(p, q*ell), each diagonal on consecutive rows; a run of consecutive
    diagonals is a component.  Cell (r, m+1) lies right of (r, m) and (r-1,
    m+1) above it, so adjacent diagonals alternate in one increasing zigzag:
    diagonal m starts one row above m-1 iff its first label is the smaller."""
    groups: dict[tuple[int, int, int], dict[int, list[int]]] = {}
    for i, (p, q, b) in enumerate(entries, start=1):
        m, rem = divmod(p, q * ell)
        groups.setdefault((b, q, rem), {}).setdefault(m, []).append(i)
    placed, boxes = [], []  # boxes: (row, diagonal, label) of the open component
    for key, diagonals in groups.items():
        for m in sorted(diagonals):
            diag = diagonals[m]
            prev = diagonals.get(m - 1)
            last = m + 1 not in diagonals
            if (prev is None or last) and len(diag) > 1:  # an end diagonal holds one box
                raise _refusal(entries, ell, diag[1])
            if prev is None:
                top = 0
            else:
                above = diag[0] < prev[0]
                if len(prev) + len(diag) > 2:  # two single boxes always alternate
                    first = diag if above else prev
                    odd = sorted(prev + diag)[0::2]  # the zigzag's 1st, 3rd, ... labels
                    if odd != first:
                        raise _refusal(entries, ell, min(set(odd).symmetric_difference(first)))
                top -= above
            if len(diag) == 1:
                boxes.append((top, m, diag[0]))
            else:
                boxes += [(top + k, m, label) for k, label in enumerate(diag)]
            if last:
                boxes.sort()
                shift = 1 - boxes[0][0]
                placed.append((key, tuple([(r + shift, c) for r, c, _ in boxes]),
                               tuple([label for _, _, label in boxes])))
                boxes = []
    placed.sort(key=lambda comp: (comp[0][0], comp[0][2] if comp[0][1] == 1  # (b, offset), stably
                                  else Fraction(comp[0][2], comp[0][1])))
    return placed


def reconstruct(w: Weight, ell: int) -> tuple[SkewShapeL, Tableau]:
    """Rebuild the unique (shape, tableau) with the given weight, unchecked
    (the tests check it against is_standard and weight_of).  Placement is the
    verdict: a refusal raises ConditionFailed with the condition's first
    violation, or NoAddablePosition, which the classification theorem rules
    out, if there is none.  A ValueError names the entry when an offset's
    denominator has more digits than ``str`` writes."""
    entries = _normalize_weight(w, ell)
    if not entries:
        raise EmptyShape("a shape needs at least one box")
    comps, labels, key = [], [], None
    for group, cells, labs in _place(entries, ell):
        if group != key:
            b, q, rem = key = group
            offset = Fraction(rem, q * ell) if rem else _ZERO
            try:
                str(offset.denominator)  # ValueError past the digit limit of int()
            except ValueError:
                raise _long_offset(entries, ell) from None
        comps.append(Component(b, offset, cells))
        labels.append(labs)
    shape = SkewShapeL(ell, tuple(comps))
    return shape, Tableau(shape, tuple(labels))


def _long_offset(entries: list[tuple[int, int, int]], ell: int) -> ValueError:
    for k, (p, q, _) in enumerate(entries):
        try:
            str(Fraction(p % (q * ell), q * ell).denominator)
        except ValueError:
            return ValueError(f"weight field 'a[{k}]': its content offset has a "
                              f"denominator too long to write")


def classify_roundtrip(shape: SkewShapeL) -> VerificationReport:
    """For every standard tableau of the shape: the weight passes the
    condition and reconstructs to exactly this (shape, tableau), decided on
    the integer core: each box's (p, q, b) and each component's (group key,
    cells) are read once, and each filling's entries go through ``_place``
    alone, whose success proves the condition; a refusal names its violation."""
    ell, ctx = shape.ell, shape._ctx
    box = [(*a.as_integer_ratio(), b) for a, b in zip(ctx.a, ctx.beta)]
    own = [((c.beta, (ell * c.offset).denominator, (ell * c.offset).numerator), c.cells)
           for c in shape.components]  # ell * offset = rem / q
    checks = []
    for t_index, pos in enumerate(ctx.all_positions(), start=1):
        try:
            placed = _place([box[b] for b in pos], ell)
            expected = [(key, cells, labs) for (key, cells), labs in zip(own, ctx.labels_of(pos))]
            witness = None if placed == expected else "reconstructed a different pair"
        except ConditionFailed as exc:
            witness = f"condition: {exc.violation}"
        checks.append(RelationCheck(f"T{t_index}", witness is None,
                                    None if witness is None else (t_index, 0, witness)))
    return VerificationReport(tuple(checks))
