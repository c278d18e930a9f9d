"""Reference oracle for the weight condition in ``heckemod.classify``.

This is the quadratic pair scan heckemod ran before its one-pass check:
every pair i < j of equal entries (same u-eigenvalue, same color) is
examined in order of i, then j, and the entries strictly between are
searched for the +ell and -ell steps.  It uses no index bookkeeping and
normalises with ``Fraction``, so it is independent of the production scan,
which pairs each entry with the last index of its value in one pass.  The
tests require the two to report identical witnesses.
"""

from __future__ import annotations

from fractions import Fraction

from heckemod.classify import (ADJACENT_EQUAL, MISSING_DOWN, MISSING_UP,
                               ConditionViolation)
from heckemod.shapes import Weight


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
