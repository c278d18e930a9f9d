"""Wall time rescaled to a fixed reference speed.

The speed of the machine this benchmark was written on drifts by tens of
percent within seconds, inside one process and across processes, while the
ratio of library work to a fixed block of interpreter work stays steady.  So
a frozen stdlib block runs between segments of library work, well under a
second apart, and each segment's wall time is rescaled by it:

    normalised = wall * NOMINAL_S / reference

where ``reference`` is the mean duration of the blocks just before and just
after the segment.  The unit stays seconds, at the speed at which the block
takes NOMINAL_S.  The block never imports heckemod.  It runs the interpreter
paths the library runs (``Fraction`` arithmetic, dict and tuple churn) with
the garbage collector paused, so that the library's heap cannot leak into it.

The block and NOMINAL_S are frozen: changing either changes every normalised
figure, so a change to them is a change of benchmark, not of program.
"""

from __future__ import annotations

import gc
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

# The unit of normalised time: about the fastest duration of reference_block()
# seen on a 2-vCPU Intel Xeon VM under Python 3.11 (it ranged 0.010-0.019 s).
NOMINAL_S = 0.010
# A segment this many wall seconds old is closed, with a reference block, at
# the end of the library call then running.
SEGMENT_S = 0.2
# The block's own result, checked on every run so that the block cannot
# change unnoticed.
_EXPECTED = Fraction(22785197, 128700)


def reference_block() -> float:
    """Run the frozen block once and return its wall duration in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(4):
            acc: dict[tuple[int, int], tuple[Fraction, Fraction]] = {}
            for i in range(12):
                for j in range(12):
                    x = (Fraction(i - j, j + 1), Fraction(1, i + 2))
                    y = (Fraction(j + 1, i + 3), Fraction(i, 5))
                    prod = (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])
                    key = (i % 4, j % 4)
                    old = acc.get(key)
                    acc[key] = prod if old is None else (old[0] + prod[0], old[1] + prod[1])
            total = sum(v[0] + v[1] for v in acc.values())
        elapsed = perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if total != _EXPECTED:
        raise AssertionError(f"reference block computed {total}, not {_EXPECTED}")
    return elapsed


class Clock:
    """Normalised and raw seconds per metric, accumulated over segments.

    ``add`` books the wall time of one library call under a metric name;
    ``tick`` closes the current segment with a reference block once it is
    SEGMENT_S old; ``close`` closes it unconditionally.
    """

    def __init__(self):
        self.norm: dict[str, float] = defaultdict(float)
        self.raw: dict[str, float] = defaultdict(float)
        self.blocks: list[float] = []
        self._pending: dict[str, float] = defaultdict(float)
        self._last = reference_block()
        self._opened = perf_counter()

    def add(self, name: str, seconds: float) -> None:
        self._pending[name] += seconds

    def tick(self) -> None:
        if perf_counter() - self._opened >= SEGMENT_S:
            self.close()

    def close(self) -> float:
        """End the segment; return the scale applied to its wall times."""
        block = reference_block()
        scale = 2 * NOMINAL_S / (self._last + block)
        for name, wall in self._pending.items():
            self.norm[name] += wall * scale
            self.raw[name] += wall
        self._pending.clear()
        self.blocks.append(block)
        self._last = block
        self._opened = perf_counter()
        return scale
