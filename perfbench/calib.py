"""Machine-speed calibration.

A small virtual machine drifts in speed by 10-25% over a few seconds
(up to 2x on the guest this was tuned on), so two runs of identical code
can disagree by more than any bound worth enforcing.  Between blocks of
operations, while nothing is in flight, the benchmark times a fixed
pure-Python kernel and reports every end-to-end timing at reference
speed:

    factor = REF_S / mean(kernel seconds before block, after block)
    reported = raw * factor

The kernel mixes integer arithmetic, dict stores and attribute access.
Integer arithmetic alone under-corrects: the program slows down more
than such a kernel does.  Both kinds of kernel were timed at every
calibration of the same runs (8 seeds each of
cold-oracle and warm-planned, 2-vCPU KVM guest); IQR/median across the
seeds of the corrected p50 latency was 0.093 and 0.100 with integer
arithmetic alone and 0.070 and 0.025 with this kernel, and of the
corrected throughput 0.084 and 0.053 against 0.053 and 0.011.

The kernel imports nothing from ``repro``; a program change cannot move
it.  ``REF_S`` is the kernel's typical duration on the machine the
bounds were tuned on; it only scales the reported numbers, so it is a
constant.
"""

from __future__ import annotations

import gc
import time

#: Kernel seconds at reference speed (median of ``calibrate()`` on a
#: 2-vCPU Intel Xeon KVM guest, CPython 3.11).
REF_S = 0.0015

#: Kernel repetitions per calibration; the median is taken.
REPEATS = 5


class _Box:
    __slots__ = ("v", "w")


def _kernel() -> int:
    table = {}
    box = _Box()
    box.v = box.w = 0
    acc = 0
    for i in range(4000):
        acc = (acc * 1103515245 + i) & 0x7FFFFFFF
        table[acc & 255] = i
        box.v = box.w + (acc & 7)
        box.w = box.v
    return acc + len(table) + box.v


def calibrate() -> float:
    """Seconds one kernel run takes now (median of ``REPEATS`` runs,
    about 8 ms in total).  The garbage collector is paused meanwhile:
    a collection of the program's heap would measure the heap, not the
    machine."""
    samples = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(REPEATS):
            start = time.perf_counter()
            _kernel()
            samples.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    samples.sort()
    return samples[len(samples) // 2]


class SpeedLog:
    """Block-by-block speed factors of one run.

    A block's factor (for throughput) uses the mean of the calibrations
    around it.  An op's factor (for latency) interpolates the kernel time
    linearly between those two calibrations at the op's midpoint, so an
    op late in a block that slowed down is scaled by the later speed."""

    def __init__(self):
        self.factors = []
        self._before = calibrate()
        self._before_at = time.perf_counter()

    def close_block(self, starts, latencies, out, first: int, end: int
                    ) -> float:
        """Calibrate after the block of ops ``first .. end-1``; writes
        each op's factor to ``out`` and returns the block's factor (the
        calibration also serves as the next block's "before")."""
        after_at = time.perf_counter()
        after = calibrate()
        before, before_at = self._before, self._before_at
        span = max(after_at - before_at, 1e-9)
        for i in range(first, end):
            share = (starts[i] + latencies[i] / 2.0 - before_at) / span
            out[i] = REF_S / (before + (after - before) * share)
        factor = REF_S / ((before + after) / 2.0)
        self._before, self._before_at = after, time.perf_counter()
        self.factors.append(factor)
        return factor
