"""The calibration kernel: fixed pure-Python work, timed next to every
measured unit on the same CPU.

On a shared host the CPU time of one and the same code drifts by tens of
percent in phases of seconds to minutes, and a whole run can fall into a slow
phase. The kernel slows with it, so a unit's CPU seconds times
``REFERENCE_S / kernel seconds`` (its reference seconds) repeats far better
than its CPU seconds do.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.010  # CPU seconds of one kernel run at reference speed


def kernel() -> int:
    """Arithmetic plus small dicts, tuples and sorts: the mix the program's
    own loops are made of."""
    total = 0
    for i in range(30000):
        total += i * i % 7
    rows = [tuple(sorted({"a": i, "b": -i, "c": (i, i + 1)}.items())) for i in range(4000)]
    return total + len(rows)


def kernel_cpu_s() -> float:
    """CPU seconds of one kernel run, the faster of two."""
    times = []
    for _ in range(2):
        start = time.process_time()
        kernel()
        times.append(time.process_time() - start)
    return min(times)


def reference_s(cpu_s: float, kernel_s: float) -> float:
    return cpu_s * REFERENCE_S / kernel_s
