"""Machine-speed calibration.

On a shared machine the same pure-Python work can run 10-20% faster or
slower from one 20-second window to the next. The benchmark therefore times
a fixed calibration loop right before and after each measured iteration
(and each set-up) and reports times in reference seconds: wall seconds
multiplied by the machine's current speed relative to the reference speed
``REFERENCE_LOOPS_PER_S``. Drift that slows lmfa and the loop alike cancels;
a change that slows lmfa alone does not. Raw wall-clock figures are printed
on stderr next to the reported ones.
"""

from __future__ import annotations

import time

# Calibration loops per second that define one reference second. The value
# is the typical rate on a 2-core x86-64 VM under Python 3.11; only ratios
# between runs on one machine matter.
REFERENCE_LOOPS_PER_S = 100.0


def _loop() -> int:
    s = 0
    for i in range(100_000):
        s += i * i % 7
    return s


def machine_speed(seconds: float = 0.25) -> float:
    """Current speed of this machine relative to the reference (1.0 = reference)."""
    t0 = time.perf_counter()
    loops = 0
    while time.perf_counter() - t0 < seconds:
        _loop()
        loops += 1
    return loops / (time.perf_counter() - t0) / REFERENCE_LOOPS_PER_S
