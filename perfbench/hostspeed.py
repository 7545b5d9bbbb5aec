"""Host-speed calibration.

On a shared VM the CPU speed changes in regimes that last from seconds to
minutes, by up to about 20%, and a child's CPU time follows its wall time,
so this is not scheduling delay.  Within a 20 s run the regime does not
average out.

The harness therefore pins itself and its children to one CPU and times a
fixed pure-Python loop, in CPU time, before, during and after every op.
Each op's wall time is reported multiplied by ``REFERENCE_S`` over the
median loop time.  The figures read as seconds on a host where the loop
takes ``REFERENCE_S``, which is about the fast regime of the 2-vCPU VM the
benchmark was defined on.  The raw wall times are printed next to them.
"""

from __future__ import annotations

import statistics
import time

#: Loop time of ``calibrate`` on the reference host.
REFERENCE_S = 0.0055


def calibrate() -> float:
    """CPU seconds taken by a fixed arithmetic loop (about 5 ms)."""
    t0 = time.process_time()
    acc = 0
    for j in range(100_000):
        acc += j * j
    return time.process_time() - t0


def scale(samples) -> float:
    """Factor that converts the wall time of an op to reference seconds,
    from the loop times measured around and during it."""
    return REFERENCE_S / statistics.median(samples)
