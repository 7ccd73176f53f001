"""Machine-speed readings that state the benchmark's timings at a
reference speed.

On a machine shared with other tenants the speed of one CPU changes
from minute to minute, so timings measured as they come spread from run
to run by more than the bounds a regression is judged by;
``perfbench/spread-runs.txt`` records ten runs per workload with the
unscaled and the scaled spread.  So between operations, at most every
``READ_EVERY_S``, the benchmark times a fixed pure-Python kernel
(:func:`reference_kernel`), and multiplies the times taken since the
previous reading by ``REFERENCE_KERNEL_S`` over the mean of the two
readings around them.  The kernel shares no code with the program, so a
change to the program moves the scaled times as much as the raw ones.
"""

from __future__ import annotations

import gc
import time

#: Sweeps over the kernel's table in one reading.
KERNEL_SWEEPS = 200
#: Seconds one reading takes at the reference speed.  A convention that
#: fixes the unit of the scaled timings, not the speed of a particular
#: machine; readings on a 2-vCPU Intel Xeon VM under CPython 3.11 take
#: 17 to 35 ms.
REFERENCE_KERNEL_S = 0.020
#: Least time between two readings taken between operations.
READ_EVERY_S = 0.3


def reference_kernel() -> float:
    """Seconds a fixed pure-Python kernel takes now.

    The kernel runs the interpreter loop the program spends its time in:
    dict look-ups, branches and integer arithmetic over a small table.  It
    allocates next to nothing and the garbage collector is off while it
    runs, so its time does not depend on the heap the program leaves."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        table = {key: (key * 7919) % 1021 for key in range(1024)}
        start = time.perf_counter()
        total = 0
        for _ in range(KERNEL_SWEEPS):
            for key in range(1024):
                value = table[key]
                total += value & 7 if value % 3 else value >> 1
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
