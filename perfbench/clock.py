"""Host speed, measured by a fixed calibration loop run between timed calls.

The benchmark runs on a few cores of a shared host whose speed changes by
up to about 2x, for stretches of seconds to minutes.  A wall-clock time
then says as much about the neighbours as about degreebox.  So before
each timed call the benchmark runs one pass of a fixed loop that never
touches degreebox, and scales the call's wall time by

    REF_S[loop] / (median of the WINDOW passes centred on the call's own)

which is the time the call would take on a host where one pass takes
REF_S[loop] seconds, as on the 2-vCPU host the benchmark was written on.
A change to degreebox cannot move the loop, so it moves a scaled time by
the same factor as the wall time.

There are two loops, each close to the instruction mix of the workloads
that use it: ``python`` (interpreter-bound integer, list, dict and sort
work, like the criteria, the witness search and the CLI) and ``numpy``
(int8 range tests over a table, like the oracle's row scans).
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

WINDOW = 5

_LIST = list(range(3000))
_TABLE = np.random.default_rng(0).integers(0, 7, (1 << 16, 7)).astype(np.int8)
_LOW = np.zeros(7, dtype=np.int8)
_HIGH = np.full(7, 3, dtype=np.int8)


def python_pass() -> int:
    total, seen = 0, {}
    for i in range(6000):
        total += _LIST[i % 3000] * 3 % 7
        seen[i & 255] = total
    return total + len(sorted(_LIST, key=lambda x: -x))


def numpy_pass() -> int:
    rows = np.all((_TABLE >= _LOW) & (_TABLE <= _HIGH), axis=1)
    return int(np.count_nonzero(rows))


LOOPS = {"python": python_pass, "numpy": numpy_pass}

# Median seconds of one pass on that host (Python 3.11, numpy 2.4, 2 vCPUs).
REF_S = {"python": 1.70e-3, "numpy": 3.80e-3}


def time_pass(loop: str) -> float:
    """Run one pass of the named loop; returns its wall seconds."""
    start = perf_counter()
    LOOPS[loop]()
    return perf_counter() - start


def factor(loop: str, passes: list[float]) -> float:
    """Reference-host seconds per wall second, from passes made close in time."""
    return REF_S[loop] / statistics.median(passes)
