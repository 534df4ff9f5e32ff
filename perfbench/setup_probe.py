"""One set-up measurement in a fresh interpreter: import degreebox, make one call.

Reads ``{"workload": ..., "op": ..., "loop": ...}`` on stdin and prints the
seconds from just before ``import degreebox`` to the end of the call, then
the median seconds of a calibration pass (clock.py) made afterwards in the
same process, so on the same CPU as the set-up.  run.py starts it several
times and reports the median of the scaled times as ``setup_s``.
"""

import json
import os
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

# Calibration passes after the set-up; the first few warm the interpreter.
WARM_PASSES, PASSES = 3, 10


def main() -> None:
    request = json.load(sys.stdin)
    start = perf_counter()
    import degreebox  # noqa: F401  (the import is what is timed)
    import workloads

    workloads.execute(request["workload"], request["op"])
    seconds = perf_counter() - start

    import clock

    passes = [clock.time_pass(request["loop"]) for _ in range(PASSES)]
    print(seconds, statistics.median(passes[WARM_PASSES:]))


if __name__ == "__main__":
    main()
