"""Host-speed calibration for the benchmark's time metrics.

On a shared VM the CPU's speed drifts: the same op list can take twice as
long an hour later.  The benchmark therefore times a fixed calibration loop
next to every op, and reports the measured seconds scaled to a reference
speed: ``seconds * REFERENCE_S / loop time``.  For an op shorter than
``MIN_DURING`` sampler periods, the loop time is the mean of the loops timed
in the pass's own process just before and just after it.  In the same
process and close in time, those track the op's speed best.  For a longer
op, it is the median of the loops that a sampler process
(``python3 bench/calibrate.py``) times every 50 ms while the op runs.  Loops
at the edges of a 20-second call say little about the speed in its middle.
The raw seconds are kept in the report.

The loop is plain Python of the kinds modgeod runs: big-integer arithmetic,
string formatting and dict updates.  It imports nothing from modgeod, so a
change to the program cannot speed it up or slow it down.  The collector is
off while it runs, so a large heap left by the program is not scanned during
it.
"""

from __future__ import annotations

import gc
import statistics
import time
from time import perf_counter

# reported times are seconds on a host where the loop takes exactly this long;
# on the 2-vCPU VM of the baseline it took 0.5-1.2 ms depending on the hour
REFERENCE_S = 1.0e-3
_STEPS = 1000
_REPEATS = 2
PERIOD_S = 0.05
# sampler loops an op must span (2.5 s) before they, not its edge loops, scale it
MIN_DURING = 50


def loop_time() -> float:
    """Shortest of a few runs of the calibration loop, in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(_REPEATS):
            t0 = perf_counter()
            x, seen = 1, {}
            for i in range(_STEPS):
                x = (x * 3 + i) % (1 << 200)
                key = format(i, "b")[::-1]
                seen[key] = seen.get(key, 0) + len(key)
            best = min(best, perf_counter() - t0)
        return best
    finally:
        if enabled:
            gc.enable()


def scale(loop_times: list[float]) -> float:
    """Factor that turns seconds measured alongside these loop times into reference seconds."""
    return REFERENCE_S / statistics.median(loop_times)


def sample_forever() -> None:
    """Print "<perf_counter> <loop time>" lines until killed."""
    while True:
        print(perf_counter(), loop_time(), flush=True)
        time.sleep(PERIOD_S)


if __name__ == "__main__":
    sample_forever()
