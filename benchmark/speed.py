"""Machine-speed probe shared by the timed calls and the set-up probes.

On a shared machine the same code can run at very different speeds from
one minute to the next. Timings are scaled by how long this fixed probe
took around them, relative to PROBE_NOMINAL_S.
"""

import statistics
import time

import numpy as np

PROBE_NOMINAL_S = 0.020  # speed_probe() on the reference machine at its usual speed


def speed_probe() -> float:
    """Seconds for a fixed mix of interpreter and single-threaded numpy work."""
    start = time.perf_counter()
    total = 0
    for i in range(150000):
        total += i * i
    a = np.linspace(0.0, 1.0, 100000)
    for _ in range(40):
        a = np.sqrt(a * 0.5 + 1.0)
    return time.perf_counter() - start


def probe_median(count: int) -> float:
    return statistics.median(speed_probe() for _ in range(count))
