"""Machine-speed calibration for the benchmark's timings.

The effective speed of a shared machine drifts by tens of percent over
seconds (other tenants, frequency changes).  The benchmark times a fixed
kernel of the same kinds of work cqcalc does (interpreted Python, small
numpy calls, small LAPACK calls, seeded sampling) right before each job
and scales every measured time to a machine on which the kernel takes
`NOMINAL_S`.  Timings are then comparable between runs made minutes
apart; the raw wall times are printed alongside.
"""

from __future__ import annotations

import statistics
import time

NOMINAL_S = 0.003  # kernel time of the reference machine
WINDOW = 8  # calibration samples on each side of a job


def kernel_seconds(np) -> float:
    """Time one pass of the fixed calibration kernel."""
    t0 = time.perf_counter()
    total, table = 0, {}
    for i in range(8000):
        total += i * i
        table[i & 255] = total
    a = np.arange(64.0)
    for _ in range(200):
        a = np.sqrt(a * a + 1.0)
    rng = np.random.default_rng(0)
    m = rng.normal(size=(8, 8))
    m = m + m.T
    for _ in range(30):
        np.linalg.eigh(m)
    p = np.full(8, 0.125)
    for _ in range(80):
        rng.choice(8, p=p)
    return time.perf_counter() - t0


def scaled(times, samples) -> list:
    """Scale times[i] by NOMINAL_S over the median of the calibration
    samples around it; samples[i] was taken just before job i, and one
    more sample follows the last job."""
    out = []
    for i, t in enumerate(times):
        local = statistics.median(samples[max(0, i - WINDOW + 1):i + WINDOW + 1])
        out.append(t * NOMINAL_S / local)
    return out
