"""Host speed probe for the set-up metric: times a fixed pure-Python work unit.

On a shared virtual machine the speed of the host drifts by tens of percent
within minutes, and the drift is common to everything running on it.  Each
set-up interpreter runs a burst of the unit right after its timed import,
while nothing else of the benchmark runs, and `setup_s` is reported in
reference-host seconds: the measured import time scaled by REFERENCE_UNIT_S
over the run's median unit time.  In four sets of ten seeds on a 2-vCPU VM
the scaled spread of `setup_s` was the smaller in 11 of 12 workload-sets
(0.07-0.18 against 0.06-0.47 unscaled), and between two sets its median
moved by -0.11 to +0.01 against -0.06 to +0.35 unscaled.

Build times are not scaled.  Bursts taken right before and after each build
did not track the speed of a build lasting seconds (they steadied
spring-tet but widened lj-tri-fine's spread from 0.09-0.12 to 0.16-0.19),
and a probe running beside the build would slow down whenever the program
keeps more cores busy, scaling the program's own cost away.
"""

from __future__ import annotations

import statistics
import time

# About the median unit time on the 2-vCPU host the baseline was recorded
# on.  A constant: it only fixes the scale.
REFERENCE_UNIT_S = 200e-6
BURST = 25


def unit_time() -> float:
    """Wall time of one fixed work unit (~0.2 ms, shorter than the GIL switch interval)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2000):
        acc += i * i % 7
    return time.perf_counter() - t0


def idle_unit() -> float:
    """Median unit time over a burst of BURST units (~5 ms)."""
    return statistics.median(unit_time() for _ in range(BURST))


def scale(seconds: float, unit: float) -> float:
    """A measured time in reference-host seconds, given the probe's unit time."""
    return seconds * REFERENCE_UNIT_S / unit
