"""Machine-speed calibration: times in reference-speed units.

Other tenants of the host slow the 2-core reference box by up to 1.7x for
tens of seconds at a time, with no steal time reported, usually on both
cores at once but not always.  Raw wall times of two runs then differ by
20-40%.
A fixed kernel of small numpy calls inside a Python loop, like the
program's own mix, is timed between ops; it slows by the same factor, so
``wall time * REFERENCE_S / kernel time`` is the time the op would take
at the reference speed, and it varies by a few percent between runs.

REFERENCE_S is the kernel's undisturbed time on the reference box
(2-core Xeon VM, Python 3.11.7, numpy 2.4.6): the 1st percentile of 5,573
back-to-back samples.  On another machine the scaled times are in units
of that box.
"""

from __future__ import annotations

import os
import time

import numpy as np

LOOPS = 800
REFERENCE_S = 4.1e-3
_A = 6.0 * np.eye(6) + 0.1


def kernel_s(all_cpus: bool = False) -> float:
    """Wall time of one run of the fixed calibration kernel.

    With ``all_cpus`` the kernel runs once pinned to each CPU this process
    may use and the mean is returned: the cores do not always slow down
    together, and a parallel op uses all of them.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if not all_cpus or len(cpus) == 1:
        return _kernel()
    try:
        times = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(_kernel())
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(times) / len(times)


def _kernel() -> float:
    start = time.perf_counter()
    acc = 0.0
    for i in range(LOOPS):
        acc += float(np.linalg.inv(_A)[0, 0]) + (i % 7) * 0.5
    return time.perf_counter() - start


class ScaledClock:
    """Scales op wall times by the kernel times measured on either side."""

    def __init__(self, all_cpus: bool = False):
        self.all_cpus = all_cpus
        self.last = kernel_s(all_cpus)

    def scale(self, wall_s: float) -> float:
        """Reference-speed time of an op that just took ``wall_s``."""
        now = kernel_s(self.all_cpus)
        factor = REFERENCE_S / (0.5 * (self.last + now))
        self.last = now
        return wall_s * factor
