"""Host-speed probe: puts times measured on a shared host on one scale.

A shared host changes speed with its neighbours' load.  On a 2-CPU Intel Xeon
VM the kernel below took either ~4.3 ms or ~8 ms, switching within a second
at times and holding for minutes at others, so the share of slow time, and
with it a sweep's wall time, changed from run to run by up to 1.6x.  The
sweep's own cases slow by about the same factor: chunks of 300 series-scalar
cases timed between two runs of a similar kernel varied 24% in wall time and
8% in their ratio to the kernel.

So the benchmark probes the kernel all through each process and reports every
time multiplied by REFERENCE_PROBE_S / (mean time of the probes around it):
seconds at the kernel speed of that VM's fast spells.  The kernel is fixed
here and does not call the package, so no change to the package moves it.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_PROBE_S = 4.0e-3
PROBE_EVERY_S = 0.5  # during a sweep, probe before a case once this has passed
WINDOW_S = 1.5  # a case is scaled by the probes within this time of its start


def probe():
    """Wall time of one run of the fixed kernel: the sweep's mix of numpy
    scalar calls and passes over a small array."""
    import numpy as np

    t0 = time.perf_counter()
    z = np.complex128(0.3 + 0.2j)
    acc = 0j
    for i in range(600):
        a = np.atleast_1d(z + i * 1e-6)
        acc += complex(np.log(a)[0]) + complex(np.exp(0.1 * a)[0])
    x = np.linspace(0.0, 1.0, 20000)
    for _ in range(8):
        acc += complex(np.sum(np.cos(x) * np.exp(-x)))
    return time.perf_counter() - t0


def scale(probe_times):
    """Factor that puts times measured alongside these probes on the scale."""
    return REFERENCE_PROBE_S / statistics.fmean(probe_times)


def scales_at(probes, times):
    """Scale at each time from the (time, probe time) pairs within WINDOW_S
    of it, or from all of them if none is that close."""
    everywhere = scale([p for _, p in probes])
    out = []
    for t in times:
        near = [p for tp, p in probes if abs(tp - t) <= WINDOW_S]
        out.append(scale(near) if near else everywhere)
    return out
