"""Op timing corrected for the speed of a shared machine.

On a few cores of a shared host the same op can take 0.8 s or 1.8 s a few
seconds apart, and a whole run can sit in a slow period, because other
tenants contend for the same hardware. The process is not descheduled
(CPU time equals wall time); it just runs slower. So ``SpeedClock`` times a
fixed reference kernel right before an op, every INTERVAL_S while it runs
(from a SIGALRM handler, between bytecodes of the op), and right after it.
The op's wall time net of those probes, scaled by REF_SECONDS over the
probes' mean time, is its time in reference-speed seconds: the seconds it
would take on a machine where the probe takes REF_SECONDS. REF_SECONDS is
the probe's mean time in the first trial runs on the machine of RESULTS.md
(2-vCPU VM); there the mean over a run ranged from 1.4 to 1.9 ms with the
machine's periods, so reference-speed seconds are of the order of that
machine's wall times.

The kernel does what the program does most: numpy calls on 3-vectors from
Python, interpreted float arithmetic, and a small dense SVD. Its code is
fixed here, so a change to midscribe moves the op times and not the probe.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
REF_SECONDS = 1.45e-3

_POINT = np.array([0.3, -0.2, 0.9])
_MATRIX = np.random.default_rng(0).standard_normal((24, 24))


def reference_kernel() -> float:
    acc = 0.0
    for k in range(240):
        p = _POINT * (1.0 + k * 1e-4)
        acc += float(np.sqrt(np.dot(p, p))) + float(np.linalg.norm(p - _POINT))
    for k in range(1200):
        acc += (k % 7) * 0.5
    return acc + float(np.linalg.svd(_MATRIX, compute_uv=False)[0])


def probe() -> tuple[float, float]:
    """(start, seconds) of one run of the reference kernel."""
    start = time.perf_counter()
    reference_kernel()
    return start, time.perf_counter() - start


class SpeedClock:
    """Times calls in reference-speed seconds; keeps the raw numbers too.

    ``log`` holds one (net wall seconds, reference-speed seconds, mean probe
    seconds, probes) entry per call that returned. Calls must not nest.
    """

    def __init__(self):
        self.log: list[tuple[float, float, float, int]] = []
        self._in_call: list[tuple[float, float]] = []

    def _on_alarm(self, signum, frame):
        self._in_call.append(probe())

    def __call__(self, fn, *args):
        """(fn(*args), its time in reference-speed seconds)."""
        before = probe()
        self._in_call = []
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = time.perf_counter()
        try:
            value = fn(*args)
            end = time.perf_counter()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        in_call = [p for p in self._in_call if p[0] < end]
        probes = [before[1]] + [p[1] for p in in_call] + [probe()[1]]
        net = end - start - math.fsum(p[1] for p in in_call)
        speed = statistics.fmean(probes)
        seconds = net * REF_SECONDS / speed
        self.log.append((net, seconds, speed, len(probes)))
        return value, seconds
