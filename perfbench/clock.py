"""Timing in reference seconds, corrected for the drift of a shared CPU.

On the 2-CPU virtual machine this benchmark was written on, the machine's speed
drifts by up to ~1.8x over tens of seconds (load from neighbouring machines;
a process's CPU time drifts with its wall time, so nothing inside the
process can avoid it).  A fixed calibration kernel runs right before and
right after every timed call, and every SAMPLE_INTERVAL_S during it.  Each
call's time is scaled by CALIBRATION_REFERENCE_S over the mean of those
kernel timings: the kernel slows down with the machine, so the ratio cancels
most of the drift.  The kernel uses nothing from the package, so no change
to the package can change its cost.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

# the kernel's time on the reference machine (2 CPUs, Python 3.11.7, NumPy 2.4.6)
# in an uncontended phase: one reference second is one second there
CALIBRATION_REFERENCE_S = 0.012
CALIBRATION_REPEATS = 3
SAMPLE_INTERVAL_S = 0.25


def calibration_kernel() -> float:
    """Small NumPy operations and interpreter work, shaped like one master-equation RHS."""
    rho = np.eye(4, dtype=complex) / 4.0
    x = np.array([0.1, 0.2, 0.3])
    acc = 0.0
    for i in range(1500):
        e = np.exp(-np.minimum(x * (i * 1e-3), 700.0))
        h = np.zeros((4, 4), dtype=complex)
        h[0, 1] = h[1, 0] = e[0]
        h[1, 2] = h[2, 1] = e[1]
        d = -1j * (h @ rho - rho @ h)
        acc += abs(d[0, 1]) + sum(k * 0.5 for k in range(8))
    return acc


def calibrate() -> float:
    """Seconds the kernel takes now: the median of a few back-to-back runs."""
    times = []
    for _ in range(CALIBRATION_REPEATS):
        t0 = perf_counter()
        calibration_kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Clock:
    """Times calls in reference seconds.

    With `sample`, a timer signal runs the kernel once every
    SAMPLE_INTERVAL_S during a call, so that a call of several seconds is
    scaled by the machine's speed over its whole span; the handler's own time
    is taken out of the call's time.  Without it, only the calibrations right
    before and after the call count.
    """

    def __init__(self, sample: bool = True):
        self.sample = sample
        self.last = calibrate()
        self.calls: list[dict] = []
        self._samples: list[float] = []

    def _on_timer(self, signum, frame):
        t0 = perf_counter()
        calibration_kernel()
        self._samples.append(perf_counter() - t0)

    def timed(self, fn, *args, **kwargs):
        self._samples = []
        if self.sample:
            previous = signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            if self.sample:
                # disarm before reading the clock: every sample then lies inside `raw`
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
            raw = perf_counter() - t0
        after = calibrate()
        self.calls.append({"raw_s": raw - sum(self._samples), "before_s": self.last,
                           "during_s": self._samples, "after_s": after})
        self.last = after
        return result

    @property
    def raw_s(self) -> float:
        return sum(c["raw_s"] for c in self.calls)

    @property
    def reference_s(self) -> float:
        return sum(c["raw_s"] * CALIBRATION_REFERENCE_S
                   / statistics.fmean([c["before_s"], *c["during_s"], c["after_s"]])
                   for c in self.calls)
