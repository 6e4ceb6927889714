"""Machine-speed probe, and times rescaled by it.

On a shared machine the speed of a core swings as other tenants load it.
On the 2-core box the baseline was taken on, one ``expand --d 2`` op took
between 0.23 and 0.43 s within one minute, with process CPU time equal to
wall time: the core itself ran slower, so no process-time clock removes the
swing.  A fixed probe kernel, timed before and after each measured span,
and optionally once a second during it, tracks it.  A span's scaled time is
its wall time times ``PROBE_REF_S`` over the mean of the probes around and
during it: the time the span would take on a machine on which the probe
takes ``PROBE_REF_S``.
"""

import signal
import statistics
import time

import numpy as np

PROBE_REF_S = 0.035


def probe():
    """Seconds for a fixed mix of small-array numpy calls and Python loops.

    The mix resembles pentalab's hot path (short truncated-series products,
    tiny solves, float conversions) and shares no code with it.
    """
    t0 = time.perf_counter()
    a = np.linspace(0.1, 1.0, 15)
    m = np.eye(4) + 0.1
    acc = 0.0
    for _ in range(3000):
        b = np.convolve(a, a)[:15]
        a = a + b * 1e-6
        acc += sum(float(v) for v in a[:6])
        acc += float(np.linalg.solve(m, a[:4])[0])
    return time.perf_counter() - t0


class SpeedMeter:
    """Times one span at a time and probes the speed around it.

    The probe after one span is the probe before the next, so a closed loop
    of spans runs one probe per span.  With ``tick`` set, a SIGALRM timer
    also probes every ``tick`` seconds while a span runs, so a long span is
    scaled by the speed during it, not only at its ends; probe time inside a
    span is taken out of its wall time.  The handler runs between bytecodes
    of the span, never inside a numpy call, and shares no state with it.
    Traced runs leave ``tick`` unset, so that no tracer span holds a probe.
    """

    def __init__(self, tick=None):
        self.tick = tick
        self._last = probe()
        self._inside = []
        self._old_handler = None
        self._t0 = 0.0

    def _on_alarm(self, signum, frame):
        self._inside.append(probe())
        # one-shot timer, re-armed after the probe: a probe never nests
        signal.setitimer(signal.ITIMER_REAL, self.tick)

    def start(self):
        self._inside = []
        if self.tick:
            self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.tick)
        self._t0 = time.perf_counter()

    def stop(self):
        """(wall seconds, scaled seconds) of the span since start."""
        if self.tick:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._old_handler)
        wall = time.perf_counter() - self._t0 - sum(self._inside)
        after = probe()
        scaled = wall * PROBE_REF_S / statistics.fmean(
            [self._last, *self._inside, after])
        self._last = after
        return wall, scaled
