"""Machine-speed probe: times measured on a shared host, scaled to one speed.

The benchmark runs on a few cores of a shared host whose speed changes by
up to half for seconds at a time as other tenants load it.  Pooling a run's
samples does not remove that: a run lands in a fast or a slow stretch.  So
the benchmark times a fixed probe, small numpy linear algebra of the kind
the engine does, at short intervals, and scales every measured interval by
``REF_S`` over the median time of the ``NEAREST`` probes around it.  A time
reported by the benchmark is then the time the operation would take on a
machine that runs the probe in ``REF_S``.

Probes run between operations and, while the clock watches, from a signal
handler inside any operation that runs longer than ``LONG_S``, every
``EVERY_S`` seconds: that samples the speed during an operation that stalls
for seconds, and never interrupts a short one.  The time of every probe
that ran inside an interval is taken out of it, so no reported time holds a
probe.  The probe calls only numpy, never the package, so a change to the package
cannot move it: a faster or slower engine shows in full.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

REF_S = 0.002  # probe time that defines the reference speed
EVERY_S = 0.1  # least time between two probes
LONG_S = 0.05  # an operation this long is probed inside
NEAREST = 20  # probes nearest to an interval set its speed

_rng = np.random.default_rng(2503)
_A = _rng.standard_normal((6, 6))
_A = _A @ _A.T + 6.0 * np.eye(6)
_B = _rng.standard_normal((8, 5))
_Y = np.ones(8)


def probe() -> float:
    """Wall time of one fixed pass of small solves, norms and products."""
    t0 = time.perf_counter()
    x = np.ones(6)
    for _ in range(60):
        x = np.linalg.solve(_A, x)
        x = x / np.linalg.norm(x)
        y = _A @ x
        np.maximum(y, 0.0).sum()
        np.linalg.lstsq(_B, _Y, rcond=None)
    return time.perf_counter() - t0


class Clock:
    """Probe times, in order, and the speed scale they give an interval."""

    def __init__(self):
        self.times: list[float] = []  # midpoint of each probe
        self.durations: list[float] = []
        self._busy = False  # a probe is running: the timer skips its turn
        self._watching = False
        probe()  # warm numpy's code paths before the first recorded probe

    def _probe(self) -> None:
        self._busy = True
        t0 = time.perf_counter()
        d = probe()
        self.times.append(t0 + d / 2)
        self.durations.append(d)
        self._busy = False

    def burst(self, n: int = 3) -> None:
        """Run n probes now."""
        for _ in range(n):
            self._probe()

    def tick(self) -> None:
        """Run one probe if none ran in the last ``EVERY_S`` seconds."""
        if not self.times or time.perf_counter() - self.times[-1] >= EVERY_S:
            self._probe()

    def watch(self, on: bool) -> None:
        """Probe inside long operations (between ``arm`` and ``disarm``) or
        not.  Only for operations on the main thread: the handler runs there."""
        signal.signal(signal.SIGALRM, self._on_alarm if on else signal.SIG_DFL)
        self._watching = on

    def arm(self) -> None:
        """An operation starts: probe in it after ``LONG_S``, then every
        ``EVERY_S`` seconds."""
        if self._watching:
            signal.setitimer(signal.ITIMER_REAL, LONG_S, EVERY_S)

    def disarm(self) -> None:
        if self._watching:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:
            self._probe()

    def probe_time(self, t0: float, t1: float) -> float:
        """Time taken by the probes that ran inside [t0, t1]."""
        i = bisect.bisect_left(self.times, t0)
        j = bisect.bisect_right(self.times, t1)
        return sum(d for t, d in zip(self.times[i:j], self.durations[i:j])
                   if t - d / 2 >= t0 and t + d / 2 <= t1)

    def scale(self, t0: float, t1: float) -> float:
        """Factor that turns a time measured over [t0, t1] into reference
        time: from the ``NEAREST`` probes closest to the interval, those
        inside it first."""
        i = bisect.bisect_left(self.times, t0)
        j = bisect.bisect_right(self.times, t1)
        lo, hi = i - 1, j
        window = self.durations[i:j]
        while len(window) < NEAREST and (lo >= 0 or hi < len(self.times)):
            before = t0 - self.times[lo] if lo >= 0 else float("inf")
            after = self.times[hi] - t1 if hi < len(self.times) else float("inf")
            if before <= after:
                window.append(self.durations[lo])
                lo -= 1
            else:
                window.append(self.durations[hi])
                hi += 1
        return REF_S / statistics.median(window)

    def scaled(self, t0: float, t1: float) -> float:
        """Reference time of the interval [t0, t1], its probes taken out."""
        return (t1 - t0 - self.probe_time(t0, t1)) * self.scale(t0, t1)

    @property
    def probe_s(self) -> float:
        """Median probe time of the run so far."""
        return statistics.median(self.durations)
