"""Timing at a fixed machine speed.

The host's other tenants change this machine's speed by a quarter and
more over minutes: on 2 cores, one job's medians over 20-second windows
drifted by 25% in 200 s, and CPU time drifted with wall time. Medians
inside one run cannot remove that, so every timed interval is bracketed
by a short fixed calibration task, and a pass's times are reported at
the task's nominal speed:

    seconds = wall * NOMINAL_S / median(calibrations of the pass)

In that measurement the spread of the 20-second medians fell from
15-21% raw to 1-4% so scaled. The task has two parts, each timed on its
own. "interp" is interpreter work (float arithmetic, tuples, dict
updates, as in the analytic tree walk) plus elementwise numpy on arrays
of a Monte Carlo batch's size; it tracks the analytic and optimiser
jobs. "stream" runs over an array larger than L2; it tracks the Monte
Carlo jobs. For JMLD, which streams tensors of tens of MB, "interp"
left a 5% spread and "stream" 2%. SIC followed "stream" too: over five
runs, a run whose "interp" part ran 12% fast left SIC's speed where it
was, so "interp" scaling put 15-30% on that run's SIC times. NOMINAL_S
are the parts' median times inside benchmark passes on the machine the
baseline was recorded on, so scaled seconds read close to wall seconds
there. ("stream" reads about half as long in a tight loop, where the
jobs do not leave the caches cold.)
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median time of each calibration part inside benchmark passes on the
# machine the baseline was recorded on.
NOMINAL_S = {"interp": 0.0045, "stream": 0.0047}
REUSE_S = 0.25  # a calibration this recent still describes the machine
_SMALL = np.linspace(0.0, 1.0, 50_000)
_LARGE = np.ones(1_000_000)  # 8 MB, twice the L2
_LARGE_OUT = np.empty_like(_LARGE)


def calibration() -> dict[str, float]:
    """Wall time of each calibration part, in seconds."""
    t0 = time.perf_counter()
    acc: dict[int, float] = {}
    s = 0.0
    for i in range(6000):
        t = (i * 0.5, i % 7)
        acc[t[1]] = acc.get(t[1], 0.0) + t[0]
        s += (t[0] * 1.0001) ** 0.5
    y = _SMALL
    for _ in range(8):
        y = np.abs(y * 1.0001 + 0.5j) ** 2
    t1 = time.perf_counter()
    for _ in range(4):
        np.multiply(_LARGE, 1.0001, out=_LARGE_OUT)
    return {"interp": t1 - t0, "stream": time.perf_counter() - t1}


class Clock:
    """Wall-clock timer that samples the machine's speed around each call.

    One calibration can be slowed or sped up by a passing burst of the
    neighbours' work, so speed() takes the median over all calibrations
    since it was last called, such as those of one pass: that still
    follows drift over tens of seconds."""

    def __init__(self):
        self.samples: list[dict[str, float]] = []
        self._last = -REUSE_S  # when the last calibration ended

    def timed(self, fn, *args):
        """Run fn(*args); return (result, wall seconds)."""
        if time.perf_counter() - self._last > REUSE_S:
            self.samples.append(calibration())
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        self.samples.append(calibration())
        self._last = time.perf_counter()
        return result, wall

    def discard(self) -> None:
        """Forget the calibrations taken so far."""
        self.samples = []

    def speed(self) -> dict[str, float]:
        """Nominal over median time of each calibration part since the
        last call (above 1 on a machine faster than nominal)."""
        samples, self.samples = self.samples, []
        return {kind: nominal / statistics.median(c[kind] for c in samples)
                for kind, nominal in NOMINAL_S.items()}
