"""Host-speed calibration of the benchmark's timings.

The benchmark runs on shared virtual machines whose speed swings by up to
1.7x for minutes at a time (identical ``gp_classify`` jobs took 10 to 18 s
on a 2-vCPU Xeon guest), far more than any program change it must detect.
So each child process runs a small fixed probe between ops, at most every
``EVERY_S`` seconds, and every timing is scaled by how slow the probe ran
nearby: ``reported = measured * REF_S / probe``.  Timings are thus in
seconds of a host on which the probe takes ``REF_S``, which is about the
probe's time on a quiet 2.1 GHz Xeon vCPU.

The probe does the two kinds of work quivhom spends its time on: small
exact eliminations over F_101 with numpy, and dict arithmetic on
tuple-of-string keys.  It never calls quivhom, so no program change moves it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_S = 0.0006  # the probe's time on a quiet host
EVERY_S = 0.1  # least time between two probes in a job
WINDOW_S = 1.0  # probes within this distance of an op set its scale
BURST = 21  # probes after set-up, which scale the set-up time

_P = 101
_M = np.random.default_rng(0).integers(0, _P, size=(10, 14))


def probe() -> float:
    """Run the fixed probe work once; returns its duration in seconds."""
    t0 = time.perf_counter()
    for _ in range(3):
        a = _M.copy()
        r = 0
        for c in range(a.shape[1]):
            if r == a.shape[0]:
                break
            nz = np.nonzero(a[r:, c])[0]
            if len(nz) == 0:
                continue
            i = r + int(nz[0])
            if i != r:
                a[[r, i]] = a[[i, r]]
            a[r] = (a[r] * pow(int(a[r, c]), _P - 2, _P)) % _P
            col = a[:, c].copy()
            col[r] = 0
            a = (a - np.outer(col, a[r])) % _P
            r += 1
    d: dict = {}
    for i in range(400):
        key = (str(i % 11), (f"b{i % 7}", f"eps_{i % 3}"))
        d[key] = (d.get(key, 0) + 7 * i) % _P
    return time.perf_counter() - t0


class Sampler:
    """Probe results of one child: when each ran and how long it took."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self._last = float("-inf")

    def burst(self) -> float:
        """BURST probes in a row; returns the scale factor they give."""
        for _ in range(BURST):
            self._take()
        return statistics.median(self.took[-BURST:]) / REF_S

    def maybe(self) -> None:
        """Probe if EVERY_S has passed since the last probe."""
        if time.perf_counter() - self._last >= EVERY_S:
            self._take()

    def _take(self) -> None:
        now = time.perf_counter()
        self.took.append(probe())
        self.at.append(now)
        self._last = time.perf_counter()

    def spent_since(self, t0: float) -> float:
        return sum(d for t, d in zip(self.at, self.took) if t >= t0)

    def factors(self, times: list[float], since: float) -> list[float]:
        """Scale factor (probe / REF_S) at each time: the median of the
        probes taken since ``since`` within WINDOW_S of it (the nearest
        three when none is that close)."""
        at = np.array([t for t in self.at if t >= since])
        took = np.array([d for t, d in zip(self.at, self.took) if t >= since])
        out = []
        for t in times:
            dist = np.abs(at - t)
            near = took[dist <= WINDOW_S]
            if len(near) == 0:
                near = took[np.argsort(dist)[:3]]
            out.append(float(np.median(near)) / REF_S)
        return out
