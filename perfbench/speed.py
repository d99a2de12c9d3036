"""Machine-speed probe: a fixed piece of work, independent of the program,
timed between the states of a run.

On a small shared host the same state's analysis takes 31 ms in one
minute and 57 ms the next, with process CPU time equal to wall time:
the processor itself runs slower while neighbours are busy, for seconds
at a time.  Dividing each state's time by the probe times measured
around it removes that common factor.  Reported times are scaled to a
machine on which the probe's parts take PART_REFERENCE_MS.
"""

from __future__ import annotations

from array import array
from time import perf_counter

import numpy as np

# Interpreted arithmetic, numpy calls on one 4x4 matrix, batched 4x4
# eigensolves: each part's time on the reference machine (about the 5th
# percentile measured on the 2-core host of the README).
PART_REFERENCE_MS = (0.3, 0.6, 1.1)
# A fresh interpreter importing numpy on the reference machine; CLI
# start-up times are scaled by the same kind of run just before and after.
STARTUP_REFERENCE_S = 0.15
EVERY_S = 0.02          # run the probe after a state once this much time has passed
WINDOW = 2              # the probes just before and after a state


class SpeedProbe:
    """The three kinds of work the workloads do, each timed apart."""

    def __init__(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(64, 4, 4)) + 1j * rng.normal(size=(64, 4, 4))
        self._mats = m + np.conj(np.swapaxes(m, 1, 2))
        self._eigvalsh, self._einsum = np.linalg.eigvalsh, np.einsum
        self.at = array("d")
        self.parts = (array("d"), array("d"), array("d"))

    def run(self) -> None:
        start = perf_counter()
        total = 0.0
        for i in range(3000):
            total += (i * 0.5) ** 0.5
        t1 = perf_counter()
        a = self._mats[0].copy()
        for i in range(100):
            col = 0.6 * a[:, 1] - 0.8 * a[:, 2]
            a[:, 2] = 0.8 * a[:, 1] + 0.6 * a[:, 2]
            a[:, 1] = col
            total += abs(a[1, 2])
        t2 = perf_counter()
        for _ in range(6):
            self._eigvalsh(self._mats)
            self._einsum("nij,njk->nik", self._mats, self._mats)
        end = perf_counter()
        for part, (a0, a1) in zip(self.parts, ((start, t1), (t1, t2), (t2, end))):
            part.append(1e3 * (a1 - a0))
        self.at.append(0.5 * (start + end))

    def due(self, now: float) -> bool:
        return not self.at or now - self.at[-1] >= EVERY_S

    def scale(self, at) -> np.ndarray:
        """Reference time over measured time of the whole probe, the
        measured time being the mean of the probes just before and just
        after each time in `at`: multiply a time measured then by it."""
        when = np.asarray(self.at)
        ms = np.sum([np.asarray(part) for part in self.parts], axis=0)
        if len(ms) < WINDOW:
            raise ValueError(f"{len(ms)} probes, need {WINDOW}")
        first = np.clip(np.searchsorted(when, np.asarray(at)) - WINDOW // 2, 0, len(ms) - WINDOW)
        local = np.mean(ms[first[:, None] + np.arange(WINDOW)], axis=1)
        return sum(PART_REFERENCE_MS) / local


def startup_scale(baseline) -> np.ndarray:
    """STARTUP_REFERENCE_S over the mean of the interpreter start-up
    times measured just before and just after each timed CLI run
    (`baseline` holds one more time than there were runs)."""
    base = np.asarray(baseline)
    return STARTUP_REFERENCE_S / (0.5 * (base[:-1] + base[1:]))
