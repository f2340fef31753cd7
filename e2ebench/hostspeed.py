"""Host-speed probe: expresses measured times at a fixed nominal speed.

The machines this benchmark runs on are shared, and their speed drifts
by 15-25% over minutes while a single-threaded op's CPU time tracks its
wall time exactly (the host runs slower, it does not deschedule us).
A fixed probe that does the same kinds of work as the program (a stable
argsort, a gather, a unique, a bincount and an interpreter loop) is
timed before every round of ops, and each op time of the round is
multiplied by ``NOMINAL_PROBE_S / probe time``.  That states it at the
speed of a host on which the probe takes ``NOMINAL_PROBE_S``.  The
probe touches nothing in ``repro``, so a change to the program cannot
move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Probe time on the reference host when it is not contended.
NOMINAL_PROBE_S = 0.045

_N = 200_000


class HostSpeed:
    """Times the probe.  ``probe()`` returns the factor that states a
    time measured now at nominal speed (below 1 on a slower host);
    ``samples`` keeps every factor."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self._keys = rng.integers(0, 1 << 40, _N)
        self._index = rng.integers(0, _N, _N)
        self.samples: list[float] = []

    def _work(self) -> None:
        np.argsort(self._keys, kind="stable")
        gathered = self._keys[self._index]
        np.unique(gathered[: _N // 4])
        np.bincount(self._index, minlength=_N)
        slots: dict[int, int] = {}
        for i in range(20_000):
            slots[i & 1023] = i

    def probe(self) -> float:
        """Run the probe once."""
        t0 = time.perf_counter()
        self._work()
        self.samples.append(NOMINAL_PROBE_S / (time.perf_counter() - t0))
        return self.samples[-1]

    @property
    def factor(self) -> float:
        """The median factor of every probe so far."""
        if not self.samples:
            for _ in range(3):
                self.probe()
        return statistics.median(self.samples)
