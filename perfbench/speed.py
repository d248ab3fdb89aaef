"""Host-speed normalisation of measured times.

The machine this benchmark was tuned on is a shared 2-vCPU VM whose speed
drifts by 20-50% over seconds to minutes, in step for all code (process
CPU time drifts exactly like wall time).  Raw times therefore spread across
runs by more than any useful regression bound.  So the benchmark probes
the host's speed with a fixed reference kernel between units of work, and
reports every host time scaled to the speed at which the kernel takes its
reference time:

    reported = measured * reference / kernel_time_near(measured interval)

``kernel_time_near`` is the median of the five probes nearest in time.  The
kernel has two timed parts, one per kind of work that dominates the
program: ``"lp"``, three scipy HiGHS solves of one fixed reduced allocation
LP, and ``"all"``, those solves plus an interpreter-bound loop over small
numpy vectors like the flow DP's, the stream generator's and the DES's.
Intervals spent in LP consults are scaled by the ``"lp"`` part; intervals
holding a coefficient rebuild or other set-up work by the whole kernel.
The kernel lives wholly in the benchmark: a change to ``repro`` cannot make
it faster or slower, so any change in the program's speed shows in full.
"""

from __future__ import annotations

import bisect
import time

import numpy as np
from scipy.optimize import linprog

#: each kernel part's duration the reported times are scaled to (its typical
#: duration on the machine the baselines in README.md were measured on)
REFERENCE_S = {"lp": 0.0065, "all": 0.010}
#: least host time between two probes
PROBE_EVERY_S = 0.25
#: probes whose median sets the speed for one interval
WINDOW = 5


def _kernel_lp():
    rng = np.random.default_rng(12345)
    n = 10
    T = rng.uniform(0.0, 0.2, (n, n))
    np.fill_diagonal(T, 0.0)
    A_ub = np.zeros((n - 1, n + 1))
    A_ub[:, :n] = (T.T + np.eye(n))[1:]
    A_ub[:, n] = -1.0
    A_eq = np.ones((1, n + 1))
    A_eq[0, n] = 0.0
    c = np.zeros(n + 1)
    c[n] = 1.0
    bounds = [(0.0, float(u)) for u in rng.uniform(10.0, 100.0, n)] + [(0.0, None)]
    return c, A_ub, np.zeros(n - 1), A_eq, bounds


class HostSpeed:
    """Probes of the reference kernel, and the scaling they imply."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.at: list[float] = []
        self.took: dict[str, list[float]] = {"lp": [], "all": []}
        self._lp = _kernel_lp()
        self._factors: dict[str, list[float]] = {}

    def probe(self) -> None:
        c, A_ub, b_ub, A_eq, bounds = self._lp
        start = self.clock()
        for amount in (50.0, 120.0, 200.0):
            linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=[amount],
                    bounds=bounds, method="highs")
        lp_done = self.clock()
        acc = {}
        for i in range(1000):
            v = np.zeros(A_ub.shape[1])
            v[i % A_ub.shape[0]] = 1.0
            active = np.nonzero(v)[0]
            acc[i & 255] = float(v[active] @ A_ub[i % A_ub.shape[0], active])
        self.at.append(start)
        self.took["lp"].append(lp_done - start)
        self.took["all"].append(self.clock() - start)
        self._factors = {}

    def maybe_probe(self) -> float:
        """Probe if the last probe is at least ``PROBE_EVERY_S`` old.

        Returns the seconds spent probing.
        """
        if self.at and self.clock() - self.at[-1] < PROBE_EVERY_S:
            return 0.0
        self.probe()
        return self.took["all"][-1]

    def factor(self, when: float, part: str) -> float:
        """The reference time over the kernel part's time near ``when``."""
        factors = self._factors.get(part)
        if factors is None:
            took, half = self.took[part], WINDOW // 2
            factors = self._factors[part] = [
                REFERENCE_S[part] / float(np.median(took[max(0, i - half) : i + half + 1]))
                for i in range(len(took))
            ]
        j = bisect.bisect_left(self.at, when)
        if j == len(self.at) or (j > 0 and when - self.at[j - 1] < self.at[j] - when):
            j -= 1
        return factors[j]

    def span(self, start: float, end: float, part: str) -> float:
        """Normalised length of ``[start, end]``, less the probes run inside it."""
        i = bisect.bisect_left(self.at, start)
        total, t = 0.0, start
        while i < len(self.at) and self.at[i] < end:
            total += (self.at[i] - t) * self.factor(t, part)
            t = self.at[i] + self.took["all"][i]
            i += 1
        return total + (end - t) * self.factor(t, part)

    def scale(self, intervals, part: str) -> list[float]:
        """Normalise ``(start, seconds)`` intervals."""
        return [seconds * self.factor(start, part) for start, seconds in intervals]

    def kernel_ms(self) -> dict[str, float]:
        return {part: float(np.median(took)) * 1e3 for part, took in self.took.items()}
