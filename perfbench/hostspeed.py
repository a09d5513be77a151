"""Host-speed calibration for timings taken on a shared machine.

On the 2-core development host (a virtual machine: Intel Xeon, Python
3.11, numpy 2.4) the time of a fixed task drifts by up to 2x in regimes
that last tens of seconds, and the guest sees no steal time: CPU time
equals wall time.  A 35-second run cannot average that out.  So the
benchmark times fixed kernels of its own between ops and scales each op's
time by the host speed they show: reference time / measured time.  The
drift does not hit every kind of work alike; array-heavy numpy code moved
about 20 % against the interpreter loop between two batches.  So each
workload calibrates with the parts that do its kind of work: the Sturm
count's interpreter loop, the indicator path's small numpy calls, or the
smooth objective's graded product rule.  The parts call nothing in
ltbounds, so no change to the package can move them.  Reported times are
therefore seconds at the reference host speed; the raw seconds go into the
report too.
"""

from __future__ import annotations

import time

import numpy as np

CALIBRATE_EVERY_S = 0.5

_X = np.linspace(0.01, 1.0, 30)
_S = np.linspace(1e-6, 1.0 - 1e-6, 1365)  # as many nodes as the graded inner rule
_T = np.linspace(0.05, 1.0, 15)  # one outer panel
_W = np.full(_S.size, 1.0 / _S.size)


def _interpreter() -> float:
    # the Sturm count's loop
    q, count = 1.0, 0
    for _ in range(20000):
        q = 2.5 - 1.0 / q
        if q < 0.0:
            count += 1
    return count


def _small_calls() -> float:
    # the indicator path: many numpy calls on a handful of nodes
    total = 0.0
    for _ in range(900):
        total += float(np.dot(_X[:15], _X[15:]))
    return total


def _graded_rule() -> float:
    # the smooth objective: 1 - f on a nodes-by-panel grid, then a matvec
    total = 0.0
    for _ in range(6):
        total += float((_W @ -np.expm1(-0.3 * np.log1p(1.7 * (_S[:, None] * _T[None, :]) ** 4.5))).sum())
    return total


# each part with its median time on the development host
PARTS = {
    "interpreter": (_interpreter, 0.0020),
    "small_calls": (_small_calls, 0.0023),
    "graded_rule": (_graded_rule, 0.0030),
}


def speed(parts: tuple[str, ...]) -> float:
    """Host speed relative to the reference, from five runs of each part.

    Summed times, not a median: when the core is shared in short slices,
    the slices lost count against the ops as well.
    """
    start = time.perf_counter()
    for name in parts:
        run = PARTS[name][0]
        for _ in range(5):
            run()
    return 5 * sum(PARTS[name][1] for name in parts) / (time.perf_counter() - start)


class OpTimer:
    """Calibrates between the ops of one pass.

    A calibration runs before an op when CALIBRATE_EVERY_S has passed since
    the last one, and once more in factors(); each op is scaled by the mean
    speed of the calibrations just before and just after it.
    """

    def __init__(self, parts: tuple[str, ...]):
        self.parts = parts
        self._speed: list[float] = []
        self._last = -float("inf")
        self._op_segment: list[int] = []

    def _calibrate(self) -> None:
        self._speed.append(speed(self.parts))
        self._last = time.perf_counter()

    def before_op(self) -> None:
        if time.perf_counter() - self._last >= CALIBRATE_EVERY_S:
            self._calibrate()
        self._op_segment.append(len(self._speed) - 1)

    def factors(self) -> list[float]:
        """Speed factor of every op so far, in order."""
        self._calibrate()
        v = self._speed
        return [0.5 * (v[i] + v[i + 1]) for i in self._op_segment]
