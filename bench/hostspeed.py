"""The host's speed, sampled with a fixed probe.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same work takes up to about 1.6x longer for seconds to minutes at a time,
and CPU time slows just as wall time does, so the cause is outside the
process.  The probe below does a fixed amount of the kinds of work the
package does, interpreter loops and numpy and scipy calls on small arrays,
and calls no code of the package.  Its time follows the host's speed and
nothing of the program's.

A time measured over an interval is scaled to the reference speed by the
mean of REF_PROBE_S / (probe time) over the probes taken in that interval.
On the machine the benchmark was sized on, REF_PROBE_S is the probe's time
at the host's faster speed, so a scaled time reads as the wall time an
unloaded host would give.  A change to the program moves the scaled time as
much as the wall time; a change of the host's speed moves only the wall time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
from scipy.special import logsumexp

LOOP_ITERS = 5_000
SMALL_CALLS = 5
ARRAY_CALLS = 4
REF_PROBE_S = 1.0e-3
PERIOD_S = 0.1  # the sampler probes every PERIOD_S of wall time

_rng = np.random.default_rng(0)
_COLUMN = _rng.normal(size=(20, 1))
_VECTOR = _rng.normal(size=6)
_FRAMES = _rng.normal(size=(60, 39))
_MEANS = _rng.normal(size=(2, 39))
_VARS = _rng.uniform(0.5, 2.0, size=(2, 39))


def probe() -> float:
    """Seconds taken by a fixed interpreter loop, numpy and scipy calls on
    tiny arrays, and Gaussian log-densities of 60 frames at d=39."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(LOOP_ITERS):
        acc += i * i
    for _ in range(SMALL_CALLS):
        logsumexp(_COLUMN, axis=0)
        np.log(_VECTOR * _VECTOR + 1.0).sum()
    for _ in range(ARRAY_CALLS):
        diff = _FRAMES[:, None, :] - _MEANS[None]
        logsumexp(-0.5 * (diff * diff / _VARS).sum(axis=-1), axis=1)
    return time.perf_counter() - t0


def burst(n: int) -> list[float]:
    return [probe() for _ in range(n)]


def factor(probes: list[float]) -> float:
    """Multiply a time measured while these probes ran by this factor to
    scale it to the reference speed."""
    return statistics.fmean(REF_PROBE_S / p for p in probes)


class Sampler:
    """Probes every PERIOD_S from a wall-clock timer signal, in the process's
    own thread, so the probe runs where the measured work runs.  Each probe
    costs about 1% of the interval it samples, the same on every run."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter, probe seconds)

    def _tick(self, signum, frame):
        self.samples.append((time.perf_counter(), probe()))

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, t0: float, t1: float, seconds: float) -> float:
        """`seconds`, measured between perf_counter readings t0 and t1,
        scaled to the reference speed by the probes taken in between.  An
        interval shorter than PERIOD_S may hold none; it takes the latest
        probe, or a fresh one."""
        inside = [p for t, p in self.samples if t0 <= t <= t1]
        if not inside:
            inside = [self.samples[-1][1] if self.samples else probe()]
        return seconds * factor(inside)
