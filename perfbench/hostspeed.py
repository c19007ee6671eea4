"""How fast the host runs while a call is timed, from a fixed reference loop.

On a shared host the speed of Python and small-numpy code changes by up to 2x
within seconds, as other tenants come and go, and csdc's work slows down and
speeds up with it.  While a pass is timed, a SIGALRM interval timer runs one
iteration of a fixed reference loop every ``PROBE_INTERVAL_S`` of wall time
and records how long it took.  A call's time, less the probes that ran inside
it, is then scaled by ``REFERENCE_S / mean probe time`` over the probes inside
it and within ``PROBE_WINDOW_S`` of it (a short call may hold none): seconds at
the speed at which one iteration takes ``REFERENCE_S``.

The loop mixes what csdc spends its time on (small complex matrix products, a
LAPACK factorisation, Python dict work, float formatting and parsing) and
never calls csdc, so a change to csdc moves the scaled time by the same share
as the raw time.  No thread or process is started: the probes run in the main
thread between bytecodes, and wait while a long numpy call finishes.
"""
from __future__ import annotations

import bisect
import signal
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# One iteration's median duration on the 2-vCPU x86-64 cloud host the bounds
# were set on.  It only fixes the scale of the reported seconds.
REFERENCE_S = 0.001
PROBE_INTERVAL_S = 0.05
PROBE_WINDOW_S = 0.25      # a call's speed also counts the probes this close to it

_rng = np.random.default_rng(0x5EED)
_SMALL = [_rng.standard_normal((8, 8)) + 1j * _rng.standard_normal((8, 8)) for _ in range(24)]
_SQUARE = _rng.standard_normal((32, 32)) + 1j * _rng.standard_normal((32, 32))
_ANGLES = _rng.uniform(-180.0, 180.0, 64).tolist()


def loop_seconds() -> float:
    """Wall time of one iteration of the reference loop."""
    t0 = perf_counter()
    acc = 0.0
    for a in _SMALL:
        acc += abs((a @ a.conj().T).trace())
    np.linalg.svd(_SQUARE)
    counts: dict[int, int] = {}
    for i in range(2000):
        counts[i % 61] = counts.get(i % 61, 0) + i
    text = "\n".join(f"ROTZ {i % 6} {x!r}" for i, x in enumerate(_ANGLES))
    acc += sum(float(line.split()[-1]) for line in text.splitlines())
    if acc != acc:  # keeps the work observable
        raise AssertionError("reference loop produced NaN")
    return perf_counter() - t0


class Probes:
    """Reference-loop probes taken on a timer while timed code runs."""

    def __init__(self):
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def _probe(self, _signum, _frame) -> None:
        if len(self.starts) != len(self.seconds):
            return  # the timer fired again while a probe ran: skip, keep starts sorted
        t0 = perf_counter()
        self.starts.append(t0)
        self.seconds.append(loop_seconds())

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def scaled(self, t0: float, t1: float) -> tuple[float, float]:
        """For a call that ran from ``t0`` to ``t1``: its time less the probes
        inside it, and the factor that scales that time to the reference speed,
        from the probes inside it and within ``PROBE_WINDOW_S`` of it."""
        inside = self.seconds[bisect.bisect_left(self.starts, t0):
                              bisect.bisect_left(self.starts, t1)]
        near = self.seconds[bisect.bisect_left(self.starts, t0 - PROBE_WINDOW_S):
                            bisect.bisect_left(self.starts, t1 + PROBE_WINDOW_S)]
        near = near or [REFERENCE_S]
        return (t1 - t0) - sum(inside), REFERENCE_S * len(near) / sum(near)
