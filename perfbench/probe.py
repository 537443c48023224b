"""A speed probe that runs beside a command, in the command's own interpreter.

The box this benchmark runs on is a share of a larger host.  How fast it
executes Python changes by up to half within seconds and drifts over
minutes, so raw times of the same code spread by 20-30% from run to run.
The probe measures that speed at the moments the command runs: a daemon
thread that, every ``PERIOD_S`` seconds, runs a small fixed kernel (products
of sparse mod-2 polynomials over tuple monomials, the shape of the package's
hot loops) twice and records the second run's thread CPU time.  The first
run warms the caches that the command's own work has just evicted, so the
reading depends less on what the command does (cold readings differed by
15% between commands, warm ones by 7%).  Thread CPU time does not count the
time the thread waits for the GIL, so the reading is the kernel's speed, not
the command's activity.  The kernel lives here, not in the package, so no
change to the package moves it except through the caches it shares.

``run.py`` scales each command's wall and CPU time by its ``PROBE_REF_S``
over the trimmed mean of the probe's readings during that command.  The
probe costs about 5% of the command's time, the same on every commit.
"""

from __future__ import annotations

import threading
import time

PERIOD_S = 0.05
# Share of readings dropped at each end before the mean: a reading that a
# garbage collection of the command's heap lands in can be 50 times longer.
TRIM = 0.1
# The kernel's result, checked on every reading so that it cannot silently
# do less work.
CHECKSUM = 152

_P = frozenset({((1, 1),), ((2, 1),), ((1, 2), (3, 1)), ((4, 1),)})
_Q = frozenset({((1, 1), (2, 1)), ((3, 2),), ((5, 1),)})


def _mono_mul(a: tuple, b: tuple) -> tuple:
    d = dict(a)
    for i, e in b:
        d[i] = d.get(i, 0) + e
    return tuple(sorted(d.items()))


def _poly_mul(a: frozenset, b: frozenset) -> frozenset:
    acc: set = set()
    for x in a:
        for y in b:
            m = _mono_mul(x, y)
            if m in acc:
                acc.discard(m)
            else:
                acc.add(m)
    return frozenset(acc)


def kernel() -> int:
    """One fixed unit of work, about 1.3 ms; returns a checksum of its result."""
    acc = frozenset({()})
    for _ in range(4):
        acc = _poly_mul(acc, _P)
        acc = _poly_mul(acc, _Q)
    return sum(e for m in acc for _, e in m)


class Probe:
    """Times ``kernel`` every ``PERIOD_S`` on a daemon thread until ``stop``."""

    def __init__(self) -> None:
        self.readings: list[float] = []
        self.error: str | None = None
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self) -> None:
        self._thread.start()

    def _run(self) -> None:
        while True:
            warm = kernel()
            start = time.thread_time()
            result = kernel()
            self.readings.append(time.thread_time() - start)
            if warm != CHECKSUM or result != CHECKSUM:
                self.error = f"probe kernel returned {warm} and {result}, expected {CHECKSUM}"
                return
            if self._stop.wait(PERIOD_S):
                return

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()


def trimmed_mean(readings: list[float]) -> float:
    ordered = sorted(readings)
    # at least one reading from each end once there are three
    k = max(int(len(ordered) * TRIM), 1 if len(ordered) >= 3 else 0)
    kept = ordered[k : len(ordered) - k]
    return sum(kept) / len(kept)
