"""Timing at a reference machine speed.

The machine this benchmark was written on switches between speeds up to 2x
apart, within seconds and at random. Process CPU time follows wall time
through those switches, the steal time in /proc/stat stays near zero, and
the guest has no hardware counters, so no clock the benchmark can read
stays steady. The worker therefore samples the machine's speed: a timer
signal every PERIOD_S runs two fixed pure-Python kernels that never touch
binact, and records how long they took. Program time in an interval, that
is wall time minus the time the samples took, times the mean over the
interval's samples of REFERENCE_S / kernel time, is the time the interval
would have taken at the reference speed.

    python3 bench/speed.py    # kernel times on this machine, fastest first
"""

from __future__ import annotations

import itertools
import signal
import time

PERIOD_S = 0.02
# Kernel times in seconds at the reference speed: the fastest twentieth of
# 2000 timings (`python3 bench/speed.py`) on a 2-vCPU KVM guest, Intel Xeon
# at 2.0 GHz, CPython 3.
REFERENCE_S = (1.56e-4, 3.16e-4)

_PERMS = list(itertools.permutations(range(5)))[:12]


def _compose_kernel() -> int:
    """Tuple building and dict traffic, like permutation work."""
    seen: dict = {}
    for p in _PERMS:
        for q in _PERMS:
            r = tuple(p[i] for i in q)
            seen[r] = seen.get(r, 0) + 1
    return len(seen)


def _mix(x: int, y: int) -> int:
    return (x * 7 + y) & 1023


def _call_kernel() -> int:
    """Function calls, set membership and generator expressions."""
    seen = set()
    acc = 0
    for i in range(300):
        v = _mix(i, acc)
        if v not in seen:
            seen.add(v)
        acc += sum(1 for j in range(4) if v >> j & 1)
    return acc


class SpeedSampler:
    """Samples the machine's speed on SIGALRM while running."""

    def __init__(self):
        self.factors: list[float] = []  # reference / measured, per sample
        self.spent = 0.0  # seconds spent sampling

    def sample(self, *_):
        t0 = time.perf_counter()
        _compose_kernel()
        t1 = time.perf_counter()
        _call_kernel()
        t2 = time.perf_counter()
        self.factors.append((REFERENCE_S[0] / (t1 - t0) + REFERENCE_S[1] / (t2 - t1)) / 2)
        self.spent += t2 - t0

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def mark(self) -> tuple[int, float]:
        """A point in time: samples taken and sampling time spent so far."""
        return len(self.factors), self.spent

    def interval(self, since, until) -> tuple[float, float]:
        """Mean speed factor over the samples taken between two marks, and
        the seconds spent sampling between them."""
        factors = self.factors[since[0]:until[0]] or self.factors[-1:]
        return sum(factors) / len(factors), until[1] - since[1]


def reference_seconds(wall_s: float, factor: float, sampling_s: float) -> float:
    """Wall time of an interval converted to seconds at the reference speed."""
    return (wall_s - sampling_s) * factor


if __name__ == "__main__":
    times = []
    for _ in range(2000):
        row = []
        for kernel in (_compose_kernel, _call_kernel):
            t0 = time.perf_counter()
            kernel()
            row.append(time.perf_counter() - t0)
        times.append(row)
        time.sleep(0.005)
    for i, name in enumerate(("compose kernel", "call kernel")):
        q = sorted(t[i] for t in times)
        print(f"{name}: 5th percentile {q[len(q) // 20]:.3e} s, median {q[len(q) // 2]:.3e} s")
