"""Host-speed probe: times reported in reference seconds.

The benchmark host is shared, and its speed drifts: the same ``flat`` call
took between 1.7 s and 3.5 s within four minutes, in slow and fast phases that
each last several seconds. A fixed pure-Python kernel timed next to each
measurement tracks that drift. Every time the benchmark reports is the
measured time multiplied by ``REFERENCE_S / probe``, where ``probe`` is the
kernel's time around the measurement. ``REFERENCE_S`` is the kernel's time in
the host's fast phase, so on a quiet host the scaled time is close to the
measured one. The kernel runs no hbsim code, so a change to the program moves
the scaled times by the same factor as the measured ones.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.010


def _kernel() -> int:
    table: dict[int, int] = {}
    acc = 0
    for i in range(60_000):
        table[i & 1023] = acc
        acc = (acc * 31 + i) % 1_000_003
    return acc


def probe(rounds: int = 5) -> float:
    """The kernel's fastest time over ``rounds`` runs, in seconds."""
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best
