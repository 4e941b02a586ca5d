"""Pacing: timing a fixed reference around every job to take out machine speed.

Contention from other tenants of the machine changes the speed of
compute-bound Python by up to a factor of two, from one second to the next,
which moved the medians of raw 30-second runs by 28-46%.  The benchmark
therefore times reference_loop just before and just after each job and
reports ``elapsed * REFERENCE_S / mean(before, after)``: the job's time on
a machine where the loop takes REFERENCE_S.  The loop uses no logres code,
so no change to the library can move it.  The run is pinned to one core
(see run.py), so the loop and the jobs it paces, child processes included,
run on the same core.
"""

import statistics
import time
from fractions import Fraction

# About reference_loop's time on a 2-vCPU Xeon VM (CPython 3.11.7) when nothing contends.
REFERENCE_S = 0.001


def reference_loop():
    """Fixed pure-Python exact arithmetic, of the kind logres does: a small
    Fraction row reduction and dictionary updates on tuple keys."""
    n = 6
    rows = [[Fraction((i * 7 + j * 3) % 11 - 5, (i + j) % 4 + 1) for j in range(n)] for i in range(n)]
    for c in range(n):
        inv = 1 / rows[c][c] if rows[c][c] else Fraction(0)
        rows[c] = [v * inv for v in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    table = {}
    for i in range(800):
        key = (i % 37, i % 11)
        table[key] = table.get(key, 0) + i
    return rows, table


def loop_pace():
    """Seconds reference_loop takes right now (median of three)."""
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        reference_loop()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def paced(elapsed, before, after):
    """``elapsed`` scaled to a machine where reference_loop takes REFERENCE_S."""
    return elapsed * REFERENCE_S * 2 / (before + after)
