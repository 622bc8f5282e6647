"""A fixed reference loop that measures how fast the host runs right now.

On a shared host the speed of the one core a run gets drifts by 20-30%
within minutes: hamming_scheme(8) timed in 12 s windows of one process
had an interquartile range of 19% of its median.  Divided by a loop of
this kind timed next to it, it had 5%.  run.py times the loop
between ops (never inside an op's timing) and scales each op's latency by
REF_S over the loop's local time, which gives the latency the op would
have on a host that runs the loop in REF_S seconds.

The loop does not touch hadsplit, so a change to the library moves only
the op times, never the reference.  It mixes the kinds of work the library
does: list-of-lists matrices, numpy conversions and integer products,
matrix text written and parsed, dict and tuple bookkeeping, and Fraction
arithmetic.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

import numpy as np

# Seconds the loop takes, between ops of a run, on the reference host: an
# x86-64 virtual machine with 2 vCPUs, CPython 3.11, numpy 2.4 and OpenBLAS
# capped at one thread.
REF_S = 0.030

_N = 192


def reference_unit() -> int:
    rows = [[(i * j) % 3 - 1 for j in range(_N)] for i in range(_N)]
    arr = np.array(rows, dtype=np.int64)
    prod = (arr @ arr.T).tolist()
    text = "\n".join(" ".join(map(str, row)) for row in prod)
    parsed = [[int(x) for x in line.split()] for line in text.splitlines()]
    total = max(abs(x) for row in parsed for x in row)
    seen = {}
    for i, row in enumerate(parsed):
        seen[(i, i % 7)] = tuple(x for x in row if x > 0)
    acc = Fraction(0)
    for k in range(1, 160):
        acc += Fraction(k % 5 - 2, k)
    return total + len(seen) + acc.denominator % 7


def time_reference() -> float:
    """Seconds for one reference_unit, with the cyclic garbage collector
    off so that the size of the workload's heap does not enter."""
    was_on = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        reference_unit()
        return perf_counter() - t0
    finally:
        if was_on:
            gc.enable()
