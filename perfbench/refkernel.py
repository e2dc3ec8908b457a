"""A fixed pure-Python big-integer kernel that measures machine speed.

The kernel multiplies two fixed coefficient lists of 200-bit integers and
reduces the product modulo a fixed monic polynomial, which are the inner
loops the engine spends its time in (schoolbook products and monic
remainders on Python ints).  ``timed_slice`` runs it REPS times and
returns the seconds taken; a run divides its wall time by the mean slice
time to give a time in ``ref`` units that is less sensitive to how fast
the machine happens to be during the run.

The kernel's inputs, and so its result, are fixed.
"""
from __future__ import annotations

import time

LENGTH = 40
BITS = 200
REPS = 6

_MASK = (1 << BITS) - 1
_A = [((0x9E3779B97F4A7C15 * (i + 1)) ** 4) & _MASK for i in range(LENGTH)]
_B = [((0xC2B2AE3D27D4EB4F * (i + 7)) ** 4) & _MASK for i in range(LENGTH)]
_F = [((0x165667B19E3779F9 * (i + 3)) ** 2) & _MASK
      for i in range(LENGTH // 2)] + [1]


def kernel() -> int:
    """(A * B) mod F over Z, folded to one integer."""
    a, b, f = _A, _B, _F
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    n = len(f) - 1
    for i in range(len(prod) - 1, n - 1, -1):
        top = prod[i]
        if top:
            for j in range(n):
                prod[i - n + j] -= top * f[j]
            prod[i] = 0
    return sum(prod[:n]) & _MASK


def timed_slice() -> float:
    """Seconds taken by REPS runs of the kernel."""
    t0 = time.perf_counter_ns()
    for _ in range(REPS):
        kernel()
    return (time.perf_counter_ns() - t0) / 1e9
