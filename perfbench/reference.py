"""Machine-speed reference: fixed work that runs no ``nhsim`` code.

The CPU speed of a shared machine drifts by tens of percent over seconds
to minutes.  The benchmark runs :func:`reference_work` between operations
and around each set-up, and rescales their times to the speed at which the
reference takes :data:`NOMINAL_S`, so that a drift of the machine cancels
while a change to the program does not.  The work mixes what ``nhsim`` spends its
time on: LAPACK calls on matrices of order 3 to 8 and interpreter-bound
small-array arithmetic.
"""

from __future__ import annotations

import time

import numpy as np

#: Time of one :func:`reference_work` call the timings are rescaled to: a
#: round value inside the 1.5-2.7 ms it took on a 2-core x86-64 sandbox
#: with OpenBLAS at one thread.
NOMINAL_S = 2.0e-3

#: Reference runs whose median gives the speed just before and just after
#: a set-up.
BRACKET_REPEATS = 15

_RNG = np.random.default_rng(20240229)
_MATS = [(_RNG.standard_normal((n, n)) + 1j * _RNG.standard_normal((n, n)))
         for n in (3, 4, 5, 6, 7, 8)]


def reference_work() -> float:
    acc = 0.0
    for M in _MATS:
        acc += float(np.abs(np.linalg.eigvals(M)).sum())
        acc += float(np.linalg.svd(M, compute_uv=False)[0])
        acc += float(np.abs(np.linalg.solve(M, M @ M)).sum())
        P = M
        for _ in range(20):
            P = P @ M / np.linalg.norm(P)
            acc += abs(complex(np.trace(P)))
    return acc


def reference_seconds(repeats: int = 1) -> float:
    """Median wall time of ``repeats`` calls of :func:`reference_work`."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]
