"""Machine-speed probe: fixed work timed between ops, to correct op times.

On a shared host the speed a process gets drifts by up to a factor of two over
tens of seconds, which is longer than a run, so raw wall times of two runs differ
by the host's load more than by the program.  The benchmark therefore times
this fixed kernel, which does the kinds of work qmsep does (interpreted
Python with dicts and small objects, small numpy array ops, a LAPACK
eigensolve), before and after every stretch of about ``PROBE_EVERY_S``
seconds of ops.  Each op's wall time is scaled by ``NOMINAL_S`` over the
mean kernel time around its stretch, which states it in seconds of a host
running at the nominal speed.  The kernel is the benchmark's own code, so a
change to qmsep does not move it.
"""

from __future__ import annotations

import time

import numpy as np

# kernel time on a quiet 2-core x86-64 host, one BLAS thread
NOMINAL_S = 0.02
PROBE_EVERY_S = 0.5

_rng = np.random.default_rng(20230123)
_H = _rng.normal(size=(48, 48)) + 1j * _rng.normal(size=(48, 48))
_H = _H + _H.conj().T
_G = (_rng.normal(size=(8, 8)) + 1j * _rng.normal(size=(8, 8))) / 8


def kernel() -> int:
    total = 0
    for _ in range(20):
        total += int(np.linalg.eigh(_H)[0][-1] > 0)
    b = _G
    for _ in range(2000):
        b = np.einsum("ij,jk->ik", b, _G)
    d = {}
    for i in range(75_000):
        d[i % 101] = d.get(i % 101, 0) + i
    return total + len(d)


def probe() -> float:
    """Wall time of one kernel run."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def factor(before: float, after: float) -> float:
    """Scale from wall time to nominal-speed time for work done between
    two probes."""
    return NOMINAL_S / (0.5 * (before + after))
