"""Host-speed calibration: scale wall times to a fixed reference speed.

The benchmark shares a few cores of a host with other tenants. Their load
slows every instruction of the benchmark by up to ~1.5x, in spells that
last from a fraction of a second to tens of seconds, so raw wall times of
the same op spread by 30% between runs a minute apart. Process CPU time
moves with wall time, so it gives no escape.

A fixed calibration kernel that does not touch privlab (an interpreter
loop and a few small LAPACK eigensolves, the two kinds of work privlab
does) runs between ops. The ratio of an op's wall time to the kernel's
time measured around it stays within a few percent whatever the host load
(README.md gives the measurement). Times
are reported multiplied by ``REFERENCE_S``: the wall time the op would
take on a host where the kernel takes ``REFERENCE_S`` seconds, about its
time on an unloaded 2.1 GHz Skylake-X core. A change to privlab moves
these times as much as it moves the op; the kernel's own code never
changes between the two commits of a comparison.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.010    # kernel time that defines the reference host speed

_PY_STEPS = 20_000
_EIG_STEPS = 10
_MATRIX = np.random.default_rng(0).standard_normal((96, 96))
_MATRIX = _MATRIX + _MATRIX.T


def kernel_s() -> float:
    """Wall time of one run of the calibration kernel, in seconds."""
    start = time.perf_counter()
    total = 0
    for k in range(_PY_STEPS):
        total += k * k % 7
    for _ in range(_EIG_STEPS):
        np.linalg.eigh(_MATRIX)
    return time.perf_counter() - start


def speed(before_s: float, after_s: float) -> float:
    """Factor that takes a wall time measured between two kernel runs to
    the reference speed."""
    return REFERENCE_S / ((before_s + after_s) / 2)
