"""A fixed reference computation that gauges the host's current speed.

The benchmark host is a shared VM whose cores run 1.3-2x slower for minutes
at a time while other tenants load them.  A run's median operation time
follows those spells, so ten runs spread by up to a quarter of their median
however long each run is.  Timing this kernel right after every operation
and dividing gives the operation's cost in units of the kernel, which the
spells move far less.

The kernel has the two kinds of work the workloads spend their time on:
many small numpy calls dispatched from Python (the tape, the GRU and the
loss at small sizes) and bulk memory traffic (gathers from an array larger
than the core's own caches, and shifted-window matmuls as in ``conv2d``).
Timed against each workload over 24 s windows of a 200 s trace, the median
of the operation/kernel ratio spread 0.06, 0.05 and 0.06 of its median on
``train-64``, ``infer-256`` and ``reconstruct-128``, against 0.15, 0.06 and
0.11 for the raw operation time.  Its inputs are built once at import and it
uses no mvsgru code, so no change to the package changes its cost.
"""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(20211209)
_SMALL = _RNG.standard_normal((8, 16, 16)).astype(np.float32)
_BIG = _RNG.standard_normal(32 * 256 * 256).astype(np.float32)    # 8 MB
_INDEX = _RNG.integers(0, _BIG.size, 250_000)
_IMAGE = _RNG.standard_normal((16, 130, 130)).astype(np.float32)
_WEIGHT = _RNG.standard_normal((9, 16, 32)).astype(np.float32)
REPEATS = 2


def kernel() -> float:
    """One pass of the work, 40-80 ms on the benchmark host; returns a
    checksum so none of it is skipped."""
    x = _SMALL
    for _ in range(900):
        x = np.tanh(x * 0.9 + 0.1) - x.mean(axis=0, keepdims=True)
    total = float(x.sum())
    for _ in range(8):
        total += float(_BIG[_INDEX].sum())
    y = np.zeros((128 * 128, 32), dtype=np.float32)
    for k in range(9):
        i, j = divmod(k, 3)
        y += _IMAGE[:, i:i + 128, j:j + 128].reshape(16, -1).T @ _WEIGHT[k]
    return total + float(y.sum())


def reference_s() -> float:
    """Fastest of REPEATS timed passes of the kernel, in seconds."""
    best = float("inf")
    for _ in range(REPEATS):
        t = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t)
    return best
