"""The benchmark's yardstick for host speed: fixed pure-Python and numpy work,
independent of dpdistinct.

Usage: python reference.py

``run.py`` starts this script as a child around every timed child, so that
each run also measures how fast the host was while it ran, and scales its
timings to a host on which this child takes ``run.REF_NOMINAL_S``.  It also
calls ``loops`` in-process for ``calib_s``.

The work resembles the CLI's: scalar numpy draws from a Python loop, text
parsed and formatted row by row, dict updates, and numpy passes over arrays
larger than the CPU caches.  A shared host does not slow every kind of work
alike, and a cache-resident loop alone tracked the CLI's slow spells less
well.
"""

from __future__ import annotations

import time

import numpy as np


def loops() -> dict:
    """Seconds taken by the fixed pure-Python work and the fixed numpy work."""
    t0 = time.perf_counter()
    g = np.random.default_rng(0)
    acc = 0.0
    for _ in range(30_000):
        acc += g.laplace(0.0, 2.0)
    text = " ".join(str(i * 7919 % 100_003) for i in range(80_000))
    vals = [int(t) for t in text.split()]
    rows = "\n".join(f"{i},{v},{v * 0.5:.6g}" for i, v in enumerate(vals))
    counts: dict[int, int] = {}
    for v in vals:
        counts[v] = counts.get(v, 0) + 1
    py = time.perf_counter() - t0
    t0 = time.perf_counter()
    a = g.random(4_000_000)
    idx = g.integers(0, a.size, 1_000_000)
    for _ in range(2):
        a[idx].sum()
        np.cumsum(a)
        np.sort(a[:500_000])
    assert len(rows) > len(text)
    return {"python_s": py, "numpy_s": time.perf_counter() - t0}


if __name__ == "__main__":
    loops()
