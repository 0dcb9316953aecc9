"""Machine speed, measured by a fixed reference kernel.

On the 2-vCPU Xeon VM this benchmark was defined on, the speed of the
machine changed by up to 1.6x over seconds to minutes, on both vCPUs at
once, with no steal time and with CPU time tracking wall time.  Raw wall
times of separate runs differed by more than any useful bound.  So the
benchmark times this kernel, which runs no posetglue code, before and after
every certificate, and rescales the certificate's wall time to the speed at
which the kernel takes ``REFERENCE_S``.
"""

from __future__ import annotations

import gc
import statistics
import time

#: The kernel's median time as measured when the benchmark was defined.
REFERENCE_S = 0.0055


def reference() -> int:
    """Fixed interpreter work of the kinds posetglue does: exact integer row
    operations on lists, and an index of relation pairs built from tuples,
    sets and dicts, with a working set of a few hundred kilobytes."""
    n = 24
    rows = [[(i * 7 + j * 13) % 11 - 5 for j in range(n)] for i in range(n)]
    for c in range(n):
        p = next((i for i in range(c, n) if rows[i][c]), None)
        if p is None:
            continue
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c]
        for i in range(c + 1, n):
            f = rows[i][c]
            if f:
                rows[i] = [(a * pivot[c] - f * b) % 1000003 for a, b in zip(rows[i], pivot)]
    pairs = [(i % 211, (i * 7) % 223) for i in range(12000)]
    index = {}
    for a, b in pairs:
        index.setdefault(a, set()).add(b)
    classes = {frozenset(v) for v in index.values()}
    return len(classes) + sum(map(sum, rows))


def factor() -> float:
    """REFERENCE_S over the kernel's median time now, of three runs.

    The collector is off while the kernel runs, so that the program's heap
    cannot change the kernel's time.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            reference()
            times.append(time.perf_counter() - start)
    finally:
        if was_enabled:
            gc.enable()
    return REFERENCE_S / statistics.median(times)
