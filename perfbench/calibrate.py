"""A fixed pure-Python kernel that measures how fast the host runs right now.

The benchmark's host is a few vCPUs of a shared machine whose speed swings
by up to a half within seconds and drifts for minutes, so two runs of the
same code can differ by a third.  The worker times ``kernel`` between every
two items, in the same process; an item's latency is then scaled by
``REFERENCE_S`` over the mean of the kernel times on either side of it
(``adjusted``), which reads as the item's time on a host running the kernel
in ``REFERENCE_S``.  The kernel does what the engine's exact layer does
most: products of sparse two-variable Laurent polynomials held as dicts of
exponent pairs with growing integer coefficients.  It does not import the
package, so no change to the package moves it.
"""

from __future__ import annotations

import time

#: the kernel's median time on a shared 2-vCPU x86_64 host under CPython
#: 3.11.7 (its fastest runs there take 0.0025 s)
REFERENCE_S = 0.0045

_FACTOR = {
    (i, j): (3 * i - 5 * j) % 13 - 6 for i in range(-5, 6) for j in range(-4, 5) if (i + j) % 2 == 0
}


def kernel():
    p = {(0, 0): 1}
    for _ in range(3):
        out = {}
        for (qa, ta), ca in p.items():
            for (qb, tb), cb in _FACTOR.items():
                k = (qa + qb, ta + tb)
                s = out.get(k, 0) + ca * cb
                if s == 0:
                    out.pop(k, None)
                else:
                    out[k] = s
        p = out
    return p


def time_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def adjusted(latencies, kernel_times):
    """Latencies scaled to the reference speed.

    ``kernel_times`` has one more entry than ``latencies``: the kernel ran
    before the first item, between every two items and after the last.
    """
    return [
        x * 2 * REFERENCE_S / (kernel_times[i] + kernel_times[i + 1])
        for i, x in enumerate(latencies)
    ]
