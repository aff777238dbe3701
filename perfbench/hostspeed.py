"""The host's current speed, read from a fixed pure-Python reference kernel.

On a shared virtual machine the same code on the same inputs runs up to
1.7x slower or faster from one second or minute to the next, for every kind
of Python work alike and in CPU time as much as in wall time, and no
statistic over one run's samples removes that.  The benchmark therefore
times this kernel, which uses no gbtc code, between the operations it
measures: one kernel right before each operation and one after the last.
Each operation's time is scaled by ``NOMINAL_S / k``, where ``k`` is the
median of the kernel times nearest to it (``HALF`` before and ``HALF``
after): the time the operation would take on a host where the kernel takes
``NOMINAL_S``.  A change to gbtc moves the scaled times in full; a change
of host speed moves the kernel and the operations alike and cancels out.
The raw times are printed beside them.
"""

from __future__ import annotations

import statistics
import time

NOMINAL_S = 0.015  # the kernel's usual median time on a 2-vCPU Xeon VM, Python 3.11
HALF = 3  # kernels on each side of an operation that set its scale


def kernel() -> int:
    """Tuples, dicts, sets, sorting and integer arithmetic, as in gbtc's
    combinatorial code; about 15 ms of one core."""
    d: dict[tuple[int, int, int], int] = {}
    for i in range(20000):
        key = (i % 997, i % 13, i >> 3)
        d[key] = d.get(key, 0) + i
    seen = set()
    for k, v in sorted(d.items(), key=lambda kv: kv[1]):
        seen.add(k[0] ^ v)
    return len(seen)


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scaled(times: list[float], kernels: list[float]) -> list[float]:
    """``times[i]`` on the nominal host, where ``kernels[i]`` was timed just
    before operation i and ``kernels[i + 1]`` just after it."""
    if len(kernels) != len(times) + 1:
        raise ValueError(f"{len(times)} operations need {len(times) + 1} kernels, not {len(kernels)}")
    return [
        t * NOMINAL_S / statistics.median(kernels[max(0, i + 1 - HALF) : i + 1 + HALF])
        for i, t in enumerate(times)
    ]
