"""The machine-speed probe: a fixed piece of plain-Python work timed next to the passes.

On a shared host the speed of a CPU drifts by 20-50 %, in CPU time as well as
wall time, switching between fast and slow spells that last from seconds to
minutes. A run's medians smooth out short spells but not a slow spell that
covers much of the run. So each run also times ``kernel()`` between its
calls, four times a second of calls. The kernel uses nothing from coolnum, only this
directory's ``reference.py``, and does the same kinds of work as the
workloads: a memoised bitmask search, building adjacency lists and
breadth-first search. The kernel samples around a stretch of calls, against
``KERNEL_REF_S``, give that stretch's speed factor,
and each time metric is reported at the nominal speed at which the kernel
takes ``KERNEL_REF_S`` (see ``run.py``). A change to coolnum moves the reported times as it moves
the measured ones; a change of machine speed mostly cancels.
"""

from __future__ import annotations

import time

import reference

# nominal kernel() time, seconds: about its median on a 2.1 GHz shared vCPU
KERNEL_REF_S = 0.020
# the search and the breadth-first searches react to the host's slow spells
# a little less and a little more than the workloads do; together they match
CYCLE_N = 16
GRID_SIDE = 40
BFS_SOURCES = 12


def _grid(k: int) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(k * k)]
    for r in range(k):
        for c in range(k):
            v = r * k + c
            if c + 1 < k:
                adj[v].append(v + 1)
                adj[v + 1].append(v)
            if r + 1 < k:
                adj[v].append(v + k)
                adj[v + k].append(v)
    return adj


def kernel() -> int:
    """A fixed amount of work; returns a checksum so that none of it is skipped."""
    n = CYCLE_N
    cl, seqlen, b = reference.exhaustive([[(v - 1) % n, (v + 1) % n] for v in range(n)])
    adj = _grid(GRID_SIDE)
    far = sum(max(reference.bfs(adj, s)) for s in range(0, len(adj), len(adj) // BFS_SOURCES))
    return cl + seqlen + b + far


def timed_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
