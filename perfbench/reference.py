"""Reference answers that do not come from the coolnum solver.

Everything here works on a plain adjacency list (``list[list[int]]``) and is
written from the definitions, not from the solver's code: an exhaustive
search with no pruning, breadth-first diameters, a subset enumeration for the
isoperimetric profile, and the paper's closed forms. ``pin.py`` uses it to
cross-check the pinned answers and the benchmark's tests use it again.
"""

from __future__ import annotations

import math
from collections import deque


def exhaustive(adj: list[list[int]]) -> tuple[int, int, int]:
    """``(CL, seqlen, b)`` of a connected graph by trying every source choice.

    A state is the cooled set at the end of a round. Each round spreads once
    and then, unless every node is cooled, must add one uncooled source. The
    three answers are the most rounds, the most sources and the fewest rounds
    over all runs. The cost follows the number of reachable cooled sets, not
    ``2^n``: about three seconds for the 6x6 grid.
    """
    n = len(adj)
    full = (1 << n) - 1
    nbr = [sum(1 << w for w in adj[v]) for v in range(n)]
    memo: dict[int, tuple[int, int, int]] = {full: (0, 0, 0)}

    def rest(state: int) -> tuple[int, int, int]:
        """Rounds, sources and fewest rounds still to come from ``state``."""
        got = memo.get(state)
        if got is not None:
            return got
        after = state
        for v in range(n):
            if state >> v & 1:
                after |= nbr[v]
        if after == full:
            out = (1, 0, 1)
        else:
            most_r = most_s = 0
            least_r = n + 1
            for v in range(n):
                if not after >> v & 1:
                    r, s, lr = rest(after | 1 << v)
                    most_r, most_s, least_r = max(most_r, r), max(most_s, s), min(least_r, lr)
            out = (1 + most_r, 1 + most_s, 1 + least_r)
        memo[state] = out
        return out

    answers = [rest(1 << v) for v in range(n)]
    return (1 + max(a[0] for a in answers), 1 + max(a[1] for a in answers),
            1 + min(a[2] for a in answers))


def bfs(adj: list[list[int]], src: int) -> list[int]:
    dist = [-1] * len(adj)
    dist[src] = 0
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def diameter(adj: list[list[int]]) -> int:
    """Largest distance over all pairs; raises on a disconnected graph."""
    best = 0
    for v in range(len(adj)):
        dist = bfs(adj, v)
        if min(dist) < 0:
            raise ValueError("graph is disconnected")
        best = max(best, max(dist))
    return best


def iso_profile(adj: list[list[int]]) -> list[int]:
    """Smallest node border of a ``k``-node subset, for ``k = 0..n``."""
    n = len(adj)
    nbr = [sum(1 << w for w in adj[v]) for v in range(n)]
    reach = [0] * (1 << n)  # nodes adjacent to some member, by subset
    best = [n + 1] * (n + 1)
    best[0] = 0
    for s in range(1, 1 << n):
        low = s & -s
        reach[s] = reach[s ^ low] | nbr[low.bit_length() - 1]
        k = bin(s).count("1")
        best[k] = min(best[k], bin(reach[s] & ~s).count("1"))
    return best


def iso_upper(profile: list[int]) -> tuple[int, list[int]]:
    """Recurrence ``x_1 = 1``, ``x_{i+1} = x_i + phi(x_i) + 1`` until ``x_I >= n``."""
    n = len(profile) - 1
    xs = [1]
    while xs[-1] < n:
        xs.append(xs[-1] + profile[xs[-1]] + 1)
    return len(xs), xs


# closed forms stated by the paper (the three refuted claims are not here)

def cl_path(n: int) -> int:
    return (n + 2) // 2


def cl_cycle(n: int) -> int:
    return (n + 4) // 3


def cl_caterpillar(d: int) -> int:
    return d


def cl_ilt_path(n: int, t: int) -> int:
    return (2 * n + 2) // 3 + (0 if t == 1 and n % 3 == 2 else 1)


def burn_path(n: int) -> int:
    """Burning number of a path or cycle on ``n`` nodes: ``ceil(sqrt(n))``."""
    return math.isqrt(n - 1) + 1


def spider_lower(m: int, r: int) -> int | None:
    """Certified lower bound for the spider strategy below the log threshold."""
    if m >= (r).bit_length():  # m >= ceil(log2(r + 1)): the refuted exact case
        return None
    return 2 * sum((r + 1) // 2**i for i in range(1, m + 1))
