"""Immutable simple undirected graphs and small-graph distance metrics.

Nodes are dense 0-based integer ids. All processes, solvers, and bounds in
this package operate on the :class:`Graph` defined here.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate
from operator import add, or_
from typing import Iterable, Iterator

UNREACHABLE = -1
# placements the orbit search may spend per node; past this budget the
# nodes not yet merged stay as their own orbits
_ORBIT_STEPS_PER_NODE = 64


class GraphError(ValueError):
    """Malformed graph input: bad endpoint, self-loop, or bad parameter."""


class DisconnectedGraphError(GraphError):
    """An operation that requires a connected graph got a disconnected one."""


class GraphTooLargeError(ValueError):
    """Input exceeds the solver's node cap; raise the cap explicitly to proceed."""

    def __init__(self, n: int, cap: int):
        self.n = n
        self.cap = cap
        super().__init__(f"graph has {n} nodes, solver cap is {cap}")


class TimeBudgetExceededError(RuntimeError):
    """The optional wall-clock budget of a solver ran out mid-search."""


class StrategyError(ValueError):
    """A strategy was asked to run outside its hypotheses."""


class Graph:
    """Undirected graph on nodes ``0..n-1``.

    Adjacency is stored per node as a sorted tuple of neighbor ids. Instances
    are immutable after construction and safe to share across threads and
    processes.

    Every occurrence of node ``v`` in ``adj`` is one and the same int object.
    CPython shares only the ints -5..256, so a build that computed each
    entry afresh would hold one object per edge end, and a set probe such
    as ``w in cooled`` would find an equal key that is a different object
    and fall through from the identity test to a compare. Both builders,
    :func:`build_graph` and ``generators.gen_grid``, take every entry from
    one list of the ids made per call.

    Graphs compare and hash by ``(n, adj)``. Assignment raises; the cached
    properties below, and :func:`known_connected`'s preset, are stored in
    the instance ``__dict__`` directly.
    """

    n: int
    adj: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, adj: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", adj)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Graph:
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to Graph.{name}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete Graph.{name}")

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    @cached_property
    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as ``(u, v)`` with ``u < v``, sorted."""
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        """Per-node neighborhood bitmasks; meant for graphs small enough to search."""
        return tuple(sum(1 << w for w in nbrs) for nbrs in self.adj)

    @cached_property
    def is_connected(self) -> bool:
        if self.n == 0:
            return False
        return bfs_distances(self, 0).count(UNREACHABLE) == 0

    @cached_property
    def distances(self) -> tuple[tuple[int, ...], ...]:
        """All-pairs hop distances (``UNREACHABLE`` across components); meant
        for graphs small enough to search."""
        return tuple(tuple(bfs_distances(self, v)) for v in range(self.n))

    @cached_property
    def balls(self) -> tuple[tuple[int, ...], ...]:
        """``balls[v][r]``: bitmask of the nodes within ``r`` hops of ``v``, for
        ``r`` in ``0..`` one past the greatest finite distance (the diameter
        of a connected graph), so that every ball has a radius 1 and its last
        entry is ``v``'s component; meant for graphs small enough to search."""
        top = max((d for row in self.distances for d in row), default=0)
        table = []
        for row in self.distances:
            rings = [0] * (top + 2)
            for w, d in enumerate(row):
                if d != UNREACHABLE:
                    rings[d] |= 1 << w
            table.append(tuple(accumulate(rings, or_)))
        return tuple(table)

    @cached_property
    def orbits(self) -> tuple[int, ...]:
        """For each node, the lowest id of its automorphism orbit, as far as
        the bounded search found it; meant for graphs small enough to search.

        Two nodes share an entry only when the search built an automorphism
        mapping one to the other (or they are twins, which a transposition
        swaps). An orbit the search misses stays split, so a caller that
        searches one node per entry loses only speed.
        """
        return _find_orbits(self)

    @cached_property
    def biconnected(self) -> bool:
        """Whether the graph is connected and no single node's removal
        disconnects it, as ``networkx.is_biconnected`` has it: ``K_1`` is not
        and ``K_2`` is. So every separator of a biconnected graph holds at
        least 2 nodes, and some separator of any other connected one holds 1.

        One depth-first search from node 0 with low links (Hopcroft and
        Tarjan, CACM 16, 1973), kept on a stack, not the call stack:
        ``low[v]`` is the least depth that an edge from ``v``'s subtree
        reaches. A node ``u`` other than the root cuts off its tree child
        ``v`` when ``low[v] >= depth[u]``; the tree edge back to ``u``
        counts too, but reaches only ``depth[u]``, so the test reads the
        same. The root is a cut vertex when it has two tree children.
        """
        n, adj = self.n, self.adj
        if n < 2 or not self.is_connected:
            return False
        depth = [0] + [-1] * (n - 1)
        low = [0] * n
        stack = [(0, iter(adj[0]))]
        children = 0  # the root's tree children
        while stack:
            v, nbrs = stack[-1]
            for w in nbrs:
                if depth[w] < 0:
                    depth[w] = low[w] = depth[v] + 1
                    stack.append((w, iter(adj[w])))
                    break
                if depth[w] < low[v]:
                    low[v] = depth[w]
            else:  # v's subtree is done
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    if u == 0:
                        children += 1
                    elif low[v] >= depth[u]:
                        return False
                    elif low[v] < low[u]:
                        low[u] = low[v]
        return children < 2

    def __repr__(self) -> str:  # keep pytest output short
        return f"Graph(n={self.n}, m={self.num_edges})"


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a validated graph from an edge list.

    Endpoints must be ``int``s in ``0..n-1`` and differ; duplicate edges (in
    either orientation) collapse to a single edge. Connectivity is not
    required. The neighbour sets hold ``ids[v]``, not the endpoint itself, so
    that each id is one object however the edge list made its ints.
    """
    check_int(n, "node count")
    if n < 0:
        raise GraphError(f"node count must be nonnegative, got {n}")
    ids = list(range(n))
    nbrs: list[set[int]] = [set() for _ in ids]
    for u, v in edges:
        # a bool or a float is no node id, even where it equals one
        if type(u) is not int or type(v) is not int:
            raise GraphError(f"edge ({u!r}, {v!r}) has an endpoint that is not an int")
        if not (0 <= u < n) or not (0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise GraphError(f"self-loop at node {u}")
        nbrs[u].add(ids[v])
        nbrs[v].add(ids[u])
    return Graph(n, tuple(tuple(sorted(s)) for s in nbrs))


def check_int(value: object, what: str) -> None:
    """Refuse ``value`` unless it is an ``int``; a bool or a float equal to one is not."""
    if type(value) is not int:
        raise GraphError(f"{what} {value!r} is not an int")


def known_connected(g: Graph) -> Graph:
    """``g`` with ``is_connected`` preset to true, for a generator whose
    graphs are connected by construction, so no caller pays its BFS."""
    object.__setattr__(g, "is_connected", True)  # where the cached property would store it
    return g


def bfs_distances(g: Graph, v: int) -> list[int]:
    """Hop distances from ``v``; unreachable nodes get ``UNREACHABLE`` (-1)."""
    check_int(v, "start node")
    if not (0 <= v < g.n):
        raise GraphError(f"start node {v} outside 0..{g.n - 1}")
    dist = [UNREACHABLE] * g.n
    dist[v] = 0
    queue = [v]
    for u in queue:  # the list grows behind the loop, in BFS order
        du = dist[u] + 1
        for w in g.adj[u]:
            if dist[w] == UNREACHABLE:
                dist[w] = du
                queue.append(w)
    return dist


def eccentricity(g: Graph, v: int) -> int:
    """Greatest distance from ``v`` to any node. Requires a connected graph."""
    dist = bfs_distances(g, v)
    if UNREACHABLE in dist:
        raise DisconnectedGraphError("eccentricity is undefined on a disconnected graph")
    return max(dist)


def diameter(g: Graph) -> int:
    """Largest shortest-path distance over all node pairs.

    Computed by :func:`diameter_sweep` (iFUB). Raises
    :class:`DisconnectedGraphError` on disconnected input.
    """
    return diameter_sweep(g)[0]


def diameter_sweep(g: Graph) -> tuple[int, int, int, list[int]]:
    """The diameter, the lowest diametral end, and the far end ``a`` of the
    double sweep from node 0, the lowest node farthest from 0, with the
    distances from ``a``.

    iFUB (Crescenzi, Grossi, Habib, Lanzi and Marino, 2013). A 4-sweep (a
    double sweep from node 0, then one from the node it shows as most
    central) picks a centre ``u``; BFS from ``u`` sorts the nodes into
    levels ``0..e``. The nodes are then BFS'd from level ``e`` downward,
    keeping ``lb``, the greatest eccentricity found, and the search stops
    at the first node of a level ``i`` with ``lb > 2i``. Every node not
    BFS'd by then lies in levels ``0..i``, so two of them are at most
    ``2i < lb`` apart, and a pair with a BFS'd node is at most ``lb`` apart.
    So ``lb`` is the diameter.

    The ends are complete: of a diametral pair, at least one node was BFS'd
    (two that were not are less than ``lb`` apart), and from it the other
    lies at distance ``lb``. So the lowest end is the least, over BFS'd
    nodes of eccentricity ``lb``, of the node and of the first node at
    distance ``lb`` from it.

    No node is BFS'd twice. Paths and grids take a few BFS runs, sparse
    trees-plus-edges tens. The worst case is a graph whose nodes all have
    about the same eccentricity: a vertex-transitive one, such as a cycle,
    BFS's about ``n / 2`` fringe nodes, and a random graph of diameter 6 to
    8 up to nearly all ``n``.

    Only the row from ``a`` is returned: keeping every row would cost
    ``n`` lists of ``n`` on a graph that BFS's nearly every node.

    Raises :class:`DisconnectedGraphError` on disconnected input.
    """
    if g.n == 0 or not g.is_connected:
        raise DisconnectedGraphError("diameter is undefined on a disconnected graph")
    lb = end = -1
    visited: set[int] = set()

    def visit(v: int) -> list[int]:
        nonlocal lb, end
        dist = bfs_distances(g, v)
        visited.add(v)
        ecc = max(dist)
        first = min(v, dist.index(ecc))  # every node at distance ecc has eccentricity >= ecc
        if ecc > lb:
            lb, end = ecc, first
        elif ecc == lb:
            end = min(end, first)
        return dist

    sweeps: dict[int, list[int]] = {}
    low = total = [0] * g.n  # per node, greatest and total distance from the swept nodes
    u = 0
    for _ in range(2):
        for _ in range(2):  # from u to its farthest node
            if u not in sweeps:
                dist = sweeps[u] = visit(u)
                low = [a if a > b else b for a, b in zip(low, dist)]
                total = list(map(add, total, dist))
            u = sweeps[u].index(max(sweeps[u]))
        # the most central node by the sweeps: least greatest distance (a lower
        # bound on its eccentricity), then least total distance
        u = min(zip(low, total, range(g.n)))[2]
    levels = sweeps[u] if u in sweeps else visit(u)
    for w in sorted(range(g.n), key=levels.__getitem__, reverse=True):
        if lb > 2 * levels[w]:
            break
        if w not in visited:
            visit(w)
    a = sweeps[0].index(max(sweeps[0]))
    return lb, end, a, sweeps[a]


def _find_orbits(g: Graph) -> tuple[int, ...]:
    """Automorphism orbits by twins, then a bounded backtracking search.

    Twins (equal open or closed neighbourhoods) merge outright. Then each
    node ``v`` is tried against each lower root ``u`` with its signature,
    the sorted row of its distances, which every automorphism keeps: a
    search places the nodes by distance from ``u``, the unreachable ones
    last, ``u`` on ``v`` and each other node on a neighbour of the image of
    a placed neighbour (on any node if none is placed), and backtracks on a
    list, not the call stack. Each automorphism found merges all its
    cycles. After ``_ORBIT_STEPS_PER_NODE * n`` placements the search stops.
    """
    n, adj, masks = g.n, g.adj, g.neighbor_masks
    root = list(range(n))  # union-find; each set's root is its lowest id

    def find(v: int) -> int:
        while root[v] != v:
            v = root[v]
        return v

    def merge(u: int, v: int) -> None:
        u, v = find(u), find(v)
        root[max(u, v)] = min(u, v)

    for key in (lambda v: adj[v], lambda v: frozenset(adj[v]) | {v}):
        first: dict = {}
        for v in range(n):
            merge(first.setdefault(key(v), v), v)

    ids: dict[tuple[int, ...], int] = {}
    sig = [ids.setdefault(tuple(sorted(row)), len(ids)) for row in g.distances]
    plans: dict[int, list[tuple[int, list[int]]]] = {}
    budget = _ORBIT_STEPS_PER_NODE * n

    def send(u: int, v: int) -> list[int] | None:
        """An automorphism sending ``u`` to ``v``; None if none is found in the budget."""
        nonlocal budget
        if u not in plans:  # the nodes in placing order, each with its placed neighbours
            dist = g.distances[u]
            order = sorted(range(n), key=lambda x: (dist[x] == UNREACHABLE, dist[x]))
            at = {x: i for i, x in enumerate(order)}
            plans[u] = [(x, [y for y in adj[x] if at[y] < at[x]]) for x in order]
        steps = plans[u]
        image, used = [v] * n, 1 << v
        tries: list = [None] * n  # per position, its untried candidates
        i = 1  # the position being placed
        while 0 < i < n and budget > 0:
            x, nbrs = steps[i]
            if tries[i] is None:
                tries[i] = iter(adj[image[nbrs[0]]] if nbrs else range(n))
            # w's placed neighbours are the images of x's, so every pair of
            # placed nodes keeps its edge or non-edge, and a complete map is
            # an automorphism with no edge pass of its own
            seen = sum(1 << image[y] for y in nbrs)
            w = next((w for w in tries[i]
                      if not used >> w & 1 and sig[w] == sig[x] and masks[w] & used == seen), None)
            if w is None:
                tries[i] = None
                i -= 1
                used ^= 1 << image[steps[i][0]]
            else:
                budget -= 1
                image[x] = w
                used |= 1 << w
                i += 1
        return image if i == n else None

    for v in range(n):
        for u in range(v):
            if budget <= 0 or find(v) != v:
                break
            if sig[u] == sig[v] and find(u) == u and (perm := send(u, v)):
                for x, w in enumerate(perm):
                    merge(x, w)
    return tuple(find(v) for v in range(n))
