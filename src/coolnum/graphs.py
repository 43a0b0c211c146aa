"""Immutable simple undirected graphs and small-graph distance metrics.

Nodes are dense 0-based integer ids. All processes, solvers, and bounds in
this package operate on the :class:`Graph` defined here.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import or_
from typing import Iterable, Iterator

UNREACHABLE = -1
# colour refinements the orbit search may spend per node; past this budget
# the nodes not yet merged stay as their own orbits
_ORBIT_REFINEMENTS_PER_NODE = 4


class GraphError(ValueError):
    """Malformed graph input: bad endpoint, self-loop, or bad parameter."""


class DisconnectedGraphError(GraphError):
    """An operation that requires a connected graph got a disconnected one."""


@dataclass(frozen=True)
class Graph:
    """Undirected graph on nodes ``0..n-1``.

    Adjacency is stored per node as a sorted tuple of neighbor ids. Instances
    are immutable after construction and safe to share across threads and
    processes.
    """

    n: int
    adj: tuple[tuple[int, ...], ...]

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adj[v]

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
        ``r`` in ``0..`` the greatest finite distance (the diameter of a
        connected graph); meant for graphs small enough to search."""
        top = max((d for row in self.distances for d in row), default=0)
        table = []
        for row in self.distances:
            rings = [0] * (top + 1)
            for w, d in enumerate(row):
                if d != UNREACHABLE:
                    rings[d] |= 1 << w
            table.append(tuple(accumulate(rings, or_)))
        return tuple(table)

    @cached_property
    def orbits(self) -> tuple[int, ...]:
        """For each node, the lowest id of its automorphism orbit, as far as
        the bounded search found it; meant for graphs small enough to search.

        Two nodes share an entry only when an automorphism mapping one to the
        other was checked edge by edge (or they are twins, which a
        transposition swaps). An orbit the search misses stays split, so a
        caller that searches one node per entry loses only speed.
        """
        return _find_orbits(self)

    def __repr__(self) -> str:  # keep pytest output short
        return f"Graph(n={self.n}, m={self.num_edges})"


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a validated graph from an edge list.

    Endpoints must lie in ``0..n-1`` and differ; duplicate edges (in either
    orientation) collapse to a single edge. Connectivity is not required.
    """
    if n < 0:
        raise GraphError(f"node count must be nonnegative, got {n}")
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n) or not (0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise GraphError(f"self-loop at node {u}")
        nbrs[u].add(v)
        nbrs[v].add(u)
    return Graph(n, tuple(tuple(sorted(s)) for s in nbrs))


def bfs_distances(g: Graph, v: int) -> list[int]:
    """Hop distances from ``v``; unreachable nodes get ``UNREACHABLE`` (-1)."""
    if not (0 <= v < g.n):
        raise GraphError(f"start node {v} outside 0..{g.n - 1}")
    dist = [UNREACHABLE] * g.n
    dist[v] = 0
    queue = deque([v])
    while queue:
        u = queue.popleft()
        for w in g.adj[u]:
            if dist[w] == UNREACHABLE:
                dist[w] = dist[u] + 1
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

    Raises :class:`DisconnectedGraphError` on disconnected input.
    """
    if g.n == 0 or not g.is_connected:
        raise DisconnectedGraphError("diameter is undefined on a disconnected graph")
    return max(eccentricity(g, v) for v in range(g.n))


def _rank(sigs: list) -> list[int]:
    """Number each signature by its rank among the distinct ones."""
    rank = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
    return [rank[sig] for sig in sigs]


def _refine(adj: tuple[tuple[int, ...], ...], colours: list[int]) -> list[int]:
    """Colour refinement (1-WL) of ``colours`` to a stable colouring.

    Each pass recolours a node by its colour and the sorted colours of its
    neighbours, numbered by rank, so labels never depend on node ids: an
    isomorphism between two input colourings maps the refined ones onto each
    other too.
    """
    while True:
        refined = _rank([(colours[v], tuple(sorted(colours[w] for w in adj[v])))
                         for v in range(len(adj))])
        if len(set(refined)) == len(set(colours)):
            return refined
        colours = refined


def _individualize(adj: tuple[tuple[int, ...], ...], colours: list[int], v: int) -> list[int]:
    """``colours`` with ``v`` given a colour of its own, refined."""
    colours = list(colours)
    colours[v] = -1
    return _refine(adj, colours)


def _find_orbits(g: Graph) -> tuple[int, ...]:
    """Automorphism orbits by twins, then individualization and refinement.

    Twins (equal open or closed neighbourhoods) merge outright. Then each
    node is tested against the lower roots of its refined colour class: one
    side individualizes the lowest node of the first non-singleton cell, the
    other each node of the matching cell in turn, until the colourings are
    discrete and pair the nodes into a permutation. A permutation that maps
    every edge onto an edge merges all its cycles. After
    ``_ORBIT_REFINEMENTS_PER_NODE * n`` refinements the search stops.
    """
    n, adj, masks = g.n, g.adj, g.neighbor_masks
    edges = list(g.edges())
    root = list(range(n))  # union-find; each set's root is its lowest id

    def find(v: int) -> int:
        while root[v] != v:
            v = root[v]
        return v

    def merge(u: int, v: int) -> None:
        u, v = find(u), find(v)
        root[max(u, v)] = min(u, v)

    def extend(left: list[int], right: list[int]) -> list[int] | None:
        """An automorphism carrying each ``left`` colour to the same ``right`` colour."""
        nonlocal budget
        if sorted(left) != sorted(right):
            return None
        cell = min((c for c, k in Counter(left).items() if k > 1), default=None)
        if cell is None:  # discrete: each colour names one node on each side
            at = {c: w for w, c in enumerate(right)}
            perm = [at[c] for c in left]
            return perm if all(masks[perm[u]] >> perm[v] & 1 for u, v in edges) else None
        budget -= 1
        narrowed = _individualize(adj, left, left.index(cell))
        for w in range(n):
            if right[w] == cell and budget > 0:
                budget -= 1
                perm = extend(narrowed, _individualize(adj, right, w))
                if perm is not None:
                    return perm
        return None

    for key in (lambda v: adj[v], lambda v: frozenset(adj[v]) | {v}):
        first: dict = {}
        for v in range(n):
            merge(first.setdefault(key(v), v), v)

    budget = _ORBIT_REFINEMENTS_PER_NODE * n
    base = _refine(adj, _rank([tuple(sorted(row)) for row in g.distances]))
    cells: dict[int, list[int]] = {}
    for v in range(n):
        cells.setdefault(base[v], []).append(v)
    for cell in cells.values():
        for i, b in enumerate(cell):
            for a in cell[:i]:
                if find(b) != b or budget <= 0:
                    break
                if find(a) == a:
                    budget -= 2
                    perm = extend(_individualize(adj, base, a), _individualize(adj, base, b))
                    if perm is not None:
                        for v, w in enumerate(perm):
                            merge(v, w)
    return tuple(find(v) for v in range(n))
