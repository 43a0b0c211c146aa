"""Immutable simple undirected graphs and small-graph distance metrics.

Nodes are dense 0-based integer ids. All processes, solvers, and bounds in
this package operate on the :class:`Graph` defined here.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import accumulate
from operator import add, or_
from typing import Iterable, Iterator

UNREACHABLE = -1
# colour refinements the orbit search may spend per node; past this budget
# the nodes not yet merged stay as their own orbits
_ORBIT_REFINEMENTS_PER_NODE = 4


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

        Two nodes share an entry only when an automorphism mapping one to the
        other was checked edge by edge (or they are twins, which a
        transposition swaps). An orbit the search misses stays split, so a
        caller that searches one node per entry loses only speed.
        """
        return _find_orbits(self)

    @cached_property
    def connectivity(self) -> int:
        """Vertex connectivity ``κ``: the fewest nodes whose removal leaves a
        disconnected graph, ``n - 1`` for a complete graph and 0 for a
        disconnected one; meant for graphs small enough to search.

        Esfahanian and Hakimi (Networks 14, 1984): with ``v`` a node of least
        degree, some minimum separator misses ``v`` or one of its
        neighbours, so ``κ`` is the least local connectivity between ``v``
        and each node not adjacent to it, or between two nonadjacent
        neighbours of ``v``, if that is below ``v``'s degree. Each local
        connectivity is counted only up to the least found so far, and a
        connected graph stops at 1.
        """
        n, adj = self.n, self.adj
        if not self.is_connected:
            return 0
        v = min(range(n), key=self.degree)
        best = len(adj[v])
        if best == n - 1:
            return best  # v is adjacent to every node, and so is every other node
        nbrs = self.neighbor_masks
        pairs = [(v, w) for w in range(n) if w != v and not nbrs[v] >> w & 1]
        pairs += [(x, y) for i, x in enumerate(adj[v]) for y in adj[v][i + 1:]
                  if not nbrs[x] >> y & 1]
        for x, y in pairs:
            if best == 1:
                break
            best = _local_connectivity(adj, x, y, best)
        return best

    def __repr__(self) -> str:  # keep pytest output short
        return f"Graph(n={self.n}, m={self.num_edges})"


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a validated graph from an edge list.

    Endpoints must be ``int``s in ``0..n-1`` and differ; duplicate edges (in
    either orientation) collapse to a single edge. Connectivity is not
    required. The neighbour sets hold ``ids[v]``, not the endpoint itself, so
    that each id is one object however the edge list made its ints.
    """
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


def known_connected(g: Graph) -> Graph:
    """``g`` with ``is_connected`` preset to true, for a generator whose
    graphs are connected by construction, so no caller pays its BFS."""
    object.__setattr__(g, "is_connected", True)  # where the cached property would store it
    return g


def bfs_distances(g: Graph, v: int) -> list[int]:
    """Hop distances from ``v``; unreachable nodes get ``UNREACHABLE`` (-1)."""
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


def _local_connectivity(adj: tuple[tuple[int, ...], ...], x: int, y: int, limit: int) -> int:
    """The number of internally disjoint paths between the nonadjacent nodes
    ``x`` and ``y``, counted up to ``limit``.

    Unit-capacity augmenting paths (Menger) on the split graph: node ``v``
    enters at ``2v`` and leaves at ``2v + 1`` through one unit arc, and an
    edge ``vw`` gives the unit arcs ``2v + 1 -> 2w`` and ``2w + 1 -> 2v``.
    A flow runs from ``x``'s exit to ``y``'s entry, so each path takes at
    most one unit through any other node. It starts from the paths through
    one common neighbour each.
    """
    flow: list[set[int]] = [set() for _ in range(2 * len(adj))]  # flow[a]: where a's units go
    source, sink = 2 * x + 1, 2 * y
    common = set(adj[x]).intersection(adj[y])
    for c in common:
        flow[source].add(2 * c)
        flow[2 * c].add(2 * c + 1)
        flow[2 * c + 1].add(sink)
    for paths in range(len(common), limit):
        parent = {source: source}
        queue = [source]
        for a in queue:  # breadth first over the residual arcs
            v = a >> 1
            if a & 1:  # an exit: on to each neighbour's entry, or back into v
                steps = [2 * w for w in adj[v] if 2 * w not in flow[a]]
                if a in flow[a - 1]:
                    steps.append(a - 1)
            else:  # an entry: through v, or back along an arc that enters it
                steps = [2 * w + 1 for w in adj[v] if a in flow[2 * w + 1]]
                if a + 1 not in flow[a]:
                    steps.append(a + 1)
            for b in steps:
                if b not in parent:
                    parent[b] = a
                    queue.append(b)
            if sink in parent:
                break
        else:
            return paths
        b = sink
        while b != source:
            a = parent[b]
            if a in flow[b]:
                flow[b].remove(a)
            else:
                flow[a].add(b)
            b = a
    return limit


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
