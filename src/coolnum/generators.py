"""Generators for the graph families studied by this package.

Node numbering conventions (all 0-based ids):

* path: nodes in path order, edges ``(i, i+1)``.
* cycle: path order plus the closing edge ``(n-1, 0)``.
* grid: ``n x n`` cells in row-major order; cell coordinates are 1-indexed
  ``(row, col)`` with ``id = (row-1)*n + (col-1)``.
* complete caterpillar: spine ``0..d-1`` in path order, then one pendant per
  non-leaf spine node, appended in spine order (pendant of spine ``j`` is
  ``d + j - 1`` for ``j`` in ``1..d-2``).
* spider: head ``0``; leg ``j`` occupies ids ``1 + j*r .. 1 + j*r + r - 1``
  ordered from the head outward.
* ILT iterate (iterated local transitivity): one step clones every node
  ``x`` into ``x'`` joined to ``x`` and to all neighbours of ``x``. With
  ``m`` nodes before the step, the clone of node ``i`` is ``m + i``, so
  originals keep their ids across iterations.
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import Graph, GraphError, build_graph, check_int, known_connected


class GridCoord(NamedTuple):
    """1-indexed grid cell, matching the usual matrix convention."""

    row: int
    col: int


def grid_node(coord: GridCoord | tuple[int, int], n: int) -> int:
    """Map a 1-indexed grid coordinate to its node id in ``gen_grid(n)``."""
    row, col = coord
    for x in (row, col, n):
        check_int(x, "grid coordinate or side")
    if not (1 <= row <= n and 1 <= col <= n):
        raise GraphError(f"coordinate {(row, col)} outside 1..{n}")
    return (row - 1) * n + (col - 1)


def grid_coord(v: int, n: int) -> GridCoord:
    """Inverse of :func:`grid_node`."""
    check_int(v, "grid node")
    check_int(n, "grid side")
    if not (0 <= v < n * n):
        raise GraphError(f"node {v} outside 0..{n * n - 1}")
    return GridCoord(v // n + 1, v % n + 1)


def check_grid_side(n: int) -> None:
    """Refuse a grid side that is not an ``int`` of at least 1."""
    check_int(n, "grid side")
    if n < 1:
        raise GraphError(f"grid needs n >= 1, got {n}")


def simplicial_key(coord: GridCoord | tuple[int, int]) -> tuple[int, int]:
    """Sort key for the simplicial order: by coordinate sum, ties by row."""
    row, col = coord
    return (row + col, row)


def simplicial_order(n: int) -> list[int]:
    """All node ids of the n x n grid, smallest first in the simplicial order.

    Anti-diagonal ``s`` (coordinate sum) runs from row ``lo = max(1, s - n)``
    down to row ``min(n, s - 1)``; one row down is one column left, so its
    ids step by ``n - 1``.
    """
    check_grid_side(n)
    if n == 1:
        return [0]
    step = n - 1
    out = []
    for s in range(2, 2 * n + 1):
        lo, hi = max(1, s - n), min(n, s - 1)
        start = (lo - 1) * n + (s - lo - 1)
        out.extend(range(start, start + (hi - lo + 1) * step, step))
    return out


def gen_path(n: int) -> Graph:
    check_int(n, "path length")
    if n < 1:
        raise GraphError(f"path needs n >= 1, got {n}")
    return known_connected(build_graph(n, [(i, i + 1) for i in range(n - 1)]))


def gen_cycle(n: int) -> Graph:
    check_int(n, "cycle length")
    if n < 3:
        raise GraphError(f"cycle needs n >= 3, got {n}")
    edges = [(i, i + 1) for i in range(n - 1)]
    edges.append((n - 1, 0))
    return known_connected(build_graph(n, edges))


def gen_grid(n: int) -> Graph:
    """The n x n Cartesian grid with 4-neighbor adjacency.

    Each neighbour tuple is sorted: up, left, right, down, leaving out the
    ones past the border. A row's interior cells get theirs from one ``zip``
    of column slices; its first and last cell are built by hand. Every entry
    is taken from one list ``ids``, so each id is one int object (see
    :class:`~coolnum.graphs.Graph`).
    """
    check_grid_side(n)
    if n == 1:
        return known_connected(Graph(1, ((),)))
    ids = list(range(n * n))
    adj = []
    bottom = n * n - n
    for a in range(0, n * n, n):  # a and b: the row's first and last id
        b = a + n - 1
        up, down = a > 0, a < bottom
        cols = [ids[a:b - 1], ids[a + 2:b + 1]]  # left and right of a + 1 .. b - 1
        first, last = [ids[a + 1]], [ids[b - 1]]
        # index past the row only under its guard: ids[a - n] wraps on the top row
        if up:
            cols.insert(0, ids[a + 1 - n:b - n])
            first.insert(0, ids[a - n])
            last.insert(0, ids[b - n])
        if down:
            cols.append(ids[a + 1 + n:b + n])
            first.append(ids[a + n])
            last.append(ids[b + n])
        adj.append(tuple(first))
        adj.extend(zip(*cols))
        adj.append(tuple(last))
    return known_connected(Graph(n * n, tuple(adj)))


def gen_complete_caterpillar(d: int) -> Graph:
    """Path of ``d`` spine nodes with one pendant on every non-leaf spine node.

    Has ``2d - 2`` nodes in total.
    """
    check_int(d, "spine length")
    if d < 3:
        raise GraphError(f"complete caterpillar needs d >= 3, got {d}")
    edges = [(i, i + 1) for i in range(d - 1)]
    for j in range(1, d - 1):
        edges.append((j, d + j - 1))
    return known_connected(build_graph(2 * d - 2, edges))


def gen_spider(legs: int, r: int) -> Graph:
    """Spider with ``legs`` legs of ``r`` nodes each hanging off head node 0."""
    check_int(legs, "leg count")
    check_int(r, "leg length")
    if legs < 1:
        raise GraphError(f"spider needs legs >= 1, got {legs}")
    if r < 1:
        raise GraphError(f"spider needs leg length r >= 1, got {r}")
    edges = []
    for j in range(legs):
        first = 1 + j * r
        edges.append((0, first))
        for k in range(r - 1):
            edges.append((first + k, first + k + 1))
    return known_connected(build_graph(1 + legs * r, edges))


def spider_leg_nodes(legs: int, r: int) -> list[list[int]]:
    """Node ids of each leg of ``gen_spider(legs, r)``, ordered head-outward."""
    return [[1 + j * r + k for k in range(r)] for j in range(legs)]


class IltGraph(NamedTuple):
    """An ILT iterate together with the maps tying nodes back to the base graph.

    ``parent[u]`` is the previous-iteration node that ``u`` equals (for
    carried-over nodes) or clones. ``origin[u]`` is the base-graph node
    reached by chasing parents all the way down. ``last_clones[x]`` lists the
    clones created in the final iteration whose origin is base node ``x``.
    """

    graph: Graph
    base_n: int
    t: int
    parent: tuple[int, ...]
    origin: tuple[int, ...]
    last_clones: tuple[tuple[int, ...], ...]


def ilt(g: Graph | IltGraph) -> IltGraph:
    """Apply one ILT step, extending lineage maps if ``g`` already has them."""
    if isinstance(g, IltGraph):
        prev, base_n, t0 = g.graph, g.base_n, g.t
        prev_origin, prev_parent = g.origin, g.parent
    else:
        prev, base_n, t0 = g, g.n, 0
        prev_origin = prev_parent = tuple(range(g.n))
    m = prev.n
    edges = list(prev.edges())
    for x in range(m):
        edges.append((x, m + x))
        for w in prev.adj[x]:
            edges.append((w, m + x))
    graph = build_graph(2 * m, edges)

    # carried nodes keep their creation-time parent, so chasing parents from
    # any node walks down to its base-graph origin
    parent = prev_parent + tuple(range(m))
    origin = prev_origin + prev_origin
    grouped: list[list[int]] = [[] for _ in range(base_n)]
    for x in range(m):
        grouped[prev_origin[x]].append(m + x)
    return IltGraph(graph, base_n, t0 + 1, parent, origin, tuple(tuple(c) for c in grouped))


def ilt_t(g: Graph, t: int) -> IltGraph:
    """Apply the ILT step ``t`` times (``t >= 1``)."""
    check_int(t, "ILT step count")
    if t < 1:
        raise GraphError(f"ilt_t needs t >= 1, got {t}")
    out: Graph | IltGraph = g
    for _ in range(t):
        out = ilt(out)
    assert isinstance(out, IltGraph)
    return out
