"""Iterated local transitivity (ILT) construction with full lineage maps.

One ILT step clones every node ``x`` into ``x'`` and attaches ``x'`` to ``x``
and to all neighbors of ``x``. Clones occupy ids ``m..2m-1`` where the clone
of node ``i`` is ``m + i`` (``m`` = order before the step), so originals keep
their ids across iterations.
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import Graph, GraphError, build_graph, check_int


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
