from __future__ import annotations

from collections import Counter

import pytest

from coolnum.generators import gen_cycle, gen_path, gen_spider, ilt, ilt_t
from coolnum.graphs import GraphError, bfs_distances, build_graph, diameter

BASES = [
    gen_path(1),
    gen_path(3),
    gen_path(6),
    gen_cycle(5),
    gen_spider(3, 2),
    build_graph(3, [(0, 1), (0, 2), (1, 2)]),  # K3
]


def test_p3_counts():
    out = ilt(gen_path(3))
    assert out.graph.n == 6
    assert out.graph.num_edges == 9


def test_k1_becomes_p2():
    out = ilt(gen_path(1))
    assert out.graph.n == 2
    assert list(out.graph.edges()) == [(0, 1)]


@pytest.mark.parametrize("g", BASES)
def test_edge_recurrence(g):
    out = ilt(g)
    assert out.graph.num_edges == 3 * g.num_edges + g.n


@pytest.mark.parametrize("g", BASES)
def test_clone_adjacency(g):
    out = ilt(g)
    m = g.n
    for x in range(m):
        want = {x} | set(g.adj[x])
        got = set(out.graph.adj[m + x])
        assert got == want


def test_order_doubles_per_iteration():
    assert ilt_t(gen_path(6), 1).graph.n == 12
    assert ilt_t(gen_path(3), 2).graph.n == 12
    assert ilt_t(gen_path(2), 3).graph.n == 16


def test_t_zero_rejected():
    with pytest.raises(GraphError):
        ilt_t(gen_path(3), 0)


@pytest.mark.parametrize("t, shown", [(2.0, "2.0"), (True, "True"), ("2", "'2'")])
def test_t_that_is_not_an_int_rejected(t, shown):
    # True equals 1, but it is no step count
    with pytest.raises(GraphError) as err:
        ilt_t(gen_path(3), t)
    assert str(err.value) == f"ILT step count {shown} is not an int"


def test_origin_idempotent_under_parent_chasing():
    out = ilt_t(gen_path(4), 3)
    for u in range(out.graph.n):
        v = u
        while v >= out.base_n:
            assert out.parent[v] < v  # clones always point at older nodes
            v = out.parent[v]
        assert v == out.origin[u]
        assert 0 <= out.origin[u] < out.base_n
        assert out.origin[out.parent[u]] == out.origin[u]


def test_last_clones_counts():
    for t in (1, 2, 3):
        out = ilt_t(gen_path(3), t)
        for x in range(out.base_n):
            clones = out.last_clones[x]
            assert len(clones) == 2 ** (t - 1)
            assert all(out.origin[c] == x for c in clones)
        if t >= 2:
            assert all(len(out.last_clones[x]) >= 2 for x in range(out.base_n))


def test_layers_partition_nodes():
    # each step doubles every base node's layer, the nodes of that origin
    out = ilt_t(gen_path(4), 2)
    assert Counter(out.origin) == dict.fromkeys(range(out.base_n), 4)


@pytest.mark.parametrize("g", [b for b in BASES if b.n >= 3])
def test_distances_between_originals_preserved(g):
    out = ilt(g)
    for u in range(g.n):
        base_dist = bfs_distances(g, u)
        lifted = bfs_distances(out.graph, u)
        assert lifted[: g.n] == base_dist


def test_diameter_preserved_for_p6():
    assert diameter(ilt_t(gen_path(6), 1).graph) == diameter(gen_path(6)) == 5
