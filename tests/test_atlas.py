"""Every connected graph of up to 7 nodes, from the graph atlas that ships
inside ``networkx`` (``graph_atlas_g()`` reads the package's own data file).

The solvers and ``bounds_report`` are checked on all 996 of them against the
solver-free oracles of ``conftest``, and the paper's two upper caps on the
cooling number are counted where they are met. ``Graph.biconnected``, the
floor the cooling search cuts by, is checked against ``networkx`` on them and
on larger families and random graphs.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from coolnum.bounds import bounds_report
from coolnum.generators import gen_cycle, gen_grid
from coolnum.graphs import build_graph, diameter
from coolnum.solver import burning_number, cooling_number, max_sequence_length

nx = pytest.importorskip("networkx")


@pytest.fixture(scope="module")
def atlas():
    """``(atlas index, graph)`` for every connected atlas graph."""
    graphs = ((i, build_graph(a.number_of_nodes(), list(a.edges())))
              for i, a in enumerate(nx.graph_atlas_g()))
    return [(i, g) for i, g in graphs if g.is_connected]


def test_connected_graphs_by_order(atlas):
    assert len(atlas) == 996
    assert Counter(g.n for _, g in atlas) == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def test_solvers_and_witnesses_match_the_oracles(atlas, oracle, first_optimal):
    for i, g in atlas:
        b, cl, most_sources = oracle(g)
        assert burning_number(g).value == b, i
        for want, sources, solve in ((cl, False, cooling_number),
                                     (most_sources, True, max_sequence_length)):
            res = solve(g)
            assert res.value == want, i
            assert (res.value, list(res.witness.sources)) == first_optimal(g, sources), i


def test_burning_matches_the_unpruned_search(atlas, unpruned_burn):
    for i, g in atlas:
        res = burning_number(g)
        assert (res.value, list(res.witness.sources)) == unpruned_burn(g), i


def test_bounds_report_matches_its_parts(atlas, composed):
    for i, g in atlas:
        assert bounds_report(g) == composed(g), i


def test_tightness_census(atlas, oracle):
    """How many graphs of each order have ``CL = floor(n/2) + 1`` and how
    many ``CL = d + 1``, by the oracle. Both caps are met at every order,
    which is the paper's claim that each is tight."""
    half, diam = Counter(), Counter()
    for _, g in atlas:
        cl = oracle(g)[1]
        half[g.n] += cl == g.n // 2 + 1
        diam[g.n] += cl == diameter(g) + 1
    assert half == {1: 1, 2: 1, 3: 2, 4: 3, 5: 18, 6: 11, 7: 194}
    assert diam == {1: 1, 2: 1, 3: 1, 4: 3, 5: 13, 6: 63, 7: 486}


def hypercube(d):
    return build_graph(1 << d, [(u, u | 1 << i) for u in range(1 << d) for i in range(d)
                                if not u >> i & 1])


def test_connectivity_matches_networkx(atlas, corpus):
    rng = random.Random(41)
    graphs = [g for _, g in atlas] + [g for _, g in corpus]
    for _ in range(80):  # disconnected ones too, whose vertex connectivity is 0
        n, p = rng.randrange(2, 41), rng.choice((0.05, 0.1, 0.2, 0.35, 0.5, 0.8))
        graphs.append(build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                      if rng.random() < p]))
    graphs += [build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
               for n in range(1, 9)]
    graphs += [gen_cycle(n) for n in range(3, 41)] + [gen_grid(n) for n in range(1, 8)]
    graphs += [hypercube(3), hypercube(4)]
    kappas = Counter()
    for g in graphs:
        h = nx.Graph(list(g.edges()))
        h.add_nodes_from(range(g.n))
        assert g.biconnected == nx.is_biconnected(h), g.adj
        kappas[nx.node_connectivity(h)] += 1
    # so the inputs run from disconnected graphs to vertex connectivity 7
    assert set(kappas) >= set(range(8)), kappas
