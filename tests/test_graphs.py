from __future__ import annotations

import itertools
import random

import networkx as nx
import pytest

from coolnum import graphs
from coolnum.corpus import random_connected_graph

from coolnum.generators import (
    GridCoord,
    gen_complete_caterpillar,
    gen_cycle,
    gen_grid,
    gen_path,
    gen_spider,
    grid_coord,
    grid_node,
    ilt_t,
    simplicial_order,
)
from coolnum.graph_io import read_graph, write_graph
from coolnum.graphs import (
    UNREACHABLE,
    DisconnectedGraphError,
    GraphError,
    bfs_distances,
    build_graph,
    diameter,
    diameter_sweep,
)


def all_pairs_bfs(g):
    return [bfs_distances(g, v) for v in range(g.n)]


def diameter_and_lowest_end_by_all_pairs(g):
    """The greatest eccentricity and the lowest node that has it, by one BFS
    from every node."""
    eccs = [max(row) for row in all_pairs_bfs(g)]
    return max(eccs), eccs.index(max(eccs))


def is_automorphism(g, perm):
    edges = set(g.edges())
    return sorted(perm) == list(range(g.n)) and all(
        (min(perm[u], perm[v]), max(perm[u], perm[v])) in edges for u, v in edges)


def orbits_by_permutations(g):
    """Lowest orbit member per node, trying every permutation of the nodes."""
    low = list(range(g.n))
    for perm in itertools.permutations(range(g.n)):
        if is_automorphism(g, perm):
            for v in range(g.n):
                low[perm[v]] = min(low[perm[v]], v)
    return tuple(low)


def automorphism_sending(g, a, b):
    """An automorphism with ``a -> b``, or None: every permutation, cut as
    soon as a partial map breaks an edge or a non-edge."""
    nbrs = [set(row) for row in g.adj]
    # nodes in order of distance from a, so each one after the first of its
    # component has a mapped neighbour whose image's neighbours it must map to
    dist = bfs_distances(g, a)
    order = sorted(range(g.n), key=lambda v: (dist[v] == UNREACHABLE, dist[v], v))
    image: dict[int, int] = {}

    def assign(i):
        if i == g.n:
            return [image[v] for v in range(g.n)]
        v = order[i]
        mapped = [image[u] for u in nbrs[v] if u in image]
        for w in [b] if i == 0 else nbrs[mapped[0]] if mapped else range(g.n):
            if len(nbrs[w]) == len(nbrs[v]) and w not in image.values() and all(
                    (image[u] in nbrs[w]) == (u in nbrs[v]) for u in image):
                image[v] = w
                perm = assign(i + 1)
                if perm is not None:
                    return perm
                del image[v]
        return None

    return assign(0)


def orbits_by_backtracking(g):
    low = []
    for v in range(g.n):
        low.append(next(u for u in range(v + 1)
                        if u == v or automorphism_sending(g, u, v) is not None))
    return tuple(low)


def frucht_graph():
    """3-regular on 12 nodes with no automorphism but the identity."""
    shifts = [-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2]
    edges = [(i, (i + 1) % 12) for i in range(12)]
    edges += [(i, (i + k) % 12) for i, k in enumerate(shifts)]
    return build_graph(12, edges)


class TestBuildGraph:
    def test_single_node(self):
        g = build_graph(1, [])
        assert g.n == 1 and g.num_edges == 0

    def test_p2(self):
        g = build_graph(2, [(0, 1)])
        assert g.adj == ((1,), (0,))

    def test_c4_degrees(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert all(g.degree(v) == 2 for v in range(4))

    def test_duplicate_edges_collapse(self):
        g = build_graph(2, [(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            build_graph(3, [(0, 3)])

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            build_graph(4, [(2, 2)])

    def test_negative_node_count_rejected(self):
        with pytest.raises(GraphError, match=r"^node count must be nonnegative, got -1$"):
            build_graph(-1, [])

    @pytest.mark.parametrize("edge,shown", [
        ((True, 0), "(True, 0)"), ((0, 1.0), "(0, 1.0)"), ((0, "1"), "(0, '1')"),
    ], ids=["bool", "float", "str"])
    def test_non_int_endpoint_rejected(self, edge, shown):
        # True equals node 1 and 1.0 equals node 1, but neither is a node id
        with pytest.raises(GraphError) as err:
            build_graph(2, [edge])
        assert str(err.value) == f"edge {shown} has an endpoint that is not an int"

    @pytest.mark.parametrize("n", [2.0, True, "3"], ids=["float", "bool", "str"])
    def test_non_int_node_count_rejected(self, n):
        # True and 2.0 compare as counts, but neither is one
        with pytest.raises(GraphError) as err:
            build_graph(n, [])
        assert str(err.value) == f"node count {n!r} is not an int"
        with pytest.raises(GraphError) as err:
            gen_grid(n)
        assert str(err.value) == f"grid side {n!r} is not an int"

    def test_adjacency_symmetric_and_sorted(self):
        g = build_graph(5, [(3, 1), (4, 0), (1, 0), (2, 4)])
        for u in range(g.n):
            assert list(g.adj[u]) == sorted(g.adj[u])
            for v in g.adj[u]:
                assert u in g.adj[v]


class TestDistances:
    def test_path_from_endpoint(self):
        assert bfs_distances(gen_path(5), 0) == [0, 1, 2, 3, 4]

    def test_cycle_antipode(self):
        assert max(bfs_distances(gen_cycle(8), 3)) == 4

    def test_grid_corner_to_corner(self):
        g = gen_grid(3)
        dist = bfs_distances(g, grid_node((1, 1), 3))
        assert dist[grid_node((3, 3), 3)] == 4

    def test_unreachable_sentinel(self):
        g = build_graph(3, [(0, 1)])
        assert bfs_distances(g, 0)[2] == UNREACHABLE

    def test_diameter_path(self):
        for n in (1, 2, 5, 9):
            assert diameter(gen_path(n)) == n - 1

    def test_diameter_caterpillar_against_all_pairs(self):
        g = gen_complete_caterpillar(6)
        brute = max(max(row) for row in all_pairs_bfs(g))
        assert diameter(g) == brute == 5

    def test_diameter_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            diameter(build_graph(4, [(0, 1), (2, 3)]))

    def test_start_node_outside_the_graph_rejected(self):
        g = gen_path(4)
        with pytest.raises(GraphError, match=r"^start node 4 outside 0\.\.3$"):
            bfs_distances(g, g.n)

    @pytest.mark.parametrize("start, shown", [(1.0, "1.0"), (True, "True"), ("1", "'1'")])
    def test_start_node_that_is_not_an_int_rejected(self, start, shown):
        # True equals node 1 and 1.0 equals node 1, but neither is a node id
        with pytest.raises(GraphError) as err:
            bfs_distances(gen_path(4), start)
        assert str(err.value) == f"start node {shown} is not an int"

    def test_every_row_matches_networkx(self):
        # random edges alone leave the sparse draws in several components
        rng = random.Random(37)
        samples = []
        for n in (1, 2, 7, 30, 80, 150, 300):
            samples.append(build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                           if rng.random() < 1.2 / n]))
            samples.append(random_connected_graph(rng, n, 4 / n))
        assert sum(not g.is_connected for g in samples) >= 4
        for g in samples:
            h = nx.Graph(list(g.edges()))
            h.add_nodes_from(range(g.n))
            for v in range(g.n):
                near = nx.single_source_shortest_path_length(h, v)
                assert bfs_distances(g, v) == [near.get(w, UNREACHABLE) for w in range(g.n)], v


class TestDiameterAgainstAllPairs:
    """``diameter_sweep`` BFS's a few nodes; each test compares its diameter
    and lowest diametral end with one BFS from every node."""

    def check(self, samples):
        for g in samples:
            assert diameter_sweep(g)[:2] == diameter_and_lowest_end_by_all_pairs(g), g.adj

    def test_corpus(self, corpus):
        self.check(g for _, g in corpus)

    def test_seeded_random_graphs(self):
        rng = random.Random(29)
        self.check(random_connected_graph(rng, rng.randrange(1, 25),
                                          rng.choice((0.0, 0.03, 0.08, 0.2, 0.5)))
                   for _ in range(2000))

    def test_cycles(self):
        self.check(gen_cycle(n) for n in range(3, 81))

    def test_grids_spiders_and_ilt_paths(self):
        self.check(gen_grid(n) for n in range(1, 16))
        self.check(gen_spider(legs, r) for legs in range(1, 7) for r in range(1, 7))
        self.check(ilt_t(gen_path(n), t).graph for n in range(3, 10) for t in (1, 2, 3))

    def test_networkx_sample(self):
        rng = random.Random(31)
        for _ in range(100):
            g = random_connected_graph(rng, rng.randrange(1, 60), rng.choice((0.0, 0.05, 0.2)))
            h = nx.Graph(list(g.edges()))
            h.add_nodes_from(range(g.n))
            assert diameter(g) == nx.diameter(h), g.adj
            assert diameter_sweep(g)[1] == min(nx.periphery(h)), g.adj


class TestGenerators:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
    def test_path_degree_sequence(self, n):
        g = gen_path(n)
        degs = sorted(g.degree(v) for v in range(n))
        if n == 1:
            assert degs == [0]
        elif n == 2:
            assert degs == [1, 1]
        else:
            assert degs == [1, 1] + [2] * (n - 2)

    @pytest.mark.parametrize("n", [3, 4, 8, 13])
    def test_cycle_all_degree_two(self, n):
        g = gen_cycle(n)
        assert all(g.degree(v) == 2 for v in range(n))

    def test_grid_counts(self):
        g = gen_grid(3)
        assert g.n == 9 and g.num_edges == 12

    def test_grid_matches_edge_list(self):
        for n in range(1, 61):
            edges = [(v, v + 1) for v in range(n * n) if v % n < n - 1]
            edges += [(v, v + n) for v in range(n * n - n)]
            assert gen_grid(n) == build_graph(n * n, edges), n

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_grid_degree_profile(self, n):
        g = gen_grid(n)
        counts = {2: 0, 3: 0, 4: 0}
        for v in range(g.n):
            counts[g.degree(v)] += 1
        assert counts[2] == 4
        assert counts[3] == 4 * (n - 2)
        assert counts[4] == (n - 2) ** 2

    @pytest.mark.parametrize("d", [3, 4, 6, 7])
    def test_caterpillar_shape(self, d):
        g = gen_complete_caterpillar(d)
        assert g.n == 2 * d - 2
        # spine interior degree 3 (ends of interior) or 4, pendants degree 1
        for j in range(1, d - 1):
            assert g.degree(j) in (3, 4)
            assert g.degree(d + j - 1) == 1
        assert g.degree(0) == g.degree(d - 1) == 1

    def test_spider_head_degree(self):
        g = gen_spider(5, 2)
        assert g.degree(0) == 5
        assert g.n == 11

    def test_spider_two_legs_is_a_path(self):
        g = gen_spider(2, 3)
        degs = sorted(g.degree(v) for v in range(g.n))
        assert g.n == 7 and degs == [1, 1, 2, 2, 2, 2, 2]
        assert diameter(g) == 6

    @pytest.mark.parametrize("gen,args", [
        (gen_path, (0,)),
        (gen_cycle, (2,)),
        (gen_grid, (0,)),
        (gen_complete_caterpillar, (2,)),
        (gen_spider, (0, 1)),
        (gen_spider, (2, 0)),
    ])
    def test_parameter_minimums(self, gen, args):
        with pytest.raises(GraphError):
            gen(*args)

    @pytest.mark.parametrize("gen,args", [
        (gen_path, (True,)),
        (gen_path, (2.0,)),
        (gen_cycle, (4.0,)),
        (gen_grid, ("3",)),
        (gen_complete_caterpillar, (4.0,)),
        (gen_spider, (2.0, 1)),
        (gen_spider, (2, True)),
    ])
    def test_parameters_must_be_ints(self, gen, args):
        with pytest.raises(GraphError, match="is not an int$"):
            gen(*args)

    @pytest.mark.parametrize("gen", [
        gen_path, gen_grid, lambda k: gen_cycle(k + 2), lambda k: gen_complete_caterpillar(k + 2),
        lambda k: gen_spider(k, 1), lambda k: gen_spider(1, k), lambda k: gen_spider(k, k),
    ], ids=["path", "grid", "cycle", "caterpillar", "star", "one-leg-spider", "spider"])
    def test_connectivity_is_preset(self, gen):
        for k in range(1, 31):
            g = gen(k)
            assert "is_connected" in vars(g)  # set by the generator, not computed
            assert g.is_connected == (UNREACHABLE not in bfs_distances(g, 0)), g

    def test_handshake_lemma_over_families(self):
        for g in (gen_path(6), gen_cycle(9), gen_grid(4),
                  gen_complete_caterpillar(5), gen_spider(4, 2)):
            assert sum(g.degree(v) for v in range(g.n)) == 2 * g.num_edges


def objects_and_ids(g):
    """How many int objects, and how many distinct ids, occur in ``g.adj``."""
    return len({id(w) for nbrs in g.adj for w in nbrs}), len({w for nbrs in g.adj for w in nbrs})


class TestOneObjectPerId:
    """Each node id occurs in ``adj`` as one int object. The graphs have ids
    above 256, which CPython does not share on its own."""

    @pytest.mark.parametrize("make", [
        lambda: gen_grid(17), lambda: gen_grid(40), lambda: gen_path(600), lambda: gen_cycle(600),
        lambda: gen_spider(3, 100), lambda: gen_complete_caterpillar(300),
        lambda: ilt_t(gen_path(150), 2).graph,
        lambda: random_connected_graph(random.Random(7), 400, 0.005),
        lambda: build_graph(500, [(int(str(v)), int(str(v + 1))) for v in range(499)]),
    ], ids=["grid17", "grid40", "path600", "cycle600", "spider3x100", "caterpillar300",
            "ilt-path150-t2", "random400", "fresh-ints"])
    def test_builders(self, make):
        g = make()
        assert g.n > 257
        objects, ids = objects_and_ids(g)
        assert objects == ids

    def test_read_graph(self, tmp_path):
        path = tmp_path / "g20.json"
        write_graph(gen_grid(20), path)
        g = read_graph(path)
        assert g == gen_grid(20)
        assert objects_and_ids(g) == (400, 400)


class TestGridCoords:
    def test_bijection(self):
        n = 4
        for v in range(n * n):
            assert grid_node(grid_coord(v, n), n) == v

    def test_fixed_mapping(self):
        assert grid_node(GridCoord(1, 1), 3) == 0
        assert grid_node(GridCoord(2, 1), 3) == 3
        assert grid_coord(8, 3) == GridCoord(3, 3)

    def test_out_of_range(self):
        with pytest.raises(GraphError):
            grid_node((0, 1), 3)
        with pytest.raises(GraphError):
            grid_coord(9, 3)

    @pytest.mark.parametrize("call", [
        lambda: grid_coord(1.0, 3), lambda: grid_coord(True, 3), lambda: grid_coord(1, 3.0),
        lambda: grid_node((1.0, 2), 3), lambda: grid_node((1, True), 3),
        lambda: grid_node((1, 2), 3.0), lambda: simplicial_order(2.0),
        lambda: simplicial_order(True),
    ], ids=["coord-float", "coord-bool", "coord-side", "node-row", "node-col", "node-side",
            "order-float", "order-bool"])
    def test_non_int_rejected(self, call):
        # grid_coord(1.0, 3) returned GridCoord(1.0, 2.0), and grid_node((1.0, 2), 3) 1.0
        with pytest.raises(GraphError, match="is not an int$"):
            call()


class TestOrbits:
    def small_graphs(self):
        rng = random.Random(7)
        for _ in range(120):
            n = rng.randrange(1, 8)
            yield random_connected_graph(rng, n, rng.choice((0.05, 0.2, 0.4, 0.7)))
        for _ in range(40):  # disconnected inputs too
            n = rng.randrange(1, 8)
            yield build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                  if rng.random() < 0.3])

    def test_small_graphs_match_every_permutation(self):
        for g in self.small_graphs():
            exact = orbits_by_permutations(g)
            assert orbits_by_backtracking(g) == exact, g.adj
            assert g.orbits == exact, g.adj

    def test_corpus_matches_the_exact_partition(self, corpus):
        for name, g in corpus:
            assert g.orbits == orbits_by_backtracking(g), name

    def test_unions_of_two_cycles_match_the_exact_partition(self):
        # near-regular graphs: distance signatures seldom tell their nodes
        # apart, so the search meets placements that fail and backtracks
        rng = random.Random(13)
        for _ in range(300):
            n = rng.randrange(6, 11)
            edges = []
            for _ in range(2):
                order = list(range(n))
                rng.shuffle(order)
                edges += [(order[i - 1], order[i]) for i in range(n)]
            g = build_graph(n, edges)
            assert g.orbits == orbits_by_backtracking(g), g.adj

    def test_merged_nodes_are_joined_by_an_automorphism(self):
        rng = random.Random(11)
        samples = [gen_grid(6), gen_cycle(24), gen_spider(4, 4), gen_complete_caterpillar(9),
                   frucht_graph()]
        samples += [random_connected_graph(rng, 30, 0.05) for _ in range(5)]
        for g in samples:
            for v, low in enumerate(g.orbits):
                assert low <= v and g.orbits[low] == low
                if low != v:
                    perm = automorphism_sending(g, low, v)
                    assert perm is not None and is_automorphism(g, perm), (g, low, v)

    @pytest.mark.parametrize("make,count", [
        (nx.petersen_graph, 1),
        # Shrikhande and the 4x4 rook's graph are both SRG(16, 6, 2, 2), so
        # every node has the same sorted distance row
        (lambda: nx.Graph([((a, b), ((a + x) % 4, (b + y) % 4)) for a in range(4)
                           for b in range(4) for x, y in ((1, 0), (0, 1), (1, 1))]), 1),
        (lambda: nx.cartesian_product(nx.complete_graph(4), nx.complete_graph(4)), 1),
        (lambda: nx.hypercube_graph(5), 1),
        (lambda: nx.grid_2d_graph(6, 6, periodic=True), 1),
        (lambda: nx.grid_graph(dim=[4, 4, 4]), 4),
    ], ids=["petersen", "shrikhande", "rook4x4", "Q5", "torus6x6", "grid4x4x4"])
    def test_large_stabilisers(self, make, count):
        # vertex-transitive graphs, and a grid, whose automorphisms fixing a
        # node are many: the first candidate for a node can be wrong
        h = nx.convert_node_labels_to_integers(make())
        g = build_graph(h.number_of_nodes(), list(h.edges()))
        assert len(set(g.orbits)) == count
        for v, low in enumerate(g.orbits):
            if low != v:
                perm = automorphism_sending(g, low, v)
                assert perm is not None and is_automorphism(g, perm), (low, v)

    def test_long_path_and_cycle_need_no_recursion(self):
        n = 1200  # past the default recursion limit
        assert gen_path(n).orbits == tuple(min(v, n - 1 - v) for v in range(n))
        assert gen_cycle(n).orbits == (0,) * n

    def test_family_orbit_counts(self):
        assert set(gen_cycle(24).orbits) == {0}
        assert sorted(set(gen_grid(6).orbits)) == [0, 1, 2, 7, 8, 14]
        assert sorted(set(gen_path(10).orbits)) == [0, 1, 2, 3, 4]
        assert len(set(gen_spider(4, 4).orbits)) == 5
        assert len(set(frucht_graph().orbits)) == 12

    def test_twins_merge_without_search(self, monkeypatch):
        monkeypatch.setattr(graphs, "_ORBIT_STEPS_PER_NODE", 0)
        star = gen_spider(5, 1)
        assert star.orbits == (0, 1, 1, 1, 1, 1)
        complete = build_graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
        assert complete.orbits == (0,) * 5
        # past the budget, nodes not yet merged stay as their own orbits
        assert gen_cycle(6).orbits == tuple(range(6))

    def test_orbits_are_cached(self):
        g = gen_grid(4)
        assert g.orbits is g.orbits


class TestBiconnected:
    """``Graph.biconnected``, the cooling search's floor on a separator."""

    def test_small_and_disconnected(self):
        assert not build_graph(0, []).biconnected
        assert not build_graph(1, []).biconnected
        assert build_graph(2, [(0, 1)]).biconnected  # K_2, as networkx has it
        assert not build_graph(3, [(0, 1)]).biconnected
        assert not build_graph(4, [(0, 1), (2, 3)]).biconnected

    def test_cut_vertex_at_the_root(self):
        # two triangles sharing node 0, where the search starts
        g = build_graph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
        assert not g.biconnected
        assert build_graph(5, [*g.edges(), (2, 3)]).biconnected

    def test_cut_vertex_deep_in_the_tree(self):
        # a 4-cycle 0-1-2-3 with a triangle 2-4-5 hung at node 2, two levels
        # below the root; an edge from the triangle back to node 0 joins them
        edges = [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (4, 5), (5, 2)]
        assert not build_graph(6, edges).biconnected
        assert build_graph(6, edges + [(5, 0)]).biconnected

    def test_long_path_and_cycle_need_no_recursion(self):
        assert not gen_path(5000).biconnected
        assert gen_cycle(5000).biconnected

    def test_biconnected_is_cached(self):
        g = gen_grid(4)
        assert "biconnected" not in vars(g)
        assert g.biconnected is g.biconnected is True
        assert "biconnected" in vars(g)


class TestBalls:
    def test_balls_match_the_distance_table(self, corpus):
        rng = random.Random(17)
        samples = [g for _, g in corpus] + [gen_grid(6), gen_cycle(24), build_graph(1, [])]
        samples += [build_graph(7, [(u, v) for u in range(7) for v in range(u + 1, 7)
                                    if rng.random() < 0.2]) for _ in range(20)]  # disconnected
        for g in samples:
            top = max(d for row in g.distances for d in row)
            for v, row in enumerate(g.distances):
                assert len(g.balls[v]) == top + 2, g.adj
                for r, ball in enumerate(g.balls[v]):
                    assert ball == sum(1 << w for w, d in enumerate(row)
                                       if d != UNREACHABLE and d <= r), (g.adj, v, r)

    def test_radius_runs_to_the_diameter(self):
        g = gen_grid(4)
        # one radius past the diameter, so the 1-node graph's balls have a
        # radius 1 too, which the cooling search reads a child's key from
        assert all(len(row) == diameter(g) + 2 for row in g.balls)
        assert g.balls[0][diameter(g)] == g.balls[0][diameter(g) + 1] == (1 << g.n) - 1
        assert build_graph(1, []).balls == ((1, 1),)
        assert g.balls is g.balls
        assert build_graph(0, []).balls == ()
