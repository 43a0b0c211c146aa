from __future__ import annotations

import random

import pytest

from coolnum import graphs, strategies

from coolnum.bounds import grid_iso_upper_bound
from coolnum.engine import run_cooling, validate_sequence
from coolnum.generators import (
    GridCoord,
    gen_complete_caterpillar,
    gen_cycle,
    gen_grid,
    gen_path,
    gen_spider,
    grid_coord,
    ilt_t,
    simplicial_key,
    simplicial_order,
)
from coolnum.corpus import random_connected_graph
from coolnum.graphs import GraphError, bfs_distances, build_graph, diameter
from coolnum.solver import SearchLimits, cooling_number, max_sequence_length
from coolnum.verify import SPIDER_SHAPES
from coolnum.strategies import (
    ClosedForm,
    StrategyError,
    caterpillar_strategy,
    caterpillar_strategy_trace,
    closed_form,
    grid_cl_window,
    grid_simplicial_strategy,
    ilt_lift_sequence,
    ilt_path_strategy,
    ilt_path_strategy_trace,
    path_diameter_strategy,
    spider_strategy,
)


class TestSimplicialOrder:
    def test_tie_breaks_on_first_coordinate(self):
        assert simplicial_key((1, 2)) < simplicial_key((2, 1))

    def test_smaller_sum_first(self):
        assert simplicial_key((1, 1)) < simplicial_key((3, 3))
        assert simplicial_key((3, 1)) > simplicial_key((1, 2))

    def test_g3_full_order(self):
        cells = sorted(
            (GridCoord(r, c) for r in range(1, 4) for c in range(1, 4)),
            key=simplicial_key,
        )
        assert cells == [(1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (3, 1),
                         (2, 3), (3, 2), (3, 3)]

    def test_order_is_total(self):
        order = simplicial_order(5)
        assert sorted(order) == list(range(25))

    def test_order_matches_sorted_keys(self):
        for n in range(1, 41):
            by_key = sorted(range(n * n), key=lambda v: simplicial_key(grid_coord(v, n)))
            assert simplicial_order(n) == by_key, n

    @pytest.mark.parametrize("n", [0, -3])
    def test_n_below_one_rejected(self, n):
        with pytest.raises(GraphError, match=f"grid needs n >= 1, got {n}"):
            simplicial_order(n)


class IndexLoopPolicy:
    """The simplicial pick as an index loop over the order: the reference
    for the strategy's iterator."""

    def __init__(self, order):
        self.order = order
        self.idx = 0

    def __call__(self, g, cooled, t):
        while self.order[self.idx] in cooled:
            self.idx += 1
        v = self.order[self.idx]
        self.idx += 1
        return v


class TestGridStrategy:
    def test_matches_index_loop_policy(self):
        for n in range(1, 61):
            reference = run_cooling(gen_grid(n), IndexLoopPolicy(simplicial_order(n)))
            assert grid_simplicial_strategy(n) == reference, n

    def test_n1_single_round(self):
        assert grid_simplicial_strategy(1).num_rounds == 1

    def test_n2_two_rounds(self):
        assert grid_simplicial_strategy(2).num_rounds == 2

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_solver(self, n):
        from coolnum.generators import gen_grid

        assert grid_simplicial_strategy(n).num_rounds == cooling_number(gen_grid(n)).value

    def test_n15_in_window(self):
        rounds = grid_simplicial_strategy(15).num_rounds
        w = grid_cl_window(15)
        assert (w.lo, w.hi) == (22, 24)
        assert w.contains(rounds)


class TestGridWindow:
    def test_values(self):
        assert (grid_cl_window(2).lo, grid_cl_window(2).hi) == (0, 2)
        assert (grid_cl_window(8).lo, grid_cl_window(8).hi) == (10, 12)
        assert (grid_cl_window(100).lo, grid_cl_window(100).hi) == (188, 190)

    def test_upper_end_is_never_below_the_recurrence_bound(self):
        for n in range(2, 61):
            w = grid_cl_window(n)
            assert w.hi == max(w.lo + 2, grid_iso_upper_bound(n).value), n
            assert w.hi == w.lo + 2 or n == 5, n  # only G_5 widens the window

    def test_n1_rejected(self):
        with pytest.raises(GraphError):
            grid_cl_window(1)


class TestPathDiameterStrategy:
    def test_p5(self):
        g = gen_path(5)
        seq = path_diameter_strategy(g)
        assert seq == [0, 2, 4]
        assert validate_sequence(g, seq).num_rounds == 3

    def test_c8_three_sources(self):
        g = gen_cycle(8)
        seq = path_diameter_strategy(g)
        assert len(seq) == 3
        assert validate_sequence(g, seq).num_rounds >= 3

    def test_k3(self):
        g = build_graph(3, [(0, 1), (0, 2), (1, 2)])
        seq = path_diameter_strategy(g)
        assert validate_sequence(g, seq).num_rounds == 2

    def test_meets_diameter_lower_bound_on_assorted_graphs(self):
        import random

        from coolnum.corpus import random_connected_graph
        from coolnum.graphs import diameter

        rng = random.Random(13)
        for _ in range(12):
            g = random_connected_graph(rng, rng.randrange(2, 12), 0.2)
            rounds = validate_sequence(g, path_diameter_strategy(g)).num_rounds
            assert rounds >= (diameter(g) + 3) // 2


def diametral_path_by_scan(g):
    """The diametral path as found before the fallback used the lowest
    diametral end: double sweep from node 0, and when it falls short, the
    first node in id order whose eccentricity is the diameter (one BFS from
    every node gives the diameter here)."""
    d = max(max(bfs_distances(g, v)) for v in range(g.n))
    dist0 = bfs_distances(g, 0)
    a = dist0.index(max(dist0))
    dist_a = bfs_distances(g, a)
    b = dist_a.index(max(dist_a))
    if dist_a[b] != d:
        for u in range(g.n):
            du = bfs_distances(g, u)
            if max(du) == d:
                a, b, dist_a = u, du.index(d), du
                break
    path = [b]
    cur = b
    while cur != a:
        cur = min(w for w in g.adj[cur] if dist_a[w] == dist_a[cur] - 1)
        path.append(cur)
    path.reverse()
    if path[0] > path[-1]:
        path.reverse()
    return path


def double_sweep_misses(g):
    dist0 = bfs_distances(g, 0)
    dist_a = bfs_distances(g, dist0.index(max(dist0)))
    return max(dist_a) < diameter(g)


SWEEP_MISSES = ("random-11-n8", "random-35-n8", "random-65-n12", "random-85-n7",
                "random-89-n12", "random-96-n8", "random-141-n10", "random-153-n9")


class TestDiametralPathFallback:
    """Where the double sweep from node 0 falls short of the diameter, the
    path starts at the lowest diametral end, as the scan in id order did."""

    def test_four_node_graph(self):
        g = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        assert double_sweep_misses(g)
        assert strategies._diametral_path(g) == diametral_path_by_scan(g)
        assert path_diameter_strategy(g) == [2, 3]

    def test_corpus_members_the_sweep_misses(self, corpus):
        missed = [name for name, g in corpus if double_sweep_misses(g)]
        assert missed == list(SWEEP_MISSES)
        for name, g in corpus:
            assert strategies._diametral_path(g) == diametral_path_by_scan(g), name

    @pytest.mark.parametrize("i", [4, 7, 9, 12])
    def test_sparse_500_node_graphs(self, i):
        g = random_connected_graph(random.Random(31_000 + i), 500, 0.0008)
        assert double_sweep_misses(g)
        assert strategies._diametral_path(g) == diametral_path_by_scan(g)


class TestPinnedWork:
    """BFS runs per call on fresh graphs, whose generators preset connectivity;
    one BFS per node would be 1,200, 1,202, 578 and 600."""

    @pytest.fixture
    def bfs_runs(self, monkeypatch):
        runs = []

        def counted(g, v):
            runs.append(v)
            return bfs_distances(g, v)

        monkeypatch.setattr(graphs, "bfs_distances", counted)
        monkeypatch.setattr(strategies, "bfs_distances", counted)
        return runs

    def test_diameter_of_path_1200(self, bfs_runs):
        assert diameter(gen_path(1200)) == 1199
        assert len(bfs_runs) == 3

    def test_path_diameter_strategy_on_path_1200(self, bfs_runs):
        assert path_diameter_strategy(gen_path(1200)) == list(range(0, 1200, 2))
        assert len(bfs_runs) == 3

    def test_path_diameter_strategy_on_grid_24(self, bfs_runs):
        assert len(path_diameter_strategy(gen_grid(24))) == 24
        assert len(bfs_runs) == 7

    def test_path_diameter_reuses_the_double_sweep(self, bfs_runs, corpus):
        """The path takes the double sweep's far end and its row from the
        diameter's sweep, so it BFS's once more only where the sweep falls
        short: from the lowest diametral end."""
        sparse = [random_connected_graph(random.Random(31_000 + i), 500, 0.0008) for i in (4, 7)]
        for g in [g for _, g in corpus] + sparse + [gen_path(1200)]:
            misses = double_sweep_misses(g)
            bfs_runs.clear()
            diameter(g)
            sweep = len(bfs_runs)
            bfs_runs.clear()
            path_diameter_strategy(g)
            assert len(bfs_runs) == sweep + misses, g.adj

    def test_diameter_of_cycle_600(self, bfs_runs):
        assert diameter(gen_cycle(600)) == 300
        assert len(bfs_runs) == 304


class TestCaterpillarStrategy:
    def test_reference_sources(self):
        assert caterpillar_strategy(6) == [0, 6, 7, 8, 9]

    def test_d_below_three_rejected(self):
        with pytest.raises(GraphError, match="^complete caterpillar needs d >= 3, got 2$"):
            caterpillar_strategy(2)

    @pytest.mark.parametrize("d", [3, 4, 5, 6, 7])
    def test_achieves_d_rounds(self, d):
        assert caterpillar_strategy_trace(d).num_rounds == d

    @pytest.mark.parametrize("d", [3, 5])
    def test_matches_solver(self, d):
        assert caterpillar_strategy_trace(d).num_rounds == \
            cooling_number(gen_complete_caterpillar(d)).value


# the schedule's sources on every shape the spider suite runs
SPIDER_SOURCES = {
    (1, 1): [1, 2], (1, 2): [2, 3], (1, 3): [3, 1, 4, 6], (1, 4): [4, 2, 5, 7],
    (1, 5): [5, 3, 1, 6, 8, 10], (1, 6): [6, 4, 2, 7, 9, 11],
    (1, 7): [7, 5, 3, 1, 8, 10, 12, 14],
    (2, 1): [1, 2], (2, 2): [4, 5, 1, 8], (2, 3): [3, 6, 4, 7, 9, 12],
    (2, 4): [4, 8, 6, 9, 11, 14, 16], (2, 5): [5, 10, 8, 6, 11, 13, 15, 19],
    (2, 6): [6, 12, 10, 8, 13, 15, 17, 21, 23],
    (2, 7): [7, 5, 14, 12, 10, 8, 15, 17, 19, 21, 26, 28],
    (3, 1): [1, 2], (3, 2): [4, 5, 1, 8], (3, 3): [3, 6, 4, 7, 9, 12],
    (3, 4): [8, 12, 10, 13, 15, 18, 3, 24], (3, 5): [10, 15, 13, 11, 16, 18, 20, 24, 5],
    (3, 6): [12, 18, 16, 14, 19, 21, 23, 27, 4, 6, 36],
    (3, 7): [7, 14, 12, 21, 19, 17, 15, 22, 24, 26, 28, 33, 35, 42],
}


class TestSpiderStrategy:
    def test_tight_on_two_legs(self):
        res = spider_strategy(1, 3)  # isomorphic to P7
        form = closed_form("spider", {"m": 1, "r": 3})
        assert (form.kind, form.lo) == ("lower_bound", 4)
        assert res.trace.num_rounds == 4 == cooling_number(gen_spider(2, 3)).value

    def test_m2_r7_bound(self):
        res = spider_strategy(2, 7)
        assert closed_form("spider", {"m": 2, "r": 7}).lo == 12
        assert res.trace.num_rounds >= 12

    def test_schedule_rounds_meet_formula(self):
        for m in (1, 2, 3):
            for r in range(1, 8):
                res = spider_strategy(m, r)
                lo = 2 * sum((r + 1) // 2**i for i in range(1, m + 1))
                assert res.trace.num_rounds >= lo, (m, r)

    def test_source_sequences_pinned(self):
        # phase 1 takes each drained leg's farthest uncooled node, phase 2
        # each raced leg's nearest one; the engine's fallback picks the rest
        assert {shape: list(spider_strategy(*shape).trace.sources)
                for shape in SPIDER_SHAPES} == SPIDER_SOURCES

    def test_bad_parameters_rejected(self):
        with pytest.raises(StrategyError):
            spider_strategy(0, 3)
        with pytest.raises(StrategyError):
            spider_strategy(2, 0)


class TestIltPathStrategy:
    def test_sequence_is_last_iteration_clones(self):
        seq = ilt_path_strategy(6, 1)
        assert seq == [6, 7, 9, 10]

    def test_n6_t1_five_rounds(self):
        assert ilt_path_strategy_trace(6, 1).num_rounds == 5

    def test_n5_t1_four_rounds(self):
        assert ilt_path_strategy_trace(5, 1).num_rounds == 4

    def test_n3_t2_three_rounds_and_solver_agrees(self):
        trace = ilt_path_strategy_trace(3, 2)
        assert trace.num_rounds == 3
        g = ilt_t(gen_path(3), 2).graph
        assert cooling_number(g, SearchLimits(max_nodes=12)).value == 3

    def test_n_below_three_rejected(self):
        with pytest.raises(GraphError):
            ilt_path_strategy(2, 1)

    def test_t_below_one_rejected(self):
        with pytest.raises(GraphError, match="^ilt path strategy needs t >= 1, got 0$"):
            ilt_path_strategy(3, 0)


@pytest.mark.parametrize("strategy, args, message", [
    (ilt_path_strategy, (4.0, 1), "path length 4.0 is not an int"),
    (ilt_path_strategy, (4, True), "ILT step count True is not an int"),
    (caterpillar_strategy, (4.0,), "spine length 4.0 is not an int"),
    (caterpillar_strategy, (True,), "spine length True is not an int"),
    (spider_strategy, (True, 2), "leg pair count True is not an int"),
    (spider_strategy, (1, "2"), "leg length '2' is not an int"),
], ids=["ilt-path-n", "ilt-path-t", "caterpillar-float", "caterpillar-bool", "spider-m",
        "spider-r"])
def test_parameters_that_are_not_ints_rejected(strategy, args, message):
    # a bool equals 0 or 1 and a whole float an int, but neither is a parameter
    with pytest.raises(GraphError) as err:
        strategy(*args)
    assert str(err.value) == message


class TestIltLift:
    def test_lift_from_ilt3_p2(self):
        src = ilt_t(gen_path(2), 3)
        dst = ilt_t(gen_path(2), 2)
        best = max_sequence_length(src.graph, SearchLimits(max_nodes=16))
        lifted = ilt_lift_sequence(best.witness.sources, src, dst)
        assert len(lifted) == len(best.witness.sources)
        validate_sequence(dst.graph, lifted)  # must not raise

    def test_length_one(self):
        src = ilt_t(gen_path(3), 3)
        dst = ilt_t(gen_path(3), 2)
        assert len(ilt_lift_sequence([0], src, dst)) == 1

    def test_consecutive_same_origin_get_distinct_clones(self):
        src = ilt_t(gen_path(3), 2)
        dst = ilt_t(gen_path(3), 2)
        # nodes 0 and its iteration-1 clone share origin 0
        lifted = ilt_lift_sequence([0, 3], src, dst)
        assert lifted[0] != lifted[1]
        assert {dst.origin[v] for v in lifted} == {0}

    def test_target_must_be_two_step(self):
        src = ilt_t(gen_path(3), 2)
        dst = ilt_t(gen_path(3), 1)
        with pytest.raises(StrategyError):
            ilt_lift_sequence([0], src, dst)

    def test_bases_must_match(self):
        src = ilt_t(gen_path(3), 2)
        dst = ilt_t(gen_path(4), 2)
        with pytest.raises(StrategyError,
                           match="^source and target must come from the same base graph$"):
            ilt_lift_sequence([0], src, dst)

    def test_origin_recurring_after_a_gap_rejected(self):
        src = ilt_t(gen_path(3), 2)
        dst = ilt_t(gen_path(3), 2)
        assert [src.origin[u] for u in (0, 1, 0)] == [0, 1, 0]
        with pytest.raises(StrategyError, match="^origin recurs after a gap; input was not a "
                                                "cooling sequence$"):
            ilt_lift_sequence([0, 1, 0], src, dst)


class TestClosedForm:
    def test_cycle8(self):
        form = closed_form("cycle", {"n": 8})
        assert form.kind == "exact" and form.lo == 4

    def test_path14(self):
        assert closed_form("path", {"n": 14}).lo == 8

    def test_grid5_window(self, oracle):
        form = closed_form("grid", {"n": 5})
        assert form.kind == "window" and (form.lo, form.hi) == (4, 7)
        assert form.contains(oracle(gen_grid(5))[1])  # CL(G_5) = 7

    def test_spider_branches(self, oracle):
        low = closed_form("spider", {"m": 2, "r": 7})
        assert low.kind == "lower_bound" and low.lo == 12
        above = closed_form("spider", {"m": 2, "r": 2})  # above the log threshold
        assert above.kind == "lower_bound" and above.lo == 3  # diameter bound r + 1
        assert above.contains(oracle(gen_spider(4, 2))[1])  # CL = 4, not 2r + 1 = 5

    def test_spider_form_contains_exact_value(self):
        for m in range(1, 11):
            for r in range(1, 11):
                if 1 + 2 * m * r <= 21:
                    cl = cooling_number(gen_spider(2 * m, r), SearchLimits(max_nodes=21)).value
                    assert closed_form("spider", {"m": m, "r": r}).contains(cl), (m, r, cl)

    def test_ilt_path_cases(self):
        assert closed_form("ilt_path", {"n": 5, "t": 1}).lo == 4
        assert closed_form("ilt_path", {"n": 5, "t": 2}).lo == 5
        assert closed_form("ilt_path", {"n": 6, "t": 1}).lo == 5

    @pytest.mark.parametrize("family", list(strategies.FORMS))
    def test_each_parameter_has_a_least_value(self, family):
        least = dict(strategies.FORMS[family].params)
        closed_form(family, least)
        for name in least:
            with pytest.raises(GraphError, match=f"{family} forms need .*, got .*{name}="):
                closed_form(family, {**least, name: least[name] - 1})

    def test_unknown_family(self):
        with pytest.raises(StrategyError):
            closed_form("torus", {"n": 3})

    @pytest.mark.parametrize("family, params, got", [
        ("grid", {}, "none"),
        ("grid", {"n": 3, "x": 1}, "n, x"),
        ("grid", {"m": 3}, "m"),
        ("spider", {"m": 2}, "m"),
    ])
    def test_parameters_must_be_the_familys(self, family, params, got):
        names = ", ".join(name for name, _ in strategies.FORMS[family].params)
        with pytest.raises(GraphError) as err:
            closed_form(family, params)
        assert str(err.value) == f"{family} forms take {names}, got {got}"

    @pytest.mark.parametrize("family, params, shown", [
        ("spider", {"m": True, "r": 1}, "m, got True"),
        ("spider", {"m": 1.5, "r": 2}, "m, got 1.5"),
        ("spider", {"m": 2, "r": 3.0}, "r, got 3.0"),
        ("grid", {"n": "5"}, "n, got '5'"),
    ])
    def test_parameters_must_be_ints(self, family, params, shown):
        # True equals 1 and 3.0 equals 3, but neither is a parameter
        with pytest.raises(GraphError) as err:
            closed_form(family, params)
        assert str(err.value) == f"{family} forms take an int {shown}"

    @pytest.mark.parametrize("kind, lo, hi, message", [
        ("window", 5, 4, "empty window [5, 4]"),
        ("window", 5, None, "empty window [5, None]"),
        ("exact", 3, 4, "exact form needs lo == hi"),
    ])
    def test_inconsistent_form_rejected(self, kind, lo, hi, message):
        with pytest.raises(StrategyError) as err:
            ClosedForm("grid", {"n": 5}, kind, lo, hi)
        assert str(err.value) == message

    def test_window_containment(self):
        form = closed_form("grid", {"n": 8})
        assert form.contains(10) and form.contains(12) and not form.contains(13)


class TestEveryStrategySequenceValidates:
    def test_all_emitted_sequences_play_cleanly(self):
        validate_sequence(gen_path(9), path_diameter_strategy(gen_path(9)))
        validate_sequence(gen_complete_caterpillar(7), caterpillar_strategy(7))
        for n, t in ((3, 1), (4, 1), (6, 2)):
            validate_sequence(ilt_t(gen_path(n), t).graph, ilt_path_strategy(n, t))


class TestStrategiesMatchSolverWhereOptimal:
    def test_path_strategy_achieves_cooling_number(self):
        for n in range(1, 15):
            g = gen_path(n)
            rounds = validate_sequence(g, path_diameter_strategy(g)).num_rounds
            assert rounds == (n + 2) // 2

    def test_caterpillar_up_to_fourteen_nodes(self):
        for d in (3, 8):  # d = 8 is the largest within 14 nodes
            trace = caterpillar_strategy_trace(d)
            exact = cooling_number(gen_complete_caterpillar(d)).value
            assert trace.num_rounds == exact == d


def test_benchmark_imports_keep_working():
    # the names perfbench's workloads and pin script call on coolnum.strategies
    from coolnum import grid_simplicial_strategy, path_diameter_strategy, spider_strategy
    from coolnum.strategies import caterpillar_strategy_trace, ilt_path_strategy_trace

    assert caterpillar_strategy_trace(6).num_rounds == 6
    assert ilt_path_strategy_trace(5, 1).num_rounds == 4
    assert grid_simplicial_strategy(5).num_rounds == 7
    assert spider_strategy(2, 3).trace.num_rounds == 6
    assert len(path_diameter_strategy(gen_path(9))) == 5
