from __future__ import annotations

import itertools
import math
import random
import sys
from functools import lru_cache, reduce
from operator import or_

import pytest

from coolnum import solver
from coolnum.corpus import random_connected_graph
from coolnum.engine import validate_sequence
from coolnum.generators import gen_complete_caterpillar, gen_cycle, gen_grid, gen_path, gen_spider
from coolnum.graphs import DisconnectedGraphError, GraphError, build_graph, diameter
from coolnum.solver import (
    GraphTooLargeError,
    SearchLimits,
    TimeBudgetExceededError,
    burning_number,
    cooling_number,
    max_sequence_length,
)


def complete_graph(n):
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


@lru_cache(maxsize=None)
def vertex_connectivity(g):
    """The fewest nodes whose removal disconnects ``g``, ``n - 1`` for a
    complete graph, by trying every set of nodes from the smallest up."""
    masks, full = g.neighbor_masks, (1 << g.n) - 1
    for k in range(g.n - 1):
        for cut in itertools.combinations(range(g.n), k):
            rest = full & ~sum(1 << v for v in cut)
            reach = rest & -rest
            while True:  # flood from the lowest node left
                grown = reach
                for v in range(g.n):
                    if reach >> v & 1:
                        grown |= masks[v]
                if grown & rest == reach:
                    break
                reach = grown & rest
            if reach != rest:
                return k
    return g.n - 1


def all_roots(g, objective):
    """``(value, sources)`` of the search from every first source, no orbit reduction."""
    search = solver._MaxSearch(g, objective, True, math.inf)
    return search.solve(search.full)


def reach_by_bfs(g, mask, radii):
    """The nodes within ``j`` hops of the set ``mask``, for ``j`` in
    ``0..radii - 1``, by breadth-first search, one layer of neighbours a radius."""
    masks = g.neighbor_masks
    reach = [mask]
    while len(reach) < radii:
        grown = seen = reach[-1]
        for v in range(g.n):
            if seen >> v & 1:
                grown |= masks[v]
        reach.append(grown)
    return tuple(reach)


def spread_by_bfs(g, cooled):
    """``N[cooled]``, the set the next spread from the boundary ``cooled`` cools."""
    return reach_by_bfs(g, cooled, 2)[1]


def state(g, key):
    """``at_least``'s parent vector and ball for the state ``key``, from BFS:
    radius ``j + 1`` of the vector holds the nodes within ``j`` hops of
    ``key`` and the ball is empty, so the state's own vector is the reach of
    ``key``, radii 0 to one past the diameter."""
    up = (0,) + reach_by_bfs(g, key, len(g.balls[0]))  # as many radii as a ball
    return up, (0,) * len(up)


def carried_vectors(search):
    """Run ``search.solve`` over every first source and return the distinct
    vectors the search carried: the vector ``near`` of each state it expanded,
    read from ``at_least``'s frame as the call returns, and the parent vector
    ``up`` of each call. The witness walk makes no call."""
    code = solver._MaxSearch.at_least.__code__
    vectors = set()

    def on_return(frame, event, arg):
        if event == "return" and "near" in frame.f_locals:
            vectors.add(frame.f_locals["near"])
        return on_return

    def on_call(frame, event, arg):
        if frame.f_code is not code:
            return None
        vectors.add(frame.f_locals["up"])
        return on_return

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        search.solve(search.full)
    finally:
        sys.settrace(previous)
    return vectors


def ladder_value(search, g, key):
    """The objective from ``key``: the last ``t`` of ``at_least`` at 1, 2, ...
    that holds."""
    t, args = 0, state(g, key)
    while search.at_least(t + 1, *args):
        t += 1
    return t


def small_sample():
    rng = random.Random(31)
    graphs = [gen_path(6), gen_cycle(7), gen_spider(3, 2), gen_complete_caterpillar(4),
              gen_grid(3), complete_graph(5)]
    for _ in range(12):
        graphs.append(random_connected_graph(rng, rng.randrange(3, 10), 0.25))
    return graphs


class TestCoolingNumber:
    def test_p7(self):
        assert cooling_number(gen_path(7)).value == 4

    def test_c6(self):
        assert cooling_number(gen_cycle(6)).value == 3

    def test_k4(self):
        assert cooling_number(complete_graph(4)).value == 2

    def test_witness_replays_to_value(self):
        for g in small_sample():
            res = cooling_number(g)
            replay = validate_sequence(g, res.witness.sources)
            assert replay.num_rounds == res.value
            assert replay == res.witness

    def test_no_prune_matches(self, corpus):
        # both objectives: the source count has its own table end, cut
        # radius and caps; the unpruned search probes down from n, so this
        # checks the caps too
        graphs = small_sample() + [g for _, g in corpus]
        for g in graphs:
            if g.n <= 10:
                for solve in (cooling_number, max_sequence_length):
                    a = solve(g)
                    b = solve(g, prune=False)
                    assert a.value == b.value, (solve.__name__, g.adj)
                    # lowest-id tie-break is prune-independent
                    assert a.witness == b.witness, (solve.__name__, g.adj)

    def test_no_prune_matches_on_dense_graphs(self):
        # the gain table cuts by a floor on every separator, 2 on a
        # biconnected graph and 1 otherwise, which is 1 on most corpus
        # graphs; these dense random graphs reach vertex connectivity 9
        rng = random.Random(59)
        kappas = set()
        for _ in range(40):
            g = random_connected_graph(rng, rng.randrange(8, 13), rng.choice([0.5, 0.7, 0.9]))
            kappa = vertex_connectivity(g)
            kappas.add(kappa)
            for objective in (solver._ROUNDS, solver._SOURCES):
                assert solver._MaxSearch(g, objective, True, math.inf).most == solver._gains(
                    g.n, min(kappa, 2), objective), g.adj
            for solve in (cooling_number, max_sequence_length):
                a = solve(g)
                b = solve(g, prune=False)
                assert (a.value, a.witness) == (b.value, b.witness), (solve.__name__, g.adj)
        assert max(kappas) >= 6 and {3, 4, 5} <= kappas

    def test_cycles(self):
        limits = SearchLimits(max_nodes=60)
        for n in range(3, 61):
            assert cooling_number(gen_cycle(n), limits).value == (n + 4) // 3, n

    def test_brute_force_agreement_on_tiny_graphs(self):
        # independent oracle: plain DFS over frozensets of cooled nodes,
        # no bitmasks, no memo, no pruning
        def brute(g):
            n = g.n

            def rec(cooled: frozenset[int]) -> int:
                if len(cooled) == n:
                    return 0
                spread = set(cooled)
                for v in cooled:
                    spread.update(g.adj[v])
                if len(spread) == n:
                    return 1
                return 1 + max(rec(frozenset(spread | {s}))
                               for s in range(n) if s not in spread)

            if n == 1:
                return 1
            return 1 + max(rec(frozenset({s})) for s in range(n))

        rng = random.Random(41)
        graphs = [gen_path(6), gen_cycle(6), gen_spider(3, 1), gen_spider(2, 2),
                  gen_complete_caterpillar(3), gen_grid(2), complete_graph(4)]
        graphs += [random_connected_graph(rng, rng.randrange(2, 8), 0.3) for _ in range(10)]
        for g in graphs:
            assert cooling_number(g).value == brute(g)

    def test_over_limit_refused(self):
        with pytest.raises(GraphTooLargeError):
            cooling_number(gen_path(21))
        # explicit limit overrides the default cap
        assert cooling_number(gen_path(21), SearchLimits(max_nodes=21)).value == 11

    def test_disconnected_refused(self):
        with pytest.raises(DisconnectedGraphError):
            cooling_number(build_graph(4, [(0, 1), (2, 3)]))

    def test_library_call_honours_env_cap(self, monkeypatch):
        g = gen_path(22)
        with pytest.raises(GraphTooLargeError):
            cooling_number(g)
        monkeypatch.setenv("COOLNUM_MAX_NODES", "22")
        assert cooling_number(g).value == 12
        monkeypatch.setenv("COOLNUM_MAX_NODES", "21")
        with pytest.raises(GraphTooLargeError) as err:
            cooling_number(g)
        assert err.value.cap == 21

    def test_non_integer_env_cap_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("COOLNUM_MAX_NODES", "abc")
        with pytest.raises(ValueError, match="^COOLNUM_MAX_NODES must be an integer, got 'abc'$"):
            cooling_number(gen_path(5))
        with pytest.raises(ValueError, match="COOLNUM_MAX_NODES"):
            burning_number(gen_path(5))

    @pytest.mark.parametrize("cap", [-3, 0, True, 2.5, "20"])
    def test_cap_below_one_refused(self, cap, monkeypatch):
        # a cap that is not an int is refused too, a bool included, as a
        # bool is no node id; before, True and 2.5 were taken as caps and a
        # string escaped as a raw TypeError
        want = f"^node cap must be a positive integer, got {cap!r}$"
        for solve in (cooling_number, max_sequence_length, burning_number):
            with pytest.raises(ValueError, match=want) as err:
                solve(gen_path(5), SearchLimits(max_nodes=cap))
            assert not isinstance(err.value, GraphTooLargeError)
        if type(cap) is int:
            monkeypatch.setenv("COOLNUM_MAX_NODES", str(cap))
            for solve in (cooling_number, max_sequence_length, burning_number):
                with pytest.raises(ValueError, match=want) as err:
                    solve(gen_path(5))
                assert not isinstance(err.value, GraphTooLargeError)

    def test_explicit_cap_beats_env_cap(self, monkeypatch):
        monkeypatch.setenv("COOLNUM_MAX_NODES", "5")
        assert cooling_number(gen_path(8), SearchLimits(max_nodes=8)).value == 5
        with pytest.raises(GraphTooLargeError):
            max_sequence_length(gen_path(8))

    def test_time_budget_zero_trips(self):
        with pytest.raises(TimeBudgetExceededError):
            cooling_number(gen_path(16), SearchLimits(max_nodes=16, time_budget=0.0),
                           prune=False)

    @pytest.mark.parametrize("solve", [cooling_number, max_sequence_length, burning_number])
    def test_time_budget_checked_on_the_first_state(self, solve):
        # a 1-node graph too: the cooling-side first state is its empty boundary
        for n in (5, 1):
            with pytest.raises(TimeBudgetExceededError):
                solve(gen_path(n), SearchLimits(time_budget=0))

    @pytest.mark.parametrize("budget", [float("nan"), -1, True, "1"])
    def test_nan_or_negative_time_budget_refused(self, budget):
        # a bool or a string is no number of seconds either
        want = f"^time budget must be a non-negative number of seconds, got {budget!r}$"
        for g in (gen_cycle(24), gen_path(18)):
            for solve in (cooling_number, max_sequence_length, burning_number):
                with pytest.raises(ValueError, match=want):
                    solve(g, SearchLimits(max_nodes=40, time_budget=budget))

    def test_cycle_symmetry_restriction_matches_full_search(self):
        for n in (5, 8, 11):
            g = gen_cycle(n)
            full = all_roots(g, solver._ROUNDS)
            orbit = cooling_number(g, first_sources=[0])
            assert (orbit.value, list(orbit.witness.sources)) == full

    def test_parallel_jobs_match_serial(self):
        """``jobs`` is accepted and ignored: the same value, witness and work."""
        def counters(res):
            s = res.stats
            return (s.expanded, s.memo_hits, s.roots, s.ecc_cuts, s.counting_cuts)

        for solve in (cooling_number, max_sequence_length):
            for g in (gen_path(9), gen_complete_caterpillar(5)):  # several orbits each
                serial = solve(g, jobs=1)
                for jobs in (0, 2, 8):
                    res = solve(g, jobs=jobs)
                    assert (res.value, res.witness, counters(res)) == (
                        serial.value, serial.witness, counters(serial))

    def test_stats_populated(self):
        res = cooling_number(gen_path(8))
        assert res.stats.expanded > 0
        assert res.stats.wall_time >= 0.0

    def test_first_sources_checked_on_a_single_node(self):
        for solve in (cooling_number, max_sequence_length):
            for bad in ([5], [-1], []):
                with pytest.raises(GraphError, match="first_sources"):
                    solve(gen_path(1), first_sources=bad)
            assert solve(gen_path(1), first_sources=[0]).value == 1

    @pytest.mark.parametrize("bad", [[True], [1.5], [0, 2.0]])
    def test_first_sources_must_be_ints(self, bad):
        # True equals node 1 and 2.0 equals node 2, but neither is a node id
        for solve in (cooling_number, max_sequence_length):
            with pytest.raises(GraphError, match=r"^first_sources must be node ids in 0\.\.2$"):
                solve(gen_path(3), first_sources=bad)


def spider_with_legs(*legs):
    """The spider with one leg of each given length; node 0 is the centre and
    each leg's nodes are numbered outward, one leg after the other."""
    edges, nxt = [], 1
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
    return build_graph(nxt, edges)


def seeded_tree_60():
    """The second of three random trees of 50, 60 and 70 nodes drawn in turn
    from ``random.Random(5)``."""
    rng = random.Random(5)
    return [random_connected_graph(rng, n, 0.0) for n in (50, 60, 70)][1]


class TestPinnedWork:
    """Deterministic work counts; a change here is a change to the search."""

    LIMITS = SearchLimits(max_nodes=25)

    def test_grid5(self):
        stats = cooling_number(gen_grid(5), self.LIMITS).stats
        assert (stats.expanded, stats.ecc_cuts, stats.counting_cuts) == (11, 37, 17)

    def test_cycle24(self):
        stats = cooling_number(gen_cycle(24), self.LIMITS).stats
        assert (stats.expanded, stats.ecc_cuts, stats.counting_cuts) == (8, 0, 4)

    def test_cycle60(self):
        # 52,959 states when the counting bound alone cut calls; at the
        # floor 2 of a biconnected graph the table's root entry is the
        # cycle's value, so every probe above it is cut at the root
        res = cooling_number(gen_cycle(60), SearchLimits(max_nodes=60))
        s = res.stats
        assert (res.value, s.expanded, s.memo_hits, s.ecc_cuts, s.counting_cuts) == (
            21, 20, 0, 0, 10)

    @pytest.mark.parametrize("solve, graph, pinned", [
        (cooling_number, gen_grid(6), (8, 28, 27, 279, 87)),
        (max_sequence_length, gen_grid(6), (8, 19, 5, 141, 17)),
        (cooling_number, gen_spider(4, 4), (7, 74, 75, 82, 405)),
        (max_sequence_length, gen_cycle(18), (6, 6, 0, 0, 3)),
    ], ids=["grid6", "seqlen-grid6", "spider-4x4", "seqlen-cycle18"])
    def test_search_workload_instances(self, solve, graph, pinned):
        res = solve(graph, SearchLimits(max_nodes=36))
        s = res.stats
        assert (res.value, s.expanded, s.memo_hits, s.ecc_cuts, s.counting_cuts) == pinned

    # instances that the cut for all children at once and the table read at
    # the key's size alone leave deep, 4,400 to 98,000 states each; a
    # spider with unequal legs has no automorphism, so the orbit reduction
    # does not shrink it
    @pytest.mark.parametrize("graph, pinned, witness", [
        (gen_grid(8), (11, 581, 3900, 12157, 1689), [0, 2, 4, 6, 15, 29, 43, 57, 60, 62]),
        (gen_grid(10), (15, 1880, 17891, 60713, 5103),
         [0, 2, 4, 23, 41, 8, 62, 80, 91, 57, 76, 95, 79, 98]),
        (spider_with_legs(5, 6, 7, 8, 9), (14, 1714, 8101, 11772, 14661),
         [11, 18, 16, 14, 5, 3, 1, 20, 22, 24, 26, 32, 34]),
        (spider_with_legs(3, 4, 5, 6, 7, 8, 9), (15, 2439, 20971, 11720, 18129),
         [25, 33, 31, 7, 28, 3, 1, 8, 10, 12, 16, 18, 39, 41]),
        (seeded_tree_60(), (14, 14, 0, 79, 12), [11, 0, 6, 14, 9, 7, 1, 5, 3, 12, 29, 47, 26]),
    ], ids=["grid8", "grid10", "spider-legs-5-9", "spider-legs-3-9", "random-tree-60"])
    def test_deep_instances(self, graph, pinned, witness):
        res = cooling_number(graph, SearchLimits(max_nodes=graph.n))
        s = res.stats
        assert (res.value, s.expanded, s.memo_hits, s.ecc_cuts, s.counting_cuts) == pinned
        assert list(res.witness.sources) == witness

    @pytest.mark.parametrize("graph, pinned, witness", [
        (gen_grid(8), (11, 84, 141, 1684, 135), [0, 2, 4, 19, 7, 41, 56, 58, 46, 61, 63]),
        (gen_grid(10), (14, 1591, 9256, 62262, 2827),
         [0, 2, 4, 6, 25, 9, 53, 71, 90, 92, 94, 78, 97, 99]),
        (spider_with_legs(5, 6, 7, 8, 9), (14, 1673, 6181, 18118, 10272),
         [26, 24, 11, 9, 5, 3, 1, 12, 14, 16, 18, 31, 33, 35]),
    ], ids=["grid8", "grid10", "spider-legs-5-9"])
    def test_deep_instances_sources(self, graph, pinned, witness):
        res = max_sequence_length(graph, SearchLimits(max_nodes=graph.n))
        s = res.stats
        assert (res.value, s.expanded, s.memo_hits, s.ecc_cuts, s.counting_cuts) == pinned
        assert list(res.witness.sources) == witness

    def test_global_cap_stops_the_root_loop(self):
        # the first probe is the order cap 9 // 2 + 1 = 5, below the diameter
        # cap 9, and the first root reaches it, so no second probe is made
        res = cooling_number(gen_path(9))
        assert (res.value, res.stats.expanded, res.stats.memo_hits) == (5, 5, 0)
        assert res.stats.probes == 1

    def test_reference_probes_down_from_n(self):
        # the unpruned reference does not assume the caps: on P_9 it probes
        # 9, 8, 7, 6 and 5, where the pruned search starts at the order cap 5
        res = cooling_number(gen_path(9), prune=False)
        assert (res.value, res.stats.probes) == (5, 5)

    def test_seqlen_grid5(self):
        stats = max_sequence_length(gen_grid(5), self.LIMITS).stats
        assert (stats.expanded, stats.ecc_cuts, stats.counting_cuts) == (9, 29, 5)

    def test_seqlen_spider_4x4(self):
        # the source count's counting cut fails calls here; one looser on
        # even u, (u - 1) // 2 read as u // 2, would nearly double the work
        res = max_sequence_length(gen_spider(4, 4), self.LIMITS)
        s = res.stats
        assert (res.value, s.expanded, s.memo_hits, s.ecc_cuts, s.counting_cuts) == (
            7, 37, 9, 84, 162)

    def test_seqlen_search_pool_graph_10(self):
        # 85,883 states when the source count was capped by counting alone
        res = max_sequence_length(search_pool_graph(10), SearchLimits(max_nodes=40))
        assert (res.value, res.stats.expanded) == (6, 6)

    def test_path40_jobs2_searches_serially(self):
        # 670,224 states when jobs=2 split the roots over two pooled workers
        res = cooling_number(gen_path(40), SearchLimits(max_nodes=40), jobs=2)
        assert (res.value, res.stats.expanded) == (21, 20)

    # the cover search tries the largest ball first, so its first cover, the
    # witness, and its work depend on the radius order; its work also
    # depends on the capacity bound and on the first round count it tries
    @pytest.mark.parametrize("graph, pinned", [
        (gen_path(9), (3, (2, 6, 8), 3, 0)),
        (gen_grid(4), (4, (0, 2, 15, 13), 17, 0)),
        (gen_cycle(8), (3, (0, 3, 5), 3, 0)),
        (gen_grid(10), (6, (13, 68, 70, 94, 9, 29), 11673, 10303)),
    ], ids=["path9", "grid4", "cycle8", "grid10"])
    def test_burning_witness_and_work(self, graph, pinned):
        res = burning_number(graph, SearchLimits(max_nodes=graph.n))
        assert (res.value, res.witness.sources, res.stats.expanded, res.stats.memo_hits) == pinned

    def test_cuts_are_zero_without_pruning_and_for_burning(self, corpus):
        # the reference reads a table that no probe exceeds and whose cut
        # radius is negative, so it cuts nothing
        for name, g in corpus:
            for solve in (cooling_number, max_sequence_length):
                stats = solve(g, prune=False).stats
                assert (stats.ecc_cuts, stats.counting_cuts, stats.capacity_cuts) == (0, 0, 0), (
                    solve.__name__, name)
        stats = cooling_number(gen_cycle(9)).stats
        assert stats.capacity_cuts == 0
        stats = max_sequence_length(gen_grid(4)).stats
        assert stats.capacity_cuts == 0
        stats = burning_number(gen_grid(4)).stats
        assert (stats.roots, stats.ecc_cuts, stats.counting_cuts, stats.capacity_cuts) == (
            0, 0, 0, 80)


def ecc_by_bfs(g, mask):
    """Greatest hop distance from the set ``mask`` of a connected graph."""
    seen = mask
    frontier = [i for i in range(g.n) if mask >> i & 1]
    d = 0
    while True:
        nxt = []
        for v in frontier:
            for w in g.adj[v]:
                if not seen >> w & 1:
                    seen |= 1 << w
                    nxt.append(w)
        if not nxt:
            return d
        d += 1
        frontier = nxt


@lru_cache(maxsize=None)
def search_states(g):
    """The vectors the pruned search carries on ``g`` for both objectives,
    and for the unpruned one as well on graphs of up to 10 nodes."""
    vectors = set()
    for objective in (solver._ROUNDS, solver._SOURCES):
        for prune in (True, False) if g.n <= 10 else (True,):
            vectors |= carried_vectors(solver._MaxSearch(g, objective, prune, math.inf))
    return vectors


def test_within_matches_bfs_eccentricity(corpus, within_scan):
    """Radius ``r`` of a carried vector is every node exactly when its key
    has eccentricity at most ``r``; so is the scan, on random sets."""
    rng = random.Random(23)
    graphs = [g for _, g in corpus if g.n > 1] + [gen_grid(6), gen_cycle(24)]
    for g in graphs:
        full, d = (1 << g.n) - 1, diameter(g)
        for near in search_states(g):
            if not near[0]:
                continue  # the empty boundary has no eccentricity
            ecc = ecc_by_bfs(g, near[0])
            for r in range(min(len(near), d + 1)):
                assert (near[r] == full) == (ecc <= r), (g.adj, near[0], r)
                assert within_scan(g, near[0], r) == (ecc <= r), (g.adj, near[0], r)
        for _ in range(20):
            mask = sum(1 << v for v in rng.sample(range(g.n), rng.randrange(1, g.n + 1)))
            ecc = ecc_by_bfs(g, mask)
            for r in range(d + 1):
                assert within_scan(g, mask, r) == (ecc <= r), (g.adj, mask, r)


def test_child_test_by_ball_union_matches_scan(corpus, within_scan):
    """The search's per-child test, ``near[r] | ball(s, r) == full``, says
    the same as scanning every node of the child boundary ``K | {s}``, for
    ten seeded picks per graph among the post-spread sets ``K`` the search
    carries, every source ``s`` outside it and every radius its vector holds
    up to the diameter (a call at threshold ``t`` uses ``t - 2`` for rounds
    and ``t - 1`` for sources)."""
    rng = random.Random(29)
    graphs = [g for _, g in corpus if g.n > 1] + [gen_grid(6), gen_cycle(24)]
    for g in graphs:
        full, d = (1 << g.n) - 1, diameter(g)
        vectors = sorted(search_states(g))
        for near in rng.sample(vectors, min(len(vectors), 10)):
            key = near[0]
            lows = [s for s in range(g.n) if not key >> s & 1]
            for r in range(min(len(near), d + 1)):
                for s in lows:
                    child = key | 1 << s
                    assert ((near[r] | g.balls[s][r]) == full) == within_scan(g, child, r), \
                        (g.adj, key, s, r)


def test_cut_mask_matches_the_per_child_test(corpus):
    """The set of children the search cuts at radius ``r``, the AND over the
    nodes ``u`` outside ``near[r]`` of ``u``'s radius-``r`` ball, restricted
    to the nodes outside the key, is the set of children ``s`` with
    ``near[r] | ball(s, r) == full``: hop distance is symmetric. Checked on
    every vector the search carries, the empty boundary's included, at every
    radius it holds up to the diameter."""
    graphs = [g for _, g in corpus] + [gen_grid(6), gen_cycle(24)]
    partial = 0  # masks that cut some children but not all
    for g in graphs:
        full, d, balls = (1 << g.n) - 1, diameter(g), g.balls
        for near in search_states(g):
            children = full ^ near[0]
            for r in range(min(len(near), d + 1)):
                cut = children
                for u in range(g.n):
                    if not near[r] >> u & 1:
                        cut &= balls[u][r]
                tested = sum(1 << s for s in range(g.n)
                             if children >> s & 1 and near[r] | balls[s][r] == full)
                assert cut == tested, (g.adj, near[0], r)
                partial += 0 < cut != children
    assert partial > 1000


def test_each_state_carries_the_bfs_reach_of_its_key(corpus):
    """At every state the search expands, ``near[j]`` is the set of nodes
    within ``j`` hops of the key ``near[0]``, for ``j = 0..diameter``; a
    radius past the vector's end holds every node, so the search never
    needs it."""
    graphs = [g for _, g in corpus] + [gen_grid(6), gen_cycle(24), gen_path(1), gen_path(2)]
    for g in graphs:
        full, d = (1 << g.n) - 1, diameter(g)
        vectors = search_states(g)
        assert any(not near[0] for near in vectors)  # the first round is expanded
        for near in vectors:
            reach = reach_by_bfs(g, near[0], max(len(near), d + 1))
            for j in range(len(reach)):
                held = near[j] if j < len(near) else full
                assert held == reach[j], (g.adj, near, j)


class TestPostSpreadKey:
    """The memo is keyed on ``N[C]``, the set a boundary ``C``'s next spread cools."""

    def test_boundaries_with_one_closed_neighbourhood_share_an_entry(self):
        # on P_5, the boundaries {1} and {0, 1} both spread to {0, 1, 2}
        g = gen_path(5)
        search = solver._MaxSearch(g, solver._ROUNDS, True, math.inf)
        key = spread_by_bfs(g, 0b00010)
        assert spread_by_bfs(g, 0b00011) == key == 0b00111
        assert search.at_least(2, *state(g, key))
        expanded, entries = search.expanded, len(search.memo)
        assert (expanded, entries) == (1, 1)
        assert search.at_least(2, *state(g, spread_by_bfs(g, 0b00011)))
        assert (search.expanded, len(search.memo), search.memo_hits) == (expanded, entries, 1)

    def test_spider_5x5_pinned(self):
        # with a child key that leaves out the source itself, reconstruct fails here
        g = gen_spider(5, 5)
        limits = SearchLimits(max_nodes=g.n)
        res = cooling_number(g, limits)
        assert (res.value, list(res.witness.sources)) == (10, [5, 9, 15, 13, 11, 16, 18, 20, 24])
        res = max_sequence_length(g, limits)
        assert (res.value, list(res.witness.sources)) == (9, [4, 8, 10, 11, 13, 15, 18, 20, 25])


class TestThresholdSearch:
    """``at_least(K, t)`` decides whether the run from key ``K`` reaches ``t``;
    the root is probed down from the order and diameter caps."""

    def test_probe_at_one_keeps_a_full_boundary(self):
        # on P_3 the key {0, 1} leaves node 2 alone, and the child boundary
        # with source 2 is full: one source and one round, though the child
        # lies within 0 hops of every node, so no cut runs at t = 1
        for objective in (solver._ROUNDS, solver._SOURCES):
            g = gen_path(3)
            search = solver._MaxSearch(g, objective, True, math.inf)
            assert search.at_least(1, *state(g, 0b011))
            assert not search.at_least(2, *state(g, 0b011))  # by counting, with no memo write
            lo, _, choice = search.memo[0b011]
            assert (lo, choice) == (1, 2)
        res = max_sequence_length(gen_path(1))
        assert (res.value, res.witness.sources) == (1, (0,))

    def test_witness_is_the_first_optimal_sequence(self, corpus, first_optimal):
        """At every state the walk takes the lowest-id child that keeps the
        optimum, so the witness is the lexicographically first optimal
        source sequence of all runs."""
        for name, g in corpus:
            for sources, solve in ((False, cooling_number), (True, max_sequence_length)):
                res = solve(g)
                assert (res.value, list(res.witness.sources)) == first_optimal(g, sources), name

    def test_a_failure_keeps_the_choice(self):
        # a later failure above lo narrows hi and leaves the choice that
        # witnesses lo, which the walk reads
        g = gen_path(5)
        search = solver._MaxSearch(g, solver._ROUNDS, False, math.inf)
        key = spread_by_bfs(g, 0b00001)
        assert search.at_least(2, *state(g, key))
        lo, _, choice = search.memo[key]
        assert not search.at_least(4, *state(g, key))
        assert search.memo[key] == (lo, 3, choice)


class TestMaxSequenceLength:
    def test_k1(self):
        assert max_sequence_length(gen_path(1)).value == 1

    def test_p2(self):
        assert max_sequence_length(gen_path(2)).value == 1

    def test_within_one_of_cooling_number(self):
        for g in small_sample():
            s = max_sequence_length(g).value
            cl = cooling_number(g).value
            assert s in (cl - 1, cl)

    def test_witness_source_count_is_value(self):
        for g in small_sample():
            res = max_sequence_length(g)
            assert len(res.witness.sources) == res.value

    def test_brute_force_agreement_on_tiny_graphs(self):
        # independent oracle counting selections instead of rounds
        def brute(g):
            n = g.n

            def rec(cooled: frozenset[int]) -> int:
                if len(cooled) == n:
                    return 0
                spread = set(cooled)
                for v in cooled:
                    spread.update(g.adj[v])
                if len(spread) == n:
                    return 0
                return 1 + max(rec(frozenset(spread | {s}))
                               for s in range(n) if s not in spread)

            if n == 1:
                return 1
            return 1 + max(rec(frozenset({s})) for s in range(n))

        rng = random.Random(59)
        graphs = [gen_path(5), gen_path(2), gen_cycle(7), gen_spider(3, 1),
                  gen_complete_caterpillar(3), complete_graph(4)]
        graphs += [random_connected_graph(rng, rng.randrange(2, 8), 0.3) for _ in range(10)]
        for g in graphs:
            assert max_sequence_length(g).value == brute(g)


# burning witnesses of the corpus graphs whose cover replays with a planned
# center already burned when its round comes
BURNED_CENTER_WITNESSES = {
    "cycle-5": [0, 2], "spider-2x2": [0, 2], "spider-3x2": [0, 2], "spider-3x3": [0, 2, 6],
    "spider-4x2": [0, 2], "spider-5x2": [0, 2], "random-2-n6": [0, 2], "random-20-n7": [0, 4],
    "random-21-n10": [0, 1], "random-22-n11": [8, 0], "random-25-n9": [0, 2],
    "random-30-n10": [0, 3], "random-34-n12": [0, 1], "random-38-n10": [0, 2],
    "random-39-n12": [0, 4], "random-43-n9": [0, 1], "random-46-n7": [0, 2],
    "random-50-n6": [0, 1], "random-51-n5": [0, 3], "random-59-n10": [0, 2],
    "random-64-n8": [0, 1], "random-65-n12": [0, 2], "random-69-n9": [0, 1],
    "random-70-n11": [0, 2], "random-83-n9": [0, 2], "random-84-n9": [0, 2],
    "random-85-n7": [0, 1], "random-86-n10": [0, 2], "random-93-n7": [0, 4],
    "random-96-n8": [0, 2], "random-97-n8": [0, 2], "random-98-n7": [0, 2],
    "random-104-n8": [0, 2], "random-110-n12": [0, 2], "random-116-n5": [0, 3],
    "random-126-n7": [0, 2], "random-127-n9": [0, 4], "random-132-n6": [0, 3],
    "random-137-n7": [0, 1], "random-139-n11": [0, 2], "random-141-n10": [0, 4],
    "random-142-n11": [0, 1], "random-143-n8": [0, 4], "random-144-n11": [0, 1],
    "random-152-n10": [0, 1], "random-155-n8": [0, 3], "random-156-n6": [0, 1],
    "random-165-n10": [0, 1],
}


class TestBurningNumber:
    def test_p9(self):
        assert burning_number(gen_path(9)).value == 3

    def test_k5(self):
        assert burning_number(complete_graph(5)).value == 2

    def test_c8(self):
        assert burning_number(gen_cycle(8)).value == 3

    def test_brute_force_agreement_on_tiny_graphs(self):
        # independent oracle: DFS over the actual burning process
        def brute(g):
            n = g.n

            def rec(burned: frozenset[int]) -> int:
                if len(burned) == n:
                    return 0
                spread = set(burned)
                for v in burned:
                    spread.update(g.adj[v])
                if len(spread) == n:
                    return 1
                return 1 + min(rec(frozenset(spread | {s}))
                               for s in range(n) if s not in spread)

            if n == 1:
                return 1
            return 1 + min(rec(frozenset({s})) for s in range(n))

        rng = random.Random(97)
        graphs = [gen_path(5), gen_cycle(6), gen_spider(3, 1), gen_complete_caterpillar(3)]
        graphs += [random_connected_graph(rng, rng.randrange(2, 8), 0.3) for _ in range(8)]
        for g in graphs:
            assert burning_number(g).value == brute(g)

    def test_witness_replays_to_value(self):
        for g in small_sample():
            res = burning_number(g)
            replay = validate_sequence(g, res.witness.sources)
            assert replay.num_rounds == res.value

    def test_at_most_cooling_number(self):
        for g in small_sample():
            assert burning_number(g).value <= cooling_number(g).value

    def test_over_limit_refused(self):
        with pytest.raises(GraphTooLargeError):
            burning_number(gen_path(25))

    def test_library_call_honours_env_cap(self, monkeypatch):
        monkeypatch.setenv("COOLNUM_MAX_NODES", "26")
        assert burning_number(gen_path(26)).value == 6

    def test_witness_where_a_planned_center_is_already_burned(self, corpus):
        # on these graphs some center of the cover is burned before its
        # round, and the smallest unburned node takes that round instead
        got = {name: list(burning_number(g).witness.sources)
               for name, g in corpus if name in BURNED_CENTER_WITNESSES}
        assert got == BURNED_CENTER_WITNESSES

    def test_same_cover_as_the_unpruned_search(self, corpus, unpruned_burn):
        """The capacity bound and the later start cut no cover, so value and
        witness are the unpruned search's, on the corpus and on seeded random
        graphs of up to 24 nodes, the default cap."""
        rng = random.Random(23)
        graphs = list(corpus)
        for i in range(40):
            n, p = rng.randrange(8, 25), rng.choice((0.0, 0.1, 0.3))
            graphs.append((f"random-{i}", random_connected_graph(rng, n, p)))
        for name, g in graphs:
            res = burning_number(g)
            assert (res.value, list(res.witness.sources)) == unpruned_burn(g), name

    @pytest.mark.parametrize("gen, low", [(gen_path, 1), (gen_cycle, 3)], ids=["path", "cycle"])
    def test_paths_and_cycles_burn_in_ceil_sqrt_n(self, gen, low):
        """``b(P_n) = b(C_n) = ceil(sqrt(n))`` (Bonato, Janssen and Roshanbin,
        "How to burn a graph", 2016), up to 100 nodes."""
        limits = SearchLimits(max_nodes=100)
        for n in range(low, 101):
            assert burning_number(gen(n), limits).value == math.isqrt(n - 1) + 1, n

    def test_burning_number_conjecture_over_corpus(self, corpus):
        """``b(G) <= ceil(sqrt(n))`` on every corpus graph.

        This is the burning number conjecture of Bonato, Janssen and
        Roshanbin, "How to burn a graph" (2016); it is open in general. A
        failure here would be a counterexample, so a finding, not a bug.
        """
        for name, g in corpus:
            assert burning_number(g).value <= math.isqrt(g.n - 1) + 1, name


# the benchmark's search pool: sparse random graphs of 30 to 40 nodes
SEARCH_POOL = (2, 3, 7, 8, 9, 10, 11, 12, 13, 14, 17, 18, 20, 21, 22, 25, 27, 28, 31)


def search_pool_graph(i):
    return random_connected_graph(random.Random(10_000 + i), 30 + i % 11, 0.05)


class TestOrbitReduction:
    """One first source per orbit gives the all-roots search's value and witness."""

    def test_corpus_matches_all_roots(self, corpus):
        for name, g in corpus:
            for objective, solve in ((solver._ROUNDS, cooling_number),
                                     (solver._SOURCES, max_sequence_length)):
                res = solve(g)
                assert (res.value, list(res.witness.sources)) == all_roots(g, objective), name

    def test_search_pool_matches_all_roots(self):
        limits = SearchLimits(max_nodes=40)
        for i in SEARCH_POOL:
            g = search_pool_graph(i)
            for objective, solve in ((solver._ROUNDS, cooling_number),
                                     (solver._SOURCES, max_sequence_length)):
                res = solve(g, limits)
                assert (res.value, list(res.witness.sources)) == all_roots(g, objective), i

    def test_roots_counts_one_per_orbit(self):
        limits = SearchLimits(max_nodes=25)
        assert cooling_number(gen_cycle(12)).stats.roots == 1
        assert cooling_number(gen_path(9)).stats.roots == 5
        assert max_sequence_length(gen_grid(5), limits).stats.roots == 6
        # corners and the centre: two orbits among five listed nodes
        res = cooling_number(gen_grid(5), limits, first_sources=[24, 0, 4, 12, 20])
        assert res.stats.roots == 2
        assert burning_number(gen_cycle(12)).stats.roots == 0

    def test_fewer_states_than_all_roots(self):
        g = gen_spider(3, 4)
        # CL = 6 stays below min(d + 1, n // 2 + 1) = 7, so no cut ends the first round early
        search = solver._MaxSearch(g, solver._ROUNDS, True, math.inf)
        search.solve(search.full)
        assert cooling_number(g).stats.expanded < search.expanded


class TestFirstRound:
    """The first round is the search state of the empty boundary, whose
    children are the listed first sources."""

    def test_root_mask_matches_single_first_sources(self):
        rng = random.Random(67)
        for _ in range(60):
            g = random_connected_graph(rng, rng.randrange(6, 15), rng.choice([0.1, 0.3]))
            listed = rng.sample(range(g.n), rng.randrange(1, g.n + 1))
            for solve in (cooling_number, max_sequence_length):
                res = solve(g, first_sources=listed)
                singles = {s: solve(g, prune=False, first_sources=[s]) for s in sorted(listed)}
                best = max(r.value for r in singles.values())
                lowest = min(s for s, r in singles.items() if r.value == best)
                assert res.value == best, (g.adj, listed)
                assert res.witness.sources[0] == lowest, (g.adj, listed)
                assert res.witness == singles[lowest].witness, (g.adj, listed)

    def test_counting_bound_is_sound_and_tight(self, corpus):
        """From a state with ``u`` nodes outside its key at most ``u // 2 + 1``
        rounds and ``(u - 1) // 2 + 1`` sources remain, and every memo state
        of the unpruned search obeys both, each state's value taken from an
        unpruned threshold ladder; each bound is met for every ``u`` up to 10,
        so a cut one lower would lose answers."""
        for objective, bound in ((solver._ROUNDS, lambda u: u // 2 + 1),
                                 (solver._SOURCES, lambda u: (u - 1) // 2 + 1)):
            met = set()
            for name, g in corpus:
                search = solver._MaxSearch(g, objective, False, math.inf)
                search.solve(search.full)
                for key in list(search.memo):
                    value = ladder_value(search, g, key)
                    u = g.n - key.bit_count()
                    assert value <= bound(u), (name, objective, key)
                    if value == bound(u):
                        met.add(u)
            assert met >= set(range(1, 11)), objective


class TestGainTable:
    """``solver._gains``: the most rounds or sources a run can still gain
    from a key of each size, at the graph's vertex connectivity."""

    def test_connectivity_one_is_the_counting_bound(self):
        for n in range(1, 41):
            rounds = solver._gains(n, 1, solver._ROUNDS)
            sources = solver._gains(n, 1, solver._SOURCES)
            for a in range(n + 1):
                u = n - a
                assert (rounds[a], sources[a]) == (u // 2 + 1, (u - 1) // 2 + 1), (n, a)

    def test_never_rises(self):
        # so the entry of the least key a child can have bounds every larger one
        for n in range(1, 41):
            for kappa in range(n):
                for objective in (solver._ROUNDS, solver._SOURCES):
                    most = solver._gains(n, kappa, objective)
                    assert len(most) == n + 1
                    assert all(a >= b for a, b in zip(most, most[1:])), (n, kappa, objective)

    @staticmethod
    def memo_states(corpus):
        """``(graph, objective, table, key, value)`` for every memo state of
        the unpruned search, both objectives, on the corpus graphs of up to 10
        nodes, cycles, complete graphs and dense random graphs; each value is
        taken from an unpruned threshold ladder."""
        rng = random.Random(83)
        graphs = [g for _, g in corpus if g.n <= 10]
        graphs += [gen_cycle(n) for n in range(5, 13)] + [complete_graph(n) for n in range(2, 8)]
        graphs += [random_connected_graph(rng, rng.randrange(7, 10), rng.choice([0.5, 0.7]))
                   for _ in range(20)]
        for g in graphs:
            for objective in (solver._ROUNDS, solver._SOURCES):
                most = solver._gains(g.n, vertex_connectivity(g), objective)
                search = solver._MaxSearch(g, objective, False, math.inf)
                search.solve(search.full)
                for key in list(search.memo):
                    yield g, objective, most, key, ladder_value(search, g, key)

    def test_sound_on_every_memo_state_and_met(self, corpus):
        """Every memo state stays within the table at its graph's
        connectivity; at each connectivity 1 to 4 some state below ``n - 1``
        nodes meets it for each objective, so the table is reached there,
        not only an upper bound."""
        met = set()
        for g, objective, most, key, value in self.memo_states(corpus):
            a = key.bit_count()
            assert value <= most[a], (g.adj, objective, key)
            if value == most[a] and a < g.n - 1:
                met.add((vertex_connectivity(g), objective))
        assert met >= {(k, obj) for k in range(1, 5) for obj in (solver._ROUNDS, solver._SOURCES)}

    def test_sound_along_the_spread_and_sharper(self, corpus):
        """Every memo state ``K`` gains at most ``j + most[|near_j(K)|]`` for
        each radius ``j``, where ``near_j(K)``, the union of the radius-``j``
        balls of ``K``'s nodes, is the set spread alone cools in ``j`` more
        rounds: a run that lasts ``j`` more has a key holding it by then. For
        each objective some state has this bound below ``most[|K|]``, so it
        cuts calls that the key's size alone does not."""
        sharper = set()
        for g, objective, most, key, value in self.memo_states(corpus):
            members = [g.balls[v] for v in range(g.n) if key >> v & 1]
            bounds = [j + most[reduce(or_, (ball[j] for ball in members), 0).bit_count()]
                      for j in range(1, len(g.balls[0]))]
            assert value <= min(bounds), (g.adj, objective, key, bounds)
            if min(bounds) < most[key.bit_count()]:
                sharper.add(objective)
        assert sharper == {solver._ROUNDS, solver._SOURCES}


class TestBoundsDuringSearch:
    def test_diameter_sandwich_on_sample(self):
        for g in small_sample():
            cl = cooling_number(g).value
            d = diameter(g)
            assert (d + 3) // 2 <= cl <= min(d + 1, (g.n + 2) // 2)

    def test_global_caps_hold_and_are_met(self, corpus, first_optimal):
        """The diameter and order caps on a whole run, which the search takes
        as its first probe and then counts down from. The pruned search
        cannot exceed its first probe, so the caps are checked on the
        solver-free run enumeration (and against the unpruned search, which
        probes from n, in ``test_no_prune_matches``)."""
        def global_cap(g, solve):
            n, d = g.n, diameter(g)
            if solve is cooling_number:
                return min(d + 1, (n + 2) // 2)
            return min(d, (n + 1) // 2)

        for name, g in corpus:
            if g.n > 1:
                for sources, solve in ((False, cooling_number), (True, max_sequence_length)):
                    cap = global_cap(g, solve)
                    assert first_optimal(g, sources)[0] <= cap, name
                    res = solve(g)
                    assert res.stats.probes == cap - res.value + 1, name
        # on these sparse graphs a run reaches d + 1 rounds with d sources
        for i in (2, 11, 13):
            g = search_pool_graph(i)
            d = diameter(g)
            assert global_cap(g, cooling_number) == d + 1
            assert global_cap(g, max_sequence_length) == d
            assert cooling_number(g, SearchLimits(max_nodes=40)).value == d + 1, i
            assert max_sequence_length(g, SearchLimits(max_nodes=40)).value == d, i


def test_sequence_length_tracks_cooling_number_over_corpus(corpus_with_cl):
    for name, g, res in corpus_with_cl:
        s = max_sequence_length(g).value
        assert s in (res.value - 1, res.value), (name, s, res.value)


def test_five_by_five_grid_needs_seven_rounds():
    # pinned: exact search, the profile recurrence, and the simplicial
    # strategy all give 7, one above the formula's width-2 window [4, 6]
    from coolnum.bounds import grid_iso_profile, iso_upper_bound
    from coolnum.strategies import grid_simplicial_strategy

    assert cooling_number(gen_grid(5), SearchLimits(max_nodes=25)).value == 7
    assert iso_upper_bound(grid_iso_profile(5)).value == 7
    assert grid_simplicial_strategy(5).num_rounds == 7
