from __future__ import annotations

import random
from itertools import repeat

import pytest

from coolnum.corpus import random_connected_graph
from coolnum.engine import (
    InvalidSourceError,
    Script,
    read_trace,
    run_cooling,
    trace_from_json_obj,
    trace_to_json_obj,
    validate_sequence,
    write_trace,
)
from coolnum.generators import (
    gen_complete_caterpillar,
    gen_cycle,
    gen_grid,
    gen_path,
)
from coolnum.graphs import DisconnectedGraphError, Graph, GraphError, build_graph, diameter


def defer(g, cooled, t):
    """A policy that always takes the engine's smallest-uncooled fallback."""
    return None


class TestRunCooling:
    def test_single_node_one_round(self):
        trace = run_cooling(gen_path(1), defer)
        assert trace.num_rounds == 1
        assert trace.sources == (0,)

    def test_p2_forced_two_rounds(self):
        trace = run_cooling(gen_path(2), defer)
        assert trace.num_rounds == 2
        assert trace.sources == (0,)  # round 2's spread cools node 1 first

    def test_c8_best_sequence_gives_four(self):
        trace = validate_sequence(gen_cycle(8), [0, 2, 5])
        assert trace.num_rounds == 4

    def test_round_one_has_empty_spread_and_a_source(self):
        trace = run_cooling(gen_cycle(5), defer)
        assert trace.rounds[0].spread == frozenset()
        assert trace.rounds[0].source is not None

    def test_policy_returning_cooled_node_rejected(self):
        def bad(g, cooled, t):
            return 0

        with pytest.raises(InvalidSourceError) as err:
            run_cooling(gen_path(4), bad)
        assert err.value.round == 2
        assert err.value.node == 0

    def test_policy_returning_out_of_range_rejected(self):
        with pytest.raises(InvalidSourceError):
            run_cooling(gen_path(3), lambda g, cooled, t: 99)

    @pytest.mark.parametrize("bad", [False, True, 2.0, "a"])
    def test_policy_returning_non_int_rejected(self, bad):
        with pytest.raises(InvalidSourceError, match="^round 1: policy returned invalid node"):
            run_cooling(gen_path(4), lambda g, cooled, t: bad)

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            run_cooling(build_graph(4, [(0, 1), (2, 3)]), defer)

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError, match="^process needs at least one node$"):
            run_cooling(Graph(0, ()), defer)

    def test_none_takes_smallest_uncooled_after_scripted_picks(self):
        script = {1: 6}  # round 1 picks the far end, later rounds defer
        trace = run_cooling(gen_path(7), lambda g, cooled, t: script.get(t))
        assert trace.sources == (6, 0, 2)
        assert trace.num_rounds == 4

    def test_scripted_pick_after_none_keeps_the_fallback_right(self):
        script = {2: 6}  # round 1 defers (node 0), round 2 picks node 6
        trace = run_cooling(gen_path(7), lambda g, cooled, t: script.get(t))
        assert trace.sources == (0, 6, 3)
        assert trace.num_rounds == 4

    def test_none_matches_a_full_scan_for_the_smallest_uncooled(self):
        def policy(scan):
            def pick(g, cooled, t):
                uncooled = [v for v in range(g.n) if v not in cooled]
                if t % 3 == 1:
                    return uncooled[-1]
                return uncooled[0] if scan else None
            return pick

        rng = random.Random(11)
        for _ in range(30):
            g = random_connected_graph(rng, rng.randrange(2, 16), rng.choice((0.1, 0.3)))
            assert run_cooling(g, policy(False)) == run_cooling(g, policy(True))


class TestValidateSequence:
    def test_p5_every_other_node(self):
        trace = validate_sequence(gen_path(5), [0, 2, 4])
        assert trace.num_rounds == 3
        assert trace.sources == (0, 2, 4)

    def test_repeat_names_element_and_round(self):
        with pytest.raises(InvalidSourceError) as err:
            validate_sequence(gen_cycle(8), [0, 0])
        assert err.value.node == 0
        assert err.value.round == 2
        assert "already cooled" in str(err.value)

    def test_caterpillar_reference_sequence(self):
        trace = validate_sequence(gen_complete_caterpillar(6), [0, 6, 7, 8, 9])
        assert trace.num_rounds == 6

    def test_auto_extends_with_smallest_id(self):
        # on C6, after (0,) the run keeps selecting the smallest uncooled node
        trace = validate_sequence(gen_cycle(6), [0])
        assert trace.num_rounds >= 2
        assert trace.sources[0] == 0
        assert len(trace.sources) >= 2

    @pytest.mark.parametrize("bad", [False, True, 2.0, "a", None])
    def test_non_int_element_rejected(self, bad):
        # False equals node 0 and 2.0 node 2, but neither is a node id
        with pytest.raises(InvalidSourceError, match="^round 1: sequence element .* is not a "
                                                     "node id$") as err:
            validate_sequence(gen_path(4), [bad])
        assert err.value.node is bad and err.value.round == 1

    @pytest.mark.parametrize("seq, node, round_index", [
        ([2, 3, -1, 3], 3, 2),  # a repeat in round 2 before a bad id in round 3
        ([0, 9, 0], 9, 2),  # a bad id in round 2 before a repeat in round 3
        ([0, "a", 9], "a", 2),  # a non-id in round 2 before a bad id in round 3
        ([1, 2, 0, 0], 2, 2),  # a node cooled by spread before a later repeat
    ])
    def test_first_fault_in_round_order_wins(self, seq, node, round_index):
        with pytest.raises(InvalidSourceError) as err:
            validate_sequence(gen_cycle(5), seq)
        assert (err.value.node, err.value.round) == (node, round_index)

    def test_unplayable_tail_rejected(self):
        with pytest.raises(InvalidSourceError) as err:
            validate_sequence(gen_path(2), [0, 1])
        assert "never selected" in str(err.value)


class TestScript:
    def test_picks_the_first_uncooled_candidate_of_each_entry(self):
        # in round 2, node 1 is round 1's source and 2 is spread to, so 3 is picked
        trace = run_cooling(gen_path(7), Script([(1,), (1, 2, 3), (6, 4)]))
        assert trace.sources == (1, 3, 6)

    def test_fallback_once_the_entries_run_out(self):
        trace = run_cooling(gen_path(7), Script([(6,)]))
        assert trace.sources == (6, 0, 2)

    def test_entry_with_every_candidate_cooled_is_rejected(self):
        with pytest.raises(InvalidSourceError, match="^round 2: node 1 is already cooled$") as err:
            run_cooling(gen_path(7), Script([(1,), (0, 2, 1)]))
        assert (err.value.node, err.value.round) == (1, 2)

    @pytest.mark.parametrize("entries", [[[0], []], repeat(iter([0]))],
                             ids=["empty", "iterator-run-dry"])
    def test_entry_without_a_node_is_rejected(self, entries):
        with pytest.raises(InvalidSourceError,
                           match="^round 2: script entry names no uncooled node$") as err:
            run_cooling(gen_path(4), Script(entries))
        assert (err.value.node, err.value.round) == (None, 2)

    def test_one_iterator_shared_by_every_round(self):
        # the skipped nodes stay cooled, so one pass over the order suffices
        order = [3, 0, 1, 2, 6, 4, 5]
        trace = run_cooling(gen_path(7), Script(repeat(iter(order))))
        assert trace.sources == (3, 0, 6)


class TestRunBurning:
    def test_p9_good_sequence_gives_three(self):
        trace = validate_sequence(gen_path(9), [2, 6, 8])
        assert trace.num_rounds == 3


class _SeededPolicy:
    """Deterministic pseudo-random policy for property checks."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def __call__(self, g, cooled, t):
        return self.rng.choice([v for v in range(g.n) if v not in cooled])


class _BorderPolicy(_SeededPolicy):
    """Picks a border node (uncooled, next to a cooled one) while there is
    one, so that most rounds take their source off the engine's border."""

    def __call__(self, g, cooled, t):
        border = sorted({w for v in cooled for w in g.adj[v]} - cooled)
        return self.rng.choice(border) if border else super().__call__(g, cooled, t)


def _relabeled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _random_runs():
    rng = random.Random(7)
    graphs = [random_connected_graph(rng, rng.randrange(2, 11), rng.choice((0.1, 0.3, 0.6)))
              for _ in range(40)]
    graphs += [gen_grid(30), _relabeled(gen_path(300), 5)]
    graphs += [random_connected_graph(rng, n, p) for n, p in ((50, 0.05), (120, 0.02),
                                                                (200, 0.01), (300, 0.005))]
    for i, g in enumerate(graphs):
        yield g, _SeededPolicy(seed=1000 + i)
        if g.n >= 50:
            yield g, _BorderPolicy(seed=2000 + i)


class TestTraceInvariants:
    def test_structure_over_random_runs(self):
        for g, policy in _random_runs():
            trace = run_cooling(g, policy)
            cooled: set[int] = set()
            for rec in trace.rounds:
                if rec.round == 1:
                    assert rec.spread == frozenset()
                else:
                    # spread is exactly the border of the previous cooled set
                    border = {w for v in cooled for w in g.adj[v]} - cooled
                    assert rec.spread == border
                    assert len(rec.spread) >= 1
                assert not (rec.source is not None and rec.source in rec.spread)
                cooled |= rec.spread
                if rec.source is not None:
                    cooled.add(rec.source)
                else:
                    assert len(cooled) == g.n  # sources are mandatory while available
            assert len(cooled) == g.n

    def test_rounds_minus_sources_in_zero_one(self):
        for g, policy in _random_runs():
            trace = run_cooling(g, policy)
            assert trace.num_rounds - len(trace.sources) in (0, 1)

    def test_rounds_at_most_diameter_plus_one(self):
        for g, policy in _random_runs():
            assert run_cooling(g, policy).num_rounds <= diameter(g) + 1

    def test_determinism(self):
        g = gen_cycle(9)
        t1 = run_cooling(g, _SeededPolicy(5))
        t2 = run_cooling(g, _SeededPolicy(5))
        assert t1 == t2


class TestTraceSerialization:
    def test_json_round_trip(self, tmp_path):
        trace = validate_sequence(gen_cycle(8), [0, 2, 5])
        assert trace_from_json_obj(trace_to_json_obj(trace)) == trace
        path = tmp_path / "trace.json"
        write_trace(trace, path)
        assert read_trace(path) == trace

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match='^trace JSON must be an object with a "rounds" list$'):
            trace_from_json_obj([])

    def test_no_round_rejected(self):
        with pytest.raises(ValueError, match="^trace has no round$"):
            trace_from_json_obj({"rounds": []})

    @pytest.mark.parametrize("obj, message", [
        ({"rounds": 5}, 'trace JSON must be an object with a "rounds" list'),
        ({"rounds": [{}]}, "trace rounds[0]: round must be an int"),
        ({"rounds": [{"round": 1, "spread": [], "source": 0},
                     {"round": 2, "spread": 1, "source": None}]},
         "trace rounds[1]: spread must be a list of ints"),
        ({"rounds": [{"round": 1, "spread": [], "source": "x"}]},
         "trace rounds[0]: source must be an int or null"),
    ])
    def test_malformed_round_rejected(self, obj, message):
        with pytest.raises(ValueError) as err:
            trace_from_json_obj(obj)
        assert str(err.value) == message

    def test_corpus_witnesses_round_trip(self, corpus_with_cl, tmp_path):
        path = tmp_path / "trace.json"
        for name, _, res in corpus_with_cl:
            write_trace(res.witness, path)
            assert read_trace(path) == res.witness, name

    @pytest.mark.parametrize("rounds, message", [
        # each run breaks one rule and keeps the others
        ([(5, [], 0), (2, [1], None)], "trace rounds[0]: round 5 where 1 is due"),
        ([(1, [], 0), (3, [1], None)], "trace rounds[1]: round 3 where 2 is due"),
        ([(1, [], 0), (2, [-4], None)], "trace rounds[1]: node ids must be nonnegative"),
        ([(1, [], -1)], "trace rounds[0]: node ids must be nonnegative"),
        ([(1, [1], 0)], "trace rounds[0]: round 1 must spread to no node"),
        ([(1, [], 0), (2, [1], None), (3, [2], None)],
         "trace rounds[1]: only the last round may have no source"),
        ([(1, [], 0), (2, [1], 1)], "trace rounds[1]: source 1 lies in its own spread"),
        ([(1, [], 0), (2, [1, 0], None)], "trace rounds[1]: node 0 is cooled a second time"),
        ([(1, [], 0), (2, [1], 0)], "trace rounds[1]: node 0 is cooled a second time"),
    ])
    def test_run_structure_checked(self, rounds, message):
        obj = {"rounds": [{"round": t, "spread": spread, "source": source}
                          for t, spread, source in rounds]}
        with pytest.raises(ValueError) as err:
            trace_from_json_obj(obj)
        assert str(err.value) == message

    def test_cooled_round_map(self):
        trace = validate_sequence(gen_complete_caterpillar(6), [0, 6, 7, 8, 9])
        assert trace.cooled_round[0] == 1
        assert trace.cooled_round[5] == 6
        assert trace.cooled_round[9] == 5
