from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coolnum.bounds import (
    ProfileSizeError,
    bounds_report,
    grid_iso_profile,
    grid_iso_upper_bound,
    iso_profile_exact,
    iso_upper_bound,
    node_border,
)
from coolnum.corpus import random_connected_graph
from coolnum.generators import gen_complete_caterpillar, gen_cycle, gen_grid, gen_path, grid_node
from coolnum.graphs import DisconnectedGraphError, GraphError, build_graph
from coolnum.solver import DEFAULT_BURNING_MAX_NODES, cooling_number


def complete_graph(n):
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def brute_border_min(g, size):
    """Independent oracle: minimum border over all subsets of a given size."""
    from itertools import combinations

    best = g.n + 1
    for subset in combinations(range(g.n), size):
        best = min(best, len(node_border(g, set(subset))))
    return best


class TestNodeBorder:
    def test_cycle_arc(self):
        assert node_border(gen_cycle(8), {0, 1, 2}) == frozenset({7, 3})

    def test_whole_vertex_set_has_empty_border(self):
        g = gen_cycle(6)
        assert node_border(g, set(range(6))) == frozenset()

    def test_grid_corner_block(self):
        g = gen_grid(3)
        s = {grid_node((1, 1), 3), grid_node((1, 2), 3), grid_node((2, 1), 3)}
        want = {grid_node((1, 3), 3), grid_node((2, 2), 3), grid_node((3, 1), 3)}
        assert node_border(g, s) == frozenset(want)


class TestExactProfile:
    def test_path5(self):
        assert iso_profile_exact(gen_path(5)).phi == (0, 1, 1, 1, 1, 0)

    def test_c8(self):
        assert iso_profile_exact(gen_cycle(8)).phi == (0, 2, 2, 2, 2, 2, 2, 1, 0)

    def test_grid3_at_three(self):
        assert iso_profile_exact(gen_grid(3)).phi[3] == 3

    def test_k4(self):
        assert iso_profile_exact(complete_graph(4)).phi == (0, 3, 2, 1, 0)

    def test_matches_subset_oracle(self):
        rng = random.Random(11)
        for _ in range(6):
            g = random_connected_graph(rng, rng.randrange(3, 8), 0.3)
            profile = iso_profile_exact(g)
            for s in range(1, g.n + 1):
                assert profile.phi[s] == brute_border_min(g, s)

    def test_peak(self):
        assert iso_profile_exact(gen_cycle(8)).peak == 2

    def test_cap_refusal_mentions_grid_profile(self):
        with pytest.raises(ProfileSizeError, match="grid_iso_profile"):
            iso_profile_exact(gen_path(17))


def seeded_graph(n, p=0.3):
    """Random graph on ``n`` nodes seeded by ``n``; it may be disconnected."""
    rng = random.Random(n)
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                           if rng.random() < p])


class TestBitSlicedProfile:
    """``iso_profile_exact`` against the subset loop it replaced."""

    @pytest.mark.parametrize("n", range(17))
    def test_path_matches_loop(self, n, loop_profile):
        g = build_graph(n, [(i, i + 1) for i in range(n - 1)])
        assert iso_profile_exact(g) == loop_profile(g)

    @pytest.mark.parametrize("n", range(17))
    def test_seeded_random_matches_loop(self, n, loop_profile):
        g = seeded_graph(n)
        assert iso_profile_exact(g) == loop_profile(g)

    def test_disconnected_matches_loop(self, loop_profile):
        small = build_graph(5, [(0, 1), (1, 2), (3, 4)])
        assert iso_profile_exact(small).phi == (0, 1, 0, 0, 1, 0)
        six_cycle = [(i, (i + 1) % 6) for i in range(6)]
        big = build_graph(13, six_cycle + [(i, i + 1) for i in range(6, 10)])  # 11, 12 isolated
        for g in (small, big):
            assert not g.is_connected
            assert iso_profile_exact(g) == loop_profile(g)

    def test_corpus_matches_loop(self, corpus, loop_profile):
        for name, g in corpus:
            assert iso_profile_exact(g) == loop_profile(g), name


@st.composite
def any_graphs(draw, max_n=9):
    """Graph on up to ``max_n`` nodes, each possible edge drawn on its own."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return build_graph(n, [e for e, k in zip(pairs, keep) if k])


@settings(max_examples=60, deadline=None)
@given(any_graphs())
def test_profile_matches_border_oracle(g):
    profile = iso_profile_exact(g)
    assert profile.phi == tuple(brute_border_min(g, k) for k in range(g.n + 1))


class TestGridProfile:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_exact_enumeration(self, n):
        assert grid_iso_profile(n).phi == iso_profile_exact(gen_grid(n)).phi

    def test_small_values(self):
        assert grid_iso_profile(2).phi[1] == 2
        assert grid_iso_profile(3).phi[3] == 3

    def test_smoothness_holds_at_n15(self):
        assert grid_iso_profile(15).smoothness_violations() == []


class TestSmoothness:
    def test_all_small_corpus_profiles(self):
        rng = random.Random(23)
        graphs = [gen_path(7), gen_cycle(9), gen_grid(3), gen_complete_caterpillar(5)]
        graphs += [random_connected_graph(rng, rng.randrange(3, 11), 0.25) for _ in range(10)]
        for g in graphs:
            assert iso_profile_exact(g).smoothness_violations() == []


class TestIsoUpperBound:
    def test_p9_trajectory(self):
        bound = iso_upper_bound(iso_profile_exact(gen_path(9)))
        assert bound.trajectory == (1, 3, 5, 7, 9)
        assert bound.value == 5 == cooling_number(gen_path(9)).value

    def test_k4(self):
        bound = iso_upper_bound(iso_profile_exact(complete_graph(4)))
        assert bound.trajectory == (1, 5)
        assert bound.value == 2

    def test_never_beats_order_bound(self):
        rng = random.Random(5)
        for _ in range(10):
            g = random_connected_graph(rng, rng.randrange(2, 12), 0.3)
            assert iso_upper_bound(iso_profile_exact(g)).value <= (g.n + 2) // 2

    def test_single_node(self):
        bound = iso_upper_bound(iso_profile_exact(gen_path(1)))
        assert bound.value == 1 and bound.trajectory == (1,)


class TestGridIsoUpperBound:
    def test_matches_recurrence_on_grid_profile(self):
        for n in range(1, 41):
            assert grid_iso_upper_bound(n) == iso_upper_bound(grid_iso_profile(n)), n

    def test_n0_rejected(self):
        with pytest.raises(GraphError):
            grid_iso_upper_bound(0)

    @pytest.mark.parametrize("n", [2.5, 2.0, True, "3"], ids=["float", "whole-float", "bool", "str"])
    def test_non_int_rejected(self, n):
        # 2.5 gave IsoUpperBound(value=3, trajectory=(1, 4, 7.0))
        with pytest.raises(GraphError, match=r"^grid side .* is not an int$"):
            grid_iso_upper_bound(n)
        with pytest.raises(GraphError, match=r"^grid side .* is not an int$"):
            grid_iso_profile(n)


class TestBoundsReport:
    def test_p11_pins_the_value(self):
        report = bounds_report(gen_path(11))
        assert report.order_upper == 6
        assert report.diam_lower == 6
        assert report.diam_upper == 11
        assert report.best_lower() == report.best_upper() == 6

    def test_cc6_pins_the_value(self):
        report = bounds_report(gen_complete_caterpillar(6))
        assert report.order_upper == 6
        assert report.diam_upper == 6
        assert report.best_upper() == 6

    def test_c9_brackets_the_exact_value(self):
        report = bounds_report(gen_cycle(9))
        assert report.diam_lower == 3
        assert report.order_upper == 5
        exact = cooling_number(gen_cycle(9)).value
        assert exact == 4
        assert report.best_lower() <= exact <= report.best_upper()

    def test_skip_list_on_large_graph(self):
        report = bounds_report(gen_path(30))
        assert "iso_upper" in report.skipped
        assert "burning_lower" in report.skipped
        assert report.iso_upper is None
        assert report.diameter == 29

    def test_json_round_trips_through_dumps(self):
        report = bounds_report(gen_cycle(8))
        obj = json.loads(json.dumps(report.to_json_obj()))
        assert obj["order_upper"] == 5
        assert obj["burning_lower"] == 3
        assert obj["skipped"] == []

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            bounds_report(build_graph(4, [(0, 1), (2, 3)]))


class TestReportMatchesItsParts:
    """``bounds_report`` field by field against the calls it stands for.
    Within the burning cap the report reads the diameter off the burning
    search's balls, above it from iFUB; the recurrence reads the profile
    only at the sizes it visits."""

    def test_corpus(self, corpus, composed):
        for name, g in corpus:
            assert bounds_report(g) == composed(g), name

    @pytest.mark.parametrize("n", range(2, 17))
    def test_seeded_random_within_the_profile_cap(self, n, composed):
        rng = random.Random(100 + n)
        for p in (0.05, 0.2, 0.5):
            g = random_connected_graph(rng, n, p)
            assert bounds_report(g) == composed(g), p

    @pytest.mark.parametrize("n", range(17, 31))
    def test_above_the_profile_cap(self, n, composed):
        rng = random.Random(200 + n)
        graphs = [gen_path(n), gen_cycle(n)]
        graphs += [random_connected_graph(rng, n, p) for p in (0.05, 0.2)]
        for g in graphs:
            report = bounds_report(g)
            assert report == composed(g)
            assert ("burning_lower" in report.skipped) == (n > DEFAULT_BURNING_MAX_NODES)

    def test_low_env_cap_takes_ifub(self, monkeypatch, composed):
        monkeypatch.setenv("COOLNUM_MAX_NODES", "4")
        g = random_connected_graph(random.Random(3), 10, 0.1)
        report = bounds_report(g)
        assert report.skipped == ("burning_lower",)
        assert report == composed(g)


def test_report_brackets_exact_value_over_corpus(corpus_with_cl):
    for name, g, res in corpus_with_cl:
        report = bounds_report(g)
        assert report.best_lower() <= res.value <= report.best_upper(), name
