"""Cross-cutting invariants checked over randomized instances."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from coolnum.bounds import iso_profile_exact, iso_upper_bound
from coolnum.engine import run_cooling, validate_sequence
from coolnum.graphs import bfs_distances, build_graph, diameter, diameter_sweep
from coolnum.ilt import ilt
from coolnum.solver import burning_number, cooling_number, max_sequence_length


@st.composite
def connected_graphs(draw, max_n=10):
    """Random connected graph: permutation spanning tree plus extra edges."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    order = draw(st.permutations(range(n)))
    edges = []
    for i in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=i - 1))
        edges.append((order[i], order[parent]))
    extra = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]),
        max_size=n,
    ))
    return build_graph(n, edges + extra)


@settings(max_examples=100, deadline=None)
@given(connected_graphs(max_n=30))
def test_diameter_and_lowest_end_match_one_bfs_per_node(g):
    eccs = [max(bfs_distances(g, v)) for v in range(g.n)]
    assert diameter_sweep(g)[:2] == (max(eccs), eccs.index(max(eccs)))


@settings(max_examples=40, deadline=None)
@given(connected_graphs())
def test_solver_values_sit_inside_all_bounds(g):
    cl = cooling_number(g).value
    d = diameter(g)
    assert (d + 3) // 2 <= cl <= min(d + 1, (g.n + 2) // 2)
    assert cl <= iso_upper_bound(iso_profile_exact(g)).value


@settings(max_examples=40, deadline=None)
@given(connected_graphs())
def test_burning_below_cooling_and_sequence_within_one(g):
    cl = cooling_number(g).value
    assert burning_number(g).value <= cl
    assert max_sequence_length(g).value in (cl - 1, cl)


@settings(max_examples=40, deadline=None)
@given(connected_graphs())
def test_profile_smoothness(g):
    assert iso_profile_exact(g).smoothness_violations() == []


@settings(max_examples=30, deadline=None)
@given(connected_graphs(max_n=8))
def test_ilt_edge_recurrence_and_replay_monotonicity(g):
    out = ilt(g)
    assert out.graph.n == 2 * g.n
    assert out.graph.num_edges == 3 * g.num_edges + g.n
    res = cooling_number(g)
    replay = validate_sequence(out.graph, res.witness.sources)
    assert replay.num_rounds >= res.value


@settings(max_examples=40, deadline=None)
@given(connected_graphs(), st.randoms(use_true_random=False))
def test_any_run_obeys_counting_and_diameter_limits(g, rng):
    def policy(graph, cooled, t):
        return rng.choice([v for v in range(graph.n) if v not in cooled])

    trace = run_cooling(g, policy)
    assert trace.num_rounds <= diameter(g) + 1
    assert trace.num_rounds <= (g.n + 2) // 2
    assert trace.num_rounds - len(trace.sources) in (0, 1)
    # replaying the recorded sources reproduces the trace exactly
    assert validate_sequence(g, trace.sources) == trace


@settings(max_examples=60, deadline=None)
@given(connected_graphs(max_n=8), st.booleans())
def test_solvers_match_the_solver_free_oracle(oracle, g, prune):
    # oracle shares no code with the solver: it tries every mandatory-source run
    b, cl, most_sources = oracle(g)
    assert cooling_number(g, prune=prune).value == cl
    assert max_sequence_length(g, prune=prune).value == most_sources
    assert burning_number(g).value == b
