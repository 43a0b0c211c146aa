"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the PASS
lines as they happen). Three sub-claims are false as first stated: ``b = CL``
on every diameter-two graph, the width-2 grid window at ``n = 5``, and
``CL = 2r + 1`` for every spider above the log threshold. Their tests
(``05b``, ``07b``, ``10b``) assert the corrected statements and name each
counterexample, backed by the solver-free ``oracle`` fixture.
"""

from __future__ import annotations

import io
import json
import time
from contextlib import redirect_stdout


from coolnum.bounds import grid_iso_profile, iso_profile_exact, iso_upper_bound
from coolnum.cli import main as cli_main
from coolnum.engine import validate_sequence
from coolnum.generators import (
    gen_complete_caterpillar,
    gen_cycle,
    gen_grid,
    gen_path,
    gen_spider,
)
from coolnum.graph_io import write_graph
from coolnum.graphs import build_graph, diameter
from coolnum.ilt import ilt, ilt_t
from coolnum.solver import SearchLimits, burning_number, cooling_number, max_sequence_length
from coolnum.strategies import (
    caterpillar_strategy_trace,
    closed_form,
    grid_cl_window,
    grid_simplicial_strategy,
)


def report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE PASS {criterion}: {detail}")


def test_acceptance_01_path_formula():
    t0 = time.monotonic()
    for n in range(1, 15):
        got = cooling_number(gen_path(n)).value
        assert got == (n + 2) // 2, f"CL(P_{n}) = {got}, formula says {(n + 2) // 2}"
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"path sweep took {elapsed:.1f}s, budget 10s"
    report("1 path formula", f"n=1..14 exact in {elapsed:.2f}s")


def test_acceptance_02_cycle_formula():
    t0 = time.monotonic()
    for n in range(3, 15):
        got = cooling_number(gen_cycle(n)).value
        assert got == (n + 4) // 3, f"CL(C_{n}) = {got}, formula says {(n + 4) // 3}"
    assert cooling_number(gen_cycle(8)).value == 4
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"cycle sweep took {elapsed:.1f}s, budget 30s"
    report("2 cycle formula", f"n=3..14 exact incl. C_8=4 in {elapsed:.2f}s")


def test_acceptance_03_caterpillar():
    t0 = time.monotonic()
    for d in range(3, 8):
        solver = cooling_number(gen_complete_caterpillar(d)).value
        strategy = caterpillar_strategy_trace(d).num_rounds
        assert solver == d, f"CL(CC_{d}) = {solver}, expected {d}"
        assert strategy == d, f"caterpillar strategy on CC_{d} took {strategy} rounds"
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"caterpillar sweep took {elapsed:.1f}s, budget 60s"
    report("3 caterpillar", f"d=3..7 solver and strategy both give d in {elapsed:.2f}s")


def test_acceptance_04_diameter_sandwich_and_order_bound(corpus_with_cl):
    assert len(corpus_with_cl) >= 200, f"corpus has only {len(corpus_with_cl)} graphs"
    violations = []
    for name, g, res in corpus_with_cl:
        d = diameter(g)
        lo = (d + 3) // 2
        hi = min(d + 1, (g.n + 2) // 2)
        if not (lo <= res.value <= hi):
            violations.append((name, lo, res.value, hi))
    assert not violations, f"sandwich violations: {violations[:5]}"
    report("4 diameter sandwich", f"{len(corpus_with_cl)} graphs, zero violations")


def test_acceptance_05a_burning_below_cooling(corpus_with_cl):
    violations = []
    for name, g, res in corpus_with_cl:
        b = burning_number(g).value
        if b > res.value:
            violations.append((name, b, res.value))
    assert not violations, f"b > CL on: {violations[:5]}"
    p9 = burning_number(gen_path(9)).value
    assert p9 == 3, f"b(P_9) = {p9}"
    report("5a burning cross-checks", f"b <= CL on {len(corpus_with_cl)} graphs; b(P_9)=3")


def _diameter_two_b_cl(g) -> tuple[int, int]:
    """``(b, CL)`` of a graph with diameter at most two, from its non-neighbours.

    With a source mandatory every round, both are at most 3. A run that
    starts at ``v`` ends in round 2 exactly when ``v`` is non-adjacent to at
    most one other node, so ``b = 2`` when some node is and ``CL = 2`` when
    every node is.
    """
    if g.n == 1:
        return 1, 1
    far = [g.n - 1 - len(g.adj[v]) for v in range(g.n)]
    return (2 if min(far) <= 1 else 3), (2 if max(far) <= 1 else 3)


def test_acceptance_05b_burning_equals_cooling_on_diameter_two(corpus_with_cl, oracle):
    """``b = CL`` on diameter two is false; test how the two really relate.

    Near-dominated graphs with diameter two (the 3-leaf star / CC_3 is the
    smallest) have b = 2 but CL = 3: a leaf first source plus one forced
    selection still leaves a third round of spreading. The equality claim
    conflicts with the caterpillar criterion's own CL(CC_3) = 3.
    """
    mismatches = []
    unequal = 0
    checked = 0
    for name, g, res in corpus_with_cl:
        if diameter(g) <= 2:
            checked += 1
            b = burning_number(g).value
            unequal += b != res.value
            if not (b <= res.value <= 3 and (b, res.value) == _diameter_two_b_cl(g)):
                mismatches.append((name, b, res.value, _diameter_two_b_cl(g)))
    assert not mismatches, (
        f"b <= CL <= 3 or the non-neighbour characterization fails on "
        f"{len(mismatches)}/{checked} diameter-<=2 graphs, "
        f"e.g. {mismatches[:4]} (name, b, CL, characterized)"
    )
    star = gen_complete_caterpillar(3)
    got = (burning_number(star).value, cooling_number(star).value)
    assert got == oracle(star)[:2] == (2, 3), (
        f"3-leaf star: (b, CL) = {got}, oracle {oracle(star)[:2]}; it should be (2, 3), "
        "the smallest counterexample to b == CL on diameter two"
    )
    report("5b diameter-two relation",
           f"b <= CL <= 3 as characterized on {checked} graphs ({unequal} with b < CL); "
           "3-leaf star (2, 3) refutes b == CL")


def test_acceptance_06_isoperimetric_machinery(corpus_with_cl):
    for name, g, res in corpus_with_cl:
        profile = iso_profile_exact(g)
        bad = profile.smoothness_violations()
        assert not bad, f"smoothness fails on {name} at {bad[:3]}"
        bound = iso_upper_bound(profile).value
        assert bound >= res.value, f"I = {bound} < CL = {res.value} on {name}"
    for n in range(1, 15):
        bound = iso_upper_bound(iso_profile_exact(gen_path(n))).value
        cl = cooling_number(gen_path(n)).value
        assert bound == cl, f"I(P_{n}) = {bound} != CL = {cl}"
    report("6 isoperimetric machinery",
           f"smoothness + I >= CL on {len(corpus_with_cl)} graphs; I == CL on paths")


def test_acceptance_07a_grid_simplicial_matches_solver():
    t0 = time.monotonic()
    for n in (2, 3, 4):
        strategy = grid_simplicial_strategy(n).num_rounds
        exact = cooling_number(gen_grid(n)).value
        assert strategy == exact, f"G_{n}: strategy {strategy}, solver {exact}"
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0, f"grid solves took {elapsed:.1f}s, budget 10min"
    report("7a grid optimality", f"n=2,3,4 strategy == solver in {elapsed:.2f}s")


def test_acceptance_07b_grid_window_sweep(oracle):
    """Every grid window holds the strategy's rounds; G_5 is the counterexample.

    Four independent routes (exact search over all policies, the solver-free
    oracle, the profile recurrence, and the strategy run itself) agree that
    the 5x5 grid needs 7 rounds, above the width-2 window [4, 6] that the
    formula alone gives. The window's upper end is raised to the recurrence
    bound, which moves it only at n = 5.
    """
    t0 = time.monotonic()
    misses = []
    for n in range(2, 201):
        rounds = grid_simplicial_strategy(n).num_rounds
        w = grid_cl_window(n)
        if not w.contains(rounds):
            misses.append((n, rounds, (w.lo, w.hi)))
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"window sweep took {elapsed:.1f}s, budget 10s"
    assert not misses, f"window misses: {misses}"
    w5 = grid_cl_window(5)
    cl5 = oracle(gen_grid(5))[1]
    assert cl5 == 7 and (w5.lo, w5.hi) == (4, 7), (
        f"G_5: oracle CL = {cl5}, window [{w5.lo}, {w5.hi}]; the width-2 window "
        "[4, 6] misses CL(G_5) = 7, so the mended window is [4, 7]"
    )
    report("7b grid window", f"n=2..200 in {elapsed:.2f}s; G_5 = 7 in [4, 7]")


def test_acceptance_08_grid_profile_agreement():
    for n in (2, 3, 4):
        fast = grid_iso_profile(n).phi
        exact = iso_profile_exact(gen_grid(n)).phi
        assert fast == exact, f"G_{n} profile mismatch: {fast} vs {exact}"
    report("8 grid profile", "n=2,3,4 entrywise equal")


def test_acceptance_09a_ilt_path_formula():
    limits = SearchLimits(max_nodes=24)
    for n in (3, 4, 5):
        for t in (1, 2):
            t0 = time.monotonic()
            g = ilt_t(gen_path(n), t).graph
            got = cooling_number(g, limits).value
            want = closed_form("ilt_path", {"n": n, "t": t}).lo
            elapsed = time.monotonic() - t0
            assert got == want, f"CL(ILT_{t}(P_{n})) = {got}, formula {want}"
            assert elapsed < 60.0, f"ILT_{t}(P_{n}) took {elapsed:.1f}s, budget 60s"
    report("9a ilt path formula", "n=3..5, t=1..2 all match")


def test_acceptance_09b_ilt_never_decreases(corpus_with_cl):
    exact_budget = 16  # exact solve below this; replay certificate above
    for name, g, res in corpus_with_cl:
        lifted = ilt(g).graph
        if lifted.n > 24:
            continue
        replay = validate_sequence(lifted, res.witness.sources)
        if replay.num_rounds >= res.value:
            continue  # certificate: CL(ILT(G)) >= replay >= CL(G)
        exact = cooling_number(lifted, SearchLimits(max_nodes=24)).value
        assert exact >= res.value, f"CL(ILT({name})) = {exact} < CL = {res.value}"
    # exact spot confirmation on the small slice
    for name, g, res in corpus_with_cl:
        if 2 * g.n <= exact_budget:
            exact = cooling_number(ilt(g).graph, SearchLimits(max_nodes=16)).value
            assert exact >= res.value, f"CL(ILT({name})) = {exact} < CL = {res.value}"
    report("9b ilt monotonicity", "zero violations over the corpus")


def _ilt_fixpoint_bases():
    return [
        ("P_2", gen_path(2)),
        ("P_3", gen_path(3)),
        ("K_3", build_graph(3, [(0, 1), (0, 2), (1, 2)])),
        ("star-3", gen_spider(3, 1)),
    ]


def test_acceptance_09c_second_step_fixes_sequence_length():
    limits = SearchLimits(max_nodes=32)
    for name, g in _ilt_fixpoint_bases():
        s2 = max_sequence_length(ilt_t(g, 2).graph, limits).value
        s3 = max_sequence_length(ilt_t(g, 3).graph, limits).value
        assert s2 == s3, f"{name}: max sequence length {s2} at t=2 vs {s3} at t=3"
    report("9c ilt sequence fixpoint", "P_2, P_3, K_3, star-3")


def test_acceptance_09d_third_step_adds_at_most_one_round():
    limits = SearchLimits(max_nodes=32)
    for name, g in _ilt_fixpoint_bases():
        c2 = cooling_number(ilt_t(g, 2).graph, limits).value
        c3 = cooling_number(ilt_t(g, 3).graph, limits).value
        assert c3 - c2 in (0, 1), f"{name}: CL t=2 {c2}, t=3 {c3}"
    report("9d ilt step window", "difference in {0, 1} for all four bases")


def test_acceptance_10a_spider_strategy_lower_bounds():
    from coolnum.strategies import spider_strategy

    for m in (1, 2, 3):
        for r in range(1, 8):
            if m >= (r).bit_length():  # only shapes below the log threshold
                continue
            res = spider_strategy(m, r)
            lo = 2 * sum((r + 1) // 2**i for i in range(1, m + 1))
            assert res.certified.lo == lo
            assert res.trace.num_rounds >= lo, \
                f"spider(2m={2 * m}, r={r}): {res.trace.num_rounds} < {lo}"
    report("10a spider lower bounds", "all m<=3, r<=7 below the log threshold")


def test_acceptance_10b_spider_exact_above_threshold(oracle):
    """Above the log threshold, CL = 2r + 1 is false in general.

    With sources mandatory every round, the solver and the oracle give
    CL = 2, 4, 6 for (m, r) = (1, 1), (2, 2), (2, 3) instead of
    2r + 1 = 3, 5, 7. The (1, 1) spider is a 3-node path, so the claim also
    contradicts the path-formula criterion. The 2r + 1 value is only
    reachable there if the process may decline an available source. It does
    hold on (2, 1), (3, 2) and (3, 3), one leg pair above the threshold.
    """
    exact = {(1, 1): 2, (2, 2): 4, (2, 3): 6,  # counterexamples to 2r + 1
             (2, 1): 3, (3, 2): 5, (3, 3): 7}  # where 2r + 1 holds
    for (m, r), want in exact.items():
        assert m >= r.bit_length(), f"({m}, {r}) is below the log threshold"
        g = gen_spider(2 * m, r)
        got = cooling_number(g).value
        claim = "a counterexample to CL = 2r+1" if want == 2 * r else "CL = 2r+1"
        assert got == oracle(g)[1] == want, \
            f"spider (m, r) = ({m}, {r}): solver {got}, oracle {oracle(g)[1]}, want {want} ({claim})"
        form = closed_form("spider", {"m": m, "r": r})
        assert form.contains(got), \
            f"spider (m, r) = ({m}, {r}): certified {form.kind} {form.lo} excludes CL = {got}"
    report("10b spider exact branch",
           "CL = 2r on (1,1), (2,2), (2,3); 2r+1 on (2,1), (3,2), (3,3); certified forms hold")


def test_acceptance_11_reference_runs():
    cc6 = gen_complete_caterpillar(6)
    trace = validate_sequence(cc6, [0, 6, 7, 8, 9])
    assert trace.num_rounds == 6
    want = {0: 1, 1: 2, 2: 3, 3: 4, 4: 5, 5: 6, 6: 2, 7: 3, 8: 4, 9: 5}
    assert trace.cooled_round == want, f"CC_6 rounds {trace.cooled_round}"

    iltp6 = ilt_t(gen_path(6), 1).graph
    trace = validate_sequence(iltp6, [6, 7, 9, 10])
    assert trace.num_rounds == 5
    want = {0: 2, 1: 2, 2: 3, 3: 4, 4: 4, 5: 5, 6: 1, 7: 2, 8: 3, 9: 3, 10: 4, 11: 5}
    assert trace.cooled_round == want, f"ILT(P_6) rounds {trace.cooled_round}"
    report("11 reference runs", "CC_6 and ILT(P_6) cooling rounds reproduced exactly")


def test_acceptance_12_cli_determinism(tmp_path):
    graph_file = tmp_path / "cc6.json"
    write_graph(gen_complete_caterpillar(6), graph_file)
    outputs = []
    for run in range(2):
        trace_file = tmp_path / f"t{run}.json"
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(["exact", "--in", str(graph_file), "--jobs", "2",
                             "--trace-out", str(trace_file), "--json"])
        assert code == 0
        outputs.append((buf.getvalue(), trace_file.read_bytes()))
    assert outputs[0] == outputs[1], "repeated cmd_exact runs differ"
    value = json.loads(outputs[0][0])["value"]
    assert value == 6
    report("12 determinism", "cmd_exact with --jobs 2 is byte-identical across runs")
