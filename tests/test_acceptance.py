"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the PASS
lines as they happen). Each test runs the ``coolnum verify`` suite that
states its claim (:mod:`coolnum.verify`) and asserts that every row passes;
it adds only what the suite does not hold: a wall-time budget, a corpus
size, or a solver-free check. Three sub-claims are false as first stated:
``b = CL`` on every diameter-two graph, the width-2 grid window at
``n = 5``, and ``CL = 2r + 1`` for every spider above the log threshold.
Their tests (``05b``, ``07b``, ``10b``) confirm each counterexample with the
solver-free ``oracle`` fixture.
"""

from __future__ import annotations

import time

from coolnum import verify
from coolnum.generators import gen_complete_caterpillar, gen_grid, gen_spider
from coolnum.ilt import ilt
from coolnum.solver import SearchLimits, cooling_number
from coolnum.strategies import closed_form, grid_cl_window


def report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE PASS {criterion}: {detail}")


def run_suite(name: str, *args) -> tuple[verify.SuiteReport, float]:
    """Run suite ``name`` in-process, assert every row passes, and return the
    report with its wall time in seconds."""
    t0 = time.monotonic()
    result = verify.SUITES[name](*args)
    elapsed = time.monotonic() - t0
    failed = [f"{row.name}: {label}" for row in result.rows for label in row.failures]
    assert result.ok, f"suite {name} fails {len(failed)} checks, e.g. {failed[:5]}"
    return result, elapsed


def test_acceptance_01_path_formula():
    _, elapsed = run_suite("path-formula")
    assert elapsed < 10.0, f"path sweep took {elapsed:.1f}s, budget 10s"
    report("1 path formula", f"n=1..14 exact in {elapsed:.2f}s")


def test_acceptance_02_cycle_formula():
    _, elapsed = run_suite("cycle-formula")
    assert elapsed < 30.0, f"cycle sweep took {elapsed:.1f}s, budget 30s"
    report("2 cycle formula", f"n=3..14 exact incl. C_8=4 in {elapsed:.2f}s")


def test_acceptance_03_caterpillar():
    _, elapsed = run_suite("caterpillar")
    assert elapsed < 60.0, f"caterpillar sweep took {elapsed:.1f}s, budget 60s"
    report("3 caterpillar", f"d=3..7 solver and strategy both give d in {elapsed:.2f}s")


def test_acceptance_04_diameter_sandwich_and_order_bound(corpus):
    assert len(corpus) >= 200, f"corpus has only {len(corpus)} graphs"
    run_suite("bounds-sandwich")
    report("4 diameter sandwich", f"{len(corpus)} graphs, zero violations")


def test_acceptance_05a_burning_below_cooling(corpus):
    run_suite("burning-cross")
    report("5a burning cross-checks", f"b <= CL on {len(corpus)} graphs; b(P_9)=3")


def test_acceptance_05b_burning_equals_cooling_on_diameter_two(oracle):
    """``b = CL`` on diameter two is false; test how the two really relate.

    Near-dominated graphs with diameter two (the 3-leaf star / CC_3 is the
    smallest) have b = 2 but CL = 3: a leaf first source plus one forced
    selection still leaves a third round of spreading. The equality claim
    conflicts with the caterpillar criterion's own CL(CC_3) = 3.
    """
    result, _ = run_suite("burning-cross")
    checked = result.rows[1].instances  # the diameter-two row
    star = gen_complete_caterpillar(3)
    assert oracle(star)[:2] == (2, 3), (
        f"3-leaf star: oracle (b, CL) = {oracle(star)[:2]}; it should be (2, 3), "
        "the smallest counterexample to b == CL on diameter two"
    )
    report("5b diameter-two relation",
           f"b <= CL <= 3 as characterized on {checked} graphs; "
           "3-leaf star (2, 3) refutes b == CL")


def test_acceptance_06_isoperimetric_machinery(corpus):
    run_suite("iso-smoothness")
    report("6 isoperimetric machinery",
           f"smoothness + I >= CL on {len(corpus)} graphs; I == CL on paths")


def test_acceptance_07a_grid_simplicial_matches_solver():
    _, elapsed = run_suite("grid-solver")
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
    _, elapsed = run_suite("grid-window", 200)
    assert elapsed < 10.0, f"window sweep took {elapsed:.1f}s, budget 10s"
    w5 = grid_cl_window(5)
    cl5 = oracle(gen_grid(5))[1]
    assert cl5 == 7 and (w5.lo, w5.hi) == (4, 7), (
        f"G_5: oracle CL = {cl5}, window [{w5.lo}, {w5.hi}]; the width-2 window "
        "[4, 6] misses CL(G_5) = 7, so the mended window is [4, 7]"
    )
    report("7b grid window", f"n=2..200 in {elapsed:.2f}s; G_5 = 7 in [4, 7]")


def test_acceptance_08_grid_profile_agreement():
    run_suite("grid-profile")
    report("8 grid profile", "n=2,3,4 entrywise equal")


def test_acceptance_09a_ilt_path_formula():
    _, elapsed = run_suite("ilt")
    assert elapsed < 60.0, f"ilt suite took {elapsed:.1f}s, budget 60s"
    report("9a ilt path formula", "n=3..5, t=1..2 all match")


def test_acceptance_09b_ilt_never_decreases(corpus_with_cl):
    run_suite("ilt")
    # exact spot confirmation on the small slice, beside the suite's certificates
    for name, g, res in corpus_with_cl:
        if 2 * g.n <= 16:
            exact = cooling_number(ilt(g).graph, SearchLimits(max_nodes=16)).value
            assert exact >= res.value, f"CL(ILT({name})) = {exact} < CL = {res.value}"
    report("9b ilt monotonicity", "zero violations over the corpus")


def test_acceptance_09c_second_step_fixes_sequence_length():
    run_suite("ilt")
    report("9c ilt sequence fixpoint", "P_2, P_3, K_3, star-3")


def test_acceptance_09d_third_step_adds_at_most_one_round():
    run_suite("ilt")
    report("9d ilt step window", "difference in {0, 1} for all four bases")


def test_acceptance_10a_spider_strategy_lower_bounds():
    run_suite("spider")
    # below the log threshold the schedule's bound is certified, raised to the
    # diameter bound r + 1 where that is larger (m = 1 with r even)
    for m, r in verify.SPIDER_SHAPES:
        if m < r.bit_length():
            sched = 2 * sum((r + 1) // 2**i for i in range(1, m + 1))
            lo = closed_form("spider", {"m": m, "r": r}).lo
            assert lo == max(sched, r + 1), f"spider(2m={2 * m}, r={r}): certified {lo}"
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
    run_suite("spider")
    for (m, r), want in verify.SPIDER_EXACT.items():
        assert m >= r.bit_length(), f"({m}, {r}) is below the log threshold"
        claim = "a counterexample to CL = 2r+1" if want == 2 * r else "CL = 2r+1"
        got = oracle(gen_spider(2 * m, r))[1]
        assert got == want, f"spider (m, r) = ({m}, {r}): oracle {got}, want {want} ({claim})"
    report("10b spider exact branch",
           "CL = 2r on (1,1), (2,2), (2,3); 2r+1 on (2,1), (3,2), (3,3); certified forms hold")


def test_acceptance_11_reference_runs():
    run_suite("reference-traces")
    report("11 reference runs", "CC_6 and ILT(P_6) cooling rounds reproduced exactly")


def test_acceptance_12_cli_determinism():
    run_suite("determinism")
    report("12 determinism", "cmd_exact is byte-identical across runs")
