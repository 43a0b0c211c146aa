"""Named verification suites: each checks one documented claim against the
exact solver or the engine, over concrete instance sets sized for a quick run.
They are the one statement of each claim: closed forms come from
:func:`~coolnum.strategies.closed_form`, and the acceptance tests run these
suites rather than restating them.

Suites report per-check rows rather than raising, so the CLI can print a
table and the caller decides how to treat failures. Three claims are checked
in their corrected form, because the exact solver refutes them as first
stated: ``b = CL`` on diameter two (the 3-leaf star has ``b = 2``,
``CL = 3``), the width-2 grid window at ``n = 5`` (``CL(G_5) = 7``), and
``CL = 2r + 1`` for every spider above the log threshold (false at
``(1, 1)``, ``(2, 2)``, ``(2, 3)``). See the README's acceptance notes.
"""

from __future__ import annotations

import io
from contextlib import redirect_stdout
from functools import cache
from itertools import product
from typing import TYPE_CHECKING, NamedTuple

# only what reference-traces runs; every other suite and helper imports the
# solver, bounds, strategies and corpus layers it reads in its own body
from .engine import validate_sequence
from .generators import gen_complete_caterpillar, gen_grid, gen_path, gen_spider
from .graphs import Graph, build_graph, diameter
from .ilt import ilt, ilt_t

if TYPE_CHECKING:
    from .solver import SearchLimits, SearchResult


class CheckRow:
    """One check of a suite: its name, how many instances it ran, and the
    label of each that failed. Rows compare by all three; each row has its
    own ``failures`` list."""

    def __init__(self, name: str, instances: int, failures: list[str] | None = None):
        self.name = name
        self.instances = instances
        self.failures = [] if failures is None else failures

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not CheckRow:
            return NotImplemented
        return (self.name, self.instances, self.failures) == \
            (other.name, other.instances, other.failures)

    def __repr__(self) -> str:
        return (f"CheckRow(name={self.name!r}, instances={self.instances!r}, "
                f"failures={self.failures!r})")

    @property
    def ok(self) -> bool:
        return not self.failures


class SuiteReport(NamedTuple):
    suite: str
    rows: list[CheckRow]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)


def _check(name: str, cases) -> CheckRow:
    """cases: iterable of (label, passed) pairs."""
    row = CheckRow(name, 0)
    for label, passed in cases:
        row.instances += 1
        if not passed:
            row.failures.append(label)
    return row


def _forms(family: str, instances):
    """(label, parameter values, closed form) for each instance of a family
    of :data:`~coolnum.strategies.FORMS`; an instance is a tuple of values in
    the row's parameter order."""
    from .strategies import FORMS, closed_form

    names = [name for name, _ in FORMS[family].params]
    for args in instances:
        params = dict(zip(names, args))
        label = ", ".join(f"{name}={v}" for name, v in params.items())
        yield f"{family}({label})", args, closed_form(family, params)


def _solver_cases(family: str, instances, limits: SearchLimits | None = None):
    """The solver's value on each member graph against its closed form."""
    from .solver import cooling_number
    from .strategies import FORMS

    for label, args, form in _forms(family, instances):
        got = cooling_number(FORMS[family].graph(*args), limits).value
        yield f"{label}: solver {got} vs {form.lo}", got == form.lo


def _strategy_cases(family: str, instances):
    """The family's strategy rounds against its closed form."""
    from .strategies import FORMS

    for label, args, form in _forms(family, instances):
        rounds = FORMS[family].run(*args).num_rounds
        yield f"{label}: strategy {rounds} in {form.kind} [{form.lo}, {form.hi}]", \
            form.contains(rounds)


@cache
def _corpus_solved() -> tuple[tuple[str, Graph, SearchResult], ...]:
    """The corpus with each graph's cooling number, solved once per process
    for the suites that share it. The unpruned search starts its probes at
    ``n``, not at the order and diameter caps, so the sandwich row tests the
    caps rather than reading them back."""
    from .corpus import build_corpus
    from .solver import cooling_number

    return tuple((name, g, cooling_number(g, prune=False)) for name, g in build_corpus())


def suite_path_formula() -> SuiteReport:
    return SuiteReport("path-formula", [
        _check("cooling of paths", _solver_cases("path", product(range(1, 15))))])


def suite_cycle_formula() -> SuiteReport:
    return SuiteReport("cycle-formula", [
        _check("cooling of cycles", _solver_cases("cycle", product(range(3, 15))))])


def suite_caterpillar() -> SuiteReport:
    return SuiteReport("caterpillar", [
        _check("solver value", _solver_cases("caterpillar", product(range(3, 8)))),
        _check("strategy achieves it", _strategy_cases("caterpillar", product(range(3, 8)))),
    ])


def suite_bounds_sandwich() -> SuiteReport:
    def cases():
        for name, g, res in _corpus_solved():
            cl = res.value
            d = diameter(g)
            lo = (d + 3) // 2
            hi = min(d + 1, (g.n + 2) // 2)
            yield f"{name}: {lo} <= {cl} <= {hi}", lo <= cl <= hi

    return SuiteReport("bounds-sandwich", [_check("diameter/order sandwich", cases())])


def suite_burning_cross() -> SuiteReport:
    from .solver import burning_number, cooling_number

    results = [(name, g, burning_number(g).value, res.value)
               for name, g, res in _corpus_solved()]

    def le_cases():
        for name, _, b, cl in results:
            yield f"{name}: b={b} CL={cl}", b <= cl

    def diam2_cases():
        # a run from v ends in round 2 iff v has at most one non-neighbour
        for name, g, b, cl in results:
            if diameter(g) <= 2:
                far = [g.n - 1 - g.degree(v) for v in range(g.n)]
                want = (1, 1) if g.n == 1 else \
                    (2 if min(far) <= 1 else 3, 2 if max(far) <= 1 else 3)
                yield f"{name}: b={b} CL={cl} want {want}", (b, cl) == want

    p9 = burning_number(gen_path(9)).value
    star = gen_complete_caterpillar(3)
    star_b, star_cl = burning_number(star).value, cooling_number(star).value
    return SuiteReport("burning-cross", [
        _check("b <= CL everywhere", le_cases()),
        _check("b, CL <= 3 by non-neighbours when diameter <= 2", diam2_cases()),
        _check("3-leaf star has b < CL", [(f"CC_3: b={star_b} CL={star_cl}",
                                           (star_b, star_cl) == (2, 3))]),
        _check("b(P_9) == 3", [(f"P_9: b={p9}", p9 == 3)]),
    ])


def suite_iso_smoothness() -> SuiteReport:
    from .bounds import iso_profile_exact, iso_upper_bound
    from .solver import cooling_number

    profiles = [(name, iso_profile_exact(g), res.value) for name, g, res in _corpus_solved()]

    def smooth_cases():
        for name, profile, _ in profiles:
            bad = profile.smoothness_violations()
            yield f"{name}: violations {bad[:3]}", not bad

    def upper_cases():
        for name, profile, cl in profiles:
            bound = iso_upper_bound(profile).value
            yield f"{name}: I={bound} CL={cl}", bound >= cl

    def path_cases():
        for n in range(1, 15):
            bound = iso_upper_bound(iso_profile_exact(gen_path(n))).value
            cl = cooling_number(gen_path(n)).value
            yield f"P_{n}: I={bound} CL={cl}", bound == cl

    return SuiteReport("iso-smoothness", [
        _check("border smoothness", smooth_cases()),
        _check("recurrence upper bound", upper_cases()),
        _check("tight on paths", path_cases()),
    ])


def suite_grid_window(max_n: int = 40) -> SuiteReport:
    return SuiteReport("grid-window", [
        _check("strategy rounds inside window",
               _strategy_cases("grid", product(range(2, max_n + 1))))])


def suite_grid_profile() -> SuiteReport:
    from .bounds import grid_iso_profile, iso_profile_exact

    def cases():
        for n in (2, 3, 4):
            got = grid_iso_profile(n)
            want = iso_profile_exact(gen_grid(n))
            yield f"G_{n}", got.phi == want.phi

    return SuiteReport("grid-profile", [_check("simplicial profile matches enumeration", cases())])


def suite_grid_solver() -> SuiteReport:
    from .solver import cooling_number
    from .strategies import grid_simplicial_strategy

    def cases():
        for n in (2, 3, 4):
            rounds = grid_simplicial_strategy(n).num_rounds
            exact = cooling_number(gen_grid(n)).value
            yield f"G_{n}: strategy {rounds} solver {exact}", rounds == exact

    return SuiteReport("grid-solver", [_check("simplicial strategy is optimal", cases())])


def suite_ilt() -> SuiteReport:
    from .solver import SearchLimits, cooling_number, max_sequence_length

    limits = SearchLimits(max_nodes=32)

    def monotone_cases():
        # replaying G's witness on ILT(G) certifies CL(ILT(G)) >= its rounds;
        # an exact solve settles the graphs where the replay falls short
        for name, g, cl in _corpus_solved():
            if 2 * g.n > 24:
                continue
            lifted = ilt(g).graph
            got = validate_sequence(lifted, cl.witness.sources).num_rounds
            if got < cl.value:
                got = cooling_number(lifted, SearchLimits(max_nodes=24)).value
            yield f"{name}: CL(ILT) >= {got} vs CL {cl.value}", got >= cl.value

    def fixpoint_cases():
        for name, g in _ilt_base_graphs():
            s2 = max_sequence_length(ilt_t(g, 2).graph, limits).value
            s3 = max_sequence_length(ilt_t(g, 3).graph, limits).value
            yield f"{name}: s2={s2} s3={s3}", s2 == s3

    def step_cases():
        for name, g in _ilt_base_graphs():
            c2 = cooling_number(ilt_t(g, 2).graph, limits).value
            c3 = cooling_number(ilt_t(g, 3).graph, limits).value
            yield f"{name}: CL2={c2} CL3={c3}", c2 <= c3 <= c2 + 1

    return SuiteReport("ilt", [
        _check("path formula", _solver_cases("ilt_path", product((3, 4, 5), (1, 2)), limits)),
        _check("path strategy", _strategy_cases("ilt_path", product((3, 4, 5, 6), (1, 2)))),
        _check("one step never decreases", monotone_cases()),
        _check("second step fixes sequence length", fixpoint_cases()),
        _check("later steps add at most one round", step_cases()),
    ])


def _ilt_base_graphs() -> list[tuple[str, Graph]]:
    return [
        ("P_2", gen_path(2)),
        ("P_3", gen_path(3)),
        ("K_3", build_graph(3, [(0, 1), (0, 2), (1, 2)])),
        ("star-3", gen_spider(3, 1)),
    ]


# (m, r): 2m legs of length r; the strategy runs on every shape
SPIDER_SHAPES = [(m, r) for m in (1, 2, 3) for r in range(1, 8)]
# CL above the log threshold m >= ceil(log2(r + 1)), from the solver and a
# solver-free search: 2r on the first three shapes, 2r + 1 on the rest
SPIDER_EXACT = {(1, 1): 2, (2, 2): 4, (2, 3): 6, (2, 1): 3, (3, 2): 5, (3, 3): 7}


def suite_spider() -> SuiteReport:
    from .solver import cooling_number
    from .strategies import FORMS, closed_form

    solved = {(m, r): cooling_number(FORMS["spider"].graph(m, r)).value for m, r in SPIDER_EXACT}

    def exact_cases():
        for (m, r), want in SPIDER_EXACT.items():
            got = solved[m, r]
            yield f"spider(2m={2 * m}, r={r}): solver {got} vs {want}", got == want

    def certified_cases():
        for (m, r), got in solved.items():
            form = closed_form("spider", {"m": m, "r": r})
            yield f"spider(2m={2 * m}, r={r}): solver {got} vs {form.kind} {form.lo}", \
                form.contains(got)

    return SuiteReport("spider", [
        _check("strategy meets the certified lower bound",
               _strategy_cases("spider", SPIDER_SHAPES)),
        _check("exact value above the log threshold (2r or 2r+1)", exact_cases()),
        _check("certified form contains the exact value", certified_cases()),
    ])


def suite_reference_traces() -> SuiteReport:
    rows = []

    cc6 = gen_complete_caterpillar(6)
    trace = validate_sequence(cc6, [0, 6, 7, 8, 9])
    want = {0: 1, 1: 2, 2: 3, 3: 4, 4: 5, 5: 6, 6: 2, 7: 3, 8: 4, 9: 5}
    rows.append(_check("caterpillar reference run", [
        ("rounds == 6", trace.num_rounds == 6),
        (f"cooling rounds {trace.cooled_round}", trace.cooled_round == want),
    ]))

    iltp6 = ilt_t(gen_path(6), 1).graph
    trace = validate_sequence(iltp6, [6, 7, 9, 10])
    want = {0: 2, 1: 2, 2: 3, 3: 4, 4: 4, 5: 5, 6: 1, 7: 2, 8: 3, 9: 3, 10: 4, 11: 5}
    rows.append(_check("ilt path reference run", [
        ("rounds == 5", trace.num_rounds == 5),
        (f"cooling rounds {trace.cooled_round}", trace.cooled_round == want),
    ]))
    return SuiteReport("reference-traces", rows)


def suite_determinism() -> SuiteReport:
    import tempfile
    from pathlib import Path

    from . import cli
    from .graph_io import write_graph

    with tempfile.TemporaryDirectory() as tmp:
        gpath = Path(tmp) / "p8.json"
        write_graph(gen_path(8), gpath)
        outputs = []
        for run in range(2):
            tpath = Path(tmp) / f"trace{run}.json"
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli.main(["exact", "--in", str(gpath), "--trace-out", str(tpath),
                                 "--json"])
            outputs.append((code, buf.getvalue(), tpath.read_bytes()))
    same = outputs[0] == outputs[1]
    row = _check("exact twice", [
        ("exit codes zero", outputs[0][0] == 0 and outputs[1][0] == 0),
        ("byte-identical stdout and trace", same),
    ])
    return SuiteReport("determinism", [row])


SUITES = {
    "path-formula": suite_path_formula,
    "cycle-formula": suite_cycle_formula,
    "caterpillar": suite_caterpillar,
    "bounds-sandwich": suite_bounds_sandwich,
    "burning-cross": suite_burning_cross,
    "iso-smoothness": suite_iso_smoothness,
    "grid-window": suite_grid_window,
    "grid-profile": suite_grid_profile,
    "grid-solver": suite_grid_solver,
    "ilt": suite_ilt,
    "spider": suite_spider,
    "reference-traces": suite_reference_traces,
    "determinism": suite_determinism,
}


class UnknownSuiteError(ValueError):
    pass


def run_suite(name: str) -> SuiteReport:
    if name not in SUITES:
        raise UnknownSuiteError(
            f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}")
    return SUITES[name]()
