"""The benchmark's four workloads.

Each workload builds its inputs from the seed (the program only ever sees the
built graphs and files), lists the calls one pass makes, and for the traced
run has a probe that rebuilds each input and replays each answer, so the time
of graph building, connectivity, diameter and the engine shows on its own.

Seeded instances are drawn from fixed pools, so every instance any seed can
produce has a pinned answer in ``pinned.json``.
"""

from __future__ import annotations

import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Callable

from coolnum import (
    SearchLimits,
    bounds_report,
    burning_number,
    cooling_number,
    diameter,
    gen_complete_caterpillar,
    gen_cycle,
    gen_grid,
    gen_path,
    gen_spider,
    grid_simplicial_strategy,
    ilt_t,
    iso_profile_exact,
    max_sequence_length,
    path_diameter_strategy,
    read_graph,
    spider_strategy,
    validate_sequence,
    write_graph,
)
from coolnum import verify
from coolnum.corpus import build_corpus, random_connected_graph
from coolnum.graphs import build_graph
from coolnum.strategies import caterpillar_strategy_trace, ilt_path_strategy_trace
from check import run_of
from spans import null_span

SEARCH_LIMITS = SearchLimits(max_nodes=40)
# One first source per symmetry orbit of the 6x6 grid, the restriction that
# cooling_number documents. A pass takes this 0.7 s search; the full 3 s
# search over all 36 roots runs once, in the traced run's probe, so that a
# run holds enough passes for steady medians on a shared machine.
GRID6_ORBITS = [0, 1, 2, 7, 8, 14]
# Sparse random graphs whose exact search expanded at most 2,000 states at the
# seed commit (grid5 expands 8,865): each stays well below the 5x5 grid's
# time, so the seed changes these inputs without moving the median call.
SEARCH_POOL = (2, 3, 7, 8, 9, 10, 11, 12, 13, 14, 17, 18, 20, 21, 22, 25, 27, 28, 31)
SWEEP_SIZES = range(4, 17)
SWEEP_DENSITIES = (0.05, 0.1, 0.2, 0.35, 0.5)
SWEEP_VARIANTS = 4 * len(SWEEP_DENSITIES)  # variant v has density v % 5
SWEEP_PICKS = 2  # per size and density
# one grid per band up to 200, and G_5, whose value lies outside the paper's
# window; fixed, so the quantiles of a pass do not move with the seed
STRATEGY_GRID_NS = (5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120, 130, 140, 160, 180, 200)
STRATEGY_PATH_N = 1200
STRATEGY_GRID_SIDE = 24
STRATEGY_SPARSE_N = 500
STRATEGY_POOL = 8
CLI_SIZES = range(8, 13)


def traced(sp, fn, *args, **kwargs):
    """Call ``fn`` inside a span named ``<module>.<function>``."""
    with sp(f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"):
        return fn(*args, **kwargs)


# seeded pools; pin.py enumerates every member of each

def search_random(i: int, sp=null_span):
    rng = random.Random(10_000 + i)
    return traced(sp, random_connected_graph, rng, 30 + i % 11, 0.05)


def sweep_random(n: int, v: int, sp=null_span):
    p = SWEEP_DENSITIES[v % len(SWEEP_DENSITIES)]
    return traced(sp, random_connected_graph, random.Random(20_000 + 100 * n + v), n, p)


def strategy_sparse(i: int, sp=null_span):
    rng = random.Random(31_000 + i)
    return traced(sp, random_connected_graph, rng, STRATEGY_SPARSE_N, 0.0008)


def relabeled(g, i: int, sp=null_span):
    """``g`` with its node ids shuffled by pool member ``i``."""
    perm = list(range(g.n))
    random.Random(30_000 + i).shuffle(perm)
    return traced(sp, build_graph, g.n, [(perm[u], perm[v]) for u, v in g.edges()])


# kinds whose call takes the graph's diameter (the solver for its global cap);
# a grid strategy does not, and the diameter of a 200x200 grid would take hours
DIAMETER_KINDS = {"cool", "cool2", "seqlen", "bounds", "pathdiam"}

FAMILY_GENERATORS: dict[str, Callable] = {
    "grid": gen_grid, "cycle": gen_cycle, "path": gen_path,
    "caterpillar": gen_complete_caterpillar,
}


@dataclass
class Call:
    """One public coolnum call (or one CLI process) of a pass."""

    kind: str  # cool, cool2, seqlen, burn, bounds, grid, pathdiam, spider, caterpillar, ilt, cli
    gkey: str  # instance name; with ``kind`` it keys the pinned answer
    run: Callable  # run(sp) -> result, opening a span around each coolnum call
    graph: object = None  # input graph, for replaying the witness

    @property
    def key(self) -> str:
        return f"{self.kind}:{self.gkey}"


def solver_call(kind: str, gkey: str, g, fn, limits=None, **kwargs) -> Call:
    name = f"solver.{fn.__name__}"

    def run(sp):
        with sp(name) as rec:
            result = fn(g, limits, **kwargs)
        rec.update(instance=gkey, expanded=result.stats.expanded, hits=result.stats.memo_hits,
                   jobs=kwargs.get("jobs", 1))
        return result

    return Call(kind, gkey, run, g)


class Workload:
    name = ""
    calls: list[Call]

    def __init__(self, seed: int, sp, workdir: str):
        self.rebuild: dict[str, Callable] = {}  # gkey -> factory(sp) of a fresh input graph
        self.probe_answers: list[tuple[Call, object]] = []  # checked like a pass's answers

    def warm_up(self) -> None:
        pass

    def peak_rss_kb(self) -> int:
        """Peak resident memory of the process doing the work."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def probe(self, sp, first: dict) -> dict:
        """Traced run only: rebuild every input graph, check connectivity,
        take its diameter and replay each answer through the engine."""
        by_graph: dict[str, list[Call]] = {}
        for call in self.calls:
            by_graph.setdefault(call.gkey, []).append(call)
        for gkey, calls in by_graph.items():
            g = self.rebuild[gkey](sp)
            with sp("graphs.is_connected"):
                g.is_connected
            if any(call.kind in DIAMETER_KINDS for call in calls):
                traced(sp, diameter, g)
            for call in calls:
                answer = run_of(call.kind, first.get(call.key))
                if answer is not None:
                    with sp("engine.validate_sequence") as rec:
                        trace = validate_sequence(g, answer.sources)
                    rec["rounds"] = trace.num_rounds
            self.probe_graph(sp, g)
        return {}

    def probe_graph(self, sp, g) -> None:
        pass

    def close(self) -> None:
        pass


def _factory(fn, *args):
    return lambda sp: traced(sp, fn, *args)


class Search(Workload):
    """A few deep exact searches, where the solver's memo DFS does the work."""

    name = "search"

    def __init__(self, seed, sp, workdir):
        super().__init__(seed, sp, workdir)
        rng = random.Random(seed)
        rands = sorted(rng.sample(SEARCH_POOL, 2))
        fixed = {"grid-5": (gen_grid, 5), "grid-6-orbits": (gen_grid, 6),
                 "cycle-24": (gen_cycle, 24), "spider-4x4": (gen_spider, 4, 4),
                 "cycle-18": (gen_cycle, 18)}
        for gkey, (fn, *args) in fixed.items():
            self.rebuild[gkey] = _factory(fn, *args)
        for i in rands:
            self.rebuild[f"srand-{i}"] = lambda sp, i=i: search_random(i, sp)
        g = {gkey: build(sp) for gkey, build in self.rebuild.items()}
        for graph in g.values():
            with sp("graphs.is_connected"):
                graph.is_connected
        cool_keys = ["grid-5", "cycle-24", "spider-4x4"] + [f"srand-{i}" for i in rands]
        self.calls = [solver_call("cool", k, g[k], cooling_number, SEARCH_LIMITS)
                      for k in cool_keys]
        self.calls.append(solver_call("cool", "grid-6-orbits", g["grid-6-orbits"],
                                      cooling_number, SEARCH_LIMITS, first_sources=GRID6_ORBITS))
        self.calls += [solver_call("seqlen", k, g[k], max_sequence_length, SEARCH_LIMITS)
                       for k in ("grid-5", "cycle-18")]
        self.calls.append(solver_call("cool2", "cycle-24", g["cycle-24"], cooling_number,
                                      SEARCH_LIMITS, jobs=2))

    def warm_up(self):
        small = gen_cycle(8)
        cooling_number(small)
        max_sequence_length(small)

    def probe(self, sp, first):
        out = super().probe(sp, first)
        call = solver_call("cool", "grid-6", traced(sp, gen_grid, 6), cooling_number,
                           SEARCH_LIMITS)
        self.probe_answers.append((call, call.run(sp)))
        return out


class Sweep(Workload):
    """Many small calls on the corpus, where each call's fixed cost dominates."""

    name = "sweep"

    def __init__(self, seed, sp, workdir):
        super().__init__(seed, sp, workdir)
        rng = random.Random(seed)
        graphs = {}
        for name, g in traced(sp, build_corpus, random_count=0):
            graphs[name] = g
            family, _, raw = name.partition("-")
            if family == "spider":
                legs, r = map(int, raw.split("x"))
                self.rebuild[name] = _factory(gen_spider, legs, r)
            else:
                self.rebuild[name] = _factory(FAMILY_GENERATORS[family], int(raw))
        # the same number at every size and density keeps a pass's cost steady
        step = len(SWEEP_DENSITIES)
        for n in SWEEP_SIZES:
            picks = [v for c in range(step)
                     for v in rng.sample(range(c, SWEEP_VARIANTS, step), SWEEP_PICKS)]
            for v in sorted(picks):
                gkey = f"wrand-n{n}-{v}"
                self.rebuild[gkey] = lambda sp, n=n, v=v: sweep_random(n, v, sp)
                graphs[gkey] = self.rebuild[gkey](sp)
        self.calls = []
        for gkey, g in graphs.items():
            with sp("graphs.is_connected"):
                g.is_connected
            self.calls += [
                solver_call("cool", gkey, g, cooling_number),
                solver_call("seqlen", gkey, g, max_sequence_length),
                solver_call("burn", gkey, g, burning_number),
                Call("bounds", gkey, lambda sp, g=g: traced(sp, bounds_report, g), g),
            ]

    def warm_up(self):
        g = gen_cycle(7)
        cooling_number(g)
        max_sequence_length(g)
        burning_number(g)
        bounds_report(g)

    def probe_graph(self, sp, g):
        with sp("bounds.iso_profile_exact") as rec:
            iso_profile_exact(g)
        rec["subsets"] = 1 << g.n


class Strategy(Workload):
    """The engine's round loop on large graphs, with no solver work."""

    name = "strategy"

    def __init__(self, seed, sp, workdir):
        super().__init__(seed, sp, workdir)
        rng = random.Random(seed)
        self.calls = []
        for n in STRATEGY_GRID_NS:
            self.rebuild[f"grid-{n}"] = _factory(gen_grid, n)
            self.calls.append(Call("grid", f"grid-{n}",
                                   lambda sp, n=n: traced(sp, grid_simplicial_strategy, n)))
        p, q = rng.randrange(STRATEGY_POOL), rng.randrange(STRATEGY_POOL)
        s1, s2 = sorted(rng.sample(range(2 * STRATEGY_POOL), 2))
        big = {
            f"spath-{p}": lambda sp: relabeled(traced(sp, gen_path, STRATEGY_PATH_N), p, sp),
            f"sgrid-{q}": lambda sp: relabeled(traced(sp, gen_grid, STRATEGY_GRID_SIDE), q, sp),
            f"ssparse-{s1}": lambda sp: strategy_sparse(s1, sp),
            f"ssparse-{s2}": lambda sp: strategy_sparse(s2, sp),
        }
        for gkey, build in big.items():
            g = build(sp)
            with sp("graphs.is_connected"):
                g.is_connected
            self.rebuild[gkey] = build
            self.calls.append(Call("pathdiam", gkey, lambda sp, g=g: _path_diameter(sp, g), g))
        m, r = rng.choice((2, 3)), 72 + rng.randrange(8)
        d = 440 + rng.randrange(8)
        n, t = 144 + rng.randrange(8), 2
        self.rebuild[f"spider-{m}x{r}"] = _factory(gen_spider, 2 * m, r)
        self.rebuild[f"caterpillar-{d}"] = _factory(gen_complete_caterpillar, d)
        self.rebuild[f"ilt-{n}x{t}"] = lambda sp: traced(sp, ilt_t, traced(sp, gen_path, n), t).graph
        self.calls += [
            Call("spider", f"spider-{m}x{r}", lambda sp: traced(sp, spider_strategy, m, r)),
            Call("caterpillar", f"caterpillar-{d}",
                 lambda sp: traced(sp, caterpillar_strategy_trace, d)),
            Call("ilt", f"ilt-{n}x{t}", lambda sp: traced(sp, ilt_path_strategy_trace, n, t)),
        ]

    def warm_up(self):
        grid_simplicial_strategy(8)
        g = gen_path(40)
        validate_sequence(g, path_diameter_strategy(g))


def _path_diameter(sp, g):
    seq = traced(sp, path_diameter_strategy, g)
    return traced(sp, validate_sequence, g, seq)


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: bytes


class Cli(Workload):
    """Cold ``python -m coolnum.cli`` processes, one per command."""

    name = "cli"

    def __init__(self, seed, sp, workdir):
        super().__init__(seed, sp, workdir)
        rng = random.Random(seed)
        self.dir = tempfile.mkdtemp(prefix="cli-", dir=workdir)
        self.env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
        self.env.pop("COOLNUM_MAX_NODES", None)
        self.written = 0
        self.files: list[str] = []
        args: dict[str, list[str]] = {}
        for cmd in ("exact", "seqlen", "burn", "bounds"):
            n, v = rng.choice(CLI_SIZES), rng.randrange(SWEEP_VARIANTS)
            gkey = f"wrand-n{n}-{v}"
            path = os.path.join(self.dir, f"{cmd}.json")
            self.rebuild[gkey] = lambda sp, n=n, v=v: sweep_random(n, v, sp)
            traced(sp, write_graph, self.rebuild[gkey](sp), path)
            self.written += os.path.getsize(path)
            self.files.append(path)
            args[f"{cmd}:{gkey}"] = [cmd, "--in", path]
        k = rng.randrange(3, 13)
        args[f"gen:grid-{k}"] = ["gen", "grid", "--n", str(k), "--out",
                                 os.path.join(self.dir, "gen.json")]
        k = rng.randrange(10, 41)
        args[f"strategy:grid-{k}"] = ["strategy", "grid-simplicial", "--n", str(k)]
        args["verify:reference-traces"] = ["verify", "reference-traces"]
        order = ("gen", "exact", "seqlen", "burn", "bounds", "strategy", "verify")
        self.calls = []
        for key in sorted(args, key=lambda k: order.index(k.split(":")[0])):
            cmd, gkey = key.split(":", 1)
            self.calls.append(Call("cli", key, lambda sp, a=args[key], c=cmd: self.spawn(sp, c, a)))
        self.peak_child_kb = 0

    def spawn(self, sp, cmd, argv) -> CliResult:
        with sp(f"cli.{cmd}"):
            proc = subprocess.Popen([sys.executable, "-m", "coolnum.cli", *argv],
                                    stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                    env=self.env)
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_child_kb = max(self.peak_child_kb, usage.ru_maxrss)
        return CliResult(proc.returncode, out)

    def warm_up(self):
        self.spawn(null_span, "gen",
                   ["gen", "path", "--n", "3", "--out", os.path.join(self.dir, "warm.json")])
        self.peak_child_kb = 0

    def peak_rss_kb(self):
        return self.peak_child_kb

    def probe(self, sp, first):
        for path in self.files:
            g = traced(sp, read_graph, path)
            with sp("graphs.is_connected"):
                g.is_connected
        traced(sp, verify.run_suite, "reference-traces")
        return {"cli.import_ms": 1000 * import_cost(self.env)}

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def import_cost(env, repeats: int = 7) -> float:
    """Median of (cold ``import coolnum.cli``) minus median of (bare start), seconds."""
    def once(code):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        return time.perf_counter() - t0

    bare, full = [], []
    for _ in range(repeats):
        bare.append(once("pass"))
        full.append(once("import coolnum.cli"))
    bare.sort()
    full.sort()
    return full[repeats // 2] - bare[repeats // 2]


WORKLOADS = {w.name: w for w in (Search, Sweep, Strategy, Cli)}
