"""Write ``pinned.json``: the expected answer for every instance any seed can draw.

Run from the repository root: ``python3 perfbench/pin.py``. It takes a few
minutes. Answers come from coolnum and are accepted only after a cross-check
that does not use the solver: the exhaustive search, diameters and
isoperimetric profiles of ``reference.py``, an unpruned solver run where it
ends within a minute, the paper's closed forms, and a
replay of every witness through the engine. Regenerate the file only when a
change of answers is intended; a benchmark failure is never a reason to.
"""

from __future__ import annotations

import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.getcwd(), "src"), HERE]

import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402
from check import PINNED_PATH, sources_digest  # noqa: E402
from coolnum import (  # noqa: E402
    SearchLimits,
    TimeBudgetExceededError,
    bounds_report,
    burning_number,
    cooling_number,
    diameter,
    gen_cycle,
    gen_grid,
    gen_path,
    gen_spider,
    grid_simplicial_strategy,
    ilt_t,
    max_sequence_length,
    path_diameter_strategy,
    spider_strategy,
    validate_sequence,
    write_graph,
)
from coolnum import cli  # noqa: E402
from coolnum.corpus import build_corpus  # noqa: E402
from coolnum.strategies import caterpillar_strategy_trace, ilt_path_strategy_trace  # noqa: E402

UNPRUNED_BUDGET_S = 60.0


def adjacency(g) -> list[list[int]]:
    return [list(nbrs) for nbrs in g.adj]


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"pin: cross-check failed: {what}")


def solved(fn, g, limits, objective: str, **kwargs) -> tuple[int, list[int]]:
    res = fn(g, limits, **kwargs)
    trace = validate_sequence(g, res.witness.sources)
    got = len(trace.sources) if objective == "seqlen" else trace.num_rounds
    expect(got == res.value, f"{fn.__name__} witness replay {got} != {res.value}")
    return res.value, list(res.witness.sources)


def unpruned_agrees(fn, g, limits, value) -> bool | None:
    """Unpruned solver value equals ``value``; None when over the time budget."""
    try:
        res = fn(g, SearchLimits(limits.max_nodes, UNPRUNED_BUDGET_S), prune=False)
    except TimeBudgetExceededError:
        return None
    return res.value == value


def pin_graph(gkey: str, g, *, cool=True, seqlen=True, burn=True, bounds=True,
              limits=SearchLimits()) -> dict:
    adj = adjacency(g)
    d = ref.diameter(adj)
    expect(d == diameter(g), f"{gkey}: diameter")
    out: dict = {"n": g.n, "d": d}
    checks = ["reference diameter", "witness replay"]
    if cool:
        out["cl"], out["cl_sources"] = solved(cooling_number, g, limits, "cl")
        expect((d + 3) // 2 <= out["cl"] <= min(d + 1, (g.n + 2) // 2), f"{gkey}: CL sandwich")
    if seqlen:
        out["seqlen"], out["seqlen_sources"] = solved(max_sequence_length, g, limits, "seqlen")
    if burn:
        out["b"], out["b_sources"] = solved(burning_number, g, limits, "b")
    want = ref.exhaustive(adj)
    got = (out.get("cl", want[0]), out.get("seqlen", want[1]), out.get("b", want[2]))
    expect(got == want, f"{gkey}: exhaustive {want} != solver {got}")
    checks.append("exhaustive search")
    for field, fn in (("cl", cooling_number), ("seqlen", max_sequence_length)):
        if field in out:
            agrees = unpruned_agrees(fn, g, limits, out[field])
            expect(agrees is not False, f"{gkey}: unpruned {field}")
            if agrees:
                checks.append(f"unpruned {field}")
    if bounds:
        report = bounds_report(g).to_json_obj()
        if report["iso_upper"] is not None:
            value, xs = ref.iso_upper(ref.iso_profile(adj))
            expect((value, xs) == (report["iso_upper"], report["iso_trajectory"]),
                   f"{gkey}: iso bound")
        expect(report["burning_lower"] in (None, out["b"]), f"{gkey}: burning_lower")
        out["bounds"] = report
    out["checked"] = checks
    print(f"  {gkey}: {', '.join(checks)}", file=sys.stderr)
    return out


def pin_graphs() -> dict:
    graphs = {}
    for name, g in build_corpus(random_count=0):
        graphs[name] = pin_graph(name, g)
    for n in wl.SWEEP_SIZES:
        for v in range(wl.SWEEP_VARIANTS):
            graphs[f"wrand-n{n}-{v}"] = pin_graph(f"wrand-n{n}-{v}", wl.sweep_random(n, v))
    big = dict(limits=wl.SEARCH_LIMITS, seqlen=False, burn=False, bounds=False)
    graphs["grid-5"] = pin_graph("grid-5", gen_grid(5), **dict(big, seqlen=True))
    graphs["grid-6"] = pin_graph("grid-6", gen_grid(6), **big)
    orbits = dict(graphs["grid-6"])
    orbits["cl"], orbits["cl_sources"] = solved(cooling_number, gen_grid(6), wl.SEARCH_LIMITS,
                                                "cl", first_sources=wl.GRID6_ORBITS)
    expect(orbits["cl"] == graphs["grid-6"]["cl"], "grid-6 orbit roots give the full value")
    graphs["grid-6-orbits"] = orbits
    graphs["cycle-24"] = pin_graph("cycle-24", gen_cycle(24), **big)
    graphs["cycle-18"] = pin_graph("cycle-18", gen_cycle(18), **dict(big, seqlen=True))
    graphs["spider-4x4"] = pin_graph("spider-4x4", gen_spider(4, 4), **big)
    expect(graphs["cycle-24"]["cl"] == ref.cl_cycle(24), "cycle-24 closed form")
    expect(graphs["cycle-18"]["cl"] == ref.cl_cycle(18), "cycle-18 closed form")
    jobs2 = cooling_number(gen_cycle(24), wl.SEARCH_LIMITS, jobs=2)
    expect(jobs2.value == graphs["cycle-24"]["cl"]
           and list(jobs2.witness.sources) == graphs["cycle-24"]["cl_sources"], "jobs=2")
    for i in wl.SEARCH_POOL:
        graphs[f"srand-{i}"] = pin_graph(f"srand-{i}", wl.search_random(i), **big)
    return graphs


def pin_trace(trace, **extra) -> dict:
    return {"rounds": trace.num_rounds, "sources": sources_digest(trace.sources), **extra}


def pin_strategies(graphs: dict) -> dict:
    out = {}
    for n in range(2, 201):
        trace = grid_simplicial_strategy(n)
        if n <= 4:
            expect(trace.num_rounds == ref.exhaustive(adjacency(gen_grid(n)))[0], f"grid {n}")
        if n in (5, 6):
            expect(trace.num_rounds == graphs[f"grid-{n}"]["cl"], f"grid {n} vs exact")
        out[f"grid-{n}"] = pin_trace(trace)
    for i in range(wl.STRATEGY_POOL):
        for gkey, g in ((f"spath-{i}", wl.relabeled(gen_path(wl.STRATEGY_PATH_N), i)),
                        (f"sgrid-{i}", wl.relabeled(gen_grid(wl.STRATEGY_GRID_SIDE), i))):
            out[gkey] = pin_path_diameter(gkey, g)
    for i in range(2 * wl.STRATEGY_POOL):
        out[f"ssparse-{i}"] = pin_path_diameter(f"ssparse-{i}", wl.strategy_sparse(i))
    for m in (2, 3):
        for r in range(72, 80):
            trace = spider_strategy(m, r).trace
            validate_sequence(gen_spider(2 * m, r), trace.sources)
            out[f"spider-{m}x{r}"] = pin_trace(trace)
    for d in range(440, 448):
        trace = caterpillar_strategy_trace(d)
        expect(trace.num_rounds == ref.cl_caterpillar(d), f"caterpillar {d}")
        out[f"caterpillar-{d}"] = pin_trace(trace)
    for n in range(144, 152):
        trace = ilt_path_strategy_trace(n, 2)
        expect(trace.num_rounds == ref.cl_ilt_path(n, 2), f"ilt {n}")
        validate_sequence(ilt_t(gen_path(n), 2).graph, trace.sources)
        out[f"ilt-{n}x2"] = pin_trace(trace)
    return out


def pin_path_diameter(gkey: str, g) -> dict:
    d = ref.diameter(adjacency(g))
    trace = validate_sequence(g, path_diameter_strategy(g))
    expect((d + 3) // 2 <= trace.num_rounds <= min(d + 1, (g.n + 2) // 2), f"{gkey} sandwich")
    print(f"  {gkey}: d={d} rounds={trace.num_rounds}", file=sys.stderr)
    return pin_trace(trace, d=d)


def run_cli(argv: list[str]) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    expect(code == 0, f"cli {argv} exit {code}")
    return buf.getvalue()


def pin_cli(graphs: dict, strategies: dict) -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.json")
        for n in wl.CLI_SIZES:
            for v in range(wl.SWEEP_VARIANTS):
                gkey = f"wrand-n{n}-{v}"
                info = graphs[gkey]
                write_graph(wl.sweep_random(n, v), path)
                want = {"exact": f"{info['cl']}\n", "seqlen": f"{info['seqlen']}\n",
                        "burn": f"{info['b']}\n",
                        "bounds": json.dumps(info["bounds"], separators=(", ", ": ")) + "\n"}
                for cmd, text in want.items():
                    got = run_cli([cmd, "--in", path])
                    expect(got == text, f"cli {cmd} {gkey}: {got!r} != {text!r}")
                    out[f"{cmd}:{gkey}"] = got
        for k in range(3, 13):
            got = run_cli(["gen", "grid", "--n", str(k), "--out", path])
            expect(got == f"n={k * k} edges={2 * k * (k - 1)}\n", f"cli gen grid {k}")
            out[f"gen:grid-{k}"] = got
    for k in range(10, 41):
        got = run_cli(["strategy", "grid-simplicial", "--n", str(k)])
        expect(got.startswith(f"rounds={strategies[f'grid-{k}']['rounds']} "), f"cli grid {k}")
        out[f"strategy:grid-{k}"] = got
    out["verify:reference-traces"] = run_cli(["verify", "reference-traces"])
    return out


def main() -> None:
    graphs = pin_graphs()
    strategies = pin_strategies(graphs)
    pinned = {"graphs": graphs, "strategies": strategies, "cli": pin_cli(graphs, strategies)}
    with open(PINNED_PATH, "w") as fh:
        json.dump(pinned, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
