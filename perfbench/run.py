"""coolnum benchmark: run one workload from a seed, check every answer, print metrics.

    python3 perfbench/run.py --workload {search,sweep,strategy,cli} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a coolnum checkout; it imports coolnum from ``./src``
and nowhere else. A run sets up (measured several times in fresh processes),
warms up, then makes passes over the workload's calls, one client in a closed
loop, until ``--seconds`` have gone by. Between calls, four times a second of
calls, it times the machine-speed kernel of ``machine.py``. Each call's time
is scaled by the speed factor of its stretch of calls, ``KERNEL_REF_S`` over
the median of the two kernel times before and the two after it, so that the
figures follow the program rather than the shared host's drift. Set-up times
are scaled the same way. Every answer is checked after the timed passes. The
last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. A traced run
alternates untraced and traced passes, then probes the layers once, and
writes its spans to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
from array import array
from collections import Counter
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
SETUP_REPEATS = 15
MIN_PASSES = 3
KERNEL_EVERY_S = 0.25  # seconds of timed calls between two kernel samples
MODULES = ("graphs", "generators", "ilt", "graph_io", "engine", "solver", "bounds",
           "strategies", "corpus", "verify", "cli", "bench")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("search", "sweep", "strategy", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up and warm up, print 'ready' and exit (used to time set-up)")
    return parser.parse_args(argv)


def time_setup(args) -> list[float]:
    """Seconds from spawning a fresh process until it is ready for its first
    timed call, once per repeat: interpreter start, imports, inputs, warm-up.
    Each is scaled by the speed factor of the kernel runs before and after it."""
    from machine import timed_kernel

    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    out, kernel = [], []
    for _ in range(SETUP_REPEATS):
        kernel.append(timed_kernel())
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up process failed (exit {proc.returncode})")
        out.append(elapsed)
    kernel.append(timed_kernel())
    return [t * f for t, f in zip(out, speed_factors(kernel))]


def speed_factors(kernel: list[float]) -> list[float]:
    """For each stretch between two neighbouring kernel samples, the multiplier
    that takes a time measured in it to the nominal speed: ``KERNEL_REF_S`` over
    the median of the two samples before and the two after the stretch."""
    from machine import KERNEL_REF_S

    return [KERNEL_REF_S / statistics.median(kernel[max(0, j - 1):j + 3])
            for j in range(len(kernel) - 1)]


class Passes:
    """Timed passes over the calls, with each answer's digest and failures.

    Bookkeeping stays small (counters, an array of doubles), so that the
    process's peak memory barely depends on how many passes a run makes.
    """

    def __init__(self):
        self.walls: list[float] = []  # untraced passes: seconds to get every answer
        self.traced_walls: list[float] = []
        self.latencies = array("d")  # seconds, untraced calls
        self.stretch = array("i")  # per untraced call: index of the kernel sample before it
        self.pass_of = array("i")  # per untraced call: index of its pass in ``walls``
        self.kernel: list[float] = []  # seconds, machine-speed kernel samples
        self.first: dict = {}  # call key -> first result
        self.digests: dict = {}
        self.outcomes: Counter = Counter()  # (call key, failure or None) -> calls


def run_passes(workload, seconds: float, tracer, digest, null_span) -> Passes:
    from machine import timed_kernel

    out = Passes()
    out.kernel.append(timed_kernel())
    since_kernel = 0.0
    min_passes = MIN_PASSES + (tracer is not None)
    deadline = time.perf_counter() + seconds
    i = 0
    while i < min_passes or time.perf_counter() < deadline:
        traced = tracer is not None and i % 2 == 1
        sp = tracer if traced else null_span
        if traced:
            tracer.phase = f"pass{i}"
        wall = 0.0
        with sp("bench.pass"):
            for call in workload.calls:
                if traced:
                    tracer.call += 1
                t0 = time.perf_counter()
                try:
                    result = call.run(sp)
                except Exception as exc:  # a failed call is counted, not fatal
                    out.outcomes[call.key, f"raised {exc!r}"] += 1
                    continue
                dt = time.perf_counter() - t0
                wall += dt
                if not traced:
                    out.latencies.append(dt)
                    out.stretch.append(len(out.kernel) - 1)
                    out.pass_of.append(len(out.walls))
                since_kernel += dt
                if since_kernel >= KERNEL_EVERY_S:
                    out.kernel.append(timed_kernel())
                    since_kernel = 0.0
                got = digest(call.kind, result)
                if call.key not in out.digests:
                    out.digests[call.key] = got
                    out.first[call.key] = result
                same = got == out.digests[call.key]
                out.outcomes[call.key, None if same else "answer differs from the first pass"] += 1
        (out.traced_walls if traced else out.walls).append(wall)
        i += 1
    out.kernel.append(timed_kernel())
    return out


def check_answers(workload, passes: Passes, check, pinned, null_span) -> dict[str, list[str]]:
    failures = {}
    for call in workload.calls + [call for call, _ in workload.probe_answers]:
        if call.key in failures or call.key not in passes.first:
            continue
        graph = call.graph
        if graph is None and call.kind != "cli":
            graph = workload.rebuild[call.gkey](null_span)
        try:
            failures[call.key] = check(call.kind, call.gkey, graph, passes.first[call.key],
                                       pinned)
        except Exception as exc:  # e.g. a witness the engine rejects
            failures[call.key] = [f"check raised {exc!r}"]
    return failures


def end_to_end(passes: Passes, setup: list[float], peak_kb: int) -> dict:
    """The end-to-end metrics, every time scaled by its stretch's speed factor."""
    factors = speed_factors(passes.kernel)
    lat = [dt * factors[j] for dt, j in zip(passes.latencies, passes.stretch)]
    walls = [0.0] * len(passes.walls)
    for dt, p in zip(lat, passes.pass_of):
        walls[p] += dt
    lat_ms = [1000 * x for x in lat]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "call_p50_ms": (statistics.median(lat_ms), "ms"),
        "call_p90_ms": (statistics.quantiles(lat_ms, n=10)[8], "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


def per_layer(workload, passes: Passes, tracer, extra: dict) -> dict:
    from spans import duration, once, per_pass, self_times

    spans = tracer.spans
    runs = sorted({rec["phase"] for rec in spans if rec["phase"].startswith("pass")})

    def pick(name, **attrs):
        return lambda rec: rec["name"] == name and all(rec.get(k) == v for k, v in attrs.items())

    def module(mod):
        return lambda rec: rec["name"].startswith(mod + ".")

    def field(key):
        return lambda rec: rec[key]

    cool = pick("solver.cooling_number", jobs=1)
    grid6 = pick("solver.cooling_number", instance="grid-6")
    jobs2 = pick("solver.cooling_number", jobs=2)
    seqlen = pick("solver.max_sequence_length")
    burn = pick("solver.burning_number")
    expanded = per_pass(spans, runs, cool, field("expanded"))
    hits = per_pass(spans, runs, cool, field("hits"))
    cool_ms = [1000 * duration(r) for r in spans if r["phase"] in runs and cool(r)]
    replay = pick("engine.validate_sequence")
    engine_s = once(spans, "probe", replay)
    rounds = once(spans, "probe", replay, field("rounds"))
    selfs = self_times(spans)
    m = {
        "solver.cool_s": (per_pass(spans, runs, cool), "s"),
        "solver.cool_expanded": (expanded, "count"),
        "solver.cool_memo_hits": (hits, "count"),
        "solver.cool_hit_ratio": (hits / (expanded + hits) if expanded + hits else 0.0, "ratio"),
        "solver.seqlen_s": (per_pass(spans, runs, seqlen), "s"),
        "solver.seqlen_expanded": (per_pass(spans, runs, seqlen, field("expanded")), "count"),
        "solver.jobs2_s": (per_pass(spans, runs, jobs2), "s"),
        "solver.jobs2_expanded": (per_pass(spans, runs, jobs2, field("expanded")), "count"),
        "solver.burn_s": (per_pass(spans, runs, burn), "s"),
        "solver.burn_expanded": (per_pass(spans, runs, burn, field("expanded")), "count"),
        "solver.burn_cache_hits": (per_pass(spans, runs, burn, field("hits")), "count"),
        "solver.small_call_p50_ms": (statistics.median(cool_ms) if cool_ms else 0.0, "ms"),
        "solver.grid6_s": (once(spans, "probe", grid6), "s"),
        "solver.grid6_expanded": (once(spans, "probe", grid6, field("expanded")), "count"),
        "bounds.report_s": (per_pass(spans, runs, pick("bounds.bounds_report")), "s"),
        "bounds.iso_s": (once(spans, "probe", pick("bounds.iso_profile_exact")), "s"),
        "bounds.iso_subsets": (once(spans, "probe", pick("bounds.iso_profile_exact"),
                                    field("subsets")), "count"),
        "engine.run_s": (engine_s, "s"),
        "engine.rounds": (rounds, "count"),
        "engine.rounds_per_s": (rounds / engine_s if engine_s else 0.0, "1/s"),
        "generators.gen_s": (once(spans, "probe", module("generators")), "s"),
        "graphs.connect_s": (once(spans, "probe", pick("graphs.is_connected")), "s"),
        "graphs.diameter_s": (once(spans, "probe", pick("graphs.diameter")), "s"),
        "strategies.grid_s": (per_pass(spans, runs,
                                       pick("strategies.grid_simplicial_strategy")), "s"),
        "strategies.path_diameter_s": (per_pass(spans, runs,
                                                pick("strategies.path_diameter_strategy")), "s"),
        "graph_io.read_s": (once(spans, "probe", pick("graph_io.read_graph")), "s"),
        "graph_io.write_s": (once(spans, "setup", pick("graph_io.write_graph")), "s"),
        "graph_io.bytes": (getattr(workload, "written", 0), "bytes"),
        "cli.import_ms": (extra.get("cli.import_ms", 0.0), "ms"),
        "corpus.build_s": (once(spans, "setup", module("corpus")), "s"),
        "trace.overhead_s": (statistics.median(passes.traced_walls)
                             - statistics.median(passes.walls), "s"),
        "machine.kernel_ms": (1000 * statistics.median(passes.kernel), "ms"),
    }
    for mod in MODULES:
        m[f"{mod}.self_s"] = (selfs.get(mod, 0.0), "s")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "coolnum", "__init__.py")):
        print("perfbench: no ./src/coolnum here; run from the root of a coolnum checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]
    if not args.setup_only and not args.trace:
        setup = time_setup(args)

    import check as checker
    import coolnum
    from spans import Tracer, null_span
    from workloads import WORKLOADS

    if not os.path.abspath(coolnum.__file__).startswith(src + os.sep):
        print(f"perfbench: imported coolnum from {coolnum.__file__}, not ./src", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer = Tracer() if args.trace and not args.setup_only else None
    sp = tracer or null_span
    with sp("bench.setup"):
        workload = WORKLOADS[args.workload](args.seed, sp, OUT_DIR)
    try:
        workload.warm_up()
        if args.setup_only:
            print("ready", flush=True)
            return 0
        passes = run_passes(workload, args.seconds, tracer, checker.digest, null_span)
        peak_kb = workload.peak_rss_kb()  # before the checks and probes add their own
        extra = {}
        if tracer is not None:
            tracer.phase = "probe"
            with tracer("bench.probe"):
                extra = workload.probe(tracer, passes.first)
            for call, result in workload.probe_answers:
                passes.first[call.key] = result
                passes.outcomes[call.key, None] += 1
        failures = check_answers(workload, passes, checker.check, checker.load_pinned(),
                                 null_span)
    finally:
        workload.close()

    failed = 0
    for (key, problem), calls in sorted(passes.outcomes.items(), key=str):
        problems = ([problem] if problem else []) + failures.get(key, [])
        if problems:
            failed += calls
            print(f"FAIL {key} ({calls} calls): {'; '.join(problems)}", file=sys.stderr)
    attempted = sum(passes.outcomes.values())
    if tracer is not None:
        metrics = per_layer(workload, passes, tracer, extra)
        tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json"))
    else:
        metrics = end_to_end(passes, setup, peak_kb)
    beyond = len(passes.latencies) - int(0.9 * len(passes.latencies))
    print(f"workload={args.workload} seed={args.seed} passes={len(passes.walls)} untraced"
          f" + {len(passes.traced_walls)} traced, {len(workload.calls)} calls a pass,"
          f" {len(passes.latencies)} untraced call samples ({beyond} beyond p90)")
    print(f"fail_ratio {failed}/{attempted} = {failed / attempted:.6g}")
    if tracer is None:
        lat_ms = [1000 * x for x in passes.latencies]
        print(f"machine-speed kernel: median {1000 * statistics.median(passes.kernel):.3f} ms"
              f" over {len(passes.kernel)} samples; unscaled:"
              f" wall_s {statistics.median(passes.walls):.6f}"
              f" call_p50_ms {statistics.median(lat_ms):.6f}"
              f" call_p90_ms {statistics.quantiles(lat_ms, n=10)[8]:.6f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
