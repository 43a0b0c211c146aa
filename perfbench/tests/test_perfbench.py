"""Tests of the benchmark itself: inputs, metric names, the checker and the counts.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import check
import reference as ref
import run
import workloads as wl
from coolnum import gen_grid
from spans import Tracer, null_span, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
PINNED = check.load_pinned()


def inputs(workload: str, seed: int, tmp) -> list:
    w = wl.WORKLOADS[workload](seed, null_span, str(tmp))
    try:
        out = []
        for call in w.calls:
            graph = call.graph if call.graph is not None else (
                None if call.kind == "cli" else w.rebuild[call.gkey](null_span))
            out.append((call.key, graph.adj if graph is not None else None))
        if workload == "cli":
            out += [(os.path.basename(p), open(p, "rb").read()) for p in w.files]
        return out
    finally:
        w.close()


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_a_seed_regenerates_identical_inputs(workload, tmp_path):
    first = inputs(workload, 7, tmp_path)
    assert first == inputs(workload, 7, tmp_path)
    assert first != inputs(workload, 8, tmp_path)


def test_workload_names_match_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(wl.WORKLOADS)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metric_names_match_the_spec(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_a_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "search", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def solver_call(workload, tmp_path, kind, gkey):
    w = wl.WORKLOADS[workload](1, null_span, str(tmp_path))
    call = next(c for c in w.calls if c.kind == kind and c.gkey == gkey)
    return call, call.run(null_span)


def test_checker_passes_right_answers_and_counts_wrong_ones(tmp_path):
    call, result = solver_call("sweep", tmp_path, "cool", "path-7")
    assert check.check("cool", "path-7", call.graph, result, PINNED) == []
    wrong = dataclasses.replace(result, value=result.value + 1)
    assert check.check("cool", "path-7", call.graph, wrong, PINNED)
    call, result = solver_call("sweep", tmp_path, "bounds", "cycle-9")
    assert check.check("bounds", "cycle-9", call.graph, result, PINNED) == []
    wrong = dataclasses.replace(result, iso_upper=1)
    assert check.check("bounds", "cycle-9", call.graph, wrong, PINNED)
    wrong_cli = wl.CliResult(0, b"99\n")
    assert check.check("cli", "exact:wrand-n9-2", None, wrong_cli, PINNED)
    right_cli = wl.CliResult(0, PINNED["cli"]["exact:wrand-n9-2"].encode())
    assert check.check("cli", "exact:wrand-n9-2", None, right_cli, PINNED) == []


def test_a_wrong_answer_counts_as_a_failed_call(tmp_path):
    w = wl.WORKLOADS["sweep"](1, null_span, str(tmp_path))
    w.calls = w.calls[:4]
    passes = run.run_passes(w, 0, None, check.digest, null_span)
    key = w.calls[0].key
    passes.first[key] = dataclasses.replace(passes.first[key], value=0)
    failures = run.check_answers(w, passes, check.check, PINNED, null_span)
    assert failures[key] and not any(failures[c.key] for c in w.calls[1:])


def test_refuted_claims_are_not_asserted(tmp_path):
    w = wl.WORKLOADS["strategy"](1, null_span, str(tmp_path))
    call = next(c for c in w.calls if c.gkey == "grid-5")
    trace = call.run(null_span)
    assert trace.num_rounds == 7  # outside the paper's window [4, 6]
    assert check.check("grid", "grid-5", gen_grid(5), trace, PINNED) == []


def test_full_grid6_search_expands_exactly_160030_states(tmp_path):
    w = wl.WORKLOADS["search"](1, null_span, str(tmp_path))
    first = {c.key: c.run(null_span) for c in w.calls}
    tracer = Tracer()
    tracer.phase = "probe"
    w.probe(tracer, first)
    (call, result), = w.probe_answers
    assert check.check(call.kind, call.gkey, call.graph, result, PINNED) == []
    (span,) = [r for r in tracer.spans if r.get("instance") == "grid-6"]
    assert span["expanded"] == 160_030


def test_pinned_graph_answers_match_the_exhaustive_reference():
    for gkey, info in PINNED["graphs"].items():
        if not gkey.startswith("wrand-"):
            continue
        n, v = map(int, gkey[len("wrand-n"):].split("-"))
        adj = [list(a) for a in wl.sweep_random(n, v).adj]
        assert ref.exhaustive(adj) == (info["cl"], info["seqlen"], info["b"]), gkey
        assert ref.diameter(adj) == info["d"], gkey


def test_reference_closed_forms_on_small_families():
    for n in range(1, 10):
        path = [[u for u in (v - 1, v + 1) if 0 <= u < n] for v in range(n)]
        cl, _, b = ref.exhaustive(path)
        assert (cl, b) == (ref.cl_path(n), ref.burn_path(n))
    for n in range(3, 12):
        cycle = [[(v - 1) % n, (v + 1) % n] for v in range(n)]
        cl, _, b = ref.exhaustive(cycle)
        assert (cl, b) == (ref.cl_cycle(n), ref.burn_path(n))


def test_self_times_subtract_child_spans():
    tracer = Tracer()
    with tracer("bench.pass"):
        with tracer("solver.cooling_number"):
            pass
    selfs = self_times(tracer.spans)
    outer, inner = (rec["end"] - rec["start"] for rec in tracer.spans)
    assert selfs["solver"] == pytest.approx(inner)
    assert selfs["bench"] == pytest.approx(outer - inner)


def test_times_are_scaled_by_the_kernel_samples_around_them():
    from machine import KERNEL_REF_S, kernel

    assert kernel() == kernel()  # a fixed amount of work
    passes = run.Passes()
    passes.walls = [0.3, 0.3]
    passes.latencies.extend([0.1, 0.2, 0.1, 0.2])
    passes.stretch.extend([0, 0, 1, 1])
    passes.pass_of.extend([0, 0, 1, 1])
    passes.kernel = [KERNEL_REF_S * 2] * 3  # a machine at half the nominal speed
    m = run.end_to_end(passes, [1.0], 1024)
    assert m["wall_s"][0] == pytest.approx(0.15)
    assert m["call_p50_ms"][0] == pytest.approx(75.0)
    assert run.speed_factors([1.0, 2.0, 3.0, 4.0, 100.0]) == pytest.approx(
        [KERNEL_REF_S / 2.0, KERNEL_REF_S / 2.5, KERNEL_REF_S / 3.5, KERNEL_REF_S / 4.0])
