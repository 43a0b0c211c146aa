from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import coolnum
from coolnum import cli, verify
from coolnum.cli import main
from coolnum.engine import read_trace, validate_sequence
from coolnum.graph_io import read_graph, write_graph
from coolnum.generators import gen_cycle, gen_grid, gen_path


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestGen:
    def test_path(self, tmp_path):
        out_file = tmp_path / "p7.json"
        code, out, _ = run_cli("gen", "path", "--n", "7", "--out", str(out_file))
        assert code == 0
        assert out.strip() == "n=7 edges=6"
        assert read_graph(out_file).n == 7

    def test_ilt_base_spec(self, tmp_path):
        out_file = tmp_path / "ilt.json"
        code, out, _ = run_cli("gen", "ilt", "--base", "path:6", "--t", "1",
                               "--out", str(out_file))
        assert code == 0
        assert read_graph(out_file).n == 12

    def test_spider(self, tmp_path):
        out_file = tmp_path / "sp.json"
        code, out, _ = run_cli("gen", "spider", "--legs", "4", "--r", "2",
                               "--out", str(out_file))
        assert code == 0
        assert read_graph(out_file).n == 9

    def test_bad_params_exit_one(self, tmp_path):
        code, _, err = run_cli("gen", "cycle", "--n", "2", "--out", str(tmp_path / "x.json"))
        assert code == 1
        assert "n >= 3" in err

    @pytest.mark.parametrize("argv, flag", [
        (["path"], "--n"),
        (["spider", "--legs", "3"], "--r"),
        (["ilt"], "--base"),
    ])
    def test_missing_family_flag_exits_one(self, tmp_path, argv, flag):
        code, _, err = run_cli("gen", *argv, "--out", str(tmp_path / "x.json"))
        assert code == 1
        assert flag in err and "Traceback" not in err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("spec", ["path:x", "path:3:4"])
    def test_non_integer_base_param_exits_one(self, tmp_path, spec):
        out_file = tmp_path / "g.json"
        code, _, err = run_cli("gen", "ilt", "--base", spec, "--t", "1", "--out", str(out_file))
        assert code == 1
        assert repr(spec) in err and "invalid literal" not in err
        assert not out_file.exists()

    def test_unknown_base_family_exits_one(self, tmp_path):
        out_file = tmp_path / "g.json"
        code, out, err = run_cli("gen", "ilt", "--base", "foo:3", "--t", "1",
                                 "--out", str(out_file))
        assert (code, out, err) == (1, "", "unknown base family 'foo'\n")
        assert not out_file.exists()

    def test_grid_dot_places_each_cell(self, tmp_path):
        dot = tmp_path / "g.dot"
        code, _, _ = run_cli("gen", "grid", "--n", "3", "--out", str(tmp_path / "g.json"),
                             "--dot", str(dot))
        assert code == 0
        lines = dot.read_text().splitlines()
        # node v sits at column v % 3 + 1 and row v // 3 + 1, rows drawn downward
        assert lines[1:10] == [f'  {v} [pos="{v % 3 + 1},{-(v // 3 + 1)}!"];' for v in range(9)]

    def test_json_mode(self, tmp_path):
        code, out, _ = run_cli("gen", "grid", "--n", "3", "--json",
                               "--out", str(tmp_path / "g.json"))
        assert code == 0
        obj = json.loads(out)
        assert obj["n"] == 9 and obj["edges"] == 12


class TestSolverCommands:
    @pytest.fixture
    def c8(self, tmp_path):
        path = tmp_path / "c8.json"
        write_graph(gen_cycle(8), path)
        return path

    def test_exact_prints_value(self, c8):
        code, out, _ = run_cli("exact", "--in", str(c8))
        assert code == 0 and out.strip() == "4"

    def test_burn(self, tmp_path):
        path = tmp_path / "p9.json"
        write_graph(gen_path(9), path)
        code, out, _ = run_cli("burn", "--in", str(path))
        assert code == 0 and out.strip() == "3"

    def test_seqlen(self, c8):
        code, out, _ = run_cli("seqlen", "--in", str(c8))
        assert code == 0 and out.strip() in ("3", "4")

    def test_trace_file_revalidates(self, c8, tmp_path):
        trace_file = tmp_path / "trace.json"
        code, out, _ = run_cli("exact", "--in", str(c8), "--trace-out", str(trace_file), "--json")
        assert code == 0
        obj = json.loads(out)
        trace = read_trace(trace_file)
        replay = validate_sequence(gen_cycle(8), trace.sources)
        assert replay == trace
        assert replay.num_rounds == obj["value"] == 4

    def test_over_limit_exit_two(self, tmp_path):
        path = tmp_path / "p30.json"
        write_graph(gen_path(30), path)
        code, _, err = run_cli("exact", "--in", str(path))
        assert code == 2
        assert "cap" in err

    def test_disconnected_exit_three(self, tmp_path):
        path = tmp_path / "disc.json"
        path.write_text('{"n": 4, "edges": [[0, 1], [2, 3]]}')
        code, _, _ = run_cli("exact", "--in", str(path))
        assert code == 3

    def test_out_of_memory_exit_seven(self, tmp_path, monkeypatch):
        def exhausted(n):
            raise MemoryError

        monkeypatch.setitem(cli.FAMILIES, "grid", (exhausted, ("n",)))
        out_file = tmp_path / "g.json"
        assert run_cli("gen", "grid", "--n", "5", "--out", str(out_file)) == (7, "", "out of memory\n")
        assert not out_file.exists()

    # a graph with no node is bad input (exit 1) for every command, not a
    # disconnected one (exit 3)
    @pytest.mark.parametrize("command, err", [
        ("exact", "solver needs at least one node"),
        ("seqlen", "solver needs at least one node"),
        ("burn", "solver needs at least one node"),
        ("bounds", "bounds need at least one node"),
        ("strategy path-diameter", "path-diameter strategy needs at least one node"),
    ])
    def test_empty_graph_exit_one(self, tmp_path, command, err):
        path = tmp_path / "empty.json"
        path.write_text('{"n": 0, "edges": []}')
        assert run_cli(*command.split(), "--in", str(path)) == (1, "", err + "\n")

    @pytest.mark.parametrize("content, reason", [
        ("[" * 100_000, "maximum recursion depth exceeded"),
        (b'{"n": 1, "edges": []}\xff', "'utf-8' codec can't decode byte 0xff"),
    ], ids=["deeply-nested", "not-utf-8"])
    def test_unreadable_json_is_one_line_naming_the_file(self, tmp_path, content, reason):
        path = tmp_path / "bad.json"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        code, out, err = run_cli("exact", "--in", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"{path}: not valid JSON ({reason}") and err.count("\n") == 1, err

    def test_duplicate_edge_warning_is_one_line(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text('{"n": 3, "edges": [[0, 1], [1, 0], [1, 2]]}')
        code, out, err = run_cli("exact", "--in", str(path))
        assert code == 0 and out == "2\n"
        assert err.splitlines() == [f"{path}: dropped 1 duplicate edge(s)"]

    def test_max_nodes_env_override(self, tmp_path, monkeypatch):
        path = tmp_path / "p22.json"
        write_graph(gen_path(22), path)
        code, _, _ = run_cli("exact", "--in", str(path))
        assert code == 2
        monkeypatch.setenv("COOLNUM_MAX_NODES", "22")
        code, out, _ = run_cli("exact", "--in", str(path))
        assert code == 0 and out.strip() == "12"

    def test_non_integer_env_cap_exit_one(self, c8, monkeypatch):
        monkeypatch.setenv("COOLNUM_MAX_NODES", "abc")
        code, out, err = run_cli("exact", "--in", str(c8))
        assert code == 1 and out == ""
        assert err == "COOLNUM_MAX_NODES must be an integer, got 'abc'\n"

    @pytest.mark.parametrize("cap", ["-3", "0"])
    def test_cap_below_one_exit_one(self, c8, cap, monkeypatch):
        want = f"node cap must be a positive integer, got {cap}\n"
        for cmd in ("exact", "burn"):
            code, out, err = run_cli(cmd, "--in", str(c8), "--max-nodes", cap)
            assert (code, out, err) == (1, "", want)
        monkeypatch.setenv("COOLNUM_MAX_NODES", cap)
        code, out, err = run_cli("seqlen", "--in", str(c8))
        assert (code, out, err) == (1, "", want)

    @pytest.mark.parametrize("cmd", list(cli.SOLVERS))
    def test_solvers_take_no_search_flags(self, tmp_path, cmd):
        path = tmp_path / "p9.json"
        write_graph(gen_path(9), path)
        for flag in (["--jobs", "2"], ["--no-prune"], ["--no-memo"]):
            code, out, err = run_cli(cmd, "--in", str(path), *flag)
            assert code == 1 and out == ""
            # the subcommand's own usage, which lists the flags it takes
            assert err.startswith(f"usage: coolnum {cmd} ") and "--max-nodes" in err
            assert err.endswith(f"coolnum {cmd}: error: unrecognized arguments: "
                                + " ".join(flag) + "\n")

    # runs: how often the expiring search is started in one process; a
    # second run checks that an expiry leaves no state behind.
    @pytest.mark.parametrize("runs", [1, 2])
    def test_time_budget_expiry_exit_six(self, tmp_path, runs):
        path = tmp_path / "g5.json"
        write_graph(gen_grid(5), path)
        for _ in range(runs):
            code, out, err = run_cli("exact", "--in", str(path), "--max-nodes", "25",
                                     "--time-budget", "0")
            assert code == 6 and out == ""
            assert err == "search exceeded its time budget\n"

    @pytest.mark.parametrize("budget", ["nan", "-1"])
    def test_nan_or_negative_time_budget_exit_one(self, c8, budget):
        code, out, err = run_cli("exact", "--in", str(c8), "--time-budget", budget)
        assert code == 1 and out == ""
        assert err == f"time budget must be a non-negative number of seconds, got {float(budget)}\n"


class TestUsage:
    def test_usage_error_exits_one(self):
        assert run_cli("gen", "nope", "--out", "x.json")[0] == 1
        assert run_cli("exact")[0] == 1  # --in is required
        assert run_cli()[0] == 1

    def test_help_exits_zero(self):
        code, out, _ = run_cli("exact", "--help")
        assert code == 0 and "--time-budget" in out


class TestPinnedOutput:
    """Exact stdout, stderr and exit code of every ``--help`` and of the error
    exits raised inside the command layers, recorded from the CLI before
    those layers were imported lazily, and of the search flags the solver
    commands no longer take, the ``bounds`` report of three paths: one
    with every bound, one above the profile cap and one above the burning
    cap too, and two ``strategy`` runs. ``{p30}``, ``{p21}`` and ``{p5}``
    stand for files of the paths on 30, 21 and 5 nodes, and ``{g20}`` for
    a file of the 20 x 20 grid, whose ids above 256 come out of the JSON
    reader."""

    PINS = json.loads((Path(__file__).parent / "cli_pins.json").read_text())

    @pytest.mark.parametrize("pin", PINS, ids=[" ".join(p["argv"]) for p in PINS])
    def test_output_pinned(self, pin, tmp_path, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
        monkeypatch.delenv("COOLNUM_MAX_NODES", raising=False)
        files = {}
        for name, g in (("p30", gen_path(30)), ("p21", gen_path(21)), ("p5", gen_path(5)),
                        ("g20", gen_grid(20))):
            files[name] = str(tmp_path / f"{name}.json")
            write_graph(g, files[name])
        argv = [arg.format(**files) for arg in pin["argv"]]
        assert run_cli(*argv) == (pin["code"], pin["out"], pin["err"])


class TestBoundsCommand:
    def test_p11(self, tmp_path):
        path = tmp_path / "p11.json"
        write_graph(gen_path(11), path)
        code, out, _ = run_cli("bounds", "--in", str(path))
        assert code == 0
        obj = json.loads(out)
        assert obj["order_upper"] == 6 and obj["diam_lower"] == 6

    def test_env_cap_skips_burning(self, tmp_path, monkeypatch):
        path = tmp_path / "p10.json"
        write_graph(gen_path(10), path)
        monkeypatch.setenv("COOLNUM_MAX_NODES", "5")
        assert run_cli("exact", "--in", str(path))[0] == 2
        code, out, _ = run_cli("bounds", "--in", str(path))
        obj = json.loads(out)
        assert code == 0 and obj["burning_lower"] is None
        assert obj["skipped"] == ["burning_lower"]

    def test_non_integer_env_cap_exit_one(self, tmp_path, monkeypatch):
        path = tmp_path / "p10.json"
        write_graph(gen_path(10), path)
        monkeypatch.setenv("COOLNUM_MAX_NODES", "abc")
        code, out, err = run_cli("bounds", "--in", str(path))
        assert (code, out) == (1, "")
        assert err == "COOLNUM_MAX_NODES must be an integer, got 'abc'\n"

    def test_grid3_has_iso_bound(self, tmp_path):
        from coolnum.generators import gen_grid

        path = tmp_path / "g3.json"
        write_graph(gen_grid(3), path)
        obj = json.loads(run_cli("bounds", "--in", str(path))[1])
        assert obj["iso_upper"] is not None


class TestStrategyCommand:
    def test_grid_simplicial(self):
        code, out, _ = run_cli("strategy", "grid-simplicial", "--n", "15", "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["certified"]["lo"] <= obj["rounds"] <= obj["certified"]["hi"]

    def test_caterpillar(self):
        code, out, _ = run_cli("strategy", "caterpillar", "--d", "6")
        assert code == 0
        assert "rounds=6" in out

    def test_ilt_path(self):
        code, out, _ = run_cli("strategy", "ilt-path", "--n", "5", "--t", "1")
        assert code == 0
        assert "rounds=4" in out

    def test_missing_parameter_exit_four(self):
        code, _, _ = run_cli("strategy", "caterpillar")
        assert code == 4

    # every table strategy in range, out of range and missing a flag; the
    # strategy's own error and exit code come before the closed form's range
    @pytest.mark.parametrize("argv, code, out, err", [
        ("grid-simplicial --n 5", 0, "rounds=7 window=[4, 7]\n", ""),
        ("grid-simplicial --n 1", 0, "rounds=1\n", ""),
        ("grid-simplicial --n 1 --json", 0,
         '{"command": "strategy", "name": "grid-simplicial", "rounds": 1, "sources": [0], '
         '"certified": null}\n', ""),
        ("grid-simplicial --n 0", 1, "", "grid needs n >= 1, got 0\n"),
        ("grid-simplicial", 4, "", "grid-simplicial needs --n\n"),
        ("caterpillar --d 5", 0, "rounds=5 certified=5\n", ""),
        ("caterpillar --d 2", 1, "", "complete caterpillar needs d >= 3, got 2\n"),
        ("caterpillar", 4, "", "caterpillar needs --d\n"),
        ("spider --m 2 --r 3", 0, "rounds=6 lower_bound=6\n", ""),
        ("spider --m 2 --r 3 --json", 0,
         '{"command": "strategy", "name": "spider", "rounds": 6, "sources": [3, 6, 4, 7, 9, 12], '
         '"certified": {"family": "spider", "params": {"m": 2, "r": 3}, "kind": "lower_bound", '
         '"lo": 6, "hi": null}}\n', ""),
        ("spider --m 0 --r 3", 4, "",
         "spider strategy needs m >= 1 (2m legs, so an even leg count)\n"),
        ("spider --m 2 --r 0", 4, "", "spider strategy needs legs of length r >= 1\n"),
        ("spider --m 2", 4, "", "spider needs --m and --r\n"),
        ("ilt-path --n 5 --t 2", 0, "rounds=5 certified=5\n", ""),
        ("ilt-path --n 2 --t 1", 1, "", "ilt path strategy needs n >= 3, got 2\n"),
        ("ilt-path --n 5 --t 0", 1, "", "ilt_t needs t >= 1, got 0\n"),
        ("ilt-path --t 1", 4, "", "ilt-path needs --n and --t\n"),
        ("path-diameter", 4, "", "path-diameter needs --in\n"),
    ])
    def test_output_pinned(self, argv, code, out, err):
        assert run_cli("strategy", *argv.split()) == (code, out, err)

    def test_spider_trace_file_revalidates(self, tmp_path):
        from coolnum.generators import gen_spider

        trace_file = tmp_path / "sp.json"
        code, out, _ = run_cli("strategy", "spider", "--m", "2", "--r", "3",
                               "--trace-out", str(trace_file), "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["rounds"] >= 4
        trace = read_trace(trace_file)
        assert validate_sequence(gen_spider(4, 3), trace.sources) == trace


class TestVerifyCommand:
    def test_unknown_suite_exit_five(self):
        code, _, err = run_cli("verify", "nope")
        assert code == 5
        assert "unknown suite" in err

    # every row of every suite, as `coolnum verify <suite>` prints it after "ok   <suite>: "
    ROWS = {
        "path-formula": ["cooling of paths [14/14]"],
        "cycle-formula": ["cooling of cycles [12/12]"],
        "caterpillar": ["solver value [5/5]", "strategy achieves it [5/5]"],
        "bounds-sandwich": ["diameter/order sandwich [217/217]"],
        "burning-cross": [
            "b <= CL everywhere [217/217]",
            "b, CL <= 3 by non-neighbours when diameter <= 2 [75/75]",
            "3-leaf star has b < CL [1/1]",
            "b(P_9) == 3 [1/1]",
        ],
        "iso-smoothness": [
            "border smoothness [217/217]",
            "recurrence upper bound [217/217]",
            "tight on paths [14/14]",
        ],
        "grid-window": ["strategy rounds inside window [39/39]"],
        "grid-profile": ["simplicial profile matches enumeration [3/3]"],
        "grid-solver": ["simplicial strategy is optimal [3/3]"],
        "ilt": [
            "path formula [6/6]",
            "path strategy [8/8]",
            "one step never decreases [217/217]",
            "second step fixes sequence length [4/4]",
            "later steps add at most one round [4/4]",
        ],
        "spider": [
            "strategy meets the certified lower bound [21/21]",
            "exact value above the log threshold (2r or 2r+1) [6/6]",
            "certified form contains the exact value [6/6]",
        ],
        "reference-traces": ["caterpillar reference run [2/2]", "ilt path reference run [2/2]"],
        "determinism": ["exact twice [2/2]"],
    }

    @pytest.mark.parametrize("suite", list(verify.SUITES))
    def test_suite_stdout_pinned(self, suite):
        code, out, err = run_cli("verify", suite)
        assert (code, err) == (0, "")
        assert out == "".join(f"ok   {suite}: {row}\n" for row in self.ROWS[suite])


class TestDeterminism:
    def test_exact_byte_identical_across_runs(self, tmp_path):
        path = tmp_path / "cc6.json"
        from coolnum.generators import gen_complete_caterpillar

        write_graph(gen_complete_caterpillar(6), path)
        outputs = []
        for run in range(3):
            t = tmp_path / f"t{run}.json"
            code, out, _ = run_cli("exact", "--in", str(path), "--trace-out", str(t), "--json")
            assert code == 0
            outputs.append((out, t.read_bytes()))
        assert outputs[0] == outputs[1] == outputs[2]


SRC = Path(__file__).resolve().parents[1] / "src"


def fresh_python(code: str, *argv: str, cwd=None) -> str:
    """Stdout of ``code`` run in a new interpreter that imports coolnum from ``src``."""
    return subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, check=True).stdout


class TestImportFootprint:
    """Each CLI process loads only the layers its subcommand runs, and
    ``import coolnum`` loads none."""

    RUN = ("import contextlib, io, sys\n"
           "from coolnum import cli\n"
           "with contextlib.redirect_stdout(io.StringIO()):\n"
           "    code = cli.main(sys.argv[1:])\n"
           "print(code, *sorted(m for m in sys.modules if m.startswith('coolnum.')))")
    PARSE = {"cli", "generators", "graphs"}
    SOLVE = PARSE | {"graph_io", "engine", "solver"}

    @pytest.mark.parametrize("argv, modules", [
        ("--help", PARSE),
        ("gen path --n 4 --out g.json", PARSE | {"graph_io"}),
        ("gen ilt --base path:4 --t 1 --out g.json", PARSE | {"graph_io", "ilt"}),
        ("exact --in p5.json", SOLVE),
        ("seqlen --in p5.json", SOLVE),
        ("burn --in p5.json", SOLVE),
        ("bounds --in p5.json", SOLVE | {"bounds"}),
        ("strategy path-diameter --in p5.json", PARSE | {"graph_io", "engine", "ilt", "strategies"}),
        # the grid window reads the isoperimetric bound, which needs no search
        ("strategy grid-simplicial --n 5", PARSE | {"graph_io", "engine", "ilt", "strategies",
                                                    "bounds"}),
        ("verify path-formula", PARSE | {"engine", "solver", "ilt", "strategies", "verify"}),
        ("verify reference-traces", PARSE | {"engine", "ilt", "verify"}),
    ])
    def test_subcommand_loads_only_its_layers(self, tmp_path, argv, modules):
        write_graph(gen_path(5), tmp_path / "p5.json")
        out = fresh_python(self.RUN, *argv.split(), cwd=tmp_path).split()
        assert out[0] == "0"
        assert set(out[1:]) == {f"coolnum.{m}" for m in modules}

    # dataclasses loads inspect, dis, ast and tokenize; solver.SearchResult
    # and bounds.BoundsReport are the two records that still need it
    @pytest.mark.parametrize("argv", ["--help", "gen path --n 4 --out g.json",
                                      "strategy path-diameter --in p5.json",
                                      "verify reference-traces"])
    def test_subcommand_loads_no_dataclasses(self, tmp_path, argv):
        write_graph(gen_path(5), tmp_path / "p5.json")
        code = self.RUN + "\nprint('dataclasses' in sys.modules)"
        out = fresh_python(code, *argv.split(), cwd=tmp_path).splitlines()
        assert out[0].split()[0] == "0"
        assert out[-1] == "False"

    def test_package_import_loads_no_submodule(self):
        code = "import coolnum, sys; print(sorted(m for m in sys.modules if 'coolnum' in m))"
        assert fresh_python(code) == "['coolnum']\n"

    def test_public_names_are_their_home_objects(self):
        from importlib import import_module

        assert sorted(coolnum.__all__) == sorted(coolnum._HOMES)
        assert set(coolnum.__all__) <= set(dir(coolnum))
        for name, home in coolnum._HOMES.items():
            assert getattr(coolnum, name) is getattr(import_module(f"coolnum.{home}"), name), name

    def test_ilt_names_the_function_after_its_module_loads(self):
        code = ("import coolnum.ilt, coolnum.strategies\n"  # the import system binds submodules
                "from coolnum import ilt\n"
                "print(ilt is coolnum.ilt is coolnum.ilt_t.__globals__['ilt'])")
        assert fresh_python(code) == "True\n"

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'nope'"):
            coolnum.nope
        with pytest.raises(ImportError):
            from coolnum import nope  # noqa: F401


def test_cli_import_loads_no_multiprocessing():
    # the search is serial; importing the pool machinery costs every CLI start
    code = "import coolnum.cli, sys; print('multiprocessing' in sys.modules)"
    assert fresh_python(code) == "False\n"
