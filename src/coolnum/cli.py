"""Command-line front end.

Exit codes: 0 success, 1 bad input (usage errors included) or failed
verification, 2 graph exceeds the solver cap, 3 disconnected input, 4
strategy/family mismatch, 5 unknown verification suite, 6 the solver's time
budget ran out, 7 out of memory. All output is randomness-free; repeated
runs with the same flags produce byte-identical output. The environment
variable ``COOLNUM_MAX_NODES`` overrides the default solver caps, as it does
for library calls.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

# argument parsing and the exit codes need only these; each command imports
# the layers it runs, so a process loads nothing more
from .generators import (
    gen_complete_caterpillar,
    gen_cycle,
    gen_grid,
    gen_path,
    gen_spider,
    ilt_t,
)
from .graphs import (
    DisconnectedGraphError,
    GraphError,
    GraphTooLargeError,
    StrategyError,
    TimeBudgetExceededError,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_OVER_LIMIT = 2
EXIT_DISCONNECTED = 3
EXIT_STRATEGY_MISMATCH = 4
EXIT_UNKNOWN_SUITE = 5
EXIT_OUT_OF_TIME = 6
EXIT_OUT_OF_MEMORY = 7


def _emit(obj: dict, as_json: bool, plain: str) -> None:
    if as_json:
        print(json.dumps(obj, separators=(", ", ": ")))
    else:
        print(plain)


def _parse_base(spec: str):
    """Parse a ``family:param`` base-graph spec, e.g. ``path:6``."""
    family, _, raw = spec.partition(":")
    try:
        n = int(raw)
    except ValueError:
        raise GraphError(f"base spec {spec!r} must look like family:param (e.g. path:6)") from None
    build, flags = FAMILIES.get(family, (None, ()))
    if build is None:
        raise GraphError(f"unknown base family {family!r}")
    if len(flags) != 1:
        bases = ", ".join(name for name, (_, takes) in FAMILIES.items() if len(takes) == 1)
        raise GraphError(f"base family {family!r} takes {len(flags)} parameters; "
                         f"an ilt base takes one: {bases}")
    return build(n)


# gen family -> (builder, the flags it takes in argument order); the families
# that take one flag also serve as ilt bases
FAMILIES = {
    "path": (gen_path, ("n",)),
    "cycle": (gen_cycle, ("n",)),
    "grid": (gen_grid, ("n",)),
    "caterpillar": (gen_complete_caterpillar, ("d",)),
    "spider": (gen_spider, ("legs", "r")),
    "ilt": (lambda base, t: ilt_t(_parse_base(base), t).graph, ("base", "t")),
}


def cmd_gen(args) -> int:
    from .graph_io import export_dot, write_graph

    build, flags = FAMILIES[args.family]
    missing = [f"--{flag}" for flag in flags if getattr(args, flag) is None]
    if missing:
        raise GraphError(f"gen {args.family} needs {' and '.join(missing)}")
    g = build(*(getattr(args, flag) for flag in flags))
    write_graph(g, args.out)
    if args.dot:
        export_dot(g, args.dot, grid_side=args.n if args.family == "grid" else None)
    _emit({"command": "gen", "family": args.family, "n": g.n, "edges": g.num_edges,
           "out": args.out}, args.json, f"n={g.n} edges={g.num_edges}")
    return EXIT_OK


# solver command -> its function in coolnum.solver
SOLVERS = {
    "exact": "cooling_number",
    "seqlen": "max_sequence_length",
    "burn": "burning_number",
}


def cmd_solve(args) -> int:
    from . import solver
    from .engine import write_trace
    from .graph_io import read_graph

    result = getattr(solver, SOLVERS[args.command])(
        read_graph(args.graph_in), solver.SearchLimits(args.max_nodes, args.time_budget))
    if args.trace_out:
        write_trace(result.witness, args.trace_out)
    _emit({"command": args.command, "value": result.value,
           "rounds": result.witness.num_rounds,
           "sources": list(result.witness.sources)},
          args.json, str(result.value))
    return EXIT_OK


def cmd_bounds(args) -> int:
    from .bounds import bounds_report
    from .graph_io import read_graph

    g = read_graph(args.graph_in)
    report = bounds_report(g)
    print(json.dumps(report.to_json_obj(), separators=(", ", ": ")))
    return EXIT_OK


class _StrategyNames:
    """The ``strategy`` choices: the strategies of ``FORMS`` plus
    path-diameter, the one strategy outside the table, since it runs on any
    graph given by --in. Read only when a ``strategy`` command is parsed or
    its usage printed, so no other command loads the strategies."""

    def __iter__(self):
        from .strategies import FORMS

        names = [row.strategy for row in FORMS.values() if row.strategy]
        return iter([names[0], "path-diameter", *names[1:]])  # path-diameter is listed second

    def __contains__(self, name) -> bool:
        return name in list(self)


def cmd_strategy(args) -> int:
    from .engine import validate_sequence, write_trace
    from .graph_io import read_graph
    from .strategies import FORMS, closed_form, path_diameter_strategy

    name = args.name
    certified = None
    if name == "path-diameter":
        if not args.graph_in:
            raise StrategyError("path-diameter needs --in")
        g = read_graph(args.graph_in)
        trace = validate_sequence(g, path_diameter_strategy(g))
    else:
        family, row = next((f, row) for f, row in FORMS.items() if row.strategy == name)
        params = {flag: getattr(args, flag) for flag, _ in row.params}
        if None in params.values():
            raise StrategyError(f"{name} needs {' and '.join(f'--{flag}' for flag in params)}")
        trace = row.run(*params.values())  # its own errors come first
        if row.admits(params):
            certified = closed_form(family, params)
    if args.trace_out:
        write_trace(trace, args.trace_out)
    obj = {"command": "strategy", "name": name, "rounds": trace.num_rounds,
           "sources": list(trace.sources),
           "certified": certified.to_json_obj() if certified else None}
    plain = f"rounds={trace.num_rounds}"
    if certified is not None:
        if certified.kind == "window":
            plain += f" window=[{certified.lo}, {certified.hi}]"
        elif certified.kind == "exact":
            plain += f" certified={certified.lo}"
        else:
            plain += f" lower_bound={certified.lo}"
    _emit(obj, args.json, plain)
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import verify

    try:
        report = verify.run_suite(args.suite)
    except verify.UnknownSuiteError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_UNKNOWN_SUITE
    for row in report.rows:
        mark = "ok  " if row.ok else "FAIL"
        passed = row.instances - len(row.failures)
        print(f"{mark} {report.suite}: {row.name} [{passed}/{row.instances}]")
        for failure in row.failures:
            print(f"     - {failure}")
    return EXIT_OK if report.ok else EXIT_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="coolnum", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a family graph and write its JSON file")
    p.add_argument("family", choices=list(FAMILIES))
    p.add_argument("--n", type=int, help="order parameter (path/cycle/grid, ilt-path strategy)")
    p.add_argument("--d", type=int, help="caterpillar length")
    p.add_argument("--legs", type=int, help="spider leg count")
    p.add_argument("--r", type=int, help="spider leg length")
    p.add_argument("--base", help="ilt base graph as family:param, e.g. path:6")
    p.add_argument("--t", type=int, default=1, help="ilt iterations")
    p.add_argument("--out", required=True)
    p.add_argument("--dot", help="also write a DOT rendering here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_gen)

    for name in SOLVERS:
        p = sub.add_parser(name, help=f"compute {name} value for a graph file")
        p.add_argument("--in", dest="graph_in", required=True)
        p.add_argument("--trace-out", help="write the witness trace JSON here")
        p.add_argument("--max-nodes", type=int, default=None)
        p.add_argument("--time-budget", type=float, default=None)
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bounds", help="print the bounds report for a graph file")
    p.add_argument("--in", dest="graph_in", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("strategy", help="run a named strategy and report its rounds")
    # set after add_argument, which would list the choices at once
    p.add_argument("name").choices = _StrategyNames()
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--in", dest="graph_in")
    p.add_argument("--trace-out")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_strategy)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite")
    p.set_defaults(func=cmd_verify)

    for p in sub.choices.values():  # a usage error names the subcommand's flags
        p.set_defaults(parser=p)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:
            args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    try:
        with warnings.catch_warnings():  # a warning is one stderr line, no source echo
            warnings.showwarning = lambda message, *_: print(message, file=sys.stderr)
            return args.func(args)
    except GraphTooLargeError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_OVER_LIMIT
    except DisconnectedGraphError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_DISCONNECTED
    except StrategyError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_STRATEGY_MISMATCH
    except TimeBudgetExceededError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_OUT_OF_TIME
    except MemoryError as exc:
        exc.__traceback__ = None  # frees the frames that hold what was allocated
        print("out of memory", file=sys.stderr)
        return EXIT_OUT_OF_MEMORY
    except (GraphError, ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_ERROR


def console_main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    console_main()
