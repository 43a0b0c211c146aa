"""The reference checker. It never takes the solver's word for an answer.

Each answer is compared with its pinned value (made at the seed commit and
cross-checked by ``reference.py``), with the paper's closed forms and with
the bounds that hold for every graph, and each witness is replayed through
``engine.validate_sequence``. The three refuted paper claims (``b = CL`` on
diameter two, the grid window at ``n = 5``, the exact spider value above the
log threshold) are never asserted; their instances still run and are
checked against their pinned values.
"""

from __future__ import annotations

import hashlib
import json
import os

import reference as ref
from coolnum import validate_sequence

PINNED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned.json")
SOLVER_FIELD = {"cool": "cl", "cool2": "cl", "seqlen": "seqlen", "burn": "b"}


def load_pinned() -> dict:
    with open(PINNED_PATH) as fh:
        return json.load(fh)


def sources_digest(sources) -> str:
    return hashlib.sha256(",".join(map(str, sources)).encode()).hexdigest()[:16]


def run_of(kind: str, result):
    """The cooling run an answer carries (a solver witness or a strategy's
    trace), or None for bounds, CLI output and a call that never succeeded."""
    if result is None or kind in ("bounds", "cli"):
        return None
    if kind in SOLVER_FIELD:
        return result.witness
    return result.trace if kind == "spider" else result


def digest(kind: str, result):
    """The part of a result that must be identical on every pass."""
    if kind == "bounds":
        return json.dumps(result.to_json_obj(), sort_keys=True)
    if kind == "cli":
        return (result.code, result.stdout)
    run = run_of(kind, result)
    value = result.value if kind in SOLVER_FIELD else None
    return (value, run.num_rounds, sources_digest(run.sources))


def _family(gkey: str) -> tuple[str, int | None]:
    family, _, raw = gkey.partition("-")
    return family, int(raw) if raw.isdigit() else None


def check(kind: str, gkey: str, graph, result, pinned: dict) -> list[str]:
    """Failures of one answer; empty when it passes every check.

    ``graph`` is the input graph (built by the benchmark, not the solver),
    used to replay witnesses; the CLI kind needs none.
    """
    if kind == "cli":
        want = pinned["cli"].get(gkey)
        bad = [] if result.code == 0 else [f"exit code {result.code}"]
        if want is None:
            bad.append("no pinned stdout")
        elif result.stdout != want.encode():
            bad.append(f"stdout {result.stdout!r} differs from pinned {want!r}")
        return bad
    if kind in SOLVER_FIELD or kind == "bounds":
        info = pinned["graphs"].get(gkey)
        if info is None:
            return [f"no pinned answer for graph {gkey}"]
        if kind == "bounds":
            return _check_bounds(result.to_json_obj(), info)
        return _check_solver(kind, gkey, graph, result, info)
    info = pinned["strategies"].get(gkey)
    if info is None:
        return [f"no pinned answer for strategy instance {gkey}"]
    return _check_strategy(kind, gkey, graph, run_of(kind, result), info)


def _check_solver(kind, gkey, graph, result, info) -> list[str]:
    bad = []
    field = SOLVER_FIELD[kind]
    value, sources = result.value, list(result.witness.sources)
    if value != info[field]:
        bad.append(f"{field} {value} != pinned {info[field]}")
    if sources != info[field + "_sources"]:
        bad.append(f"witness {sources} != pinned {info[field + '_sources']}")
    replay = validate_sequence(graph, sources)
    achieved = len(replay.sources) if kind == "seqlen" else replay.num_rounds
    if achieved != value:
        bad.append(f"witness replays to {achieved}, not {value}")
    if replay.num_rounds != result.witness.num_rounds:
        bad.append("witness trace disagrees with its own replay")
    n, d, cl = graph.n, info["d"], info["cl"]
    family, size = _family(gkey)
    if kind in ("cool", "cool2"):
        if not (d + 3) // 2 <= value <= min(d + 1, (n + 2) // 2):
            bad.append(f"CL {value} outside [(d+3)//2, min(d+1, (n+2)//2)] with d={d}, n={n}")
        closed = {"path": ref.cl_path, "cycle": ref.cl_cycle,
                  "caterpillar": ref.cl_caterpillar}.get(family)
        if closed is not None and value != closed(size):
            bad.append(f"CL {value} != closed form {closed(size)}")
    elif kind == "seqlen":
        if not value <= cl <= value + 1:
            bad.append(f"seqlen {value} not within CL-1..CL (CL={cl})")
    else:
        if value > cl:
            bad.append(f"b {value} > CL {cl}")
        if family in ("path", "cycle") and value != ref.burn_path(n):
            bad.append(f"b {value} != ceil(sqrt({n}))")
    return bad


def _check_bounds(got: dict, info: dict) -> list[str]:
    bad = []
    if got != info["bounds"]:
        bad.append(f"bounds {got} != pinned {info['bounds']}")
    cl = info["cl"]
    if got["diameter"] != info["d"]:
        bad.append(f"diameter {got['diameter']} != {info['d']}")
    if got["burning_lower"] is not None and got["burning_lower"] != info["b"]:
        bad.append(f"burning_lower {got['burning_lower']} != b {info['b']}")
    if got["iso_upper"] is not None and got["iso_upper"] < cl:
        bad.append(f"iso_upper {got['iso_upper']} < CL {cl}")
    if not got["diam_lower"] <= cl <= min(got["diam_upper"], got["order_upper"]):
        bad.append(f"CL {cl} outside the diameter and order bounds")
    return bad


def _check_strategy(kind, gkey, graph, trace, info) -> list[str]:
    bad = []
    rounds, sources = trace.num_rounds, trace.sources
    if rounds != info["rounds"]:
        bad.append(f"rounds {rounds} != pinned {info['rounds']}")
    if sources_digest(sources) != info["sources"]:
        bad.append("sources differ from the pinned run")
    replay = validate_sequence(graph, sources)
    if replay.num_rounds != rounds:
        bad.append(f"sources replay to {replay.num_rounds} rounds, not {rounds}")
    n = graph.n
    if kind == "pathdiam":
        d = info["d"]
        if not (d + 3) // 2 <= rounds <= min(d + 1, (n + 2) // 2):
            bad.append(f"rounds {rounds} outside [(d+3)//2, min(d+1, (n+2)//2)] with d={d}")
        if gkey.startswith("spath-") and rounds != ref.cl_path(n):
            bad.append(f"rounds {rounds} != path closed form {ref.cl_path(n)}")
    elif kind == "caterpillar":
        d = int(gkey.split("-")[1])
        if rounds != ref.cl_caterpillar(d):
            bad.append(f"rounds {rounds} != caterpillar closed form {d}")
    elif kind == "ilt":
        base, t = map(int, gkey.split("-")[1].split("x"))
        if rounds != ref.cl_ilt_path(base, t):
            bad.append(f"rounds {rounds} != ilt closed form {ref.cl_ilt_path(base, t)}")
    elif kind == "spider":
        m, r = map(int, gkey.split("-")[1].split("x"))
        lo = ref.spider_lower(m, r)
        if lo is not None and rounds < lo:
            bad.append(f"rounds {rounds} below the certified lower bound {lo}")
    return bad
