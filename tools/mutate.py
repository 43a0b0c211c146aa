"""Mutation gate for the searches' memo key, pruning rules and reductions.

Each mutant replaces one exact snippet of one module under ``src/coolnum``
(a single token or operand where possible): the cooling search's key,
carried vector, gain table with its floor, its objective's end and its
reading by the key's size, along that vector and for all children at once
(the cut radius, the cut mask and its count), memo bounds, first probe and
the witness walk's key and vector, and the burning search's radius order,
capacity bound and first round count in ``solver.py``, the orbit
search's twin keys, placement test and backtracking, the cut-vertex
search, ``build_graph``'s endpoint check and shared id objects and the BFS
level step in ``graphs.py``, the grid's index arithmetic and shared id
objects in ``generators.py``, the scripted pick and fallback, the seen
flags of the round engine and the trace loader's "cooled once" check in
``engine.py``, the bounds report's diameter, profile readout and
recurrence step in ``bounds.py``, and the value semantics of ``Graph`` and
``verify.CheckRow``. It does so in a throwaway copy of the repo, then runs
``tests/test_atlas.py`` (first: it kills about half the mutants in under
2 s), ``tests/test_engine.py``, ``tests/test_graphs.py``,
``tests/test_solver.py``, ``tests/test_properties.py``,
``tests/test_strategies.py``, ``tests/test_acceptance.py``,
``tests/test_bounds.py`` and ``tests/test_records.py`` with ``-x``.
A mutant is killed when that run fails and survives when it passes. Mutants
marked equivalent change no value, witness or work counter, so their
survival is expected; any other survivor means a rule the tests do not
guard, and the gate exits 1.

Run from the repo root (stdlib only; the tests need pytest)::

    python tools/mutate.py            # every mutant
    python tools/mutate.py ecc-r-1    # the named mutants only

The copies go under the system temporary directory (``TMPDIR``).
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join("src", "coolnum")
TESTS = ["tests/test_atlas.py", "tests/test_engine.py", "tests/test_graphs.py",
         "tests/test_solver.py", "tests/test_properties.py", "tests/test_strategies.py",
         "tests/test_acceptance.py", "tests/test_bounds.py", "tests/test_records.py"]
TIMEOUT_S = 300  # the nine files take about 15 s on a 2-core machine; the 70 mutants, 5 min


@dataclass(frozen=True)
class Mutant:
    name: str
    old: str
    new: str
    equivalent: str | None = None  # why the mutant cannot change behaviour
    module: str = "solver.py"  # the file under src/coolnum it edits


MUTANTS = [
    # the post-spread key: closed neighbourhoods, and a full boundary decided
    # before its key is formed
    Mutant("child-key-open", "key = up[1] | ball[1]\n", "key = up[1] | ball[1] ^ ball[0]\n"),
    Mutant("walk-key-open", "(key := up[1] | ball[1])", "(key := up[1] | ball[1] ^ ball[0])"),
    Mutant("child-full-boundary", "key | low != full and self.at_least", "self.at_least"),
    Mutant("child-full-boundary-t1", "if t == 1 or key | low", "if key | low"),
    Mutant("full-key-value", "return t <= self.objective", "return t <= 0"),
    # the first round: the empty boundary branches on the listed first
    # sources, and counts every node as uncooled
    Mutant("root-mask-ignored", "rem = full ^ key if key else self.first", "rem = full ^ key"),
    Mutant("root-count-mask", "self.most[key.bit_count()]",
           "self.most[(key or self.full ^ self.first).bit_count()]"),
    # the first probe: the order and diameter caps, one lower skips the
    # optimum wherever a cap is met; the unpruned reference starts at n, so
    # that it tests the caps instead of assuming them
    Mutant("probe-below-cap", "value = start\n", "value = start - 1\n"),
    Mutant("reference-keeps-caps", "if self.prune else n", "if True else n"),
    # the gain table: a child's key grows by min(kappa, n - c) past its
    # boundary, a full key gains the objective's number, one round and no
    # source, and a call fails only above the table
    Mutant("table-kappa-plus-one", "most[c + min(kappa, n - c)]\n",
           "most[c + min(kappa + 1, n - c)]\n"),
    Mutant("table-sources-end", "[1] * n + [objective]", "[1] * n + [1]"),
    Mutant("table-threshold", "t > self.most[", "t >= self.most["),
    # the table read along the carried vector: a run that lasts j more rounds
    # holds near[j], not near[j + 1], by then, a call fails only above
    # j + most[|near[j]|], and the j rounds it takes count in full (the
    # third under-cuts, so only the work pins see it); a failed call is
    # stored like a failure after expanding
    Mutant("spread-radius-plus-one", "t - j > most[near[j].bit_count()]",
           "t - j > most[near[j + 1].bit_count()]"),
    Mutant("spread-threshold", "t - j > most[near[j]", "t - j >= most[near[j]"),
    Mutant("spread-need-low", "t - j > most[near[j]", "t - j - 1 > most[near[j]"),
    Mutant("spread-failure-not-stored",
           "self.counting_cuts += 1\n                    self.memo[key] = (lo, t - 1, choice)",
           "self.counting_cuts += 1"),
    # the floor the table reads, 2 on a biconnected graph: a root is a cut
    # vertex at two tree children, a node below it when a child's subtree
    # reaches no higher than the node, and every edge out of a subtree,
    # passed up to its parent, counts towards its low link
    Mutant("floor-always-one", "2 if g.biconnected else 1", "1"),
    Mutant("dfs-root-one-child", "return children < 2", "return children < 1",
           module="graphs.py"),
    Mutant("dfs-low-strict", "elif low[v] >= depth[u]:", "elif low[v] > depth[u]:",
           module="graphs.py"),
    Mutant("dfs-back-edge-skipped", "if depth[w] < low[v]:", "if False:", module="graphs.py"),
    Mutant("dfs-low-not-passed-up", "elif low[v] < low[u]:", "elif False:", module="graphs.py"),
    # the carried vector: a child's radius j is its parent's radius j + 1,
    # in the search and on the witness walk
    Mutant("vector-shift", "near = (*map(or_, up[1:], ball[1:]),)",
           "near = (*map(or_, up, ball[1:]),)"),
    Mutant("walk-vector-shift", "up, ball = (*map(or_, up[1:], ball[1:]),)",
           "up, ball = (*map(or_, up, ball[1:]),)"),
    # the table read for all children at once: one radius per call,
    # r = t - 1 - most[n], cut from t = 2 on; the cut children are the AND,
    # at that radius, of the balls of every node outside near[r], taken out
    # of the children before the loop, and a success counts the cut
    # children below it. The radius one lower, for one objective or both,
    # under-cuts: the values hold and only the work counters move
    Mutant("ecc-r-1", "far = full ^ near[r]", "far = full ^ near[r - 1]"),
    Mutant("ecc-r+1", "far = full ^ near[r]", "far = full ^ near[r + 1]"),
    Mutant("ecc-and-radius", "cut &= balls[low.bit_length() - 1][r]",
           "cut &= balls[low.bit_length() - 1][r - 1]"),
    Mutant("ecc-and-first-far-only", "while far and cut:", "if far and cut:"),
    Mutant("ecc-cut-kept", "rem ^= cut\n", "rem ^= 0\n"),
    Mutant("ecc-count-success", "(cut & (low - 1)).bit_count()", "(cut & low).bit_count()"),
    Mutant("ecc-radius-low", "r = t - 1 - self.objective", "r = t - 2 - self.objective"),
    Mutant("ecc-radius-high", "r = t - 1 - self.objective", "r = t - self.objective"),
    Mutant("ecc-radius-sources-low", "r = t - 1 - self.objective", "r = t - 2"),
    Mutant("ecc-radius-rounds-high", "r = t - 1 - self.objective", "r = t - 1"),
    Mutant("ecc-from-t1", "self.prune and t >= 2", "self.prune and t >= 1"),
    # the memo's bounds and the choice that witnesses lo
    Mutant("memo-success-swapped", "self.memo[key] = (t, hi, i)", "self.memo[key] = (hi, t, i)"),
    Mutant("memo-failure-swapped", "cut.bit_count()\n        self.memo[key] = (lo, t - 1, choice)",
           "cut.bit_count()\n        self.memo[key] = (t - 1, lo, choice)"),
    Mutant("memo-failure-drops-choice", "cut.bit_count()\n        self.memo[key] = (lo, t - 1, choice)",
           "cut.bit_count()\n        self.memo[key] = (lo, t - 1, -1)"),
    # the time budget
    Mutant("deadline-first-state", "self.expanded % 64 == 1", "self.expanded % 64 == 0"),
    Mutant("burn-deadline-first-state", "expanded % 1024 == 1", "expanded % 1024 == 0"),
    # the burning search's radius order: the largest ball first, and the
    # centers replayed from the largest radius down
    Mutant("burn-radii-ascending", "tuple(range(k - 1, -1, -1))", "tuple(range(k))"),
    Mutant("burn-radii-no-zero", "tuple(range(k - 1, -1, -1))", "tuple(range(k - 1, 0, -1))"),
    Mutant("burn-replay-ascending", "key=lambda rc: -rc[0]", "key=lambda rc: rc[0]"),
    # the burning search's capacity bound: a state fails only when its
    # uncovered nodes outnumber what its unused radii's largest balls hold,
    # and the deepening starts at the first k whose radii can hold n nodes
    Mutant("burn-capacity-at-room", "if rem.bit_count() > room:", "if rem.bit_count() >= room:"),
    Mutant("burn-start-above-n", "while room < n:", "while room <= n:"),
    Mutant("burn-capacity-smallest-ball", "most = [max(map(", "most = [min(map("),
    Mutant("burn-room-kept", "left = room - most[r]", "left = room"),
    # the orbit search: twins merge by equal open or closed neighbourhoods;
    # the search places a node only where its placed neighbours' images are
    # exactly the new image's placed neighbours, not merely as many, and a
    # node taken back frees its image
    Mutant("twin-open-key", "(lambda v: adj[v], lambda", "(lambda v: len(adj[v]), lambda",
           module="graphs.py"),
    Mutant("twin-closed-key", "lambda v: frozenset(adj[v]) | {v}", "lambda v: frozenset(adj[v])",
           module="graphs.py"),
    Mutant("automorphism-any-permutation", " and masks[w] & used == seen", "",
           module="graphs.py"),
    Mutant("automorphism-count-only", "masks[w] & used == seen",
           "(masks[w] & used).bit_count() == seen.bit_count()", module="graphs.py"),
    Mutant("automorphism-image-kept", "used ^= 1 << image[steps[i][0]]", "pass",
           module="graphs.py"),
    # build_graph stores one object per id, and takes only ints as endpoints
    Mutant("build-graph-fresh-ids", "nbrs[u].add(ids[v])", "nbrs[u].add(v)", module="graphs.py"),
    Mutant("build-graph-no-type-check", "if type(u) is not int or type(v) is not int:",
           "if False:", module="graphs.py"),
    # the grid: each row's interior neighbours come from column slices of
    # one id list, its end cells are built by hand from that list too, and
    # an anti-diagonal steps by n - 1
    Mutant("grid-right-start", "ids[a + 2:b + 1]", "ids[a + 1:b + 1]", module="generators.py"),
    Mutant("grid-last-column-down", "last.append(ids[b + n])", "last.append(ids[b + n - 1])",
           module="generators.py"),
    Mutant("grid-fresh-ids", "ids[a:b - 1]", "range(a, b - 1)", module="generators.py"),
    Mutant("diagonal-step", "step = n - 1", "step = n", module="generators.py"),
    # a scripted pick and the engine's fallback skip the cooled nodes, not
    # the uncooled ones, and an entry whose candidates are all cooled is
    # handed to the engine to reject rather than passed to the fallback
    Mutant("simplicial-skip-uncooled", "next(filterfalse(cooled.__contains__, entry)",
           "next(filter(cooled.__contains__, entry)", module="engine.py"),
    Mutant("fallback-skip-uncooled", "next(filterfalse(cooled.__contains__, lowest)",
           "next(filter(cooled.__contains__, lowest)", module="engine.py"),
    Mutant("script-exhausted-entry", "return entry[-1]", "return None", module="engine.py"),
    # the engine's flags: seen is cooled | border, so a source is flagged
    # and taken off the border, and a node is flagged as it joins the border
    Mutant("source-not-seen", "seen[source] = True\n            ", "", module="engine.py"),
    Mutant("source-left-on-border", "border.discard(source)\n            ", "", module="engine.py"),
    Mutant("border-not-seen", "seen[w] = True\n                    add(w)\n        source",
           "add(w)\n        source", module="engine.py"),
    # a BFS level is one more than its parent's
    Mutant("bfs-level-kept", "du = dist[u] + 1", "du = dist[u]", module="graphs.py"),
    # the bounds report: the diameter is two less than a ball's radius count,
    # the profile's minimum is read with each count plane's bit weight, and
    # every recurrence step adds one source beyond the border
    Mutant("report-diameter-off-balls", "len(g.balls[0]) - 2", "len(g.balls[0]) - 1",
           module="bounds.py"),
    Mutant("profile-bit-weight", "(1 << j, ~count[j])", "(j, ~count[j])", module="bounds.py"),
    Mutant("recurrence-step", "+ phi(xs[-1]) + 1)", "+ phi(xs[-1]) + 2)", module="bounds.py"),
    # a trace read from JSON cools each node once
    Mutant("trace-cooled-twice-kept",
           "        elif not cooled.isdisjoint(cools):\n"
           "            fault = f\"node {min(cooled.intersection(cools))} is cooled a second time\"\n",
           "", module="engine.py"),
    # the records: graphs are equal only with equal adjacency, and each check
    # row has a failures list of its own
    Mutant("graph-eq-order-only", "return self.n == other.n and self.adj == other.adj",
           "return self.n == other.n", module="graphs.py"),
    Mutant("checkrow-shared-failures",
           "failures: list[str] | None = None):\n"
           "        self.name = name\n"
           "        self.instances = instances\n"
           "        self.failures = [] if failures is None else failures\n",
           "failures: list[str] = []):\n"
           "        self.name = name\n"
           "        self.instances = instances\n"
           "        self.failures = failures\n", module="verify.py"),
]


def apply(source: str, m: Mutant) -> str:
    if source.count(m.old) != 1:
        raise SystemExit(f"mutant {m.name}: {m.old!r} must occur exactly once in {m.module}")
    return source.replace(m.old, m.new)


def run(m: Mutant, source: str, scratch: str) -> tuple[bool, float, str]:
    """Whether the tests kill ``m``, the seconds they took, and their last line."""
    copy = os.path.join(scratch, m.name)
    for part in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, part), os.path.join(copy, part),
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), copy)
    with open(os.path.join(copy, PACKAGE, m.module), "w") as fh:
        fh.write(apply(source, m))
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                               *TESTS], cwd=copy, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:  # a mutant that makes the search hang is killed
        return True, time.monotonic() - start, f"timed out after {TIMEOUT_S} s"
    finally:
        shutil.rmtree(copy)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode != 0, time.monotonic() - start, lines[-1] if lines else ""


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = ap.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in by_name]
    if unknown:
        ap.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [by_name[n] for n in args.names] if args.names else MUTANTS
    sources = {}
    for m in chosen:
        if m.module not in sources:
            with open(os.path.join(ROOT, PACKAGE, m.module)) as fh:
                sources[m.module] = fh.read()
        apply(sources[m.module], m)  # a stale snippet fails before anything runs
    bad = []
    with tempfile.TemporaryDirectory(prefix="coolnum-mutate-") as scratch:
        for m in chosen:
            killed, secs, last = run(m, sources[m.module], scratch)
            if killed:
                verdict = "killed"
            elif m.equivalent:
                verdict = "equivalent"
            else:
                verdict = "SURVIVED"
                bad.append(m.name)
            print(f"{m.name:28} {verdict:10} {secs:5.1f}s  {last}", flush=True)
            if verdict == "equivalent":
                print(f"{'':28} ({m.equivalent})", flush=True)
    if bad:
        print(f"{len(bad)} non-equivalent survivor(s): {', '.join(bad)}")
        return 1
    print(f"no non-equivalent survivor among {len(chosen)} mutants")
    return 0


if __name__ == "__main__":
    sys.exit(main())
