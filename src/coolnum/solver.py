"""Exact solvers for the cooling number, maximum sequence length, and burning number.

The cooling-side solvers decide thresholds by depth-first search:
``at_least(K, t)`` asks whether the run from a round boundary can still
last ``t`` rounds (or pick ``t`` sources), and returns at the first child,
in id order, that reaches ``t - 1``. It is memoized on the post-spread set:
the future after a boundary ``C`` depends only on the set ``N[C]`` that the
next spread cools, so boundaries with one closed neighbourhood share one
entry. A state ``K = N[C]`` spreads once, to ``N[K]``, and its child with
source ``s`` has key ``N[K] | N[s]``, one OR. A full boundary is decided
before its key is formed: it ends the run, while a boundary that is not
full but whose spread fills the graph takes one more round. Each entry is
``(lo, hi, choice)``: the value lies in ``[lo, hi]`` and ``choice`` is the
lowest-id child that reaches ``lo``; only a threshold strictly between
``lo`` and ``hi`` expands the key again. The search starts from key ``0``,
the empty boundary, whose children are the listed first sources, the
lowest of each automorphism orbit, since first sources in one orbit have
the same value.

The root is probed down from the paper's caps on a whole run,
``min(diameter + 1, floor(n/2) + 1)`` rounds and ``min(diameter,
ceil(n/2))`` sources, until a probe holds; that probe is the value. The
unpruned search, the reference, probes down from ``n`` instead. The
witness follows the memo's choices from key ``0`` and expands nothing.
Each step takes the lowest-id child that keeps the optimum, so the witness
is the lexicographically first optimal run, for three reasons. ``lo`` only
rises, and no call below a state writes that state's entry, since a
child's key strictly contains its parent's. On the walk each key's exact
value is the need, one less at each step, and the call that took the step
reached the need there, so ``lo`` equals the need. And the call that
stored that ``lo`` returned at the lowest-id child reaching ``lo - 1``.

Pruning reads one table, and only where it cannot cut a branch that
reaches the threshold, so every memo bound stays exact. From a key of
``a`` nodes at most ``most[a]`` rounds or sources remain, the paper's
isoperimetric recurrence ``x_{i+1} = x_i + phi(x_i) + 1`` with the vertex
connectivity ``kappa`` (:attr:`Graph.connectivity`) as the floor
``phi(c) = min(kappa, n - c)``. The round that cools the key picks a
source and leaves a boundary ``C`` of ``c = a + 1`` nodes. If ``N[C]``
misses a node, its border ``N[C] - C`` separates ``C`` from that node and
so holds at least ``kappa`` nodes; either way the child's key ``N[C]``
holds at least ``c + min(kappa, n - c)`` nodes. So ``most[a] = 1 +
most[c + min(kappa, n - c)]`` for a boundary that is not full, while a
full one ends the run, one round and one source. The last entry,
``most[n]``, is the objective's own number, the gain of a full key: one
round and no source. The table never rises with ``a``, so the entry of
the least child key bounds every larger one. At ``kappa = 1`` it is the
counting bound, ``u // 2 + 1`` rounds and ``(u - 1) // 2 + 1`` sources
with ``u`` nodes outside the key. A call at ``t`` reads it three ways:

* by the size of its key: it fails without expanding when ``t >
  most[|K|]``; at the root, key ``0``, that cuts a probe above
  ``most[0]``;
* along its spread: ``near[j]``, the nodes within ``j`` hops of key ``K``
  (below), is what spread alone cools in ``j`` more rounds, and sources
  only add to it. So a run from ``K`` that lasts at least ``j`` more
  rounds has a key holding ``near[j]`` ``j`` rounds later, and at most
  ``j + most[|near[j]|]`` rounds or sources remain; a run that ends sooner
  gains fewer than ``j``. The call fails once the vector is formed, before
  any child is visited, when ``t - j > most[|near[j]|]`` for some ``j``
  from 1 to ``t - 1`` that the vector holds;
* for all its children at once: a child whose vector would be full at
  radius ``r - 1``, with ``r = t - 1 - most[n]``, fails at ``t - 1``. At
  ``r = 0`` its boundary is full and ends the run; at ``r = 1`` its key is
  full and gains ``most[n] < t - 1``; past that the spread read at ``j =
  r - 1`` finds ``(t - 1) - (r - 1) > most[n]``. So such children are cut
  without being called.

Each state carries its vector ``near``: ``near[j]`` is the set of nodes
within ``j`` hops of its key ``K``, so ``near[0]`` is ``K`` and ``near[1]``
is ``N[K]``. The child's vector at radius ``r - 1`` holds the nodes within
``r`` hops of its boundary ``K | {s}``, so it is full when ``near[r]`` ORed
with the radius-``r`` ball of ``s`` (:attr:`Graph.balls`) is every node,
that is when ``s`` lies within ``r`` hops of every node ``u`` outside
``near[r]``. Hop distance is symmetric, so ``s`` lies in ``u``'s
``r``-ball exactly when ``u`` lies in ``s``'s: the cut children are the
AND of the ``r``-balls of the nodes outside ``near[r]``, formed once per
expanded state, one AND per such node until it is empty, and the child loop
visits only the rest, still in id order. ``ecc_cuts`` counts the cut
children that loop would have met before it returned. The child's own
vector is ``near[j + 1] | balls[s][j + 1]``, one ``map`` over at most
``d + 1`` ints whose entry 0 is the child's key; it depends only on that
key, so the memo stays sound, and it is formed only when the child passes
the memo and the table's test on the size of its key. At ``t = 1`` every
child succeeds, a full boundary too, so the cut starts at ``t = 2``. The
table, its three reads and both caps are cross-checked against unpruned
search in the test suite, and the caps also against a solver-free
enumeration of every run.

The burning solver iteratively deepens over the round count ``k``: the graph
burns within ``k`` rounds exactly when balls of radii ``k-1, k-2, ..., 0``
around some choice of centers cover every node, and any such cover replays
into a valid run of exactly ``k`` rounds. Its one bound is ball capacity:
no ball of radius ``r`` holds more than ``most[r]``, the largest radius-``r``
ball of the graph, so a state whose uncovered nodes outnumber the sum of
``most[r]`` over its unused radii holds no cover and fails at once, and the
deepening starts at the first ``k`` whose radii ``k-1..0`` can hold all
``n`` nodes. Both cut only subtrees and round counts without a cover, and
the DFS visits the rest in the same order, so its first cover, the value
and the witness are those of the unpruned search; the test suite checks
this against that search.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from functools import cache
from operator import or_
from typing import NamedTuple

from .engine import CoolingTrace, Script, run_burning, validate_sequence
from .graphs import (
    DisconnectedGraphError,
    Graph,
    GraphError,
    GraphTooLargeError,
    TimeBudgetExceededError,
)

DEFAULT_COOLING_MAX_NODES = 20
DEFAULT_BURNING_MAX_NODES = 24


class SearchLimits(NamedTuple):
    """Caps the solver refuses to exceed rather than run unbounded.

    ``max_nodes=None`` selects the ``COOLNUM_MAX_NODES`` environment
    variable if set, else the per-solver default (20 for cooling-side
    searches, 24 for burning). A cap must be a positive ``int`` and a time
    budget a non-negative ``int`` or ``float``, neither a bool; the solvers
    raise ``ValueError`` otherwise.
    """

    max_nodes: int | None = None
    time_budget: float | None = None


class SearchStats(NamedTuple):
    """Work counters of one search. For the cooling-side searches
    ``expanded`` counts a state once for each threshold that expands it.
    ``roots`` counts the first sources they ran, one per automorphism orbit
    found among the listed ones, and ``probes`` the thresholds tried at the
    empty boundary. ``ecc_cuts`` counts the children the gain table cut for
    all of a state's children at once, by their eccentricity, and
    ``counting_cuts`` the calls it failed, by the size of the key or
    along its spread; the table is the counting bound where the
    vertex connectivity is 1. A call failed along the spread forms the
    state's vector but visits no child, so it counts there and not in
    ``expanded``.
    All four are 0 for burning, whose ``memo_hits`` counts its
    failed-cover cache hits and ``capacity_cuts`` the cover states failed
    because their unused radii cannot hold the uncovered nodes; that one is
    0 for the cooling-side searches."""

    expanded: int
    memo_hits: int
    wall_time: float
    roots: int = 0
    ecc_cuts: int = 0
    counting_cuts: int = 0
    probes: int = 0
    capacity_cuts: int = 0


# kept a dataclass, unlike the other records: perfbench/tests calls
# dataclasses.replace on it
@dataclass(frozen=True)
class SearchResult:
    """Optimal value, a witness trace achieving it, and search statistics."""

    value: int
    witness: CoolingTrace
    stats: SearchStats


# an objective is the gain of a full key: one round and no source
_ROUNDS = 1
_SOURCES = 0


@cache
def _gains(n: int, kappa: int, objective: int) -> tuple[int, ...]:
    """``most[a]``: the most rounds, or sources, that a run can still gain
    from a key of ``a`` nodes on a connected graph of ``n`` nodes and vertex
    connectivity ``kappa`` (the module docstring proves it). Built once per
    ``(n, kappa, objective)``."""
    most = [1] * n + [objective]
    for a in range(n - 2, -1, -1):
        c = a + 1
        most[a] = 1 + most[c + min(kappa, n - c)]
    return tuple(most)


class _MaxSearch:
    """Shared threshold search for the most rounds or the most sources."""

    def __init__(self, g: Graph, objective: int, prune: bool, deadline: float | None):
        self.balls = g.balls
        self.full = (1 << g.n) - 1
        self.first = self.full  # the first sources the empty boundary branches on
        self.top = len(self.balls[0]) - 2  # the diameter; each ball runs one radius past it
        # the parent vector and ball of the empty boundary, key 0: nothing lies
        # near it; one entry longer than a ball, so that the first round's
        # vector runs to radius d + 1, as a ball does
        self.empty = (0,) * (self.top + 3)
        self.objective = objective
        self.prune = prune
        # the unpruned reference cuts nothing, so it needs no connectivity
        self.most = _gains(g.n, g.connectivity, objective) if prune else ()
        self.deadline = deadline
        # per post-spread set: the objective is at least lo and at most hi,
        # and choice is the lowest-id child that reaches lo
        self.memo: dict[int, tuple[int, int, int]] = {}
        self.unknown = (0, g.n, -1)
        self.probes = 0
        self.expanded = 0
        self.memo_hits = 0
        self.ecc_cuts = 0
        self.counting_cuts = 0

    def at_least(self, t: int, up: tuple[int, ...], ball: tuple[int, ...]) -> bool:
        """Whether the run from a state can reach ``t`` on the objective. A
        state is the set ``key`` that the next spread cools, from a round
        boundary that is not full; its vector ``near[j] = up[j + 1] | ball[j + 1]``,
        the nodes within ``j`` hops of ``key``, comes from its parent's vector
        ``up`` and its source's balls ``ball``, and is formed only if the
        state passes the memo and the table's test on the size of its key.
        The empty boundary, key 0, has ``self.empty`` for both."""
        key = up[1] | ball[1]
        if key == self.full:
            # the next round's spread finishes the process: one final round,
            # no further source, the gain that names the objective
            return t <= self.objective
        lo, hi, choice = self.memo.get(key, self.unknown)
        if not lo < t <= hi:
            self.memo_hits += 1
            return t <= lo
        if self.prune and t > self.most[key.bit_count()]:
            self.counting_cuts += 1
            return False
        # a starred display allocates the tuple at its length; tuple(map(...))
        # allocates 10 entries and resizes, so each freed vector lands on a
        # free list it was not taken from, which grows to 2,000 spare tuples
        # per length (about 2 MB of resident memory)
        near = (*map(or_, up[1:], ball[1:]),)
        if self.prune:
            # a run that lasts j more rounds has a key holding near[j] by
            # then, so at most j + most[|near[j]|] remain
            most = self.most
            for j in range(1, min(t, len(near))):
                if t - j > most[near[j].bit_count()]:
                    self.counting_cuts += 1
                    self.memo[key] = (lo, t - 1, choice)
                    return False
        self.expanded += 1
        if self.deadline is not None and self.expanded % 64 == 1:
            if time.monotonic() > self.deadline:
                raise TimeBudgetExceededError("search exceeded its time budget")
        full = self.full
        rem = full ^ key if key else self.first
        balls = self.balls
        # a child whose boundary key | {s} is within r = t - 1 - most[n] hops
        # of every node fails at t - 1 by the table; that is when
        # near[r] | balls[s][r] is full, so when s lies in the r-ball of
        # every node u outside near[r], as hop distance is symmetric: so the
        # AND of those balls over rem is the set of cut children. At t = 1
        # every child succeeds. The vector drops one radius a level, so a
        # key k sources deep keeps radii 0..d + 1 - k; the probe starts at
        # the caps, min(d + 1, ...) rounds and min(d, ...) sources, so r
        # stays below d - k, inside it
        cut = 0
        if self.prune and t >= 2:
            r = t - 1 - self.objective
            far = full ^ near[r]
            cut = rem
            while far and cut:
                low = far & -far
                far ^= low
                cut &= balls[low.bit_length() - 1][r]
            rem ^= cut
        while rem:
            low = rem & -rem
            rem ^= low
            i = low.bit_length() - 1
            # a full boundary ends the run in this round, so it reaches t = 1
            # only; its key would be full too, which at_least reads as a
            # boundary one round short of the end
            if t == 1 or key | low != full and self.at_least(t - 1, near, balls[i]):
                # of the cut children, an id-order walk meets those below i
                if cut:
                    self.ecc_cuts += (cut & (low - 1)).bit_count()
                self.memo[key] = (t, hi, i)
                return True
        if cut:
            self.ecc_cuts += cut.bit_count()
        self.memo[key] = (lo, t - 1, choice)
        return False

    def solve(self, first: int) -> tuple[int, list[int]]:
        """Value and lowest-id witness over the first sources in the mask ``first``."""
        self.first = first
        n, d = len(self.balls), self.top
        # the paper's diameter and order caps, d + 1 and floor(n/2) + 1 rounds,
        # d and ceil(n/2) sources, bound every run, so they bound the best
        # over any set of first sources too; the unpruned reference probes
        # from n instead, so that it tests the caps
        obj = self.objective
        start = max(1, min(d + obj, (n + 1 + obj) // 2)) if self.prune else n
        value = start
        while not self.at_least(value, self.empty, self.empty):
            value -= 1
        self.probes = start - value + 1
        seq, up, ball = [], self.empty, self.empty
        # the lowest-id child that keeps the optimum
        while (key := up[1] | ball[1]) != self.full:
            choice = self.memo[key][2]
            seq.append(choice)
            up, ball = (*map(or_, up[1:], ball[1:]),), self.balls[choice]
        return value, seq


_NO_LIMITS = SearchLimits()


def _prepare(g: Graph, limits: SearchLimits | None, default_cap: int) -> tuple[float, float | None]:
    """Resolve the node cap, check ``g`` against it and check the time budget;
    the only place limits are read. Returns the start time and the deadline,
    ``None`` without a budget."""
    limits = limits or _NO_LIMITS
    cap = limits.max_nodes
    if cap is None:
        raw = os.environ.get("COOLNUM_MAX_NODES")
        try:
            cap = default_cap if raw is None else int(raw)
        except ValueError:
            raise ValueError(f"COOLNUM_MAX_NODES must be an integer, got {raw!r}") from None
    # a cap below 1 fits no graph, so this is a usage error, not an over-limit
    # input; a bool or a float is no cap, as a bool is no node id
    if type(cap) is not int or cap < 1:
        raise ValueError(f"node cap must be a positive integer, got {cap!r}")
    budget = limits.time_budget
    if budget is not None and (type(budget) is bool or not isinstance(budget, (int, float))
                               or not budget >= 0):  # the last also catches NaN
        raise ValueError(f"time budget must be a non-negative number of seconds, got {budget!r}")
    if g.n > cap:
        raise GraphTooLargeError(g.n, cap)
    if g.n < 1:
        raise GraphError("solver needs at least one node")
    if not g.is_connected:
        raise DisconnectedGraphError("solver requires a connected graph")
    start = time.monotonic()
    return start, None if budget is None else start + budget


def _max_solve(g: Graph, limits: SearchLimits | None, objective: int, prune: bool,
               first_sources: list[int] | None) -> SearchResult:
    start, deadline = _prepare(g, limits, DEFAULT_COOLING_MAX_NODES)

    if first_sources is None:
        listed = list(range(g.n))
    else:
        listed = list(first_sources)
        # a bool or a float is no node id, even where it equals one
        listed = sorted(set(listed)) if all(type(s) is int for s in listed) else []
        if not listed or listed[0] < 0 or listed[-1] >= g.n:
            raise GraphError(f"first_sources must be node ids in 0..{g.n - 1}")

    # an automorphism carries one root's search onto another's, so the lowest
    # listed node of each orbit stands for the rest: memo values are exact
    # and ties go to the lowest root, so the answer and witness do not change
    kept: dict[int, int] = {}
    for s in listed:
        kept.setdefault(g.orbits[s], s)
    roots = list(kept.values())
    search = _MaxSearch(g, objective, prune, deadline)
    value, seq = search.solve(sum(1 << s for s in roots))

    trace = validate_sequence(g, seq)
    achieved = trace.num_rounds if objective == _ROUNDS else len(trace.sources)
    if achieved != value:
        raise AssertionError(f"witness replay gave {achieved}, search said {value}")
    return SearchResult(value, trace,
                        SearchStats(search.expanded, search.memo_hits, time.monotonic() - start,
                                    len(roots), search.ecc_cuts, search.counting_cuts,
                                    search.probes))


def cooling_number(g: Graph, limits: SearchLimits | None = None, *, prune: bool = True,
                   first_sources: list[int] | None = None, jobs: int = 1) -> SearchResult:
    """Exact cooling number: the maximum round count over all source choices.

    The search runs one first source per automorphism orbit
    (:attr:`Graph.orbits`), so callers need not cover orbits themselves.
    ``first_sources`` is an optional restriction of the first-round
    branching: the answer is then the best over those first sources only.
    ``prune=False`` is the reference search: no cut, and the root probed
    down from ``n`` rather than from the paper's caps.
    ``jobs`` is ignored, as the search is serial; it goes once the benchmark's
    ``search`` workload stops passing ``jobs=2`` (ROADMAP item 1).
    """
    return _max_solve(g, limits, _ROUNDS, prune, first_sources)


def max_sequence_length(g: Graph, limits: SearchLimits | None = None, *, prune: bool = True,
                        first_sources: list[int] | None = None, jobs: int = 1) -> SearchResult:
    """Exact maximum number of sources selectable in one run (same search,
    objective = source count, same ``prune``, ``first_sources`` and ignored
    ``jobs`` as :func:`cooling_number`). The round count of a run always
    lies within {sources, sources+1}."""
    return _max_solve(g, limits, _SOURCES, prune, first_sources)


def burning_number(g: Graph, limits: SearchLimits | None = None) -> SearchResult:
    """Exact burning number: the minimum round count over all source choices.

    Deepens over the target round count ``k``, testing ball-cover feasibility
    with radii ``k-1..0`` by DFS over (uncovered set, unused radii) states,
    then replays the first cover found through the engine. The DFS covers
    the lowest uncovered node first, by the largest unused radius first and
    each radius's centers in id order. It fails a state whose uncovered
    nodes outnumber what its unused radii's largest balls hold together, and
    the deepening starts at the first ``k`` whose radii can hold ``n`` nodes:
    neither cut holds a cover, so the first cover found is the unpruned
    search's. ``stats.capacity_cuts`` counts the states the capacity test
    failed.
    """
    start, deadline = _prepare(g, limits, DEFAULT_BURNING_MAX_NODES)
    n = g.n
    full = (1 << n) - 1
    balls = g.balls  # radii past the diameter; b <= diameter + 1 bounds every k tried
    # most[r]: the most nodes one ball of radius r holds
    most = [max(map(int.bit_count, col)) for col in zip(*balls)]
    expanded = cache_hits = capacity_cuts = 0
    failed: set[tuple[int, tuple[int, ...]]] = set()

    def cover(covered: int, radii: tuple[int, ...], room: int) -> list[tuple[int, int]] | None:
        """The first cover, as (radius, center) pairs, of the nodes outside
        ``covered`` by balls of ``radii``, which hold at most ``room`` nodes."""
        nonlocal expanded, cache_hits, capacity_cuts
        if covered == full:
            return []
        rem = full ^ covered
        if rem.bit_count() > room:  # room is 0 once no radius is left
            capacity_cuts += 1
            return None
        key = (covered, radii)
        if key in failed:
            cache_hits += 1
            return None
        expanded += 1
        if deadline is not None and expanded % 1024 == 1:
            if time.monotonic() > deadline:
                raise TimeBudgetExceededError("search exceeded its time budget")
        # lowest uncovered node u; some remaining ball must cover it, so
        # branching over the (radius, center) pairs reaching it is complete.
        # A center reaches u when it lies in u's ball, in increasing id order
        near = balls[(rem & -rem).bit_length() - 1]
        for i, r in enumerate(radii):
            rest = radii[:i] + radii[i + 1 :]
            left = room - most[r]
            centers = near[r]
            while centers:
                low = centers & -centers
                centers ^= low
                c = low.bit_length() - 1
                sub = cover(covered | balls[c][r], rest, left)
                if sub is not None:
                    return [(r, c)] + sub
        failed.add(key)
        return None

    # no k below the first whose radii k-1..0 can hold n nodes has a cover
    k = room = 0
    while room < n:
        room += most[k]
        k += 1
    while (assignment := cover(0, tuple(range(k - 1, -1, -1)), room)) is None:
        room += most[k]
        k += 1
        failed.clear()
    planned = [c for _, c in sorted(assignment, key=lambda rc: -rc[0])]
    # each round plays its planned center, else the smallest unburned
    # node: a planned center that is already burned has its ball burned
    # anyway, so any other pick keeps the cover
    trace = run_burning(g, Script((c, *range(n)) for c in planned))
    if trace.num_rounds != k:
        raise AssertionError(f"cover replay gave {trace.num_rounds} rounds, expected {k}")
    return SearchResult(k, trace, SearchStats(expanded, cache_hits, time.monotonic() - start,
                                              capacity_cuts=capacity_cuts))
