"""Constructive cooling strategies and the closed-form values they certify.

Each strategy either emits an explicit source sequence, played by
``validate_sequence``, or, for the grid and the spider, hands the engine's
:class:`~coolnum.engine.Script` one entry of candidates per round: the
simplicial order, shared by every round, or the leg the schedule drains.
Either way the engine's smallest-id fallback picks once the script runs
out. Round counts of these runs are lower bounds on the cooling number by
definition; for grids and complete caterpillars they are exactly optimal.
The certified families are one table, :data:`FORMS`, which
:func:`closed_form`, ``coolnum strategy`` and the verification suites read.
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable, Iterator, Mapping, NamedTuple

from .engine import CoolingTrace, Script, run_cooling, validate_sequence
from .generators import (
    gen_complete_caterpillar,
    gen_cycle,
    gen_grid,
    gen_path,
    gen_spider,
    simplicial_order,
    spider_leg_nodes,
)
from .graphs import Graph, GraphError, StrategyError, bfs_distances, diameter_sweep
from .ilt import IltGraph, ilt_t


def _ceil_log2(m: int) -> int:
    """ceil(log2(m)) for m >= 1."""
    return (m - 1).bit_length()


class ClosedForm:
    """A certified value for one family: exact, lower bound, or window [lo, hi].

    Forms compare by all five fields; an empty window, or an exact form
    with ``lo != hi``, raises ``StrategyError``."""

    def __init__(self, family: str, params: dict[str, int], kind: str, lo: int,
                 hi: int | None):
        if kind == "window" and (hi is None or hi < lo):
            raise StrategyError(f"empty window [{lo}, {hi}]")
        if kind == "exact" and hi != lo:
            raise StrategyError("exact form needs lo == hi")
        self.family = family
        self.params = params
        self.kind = kind  # "exact" | "lower_bound" | "window"
        self.lo = lo
        self.hi = hi

    def _key(self) -> tuple:
        return (self.family, self.params, self.kind, self.lo, self.hi)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not ClosedForm:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        return "ClosedForm(family={!r}, params={!r}, kind={!r}, lo={!r}, hi={!r})".format(
            *self._key())

    def contains(self, value: int) -> bool:
        if self.kind == "lower_bound":
            return value >= self.lo
        assert self.hi is not None
        return self.lo <= value <= self.hi

    def to_json_obj(self) -> dict:
        return {
            "family": self.family,
            "params": dict(self.params),
            "kind": self.kind,
            "lo": self.lo,
            "hi": self.hi,
        }


def closed_form(family: str, params: Mapping[str, int]) -> ClosedForm:
    """Certified cooling-number value or window for a family of :data:`FORMS`.

    Raises ``GraphError`` when ``params`` does not name exactly the family's
    parameters or one is below its least allowed value, and
    ``StrategyError`` for a family the table does not hold.
    """
    row = FORMS.get(family)
    if row is None:
        raise StrategyError(f"unknown family {family!r}")
    p = dict(params)
    names = [name for name, _ in row.params]
    if sorted(p) != sorted(names):
        got = ", ".join(sorted(p)) or "none"
        raise GraphError(f"{family} forms take {', '.join(names)}, got {got}")
    if not row.admits(p):
        need = " and ".join(f"{name} >= {least}" for name, least in row.params)
        got = ", ".join(f"{name}={p[name]}" for name, _ in row.params)
        raise GraphError(f"{family} forms need {need}, got {got}")
    kind, lo, hi = row.form(*(p[name] for name, _ in row.params))
    return ClosedForm(family, p, kind, lo, hi)


def _exact(v: int) -> tuple[str, int, int]:
    return "exact", v, v


def _grid_window(n: int) -> tuple[str, int, int]:
    from .bounds import grid_iso_upper_bound  # on first use: only the grid window reads it

    lo = 2 * n - 2 * ((n + 3).bit_length() - 1)
    return "window", lo, max(lo + 2, grid_iso_upper_bound(n).value)


def grid_cl_window(n: int) -> ClosedForm:
    """Window containing the cooling number of the n x n grid.

    The lower end is ``2n - 2 floor(log2(n + 3))``. The upper end is two
    above it, raised to the grid's isoperimetric recurrence bound where that
    is larger, which within ``n = 2..200`` happens only at ``n = 5``:
    ``CL(G_5) = 7``, so the window there is ``[4, 7]``. Restricted to
    ``n >= 2``: at ``n = 1`` the formula underflows while the actual value
    is 1.
    """
    return closed_form("grid", {"n": n})


def _spider_lower_bound(m: int, r: int) -> tuple[str, int, None]:
    """The larger of ``2 * sum(floor((r + 1) / 2**i), i = 1..m)``, which
    :func:`spider_strategy`'s schedule meets, and the diameter bound
    ``r + 1`` (two legs of length ``r`` give diameter ``2r``, and
    ``CL >= ceil((diam + 2) / 2)``). At ``m = 1`` the spider is a path and
    ``r + 1`` is its value. No exact value is certified: the value
    ``2r + 1`` once claimed from ``m >= ceil(log2(r + 1))`` on is false at
    ``(1, 1)``, ``(2, 2)`` and ``(2, 3)``, where the cooling number is ``2r``.
    """
    lo = 2 * sum((r + 1) // 2**i for i in range(1, m + 1))
    return "lower_bound", max(lo, r + 1), None


def _ilt_path_value(n: int, t: int) -> tuple[str, int, int]:
    v = (2 * n + 2) // 3
    if not (t == 1 and n % 3 == 2):
        v += 1
    return _exact(v)


def grid_simplicial_strategy(n: int) -> CoolingTrace:
    """Cool the n x n grid by simplicial order; the round count equals its
    cooling number."""
    # one iterator over the order serves every round, so the engine's cooled
    # set is scanned past each node once
    return run_cooling(gen_grid(n), Script(repeat(iter(simplicial_order(n)))))


def _diametral_path(g: Graph) -> list[int]:
    """A shortest path realizing the diameter, between the ends of the double
    sweep from node 0 when they are the diameter apart. When the sweep falls
    short, the path runs from the lowest diametral end ``a`` to the lowest
    node at the diameter from ``a``: the first pair a scan of the nodes in id
    order would find. The sweep's far end and its row come from
    :func:`diameter_sweep`."""
    d, lowest_end, a, dist_a = diameter_sweep(g)
    b = dist_a.index(max(dist_a))
    if dist_a[b] != d:
        a = lowest_end
        dist_a = bfs_distances(g, a)
        b = dist_a.index(d)
    path = [b]
    cur = b
    while cur != a:
        cur = min(w for w in g.adj[cur] if dist_a[w] == dist_a[cur] - 1)
        path.append(cur)
    path.reverse()
    if path[0] > path[-1]:  # normalize orientation for reproducible output
        path.reverse()
    return path


def path_diameter_strategy(g: Graph) -> list[int]:
    """Every-other-node sequence along a diametral path.

    Playing it yields at least ``ceil((diam + 2) / 2)`` rounds: the cooled
    set stays inside a ball around the path's start that grows too slowly to
    swallow the far end any sooner. Raises ``GraphError`` on a graph with
    no node and ``DisconnectedGraphError`` on a disconnected one.
    """
    if g.n < 1:
        raise GraphError("path-diameter strategy needs at least one node")
    path = _diametral_path(g)
    d = len(path) - 1
    want = (d + 3) // 2  # ceil((d + 2) / 2)
    return [path[2 * i] for i in range(want) if 2 * i <= d]


def caterpillar_strategy(d: int) -> list[int]:
    """First spine leaf, then every pendant in spine order.

    Exactly optimal: the run lasts ``d`` rounds on the complete caterpillar
    of length ``d``, with spine node ``i`` cooled in round ``i + 1``.
    """
    if d < 3:
        raise GraphError(f"complete caterpillar needs d >= 3, got {d}")
    return [0] + [d + j - 1 for j in range(1, d - 1)]


def _spider_plan(m: int, r: int) -> Iterator[list[int]]:
    """The two-phase leg schedule, one leg per round, its nodes in pick order.

    Phase 1 drains legs ``1..m'`` from the far end inward with halving round
    budgets; phase 2 races the spread down fresh legs ``m'+1..2m'`` from the
    head outward with the budgets reversed.
    """
    m_prime = min(m, _ceil_log2(r + 1))
    legs = spider_leg_nodes(2 * m, r)
    for i in range(1, m_prime + 1):
        yield from repeat(legs[i - 1][::-1], (r + 1) // 2 ** (m_prime + 1 - i))
    for i in range(1, m_prime + 1):
        yield from repeat(legs[m_prime + i - 1], (r + 1) // 2**i)


class SpiderStrategyResult(NamedTuple):
    trace: CoolingTrace


def spider_strategy(m: int, r: int) -> SpiderStrategyResult:
    """Run the two-phase schedule on the spider with ``2m`` legs of length ``r``.

    The run meets ``closed_form("spider", {"m": m, "r": r})``, a lower
    bound, for every ``(m, r)``. The certification hypotheses require an
    even leg count and equal lengths, which the ``(m, r)`` parameterization
    enforces.
    """
    if m < 1:
        raise StrategyError("spider strategy needs m >= 1 (2m legs, so an even leg count)")
    if r < 1:
        raise StrategyError("spider strategy needs legs of length r >= 1")
    g = gen_spider(2 * m, r)
    trace = run_cooling(g, Script(_spider_plan(m, r)))
    return SpiderStrategyResult(trace)


def ilt_path_strategy(n: int, t: int) -> list[int]:
    """Clone-node sequence achieving the closed form on the t-fold ILT of a path.

    Picks last-iteration clones of base path nodes ``1, 2, 4, 5, 7, 8, ...``
    (skipping every third), ``ceil(2n/3)`` picks in total.
    """
    if n < 3:
        raise GraphError(f"ilt path strategy needs n >= 3, got {n}")
    if t < 1:
        raise GraphError(f"ilt path strategy needs t >= 1, got {t}")
    prev_order = n * 2 ** (t - 1)  # clone of original node b is prev_order + b
    k = (2 * n + 2) // 3
    seq = []
    for i in range(1, k + 1):
        base = i + (i - 1) // 2 - 1
        seq.append(prev_order + base)
    return seq


def ilt_lift_sequence(seq: list[int] | tuple[int, ...], source: IltGraph,
                      target: IltGraph) -> list[int]:
    """Map a cooling sequence of a deep ILT iterate onto a 2-step iterate.

    Entry ``u`` maps to a final-iteration clone (in ``target``) of its base
    origin; consecutive entries with the same origin take distinct clones,
    which exist because the target has at least two final-iteration clones
    per base node. The lifted sequence has the same length and stays valid.
    """
    if target.t < 2:
        raise StrategyError("lift target must be at least a 2-step iterate")
    if source.base_n != target.base_n:
        raise StrategyError("source and target must come from the same base graph")
    out: list[int] = []
    prev_base = None
    seen: set[int] = set()
    for u in seq:
        base = source.origin[u]
        if base != prev_base and base in seen:
            # a valid sequence can revisit an origin only in the very next
            # round: two co-layer nodes are within distance 2 of each other
            raise StrategyError("origin recurs after a gap; input was not a cooling sequence")
        clones = target.last_clones[base]
        out.append(clones[1] if base == prev_base else clones[0])
        seen.add(base)
        prev_base = base
    return out


def caterpillar_strategy_trace(d: int) -> CoolingTrace:
    return validate_sequence(gen_complete_caterpillar(d), caterpillar_strategy(d))


def ilt_path_strategy_trace(n: int, t: int) -> CoolingTrace:
    return validate_sequence(ilt_t(gen_path(n), t).graph, ilt_path_strategy(n, t))


class FamilyForm(NamedTuple):
    """One certified family: its parameters, member graph, closed form and,
    where one exists, the ``coolnum strategy`` run that the form bounds.

    ``params`` lists ``(name, least allowed value)`` in the order that
    ``graph``, ``form`` and ``run`` take them; the names are also the
    ``coolnum strategy`` flags. ``form`` returns ``(kind, lo, hi)`` as in
    :class:`ClosedForm`.
    """

    params: tuple[tuple[str, int], ...]
    graph: Callable[..., Graph]
    form: Callable[..., tuple[str, int, int | None]]
    strategy: str | None = None
    run: Callable[..., CoolingTrace] | None = None

    def admits(self, params: Mapping[str, int]) -> bool:
        """Whether every parameter is at least its least allowed value."""
        return all(params[name] >= least for name, least in self.params)


# closed_form family -> row; the families with a strategy list it in the
# order that ``coolnum strategy`` offers them
FORMS = {
    "path": FamilyForm((("n", 1),), gen_path, lambda n: _exact((n + 2) // 2)),
    "cycle": FamilyForm((("n", 3),), gen_cycle, lambda n: _exact((n + 4) // 3)),
    "grid": FamilyForm((("n", 2),), gen_grid, _grid_window,
                       "grid-simplicial", grid_simplicial_strategy),
    "caterpillar": FamilyForm((("d", 3),), gen_complete_caterpillar, _exact,
                              "caterpillar", caterpillar_strategy_trace),
    "spider": FamilyForm((("m", 1), ("r", 1)), lambda m, r: gen_spider(2 * m, r),
                         _spider_lower_bound, "spider", lambda m, r: spider_strategy(m, r).trace),
    "ilt_path": FamilyForm((("n", 3), ("t", 1)), lambda n, t: ilt_t(gen_path(n), t).graph,
                           _ilt_path_value, "ilt-path", ilt_path_strategy_trace),
}
