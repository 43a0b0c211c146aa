"""Exact round semantics of the cooling and burning spread processes.

Both processes share one round structure. In round 1 a single source is
chosen. In every later round the cooling first spreads: every node that was
cooled by the end of the previous round cools its uncooled neighbors, one
layer only. Then, if any node is still uncooled, one of them MUST be chosen
as a new source; a policy cannot pass. The process ends in the first round
whose end state has every node cooled. Cooling maximizes the number of
rounds, burning minimizes it; the mechanics are identical.
"""

from __future__ import annotations

import json
from functools import cached_property
from itertools import filterfalse
from pathlib import Path
from typing import AbstractSet, Iterable, Iterator, NamedTuple, Protocol, Sequence

from .graphs import DisconnectedGraphError, Graph, GraphError


class SourcePolicy(Protocol):
    """Decision procedure: given (graph, cooled set after spread, round index),
    return one uncooled node id, or ``None`` for the smallest uncooled id.
    Must be deterministic for a fixed instance; the cooled set argument must
    be treated as read-only."""

    def __call__(self, g: Graph, cooled: AbstractSet[int], round_index: int) -> int | None: ...


class InvalidSourceError(ValueError):
    """A policy or sequence picked an unusable source node."""

    def __init__(self, node: int | None, round_index: int, reason: str):
        self.node = node
        self.round = round_index
        super().__init__(f"round {round_index}: {reason}")


class RoundRecord(NamedTuple):
    """One round: the set cooled by spread, and the source chosen (if any)."""

    round: int
    spread: frozenset[int]
    source: int | None


class CoolingTrace:
    """Complete round-by-round record of one run; the auditable witness.

    Traces compare and hash by ``rounds``, and assignment raises; the
    instance ``__dict__`` holds ``rounds`` and the cached ``cooled_round``.
    """

    rounds: tuple[RoundRecord, ...]

    def __init__(self, rounds: tuple[RoundRecord, ...]):
        object.__setattr__(self, "rounds", rounds)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not CoolingTrace:
            return NotImplemented
        return self.rounds == other.rounds

    def __hash__(self) -> int:
        return hash(self.rounds)

    def __repr__(self) -> str:
        return f"CoolingTrace(rounds={self.rounds!r})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to CoolingTrace.{name}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete CoolingTrace.{name}")

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    @property
    def sources(self) -> tuple[int, ...]:
        return tuple(r.source for r in self.rounds if r.source is not None)

    @cached_property
    def cooled_round(self) -> dict[int, int]:
        """Map node id -> round in which it became cooled."""
        out: dict[int, int] = {}
        for rec in self.rounds:
            for v in rec.spread:
                out[v] = rec.round
            if rec.source is not None:
                out[rec.source] = rec.round
        return out


def run_cooling(g: Graph, policy: SourcePolicy) -> CoolingTrace:
    """Run the process to completion under ``policy``.

    Cooling and burning share this engine: the trace's round count is what
    the cooling number maximizes and the burning number minimizes. A policy
    that returns ``None`` gets the smallest uncooled id.
    """
    if g.n < 1:
        raise GraphError("process needs at least one node")
    if not g.is_connected:
        raise DisconnectedGraphError("process requires a connected graph")
    adj = g.adj
    cooled: set[int] = set()
    border: set[int] = set()  # uncooled nodes adjacent to a cooled node
    # seen[v] holds exactly when v is in cooled | border, so each node joins
    # the border once, and the loops below read one flag per edge end
    seen = [False] * g.n
    records: list[RoundRecord] = []
    lowest = iter(range(g.n))  # no id it has passed is uncooled, as cooled only grows
    t = 0
    while len(cooled) < g.n:
        t += 1
        newly = border
        spread = frozenset(newly)
        cooled |= newly
        border = set()  # a set, not a list: frozenset(set) is presized
        add = border.add
        for v in newly:
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    add(w)
        source: int | None = None
        if len(cooled) < g.n:
            source = policy(g, cooled, t)
            if source is None:
                source = next(filterfalse(cooled.__contains__, lowest))
            # a bool or a float is no node id, even where it equals one
            if type(source) is not int or not (0 <= source < g.n):
                raise InvalidSourceError(source, t, f"policy returned invalid node {source!r}")
            if source in cooled:
                raise InvalidSourceError(source, t, f"node {source} is already cooled")
            cooled.add(source)
            seen[source] = True
            border.discard(source)
            for w in adj[source]:
                if not seen[w]:
                    seen[w] = True
                    add(w)
        records.append(RoundRecord(t, spread, source))
    return CoolingTrace(tuple(records))


class Script:
    """Plays one entry per round, then leaves the picks to the engine's fallback.

    An entry is a sequence of candidates; round ``t`` picks the first
    uncooled one of the ``t``-th entry. An entry may also be an iterator
    shared by several rounds, as the grid's simplicial order is: that is
    sound because the engine passes its one cooled set to every call and
    only ever adds to it, so a node skipped once stays cooled. If every
    candidate is cooled, the entry's last node is returned for the engine
    to reject; an entry that names no node, or an iterator that runs dry,
    raises :class:`InvalidSourceError`.
    """

    def __init__(self, entries: Iterable[Sequence[int]]):
        self.entries = iter(entries)

    def __call__(self, g: Graph, cooled: AbstractSet[int], t: int) -> int | None:
        for entry in self.entries:  # this round's entry, if any is left
            try:
                return next(filterfalse(cooled.__contains__, entry))
            except StopIteration:
                # an empty entry, or a shared iterator run dry, has no last node
                if entry and not isinstance(entry, Iterator):
                    return entry[-1]
                raise InvalidSourceError(None, t, "script entry names no uncooled node") from None
        return None


def validate_sequence(g: Graph, seq: list[int] | tuple[int, ...]) -> CoolingTrace:
    """Play ``seq`` as the prefix of a run and return the full trace.

    Round ``i`` must select ``seq[i-1]``, which must be uncooled at that
    point (repeats surface as already-cooled). If the sequence runs out while
    uncooled nodes remain at a selection point, the run auto-extends with the
    smallest-id uncooled node, so the trace's round count reads as a lower
    bound on the cooling number. A sequence the process finishes before
    exhausting is rejected.
    """
    rest = enumerate(seq, 1)

    def entries() -> Iterator[tuple[int]]:
        # each element is checked only when its round comes, so the first
        # fault in round order is the one reported
        for t, v in rest:
            if type(v) is not int:
                raise InvalidSourceError(v, t, f"sequence element {v!r} is not a node id")
            if not (0 <= v < g.n):
                raise InvalidSourceError(v, t, f"sequence element {v} outside 0..{g.n - 1}")
            yield (v,)

    trace = run_cooling(g, Script(entries()))
    leftover = [v for _, v in rest]
    if leftover:
        raise InvalidSourceError(
            leftover[0],
            trace.num_rounds,
            f"process ended after round {trace.num_rounds} with sequence elements {leftover} never selected",
        )
    return trace


def trace_to_json_obj(trace: CoolingTrace) -> dict:
    return {
        "rounds": [
            {"round": r.round, "spread": sorted(r.spread), "source": r.source}
            for r in trace.rounds
        ]
    }


def _round_from_json(i: int, e: object) -> RoundRecord:
    # a bool is no round or node id, even where it equals one
    if not isinstance(e, dict):
        raise ValueError(f"trace rounds[{i}] must be an object")
    if type(e.get("round")) is not int:
        raise ValueError(f"trace rounds[{i}]: round must be an int")
    spread = e.get("spread")
    if type(spread) is not list or any(type(v) is not int for v in spread):
        raise ValueError(f"trace rounds[{i}]: spread must be a list of ints")
    source = e.get("source", "")  # a missing source is no null
    if source is not None and type(source) is not int:
        raise ValueError(f"trace rounds[{i}]: source must be an int or null")
    return RoundRecord(e["round"], frozenset(spread), source)


def trace_from_json_obj(obj: dict) -> CoolingTrace:
    """The trace a JSON object holds, checked as a run: it has a round,
    entry ``i`` is round ``i + 1``, ids are nonnegative, round 1 spreads to
    no node, every round but the last has a source outside its own spread,
    and no node is cooled twice. A fault raises ``ValueError`` naming the
    first entry at fault."""
    if not isinstance(obj, dict) or not isinstance(obj.get("rounds"), list):
        raise ValueError('trace JSON must be an object with a "rounds" list')
    entries = obj["rounds"]
    if not entries:
        raise ValueError("trace has no round")
    cooled: set[int] = set()
    records = []
    for i, e in enumerate(entries):
        rec = _round_from_json(i, e)
        cools = [*rec.spread] if rec.source is None else [*rec.spread, rec.source]
        if rec.round != i + 1:
            fault = f"round {rec.round} where {i + 1} is due"
        elif cools and min(cools) < 0:
            fault = "node ids must be nonnegative"
        elif i == 0 and rec.spread:
            fault = "round 1 must spread to no node"
        elif rec.source is None and i < len(entries) - 1:
            fault = "only the last round may have no source"
        elif rec.source in rec.spread:
            fault = f"source {rec.source} lies in its own spread"
        elif not cooled.isdisjoint(cools):
            fault = f"node {min(cooled.intersection(cools))} is cooled a second time"
        else:
            fault = None
        if fault:
            raise ValueError(f"trace rounds[{i}]: {fault}")
        cooled.update(cools)
        records.append(rec)
    return CoolingTrace(tuple(records))


def write_trace(trace: CoolingTrace, path: str | Path) -> None:
    Path(path).write_text(json.dumps(trace_to_json_obj(trace), separators=(", ", ": ")) + "\n")


def read_trace(path: str | Path) -> CoolingTrace:
    return trace_from_json_obj(json.loads(Path(path).read_text()))
