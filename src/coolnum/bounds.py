"""Closed-form and isoperimetric bounds on the cooling number.

The node-isoperimetric profile ``phi`` of a graph maps each size ``s`` to the
smallest possible border of an ``s``-node subset. Feeding the profile into
the recurrence ``x_1 = 1``, ``x_{i+1} = x_i + phi[x_i] + 1`` yields the
smallest index ``I`` with ``x_I >= n``, which upper-bounds the cooling number:
from any round boundary, one spread plus one mandatory source cools at least
``phi`` plus one nodes.

:func:`iso_profile_exact` computes ``phi`` over all ``2^n`` subsets at once:
each subset is one bit of a ``2^n``-bit integer, so every step is one
big-integer operation run in C. That is ``O(m + n log n)`` such operations,
about 0.8 ms at its cap of 16 nodes and 20-45 ms at 20 nodes
(Python 3.11 on a 2-core Xeon). The ``2^n``-bit subset planes depend only
on ``n`` and are cached per ``n``: about 0.26 MB at 16 nodes.

:func:`bounds_report` computes each part once. The recurrence reads
``phi`` only at the sizes its trajectory visits (at most 7 on the ``sweep``
graphs of up to 16 nodes), not at all ``n + 1``, and the diameter comes off
the hop balls its burning search has built; iFUB runs only above the
burning cap. On the 177 graphs of one ``sweep`` pass that
took the report from 27-30 to 14-15 ms, and profile plus recurrence from
11-12 to about 6 ms (same machine, best of 15 passes).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import AbstractSet, Callable, NamedTuple

from .generators import check_grid_side, gen_grid, simplicial_order
from .graphs import DisconnectedGraphError, Graph, GraphError, GraphTooLargeError, diameter

DEFAULT_PROFILE_CAP = 16


class ProfileSizeError(ValueError):
    """Exact profile enumeration refused; use a family-specific profile
    (e.g. :func:`grid_iso_profile`) for larger instances."""


def node_border(g: Graph, nodes: AbstractSet[int]) -> frozenset[int]:
    """Nodes outside ``nodes`` adjacent to at least one member of it."""
    out: set[int] = set()
    for v in nodes:
        out.update(g.adj[v])
    return frozenset(out - set(nodes))


class IsoProfile(NamedTuple):
    """The vector ``phi[s]`` for ``s = 0..n`` (``phi[0] = phi[n] = 0``)."""

    n: int
    phi: tuple[int, ...]

    def smoothness_violations(self) -> list[tuple[int, int]]:
        """All ``(x, y)`` with ``phi[x] - y > phi[x + y]``; empty for real graphs."""
        bad = []
        for x in range(1, self.n + 1):
            for y in range(0, self.n - x + 1):
                if self.phi[x] - y > self.phi[x + y]:
                    bad.append((x, y))
        return bad


def _count_planes(planes: list[int], width: int) -> list[int]:
    """Bit-sliced ripple-carry sum: bit ``s`` of plane ``j`` of the result is
    bit ``j`` of the number of ``planes`` with bit ``s`` set."""
    count = [0] * width
    for carry in planes:
        for j in range(width):
            if not carry:
                break
            count[j], carry = count[j] ^ carry, count[j] & carry
    return count


@cache
def _subset_planes(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``(member, by_size)`` over the ``2^n`` subsets of ``n`` nodes, one bit
    per subset: bit ``s`` of ``member[v]`` is set iff ``v`` is in subset
    ``s``, and bit ``s`` of ``by_size[k]`` iff ``s`` has ``k`` nodes."""
    full = (1 << (1 << n)) - 1
    nbytes = max(1, 1 << n >> 3)
    member = []
    for v in range(n):
        if v < 3:
            block = bytes([(0xAA, 0xCC, 0xF0)[v]])
        else:
            half = 1 << (v - 3)
            block = bytes(half) + b"\xff" * half
        member.append(int.from_bytes(block * (nbytes // len(block)), "little") & full)
    count = _count_planes(member, n.bit_length())
    by_size = []
    for k in range(n + 1):
        sel = full
        for j, plane in enumerate(count):
            sel &= plane if k >> j & 1 else ~plane
        by_size.append(sel)
    return tuple(member), tuple(by_size)


def _profile_lookup(g: Graph) -> Callable[[int], int]:
    """``phi_at(k)``, the exact ``phi[k]`` of ``g``, bit-sliced.

    Each subset is one bit position of a ``2^n``-bit integer. One OR per
    edge end gives ``border[v]``, the subsets whose border holds ``v``; a
    bit-sliced adder over those ``n`` planes gives every subset's border
    size as ``n.bit_length()`` count planes, each negated once here. A call
    reads the minimum count over the subsets of size ``k`` bit by bit from
    the top: keep the candidates with a 0 at bit ``j`` if there are any.
    Refuses graphs above ``DEFAULT_PROFILE_CAP`` nodes.
    """
    n = g.n
    if n > DEFAULT_PROFILE_CAP:
        raise ProfileSizeError(
            f"exact profile enumerates 2^{n} subsets; cap is {DEFAULT_PROFILE_CAP}. "
            "Use a family-specific profile such as grid_iso_profile."
        )
    member, by_size = _subset_planes(n)
    border = []
    for v, nbrs in enumerate(g.adj):
        reach = 0
        for u in nbrs:
            reach |= member[u]
        border.append(reach & ~member[v])
    count = _count_planes(border, n.bit_length())
    zeros = [(1 << j, ~count[j]) for j in reversed(range(len(count)))]

    def phi_at(k: int) -> int:
        sel, best = by_size[k], 0
        for weight, zero in zeros:
            low = sel & zero
            if low:
                sel = low
            else:
                best |= weight
        return best

    return phi_at


def iso_profile_exact(g: Graph) -> IsoProfile:
    """Exact profile over all ``2^n`` subsets at once: ``phi_at`` of
    :func:`_profile_lookup` at every size. That is ``O(m + n log n)``
    operations on ``2^n``-bit integers. Refuses graphs above
    ``DEFAULT_PROFILE_CAP`` nodes with :class:`ProfileSizeError`.
    """
    phi_at = _profile_lookup(g)
    return IsoProfile(g.n, tuple(map(phi_at, range(g.n + 1))))


def grid_iso_profile(n: int) -> IsoProfile:
    """Profile of the n x n grid via simplicial-order prefixes.

    Prefixes of the simplicial order realize the minimum border at every
    size, so tracking the border incrementally gives the whole profile in
    ``O(n^2)``.
    """
    g = gen_grid(n)
    order = simplicial_order(n)
    in_set = bytearray(g.n)
    in_border = bytearray(g.n)
    border = 0
    phi = [0] * (g.n + 1)
    for i, v in enumerate(order, start=1):
        if in_border[v]:
            in_border[v] = 0
            border -= 1
        in_set[v] = 1
        for w in g.adj[v]:
            if not in_set[w] and not in_border[w]:
                in_border[w] = 1
                border += 1
        phi[i] = border
    return IsoProfile(g.n, tuple(phi))


class IsoUpperBound(NamedTuple):
    """Recurrence-based upper bound with its trajectory ``x_1..x_I``."""

    value: int
    trajectory: tuple[int, ...]


def _iso_recurrence(n: int, phi: Callable[[int], int]) -> IsoUpperBound:
    """Smallest ``I`` with ``x_I >= n`` under ``x_{i+1} = x_i + phi(x_i) + 1``;
    ``phi`` is called only at the trajectory's sizes, in increasing order."""
    xs = [1]
    while xs[-1] < n:
        xs.append(xs[-1] + phi(xs[-1]) + 1)
    return IsoUpperBound(len(xs), tuple(xs))


def iso_upper_bound(profile: IsoProfile) -> IsoUpperBound:
    """Smallest ``I`` with ``x_I >= n`` under ``x_{i+1} = x_i + phi[x_i] + 1``."""
    return _iso_recurrence(profile.n, profile.phi.__getitem__)


def grid_iso_upper_bound(n: int) -> IsoUpperBound:
    """``iso_upper_bound(grid_iso_profile(n))`` without building the grid.

    A simplicial prefix of size ``x`` is every anti-diagonal before some
    ``s`` (coordinate sum) plus the first ``j`` cells of diagonal ``s``. Its
    border is the ``len_s - j`` other cells of diagonal ``s`` plus the cells
    of diagonal ``s + 1`` right of or below a chosen one: rows ``r0..r0+j``,
    clipped to that diagonal's rows. The recurrence asks for increasing
    sizes, so the diagonal only moves forward and the whole bound costs
    ``O(n)``.
    """
    check_grid_side(n)
    s, before = 2, 0  # diagonal holding cell x + 1; cells on earlier diagonals

    def phi(x: int) -> int:
        nonlocal s, before
        while True:
            length = min(n, s - 1) - max(1, s - n) + 1
            if x < before + length:
                break
            before += length
            s += 1
        j = x - before
        r0 = max(1, s - n)
        below = max(0, min(r0 + j, n, s) - max(r0, s + 1 - n) + 1) if j else 0
        return length - j + below

    return _iso_recurrence(n * n, phi)


# kept a dataclass, unlike the other records: perfbench/tests calls
# dataclasses.replace on it
@dataclass(frozen=True)
class BoundsReport:
    """Every bound on the cooling number we can compute for one graph."""

    n: int
    diameter: int
    order_upper: int
    diam_lower: int
    diam_upper: int
    iso_upper: int | None
    iso_trajectory: tuple[int, ...] | None
    burning_lower: int | None
    skipped: tuple[str, ...]

    def best_lower(self) -> int:
        lowers = [self.diam_lower]
        if self.burning_lower is not None:
            lowers.append(self.burning_lower)
        return max(lowers)

    def best_upper(self) -> int:
        uppers = [self.order_upper, self.diam_upper]
        if self.iso_upper is not None:
            uppers.append(self.iso_upper)
        return min(uppers)

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "diameter": self.diameter,
            "order_upper": self.order_upper,
            "diam_lower": self.diam_lower,
            "diam_upper": self.diam_upper,
            "iso_upper": self.iso_upper,
            "iso_trajectory": list(self.iso_trajectory) if self.iso_trajectory else None,
            "burning_lower": self.burning_lower,
            "skipped": list(self.skipped),
        }


def bounds_report(g: Graph) -> BoundsReport:
    """Assemble all computable bounds, listing the ones skipped for size.

    The recurrence reads the exact profile only at its trajectory's sizes.
    The burning search takes the solver's node cap (``COOLNUM_MAX_NODES`` or
    its default); a graph above it skips ``burning_lower``. The diameter
    ``d`` is read off the hop balls the burning search builds (each has
    radii ``0..d + 1``), or found by iFUB where the search is skipped.
    Raises ``GraphError`` on a graph with no node and
    ``DisconnectedGraphError`` on a disconnected one.
    """
    if g.n < 1:
        raise GraphError("bounds need at least one node")
    if not g.is_connected:
        raise DisconnectedGraphError("bounds need a connected graph")
    skipped: list[str] = []
    iso_value = None
    iso_traj = None
    if g.n <= DEFAULT_PROFILE_CAP:
        iso_value, iso_traj = _iso_recurrence(g.n, _profile_lookup(g))
    else:
        skipped.append("iso_upper")
    from .solver import SearchLimits, burning_number  # only the burning bound searches

    try:
        burn = burning_number(g, SearchLimits()).value
        d = len(g.balls[0]) - 2
    except GraphTooLargeError:
        burn = None
        d = diameter(g)
        skipped.append("burning_lower")
    return BoundsReport(
        n=g.n,
        diameter=d,
        order_upper=(g.n + 2) // 2,
        diam_lower=(d + 3) // 2,
        diam_upper=d + 1,
        iso_upper=iso_value,
        iso_trajectory=iso_traj,
        burning_lower=burn,
        skipped=tuple(skipped),
    )
