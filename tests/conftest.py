from __future__ import annotations

from functools import lru_cache

import pytest

from coolnum.bounds import (
    DEFAULT_PROFILE_CAP,
    BoundsReport,
    IsoProfile,
    iso_profile_exact,
    iso_upper_bound,
)
from coolnum.corpus import build_corpus
from coolnum.engine import Script, run_cooling
from coolnum.graphs import Graph, GraphTooLargeError, diameter
from coolnum.solver import burning_number, cooling_number


@lru_cache(maxsize=None)
def exhaustive_b_cl(g: Graph) -> tuple[int, int, int]:
    """``(b, CL, S)`` of a connected graph by trying every mandatory-source run.

    Written from the README's definition, independently of the solver: a
    state is the cooled set (a bitmask) at the end of a round. Every later
    round spreads once and then, unless every node is cooled, adds one
    uncooled node as a source. ``b`` is the fewest rounds over all runs,
    ``CL`` the most, and ``S`` the most sources any run picks. States are
    shared between runs, so each reachable cooled set is expanded once.
    """
    n = g.n
    full = (1 << n) - 1
    closed = [1 << v | sum(1 << w for w in g.adj[v]) for v in range(n)]
    # cooled set -> (fewest rounds, most rounds, most sources) to come
    rest: dict[int, tuple[int, int, int]] = {}

    def rest_after(cooled: int) -> tuple[int, int, int]:
        if cooled == full:
            return (0, 0, 0)
        if cooled not in rest:
            spread = 0
            for v in range(n):
                if cooled >> v & 1:
                    spread |= closed[v]
            if spread == full:
                rest[cooled] = (1, 1, 0)  # a last round of spread, no source
            else:
                outcomes = [rest_after(spread | 1 << v) for v in range(n) if not spread >> v & 1]
                rest[cooled] = (1 + min(f for f, _, _ in outcomes),
                                1 + max(m for _, m, _ in outcomes),
                                1 + max(s for _, _, s in outcomes))
        return rest[cooled]

    firsts = [rest_after(1 << v) for v in range(n)]
    return (1 + min(f for f, _, _ in firsts), 1 + max(m for _, m, _ in firsts),
            1 + max(s for _, _, s in firsts))


def first_optimal_sequence(g: Graph, sources: bool) -> tuple[int, list[int]]:
    """The most rounds (or, with ``sources``, the most sources) over every
    mandatory-source run of ``g``, and the lexicographically first source
    sequence of a run that reaches it.

    Written from the README's definition, independently of the solver: it
    lists every run, a source sequence in which each round after the first
    spreads once and then, unless every node is cooled, picks one uncooled
    node, and compares the optimal ones as lists.
    """
    n = g.n
    full = (1 << n) - 1
    closed = [1 << v | sum(1 << w for w in g.adj[v]) for v in range(n)]
    runs: list[tuple[int, list[int]]] = []  # (round count, source sequence)

    def play(cooled: int, rounds: int, seq: list[int]) -> None:
        if cooled == full:
            runs.append((rounds, seq))
            return
        spread = 0
        for v in range(n):
            if cooled >> v & 1:
                spread |= closed[v]
        if spread == full:
            runs.append((rounds + 1, seq))  # a last round of spread, no source
            return
        for v in range(n):
            if not spread >> v & 1:
                play(spread | 1 << v, rounds + 1, seq + [v])

    for v in range(n):
        play(1 << v, 1, [v])
    scored = [(len(seq) if sources else rounds, seq) for rounds, seq in runs]
    best = max(score for score, _ in scored)
    return best, min(seq for score, seq in scored if score == best)


def unpruned_burning(g: Graph) -> tuple[int, list[int]]:
    """``b(G)`` and the witness sources of the unpruned ball-cover search.

    This is the search ``burning_number`` ran before its capacity bound,
    kept as that bound's reference. It deepens over the round count ``k``
    from 1; for each ``k`` a DFS covers the lowest uncovered node by every
    unused radius, the largest first, and every center within that radius
    of it, scanned in id order over the distance table, with a cache of the
    ``(covered, radii)`` states that failed. The first cover replays through
    the engine with the smallest unburned node standing in for a planned
    center that is already burned, as ``burning_number``'s does.
    """
    n = g.n
    full = (1 << n) - 1
    dist = g.distances
    balls = g.balls
    for k in range(1, n + 1):
        failed: set[tuple[int, tuple[int, ...]]] = set()

        def cover(covered: int, radii: tuple[int, ...]) -> list[tuple[int, int]] | None:
            if covered == full:
                return []
            if not radii or (covered, radii) in failed:
                return None
            rem = full ^ covered
            u = (rem & -rem).bit_length() - 1
            for i, r in enumerate(radii):
                rest = radii[:i] + radii[i + 1:]
                for c in range(n):
                    if dist[c][u] <= r:
                        sub = cover(covered | balls[c][r], rest)
                        if sub is not None:
                            return [(r, c)] + sub
            failed.add((covered, radii))
            return None

        assignment = cover(0, tuple(range(k - 1, -1, -1)))
        if assignment is not None:
            planned = [c for _, c in sorted(assignment, key=lambda rc: -rc[0])]
            return k, list(run_cooling(g, Script((c, *range(n)) for c in planned)).sources)
    raise AssertionError("every connected graph burns within n rounds")


def within_by_scan(g: Graph, mask: int, r: int) -> bool:
    """Whether every node of ``g`` lies within ``r`` hops of the set ``mask``.

    The per-node scan the cooling search ran for its eccentricity bound
    before it ORed ball unions, kept as that test's reference: each node
    outside ``mask`` must have a member of ``mask`` in its radius-``r`` ball.
    """
    balls = g.balls
    rem = ((1 << g.n) - 1) ^ mask
    while rem:
        low = rem & -rem
        if not balls[low.bit_length() - 1][r] & mask:
            return False
        rem ^= low
    return True


def subset_loop_profile(g: Graph) -> IsoProfile:
    """Exact isoperimetric profile by a Python loop over all ``2^n`` subsets.

    This is the enumeration ``iso_profile_exact`` ran before it was
    bit-sliced, kept as its reference. Subsets are visited in increasing
    order, so each one's neighbourhood is its lowest member's neighbours
    joined with the neighbourhood of the subset without that member.
    """
    n = g.n
    masks = g.neighbor_masks
    size = 1 << n
    neigh = [0] * size  # union of neighborhoods over members, by subset
    best = [n + 1] * (n + 1)
    best[0] = 0
    for s in range(1, size):
        low = s & -s
        nb = neigh[s ^ low] | masks[low.bit_length() - 1]
        neigh[s] = nb
        b = (nb & ~s).bit_count()
        k = s.bit_count()
        if b < best[k]:
            best[k] = b
    return IsoProfile(n, tuple(best))


def composed_report(g: Graph) -> BoundsReport:
    """The bounds report of a connected graph assembled from the public calls
    it stands for: iFUB ``diameter``, ``iso_upper_bound`` on the whole exact
    profile, and ``burning_number``'s value, each part skipped where its cap
    says so (the profile cap, and the solver's cap for burning)."""
    d = diameter(g)
    skipped = []
    iso = None
    if g.n <= DEFAULT_PROFILE_CAP:
        iso = iso_upper_bound(iso_profile_exact(g))
    else:
        skipped.append("iso_upper")
    try:
        burn = burning_number(g).value
    except GraphTooLargeError:
        burn = None
        skipped.append("burning_lower")
    return BoundsReport(
        n=g.n,
        diameter=d,
        order_upper=(g.n + 2) // 2,
        diam_lower=(d + 3) // 2,
        diam_upper=d + 1,
        iso_upper=None if iso is None else iso.value,
        iso_trajectory=None if iso is None else iso.trajectory,
        burning_lower=burn,
        skipped=tuple(skipped),
    )


@pytest.fixture(scope="session")
def loop_profile():
    """The solver-free profile enumeration, :func:`subset_loop_profile`."""
    return subset_loop_profile


@pytest.fixture(scope="session")
def oracle():
    """The solver-free ``(b, CL, S)`` search, :func:`exhaustive_b_cl`."""
    return exhaustive_b_cl


@pytest.fixture(scope="session")
def first_optimal():
    """The solver-free run enumeration, :func:`first_optimal_sequence`."""
    return first_optimal_sequence


@pytest.fixture(scope="session")
def composed():
    """The bounds report from its parts, :func:`composed_report`."""
    return composed_report


@pytest.fixture(scope="session")
def unpruned_burn():
    """The burning search without its capacity bound, :func:`unpruned_burning`."""
    return unpruned_burning


@pytest.fixture(scope="session")
def within_scan():
    """The per-node eccentricity scan, :func:`within_by_scan`."""
    return within_by_scan


@pytest.fixture(scope="session")
def corpus():
    """Named corpus graphs (families up to 12 nodes plus seeded randoms)."""
    return build_corpus()


@pytest.fixture(scope="session")
def corpus_with_cl(corpus):
    """Corpus entries together with their exact cooling results."""
    return [(name, g, cooling_number(g)) for name, g in corpus]
