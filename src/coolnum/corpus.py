"""Deterministic test corpus: every generator family up to 12 nodes plus
seeded random connected graphs.

The random graphs are built as a random spanning tree plus extra edges, so
connectivity never needs rejection sampling and the corpus is reproducible
across platforms.
"""

from __future__ import annotations

import random
from typing import Iterator

from .generators import (
    gen_complete_caterpillar,
    gen_cycle,
    gen_grid,
    gen_path,
    gen_spider,
)
from .graphs import Graph, build_graph

MAX_CORPUS_NODES = 12
DEFAULT_RANDOM_COUNT = 170
SEED = 20240803


def random_connected_graph(rng: random.Random, n: int, extra_edge_prob: float) -> Graph:
    """Random spanning tree over a shuffled node order, plus random extras."""
    order = list(range(n))
    rng.shuffle(order)
    edges = []
    for i in range(1, n):
        edges.append((order[i], order[rng.randrange(i)]))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < extra_edge_prob:
                edges.append((u, v))
    return build_graph(n, edges)


def _family_members() -> Iterator[tuple[str, Graph]]:
    for n in range(1, MAX_CORPUS_NODES + 1):
        yield f"path-{n}", gen_path(n)
    for n in range(3, MAX_CORPUS_NODES + 1):
        yield f"cycle-{n}", gen_cycle(n)
    for n in (2, 3):  # 4x4 already exceeds 12 nodes
        yield f"grid-{n}", gen_grid(n)
    for d in range(3, 8):
        yield f"caterpillar-{d}", gen_complete_caterpillar(d)
    for legs in range(2, MAX_CORPUS_NODES):
        for r in range(1, MAX_CORPUS_NODES):
            if 1 + legs * r <= MAX_CORPUS_NODES:
                yield f"spider-{legs}x{r}", gen_spider(legs, r)


def build_corpus(random_count: int = DEFAULT_RANDOM_COUNT) -> list[tuple[str, Graph]]:
    """Named corpus graphs; all connected, all within 12 nodes."""
    out = list(_family_members())
    rng = random.Random(SEED)
    for i in range(random_count):
        n = rng.randrange(4, MAX_CORPUS_NODES + 1)
        p = rng.choice((0.05, 0.1, 0.2, 0.35, 0.5))
        out.append((f"random-{i}-n{n}", random_connected_graph(rng, n, p)))
    return out
