"""Graph files (JSON) and DOT export.

File format: ``{"n": <int>, "edges": [[u, v], ...]}`` with 0-based ids.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

from .graphs import Graph, GraphError, build_graph


def read_graph(path: str | Path) -> Graph:
    """Load a graph file, warning about and collapsing repeated edges."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        # a file nested too deeply for the parser is no graph file either
        raise GraphError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict) or "n" not in data or "edges" not in data:
        raise GraphError(f'{path}: expected an object with "n" and "edges"')
    n = data["n"]
    raw = data["edges"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise GraphError(f'{path}: "n" must be an integer')
    if not isinstance(raw, list):
        raise GraphError(f'{path}: "edges" must be a list of pairs')
    for item in raw:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in item)
        ):
            raise GraphError(f"{path}: malformed edge entry {item!r}")
    dupes = len(raw) - len({(min(u, v), max(u, v)) for u, v in raw})
    if dupes:
        warnings.warn(f"{path}: dropped {dupes} duplicate edge(s)", stacklevel=2)
    return build_graph(n, raw)  # which collapses the duplicates


def write_graph(g: Graph, path: str | Path) -> None:
    """Write the canonical file for ``g``: sorted edge list, one edge per pair."""
    obj = {"n": g.n, "edges": [[u, v] for u, v in g.edges()]}
    Path(path).write_text(json.dumps(obj, separators=(", ", ": ")) + "\n")


def export_dot(g: Graph, path: str | Path, *, grid_side: int | None = None) -> None:
    """Write an undirected DOT file with node ids as labels.

    When ``grid_side`` is given, nodes get ``pos`` attributes from their grid
    coordinates so layout tools can draw the lattice.
    """
    from .generators import grid_coord

    lines = ["graph G {"]
    for v in range(g.n):
        if grid_side is not None:
            row, col = grid_coord(v, grid_side)
            lines.append(f'  {v} [pos="{col},{-row}!"];')
        else:
            lines.append(f"  {v};")
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    Path(path).write_text("\n".join(lines) + "\n")
