"""Cooling and burning spread processes on graphs.

Library layout: :mod:`coolnum.graphs` (graph type, metrics and the errors
the CLI maps to exit codes), :mod:`coolnum.generators` (families),
:mod:`coolnum.ilt` (iterated local transitivity), :mod:`coolnum.graph_io`
(files), :mod:`coolnum.engine` (process semantics), :mod:`coolnum.solver`
(exact values), :mod:`coolnum.bounds` (isoperimetric machinery),
:mod:`coolnum.strategies` (constructive strategies), :mod:`coolnum.corpus`
(the fixed check graphs), :mod:`coolnum.verify` (one check suite per paper
claim), :mod:`coolnum.cli` (command line).

``import coolnum`` loads none of them. Each public name is imported from its
home module on first use (PEP 562), so a caller, and each CLI process, pays
only for the layers it touches.
"""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

# public name -> the module that defines it
_HOMES = {
    **dict.fromkeys((
        "BoundsReport",
        "IsoProfile",
        "IsoUpperBound",
        "ProfileSizeError",
        "bounds_report",
        "grid_iso_profile",
        "grid_iso_upper_bound",
        "iso_profile_exact",
        "iso_upper_bound",
        "node_border",
    ), "bounds"),
    **dict.fromkeys((
        "CoolingTrace",
        "InvalidSourceError",
        "RoundRecord",
        "SourcePolicy",
        "read_trace",
        "run_burning",
        "run_cooling",
        "spread_step",
        "trace_from_json_obj",
        "trace_to_json_obj",
        "validate_sequence",
        "write_trace",
    ), "engine"),
    **dict.fromkeys((
        "GridCoord",
        "gen_complete_caterpillar",
        "gen_cycle",
        "gen_grid",
        "gen_path",
        "gen_spider",
        "grid_coord",
        "grid_node",
        "simplicial_cmp",
        "simplicial_key",
        "simplicial_order",
    ), "generators"),
    **dict.fromkeys(("export_dot", "read_graph", "write_graph"), "graph_io"),
    **dict.fromkeys((
        "UNREACHABLE",
        "DisconnectedGraphError",
        "Graph",
        "GraphError",
        "GraphTooLargeError",
        "StrategyError",
        "TimeBudgetExceededError",
        "bfs_distances",
        "build_graph",
        "diameter",
        "eccentricity",
    ), "graphs"),
    **dict.fromkeys(("IltGraph", "ilt", "ilt_t"), "ilt"),
    **dict.fromkeys((
        "SearchLimits",
        "SearchResult",
        "SearchStats",
        "burning_number",
        "cooling_number",
        "max_sequence_length",
    ), "solver"),
    **dict.fromkeys((
        "ClosedForm",
        "SpiderStrategyResult",
        "caterpillar_strategy",
        "closed_form",
        "grid_cl_window",
        "grid_simplicial_strategy",
        "ilt_lift_sequence",
        "ilt_path_strategy",
        "path_diameter_strategy",
        "spider_strategy",
    ), "strategies"),
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{home}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Namespace(ModuleType):
    def __setattr__(self, name: str, value) -> None:
        # the import system binds each submodule it loads on the package; the
        # submodule ilt must not shadow the public function ilt
        if not (isinstance(value, ModuleType) and name in _HOMES):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Namespace
