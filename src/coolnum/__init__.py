"""Cooling and burning spread processes on graphs.

Library layout: :mod:`coolnum.graphs` (graph type and metrics),
:mod:`coolnum.generators` (families), :mod:`coolnum.ilt` (iterated local
transitivity), :mod:`coolnum.graph_io` (files), :mod:`coolnum.engine`
(process semantics), :mod:`coolnum.solver` (exact values),
:mod:`coolnum.bounds` (isoperimetric machinery), :mod:`coolnum.strategies`
(constructive strategies), :mod:`coolnum.corpus` (the fixed check graphs),
:mod:`coolnum.verify` (one check suite per paper claim), :mod:`coolnum.cli`
(command line).
"""

from .bounds import (
    BoundsReport,
    IsoProfile,
    IsoUpperBound,
    ProfileSizeError,
    bounds_report,
    grid_iso_profile,
    grid_iso_upper_bound,
    iso_profile_exact,
    iso_upper_bound,
    node_border,
)
from .engine import (
    CoolingTrace,
    InvalidSourceError,
    RoundRecord,
    SourcePolicy,
    read_trace,
    run_burning,
    run_cooling,
    spread_step,
    trace_from_json_obj,
    trace_to_json_obj,
    validate_sequence,
    write_trace,
)
from .generators import (
    GridCoord,
    gen_complete_caterpillar,
    gen_cycle,
    gen_grid,
    gen_path,
    gen_spider,
    grid_coord,
    grid_node,
    simplicial_cmp,
    simplicial_key,
    simplicial_order,
)
from .graph_io import export_dot, read_graph, write_graph
from .graphs import (
    UNREACHABLE,
    DisconnectedGraphError,
    Graph,
    GraphError,
    bfs_distances,
    build_graph,
    diameter,
    eccentricity,
)
from .ilt import IltGraph, ilt, ilt_t
from .solver import (
    GraphTooLargeError,
    SearchLimits,
    SearchResult,
    SearchStats,
    TimeBudgetExceededError,
    burning_number,
    cooling_number,
    max_sequence_length,
)
from .strategies import (
    ClosedForm,
    SpiderStrategyResult,
    StrategyError,
    caterpillar_strategy,
    closed_form,
    grid_cl_window,
    grid_simplicial_strategy,
    ilt_lift_sequence,
    ilt_path_strategy,
    path_diameter_strategy,
    spider_strategy,
)

__version__ = "0.1.0"
