"""Light near-additive spanners for weighted graphs, with exact certification."""

from .errors import (
    DisconnectedGraphError,
    GenerationError,
    GraphFormatError,
    SamplingError,
    SpannerError,
)
from .generate import FAMILIES, generate_graph
from .graph import WeightedGraph
from .graphio import FORMATS, read_graph, write_graph
from .nets import DeltaNet, NetHierarchy, build_net_hierarchy, greedy_delta_net, max_level
from .spanner import (
    LevelSampling,
    Spanner,
    build_spanner,
    build_wmax_spanner,
    normalize,
    sample_levels,
    scale_index,
    spanner_from_json_dict,
)
from .trees import SltForest, SpanningTree, mst, slt_forest
from .verify import (
    LemmaSuiteReport,
    LightnessReport,
    NetReport,
    SltReport,
    StretchReport,
    additive_stretch_constant,
    delta_parameter,
    verify_lemma_suite,
    verify_lightness,
    verify_net,
    verify_slt,
    verify_stretch,
)

__version__ = "0.1.0"

__all__ = [
    "DeltaNet",
    "DisconnectedGraphError",
    "FAMILIES",
    "FORMATS",
    "GenerationError",
    "GraphFormatError",
    "LemmaSuiteReport",
    "LevelSampling",
    "LightnessReport",
    "NetHierarchy",
    "NetReport",
    "SamplingError",
    "SltForest",
    "SltReport",
    "SpannerError",
    "Spanner",
    "SpanningTree",
    "StretchReport",
    "WeightedGraph",
    "additive_stretch_constant",
    "build_net_hierarchy",
    "build_spanner",
    "build_wmax_spanner",
    "delta_parameter",
    "generate_graph",
    "greedy_delta_net",
    "max_level",
    "mst",
    "normalize",
    "read_graph",
    "sample_levels",
    "scale_index",
    "slt_forest",
    "spanner_from_json_dict",
    "verify_lemma_suite",
    "verify_lightness",
    "verify_net",
    "verify_slt",
    "verify_stretch",
    "write_graph",
]
