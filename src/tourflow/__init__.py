"""Tourism mobility graphs: construction, structure, motifs, comparison.

The package builds weighted directed country graphs from check-in logs
or aggregated flow matrices, extracts Top-k In/Out subgraphs, and
provides structural metrics, hierarchical clustering, triad/motif
analysis against degree-preserving null models, regional aggregation,
and per-country cross-dataset correlation.  The ``tourflow`` command
wires the same functions into a batch pipeline.
"""

from .census import (
    CONNECTED_TRIADS,
    TRIAD_NAMES,
    MotifZScores,
    TriadCensus,
    motif_zscores,
    rewire,
    triad_census,
    z_percent_diff,
)
from .clustering import (
    ClusterAssignment,
    DistanceMatrix,
    average_linkage,
    average_linkage_merges,
    distance_matrix,
    filter_singletons,
)
from .compare import (
    AveragedDistances,
    CorrelationReport,
    FeatureMatrix,
    avg_distance_matrix,
    country_correlations,
    feature_matrix,
    standardize,
)
from .errors import ConfigError, ConvergenceError, ParseError, TourflowError
from .graph import (
    MobilityGraph,
    export_graph,
    topk_in,
    topk_out,
)
from .ingest import (
    CheckinTable,
    build_mobility_graph,
    filter_countries,
    infer_homes,
    parse_checkins,
    parse_flow_matrix,
)
from .metrics import (
    CentralityTable,
    ComponentAssignment,
    DyadCensus,
    StructuralReport,
    betweenness,
    centrality_table,
    degree_centralization,
    dyad_census,
    pagerank,
    scc,
    structural_report,
)
from .regional import (
    RegionalFlowMatrix,
    RegionMap,
    mean_abs_share_diff,
    regional_flows,
    share_diff,
    to_shares,
)
from .seeds import derive_seed

__version__ = "0.1.0"

__all__ = [
    "CONNECTED_TRIADS",
    "TRIAD_NAMES",
    "AveragedDistances",
    "CentralityTable",
    "CheckinTable",
    "ClusterAssignment",
    "ComponentAssignment",
    "ConfigError",
    "ConvergenceError",
    "CorrelationReport",
    "DistanceMatrix",
    "DyadCensus",
    "FeatureMatrix",
    "MobilityGraph",
    "MotifZScores",
    "ParseError",
    "RegionMap",
    "RegionalFlowMatrix",
    "StructuralReport",
    "TourflowError",
    "TriadCensus",
    "avg_distance_matrix",
    "average_linkage",
    "average_linkage_merges",
    "betweenness",
    "build_mobility_graph",
    "centrality_table",
    "country_correlations",
    "degree_centralization",
    "derive_seed",
    "distance_matrix",
    "dyad_census",
    "export_graph",
    "feature_matrix",
    "filter_countries",
    "filter_singletons",
    "infer_homes",
    "mean_abs_share_diff",
    "motif_zscores",
    "pagerank",
    "parse_checkins",
    "parse_flow_matrix",
    "regional_flows",
    "rewire",
    "scc",
    "share_diff",
    "standardize",
    "structural_report",
    "to_shares",
    "topk_in",
    "topk_out",
    "triad_census",
    "z_percent_diff",
]
