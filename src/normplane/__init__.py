"""Spanning trees, furthest-neighbor graphs and min-max 2-clusterings of
planar point sets under arbitrary norms (Euclidean, Lp, polygonal gauges)."""

from .checks import CheckResult, run_checks
from .clustering import (
    Bipartition,
    Line,
    diameter,
    line_through,
    stabbing_line,
    two_clustering,
    two_clustering_bruteforce,
)
from .errors import (
    BudgetExceeded,
    DegenerateInput,
    DegenerateSegment,
    DuplicatePoints,
    InvalidNorm,
    IoError,
    NormPlaneError,
    NotStrictlyConvex,
    ParseError,
    StructureViolation,
    TiesPresent,
    TooLarge,
    ZeroVector,
)
from .fng import (
    FNGraph,
    PointSet,
    build_fng,
    detect_ties,
    order_components,
    pairwise_distances,
)
from .geometry import (
    CCW,
    COLLINEAR,
    CW,
    HullIndex,
    convex_hull,
    orientation,
    segments_properly_intersect,
)
from .mxst import (
    ConnectingEdgeReport,
    SpanningTree,
    mxst_bruteforce,
    mxst_mpsy,
)
from .norms import (
    BisectorSample,
    NormSpec,
    birkhoff_orthogonal,
    bisector_point,
    distance,
    euclidean,
    evaluate_norm,
    is_strictly_convex,
    l1,
    linf,
    lp,
    norm_many,
    parse_norm,
    polygonal,
    sample_bisector,
)
from .perturb import PerturbReport, min_distance_gap, perturb_distinct
from .svg import emit_svg

__version__ = "0.1.0"

__all__ = [
    "BisectorSample", "Bipartition", "BudgetExceeded", "CCW", "COLLINEAR",
    "CW", "CheckResult", "ConnectingEdgeReport", "DegenerateInput",
    "DegenerateSegment", "DuplicatePoints", "FNGraph", "HullIndex",
    "InvalidNorm", "IoError", "Line", "NormPlaneError", "NormSpec",
    "NotStrictlyConvex", "ParseError", "PerturbReport", "PointSet",
    "SpanningTree", "StructureViolation", "TiesPresent", "TooLarge",
    "ZeroVector", "birkhoff_orthogonal", "bisector_point", "build_fng",
    "convex_hull", "detect_ties", "diameter", "distance", "emit_svg",
    "euclidean", "evaluate_norm", "is_strictly_convex", "l1", "linf",
    "line_through", "lp", "min_distance_gap", "mxst_bruteforce",
    "mxst_mpsy", "norm_many", "orientation", "order_components",
    "pairwise_distances", "parse_norm", "perturb_distinct", "polygonal",
    "run_checks", "sample_bisector", "segments_properly_intersect",
    "stabbing_line", "two_clustering", "two_clustering_bruteforce",
]
