"""Unsupervised change detection for bi-temporal LiDAR point clouds.

The earlier epoch is transported onto the later epoch's support with
entropic (optionally unbalanced) optimal transport, solved densely per
spatial chunk; signed vertical residuals between each later-epoch point and
its barycentric projection are thresholded into unchanged / new /
demolished classes.
"""

from .chunking import (
    ChunkingConfig,
    ChunkingError,
    ChunkPair,
    build_chunks,
    chunk_stats,
)
from .detection import (
    METHOD_BALANCED_OT,
    METHOD_NN_BASELINE,
    METHOD_UNBALANCED_OT,
    ChangeDetectionConfig,
    ChangeMap,
    ChunkDiagnostics,
    classify,
    detect_changes,
    merge_scores,
    pointwise_scores,
)
from .io import (
    CLASS_DEMOLISHED,
    CLASS_NEW,
    CLASS_UNCHANGED,
    PointCloud,
    PointCloudFormatError,
    read_ply,
    read_xyz,
    write_ply_scored,
    write_xyz,
)
from .metrics import Metrics, confusion, iou, sweep_scores
from .solver import (
    SolverConfig,
    SolverNumericalError,
    SolverResourceError,
    TransportPlan,
    barycentric_projection,
    cost_matrix,
    dense_solve_bytes,
    sinkhorn_balanced,
    sinkhorn_unbalanced,
)
from .synth import Building, SceneSpec, generate_pair, preset, preset_names

__version__ = "0.1.0"

__all__ = [
    "Building",
    "CLASS_DEMOLISHED",
    "CLASS_NEW",
    "CLASS_UNCHANGED",
    "ChangeDetectionConfig",
    "ChangeMap",
    "ChunkDiagnostics",
    "ChunkPair",
    "ChunkingConfig",
    "ChunkingError",
    "METHOD_BALANCED_OT",
    "METHOD_NN_BASELINE",
    "METHOD_UNBALANCED_OT",
    "Metrics",
    "PointCloud",
    "PointCloudFormatError",
    "SceneSpec",
    "SolverConfig",
    "SolverNumericalError",
    "SolverResourceError",
    "TransportPlan",
    "barycentric_projection",
    "build_chunks",
    "chunk_stats",
    "classify",
    "confusion",
    "cost_matrix",
    "dense_solve_bytes",
    "detect_changes",
    "generate_pair",
    "iou",
    "merge_scores",
    "pointwise_scores",
    "preset",
    "preset_names",
    "read_ply",
    "read_xyz",
    "sinkhorn_balanced",
    "sinkhorn_unbalanced",
    "sweep_scores",
    "write_ply_scored",
    "write_xyz",
]
