"""OT-based change scoring, three-class labeling, and the cloud pipeline.

The earlier epoch is projected onto the later epoch's support through a
transport plan; each later-epoch point is then scored by the signed
vertical residual between itself and its projection. Positive residuals
mean structure gained (new), negative mean structure lost (demolished).
Target points that no source mass reaches carry a ``+inf`` score: under
mass creation/destruction semantics they are maximal evidence of new
structure. Chunks return scores only; the threshold is applied once, to
the merged whole-cloud scores.
"""

from __future__ import annotations

import logging
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .chunking import ChunkingConfig, ChunkPair, build_chunks
from .io import CLASS_DEMOLISHED, CLASS_NEW, CLASS_UNCHANGED, PointCloud
from .solver import (
    SolverConfig,
    barycentric_projection,
    cost_matrix,
    dense_solve_bytes,
    sinkhorn_balanced,
    sinkhorn_unbalanced,
)

logger = logging.getLogger(__name__)

METHOD_UNBALANCED_OT = "uot"
METHOD_BALANCED_OT = "ot"
METHOD_NN_BASELINE = "nn"
METHODS = (METHOD_UNBALANCED_OT, METHOD_BALANCED_OT, METHOD_NN_BASELINE)

UNREACHED_SCORE = np.inf


@dataclass(frozen=True)
class ChangeDetectionConfig:
    """Everything one ``detect_changes`` run needs.

    ``tau`` (meters) thresholds the signed score into classes; ``workers``
    bounds chunk-level parallelism (default: all cores). Chunk results are
    independent of the worker count.
    """

    solver: SolverConfig = field(default_factory=SolverConfig)
    chunking: ChunkingConfig = field(default_factory=ChunkingConfig)
    tau: float = 2.0
    method: str = METHOD_UNBALANCED_OT
    workers: int | None = None

    def __post_init__(self) -> None:
        _check_tau(self.tau)
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass(frozen=True, kw_only=True)
class ChunkDiagnostics:
    """One chunk's solve. ``epsilon`` (resolved), ``gap`` (the last
    stopping gap), ``omega`` (the over-relaxation factor kept),
    ``mass_change`` (the source mass the plan created or destroyed,
    ``||P 1 - mu0||_1`` for a chunk's total mass of 1) and
    ``peak_bytes_estimate`` (of the dense solve) come from the transport
    plan. A chunk without one keeps the defaults: no sweeps, converged, and
    None for those five; ``gap`` is also None when it is not finite (an
    unbalanced solve stopped after its first sweep)."""

    chunk_id: int
    n0: int
    n1: int
    iterations: int = 0
    converged: bool = True
    wall_ms: float
    peak_bytes_estimate: int | None = None
    epsilon: float | None = None
    gap: float | None = None
    omega: float | None = None
    mass_change: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ChangeMap:
    """Per-target-point change result for a whole cloud.

    ``scores`` are signed vertical residuals in meters (``+inf`` sentinel
    for unreached points); ``classes`` follow the score/tau rule;
    ``diagnostics`` hold one record per chunk, in chunk-id order.
    """

    scores: np.ndarray
    classes: np.ndarray
    diagnostics: list[ChunkDiagnostics]

    def __post_init__(self) -> None:
        if len(self.scores) != len(self.classes):
            raise ValueError("scores and classes lengths differ")

    def __len__(self) -> int:
        return len(self.scores)


def merge_scores(parts, n1: int) -> np.ndarray:
    """Reassemble per-chunk target scores into the whole-cloud score array.

    ``parts`` is an iterable of ``(ChunkPair, scores)`` pairs whose target
    indices must partition ``0..n1-1`` exactly.

    Raises:
        ValueError: duplicated, missing or out-of-range target index, or
            a per-chunk array whose length does not match the chunk.
    """
    scores = np.empty(n1, dtype=np.float64)
    seen = np.zeros(n1, dtype=bool)
    for chunk, part_scores in parts:
        tgt = chunk.target_indices
        if len(part_scores) != len(tgt):
            raise ValueError(
                f"chunk {chunk.chunk_id}: result length does not match its "
                f"{len(tgt)} target points"
            )
        if tgt.size and tgt.max() >= n1:
            raise ValueError(
                f"chunk {chunk.chunk_id}: target index {tgt.max()} >= n1={n1}"
            )
        if tgt.size and tgt.min() < 0:
            raise ValueError(f"chunk {chunk.chunk_id}: target index {tgt.min()} < 0")
        dup = seen[tgt]
        if dup.any():
            raise ValueError(
                f"target index {tgt[dup][0]} covered by more than one chunk"
            )
        seen[tgt] = True
        scores[tgt] = part_scores
    if not seen.all():
        raise ValueError(
            f"target index {np.flatnonzero(~seen)[0]} not covered by any chunk"
        )
    return scores


def pointwise_scores(projected: np.ndarray, X1: np.ndarray) -> np.ndarray:
    """Signed vertical residual of each target point to its barycentric
    projection.

    Rows of ``projected`` that are non-finite (the unreached sentinel of
    :func:`~otcd.solver.barycentric_projection`) score ``+inf``.
    """
    projected = np.asarray(projected, dtype=np.float64)
    X1 = np.asarray(X1, dtype=np.float64)
    if projected.shape != X1.shape:
        raise ValueError(
            f"projection {projected.shape} and targets {X1.shape} do not align"
        )
    scores = X1[:, 2] - projected[:, 2]
    scores[~np.isfinite(projected).all(axis=1)] = UNREACHED_SCORE
    return scores


def _check_tau(tau: float) -> None:
    # a NaN tau compares false both ways and would label every point
    # unchanged; an infinite one would leave the +inf sentinel unchanged
    if not 0 < tau < np.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")


def classify(scores: np.ndarray, tau: float) -> np.ndarray:
    """Threshold signed scores: ``> tau`` new, ``< -tau`` demolished, else
    unchanged. Total function; the ``+inf`` sentinel lands in class new,
    and a score of exactly ``tau`` stays unchanged. ``tau`` must be
    positive and finite."""
    _check_tau(tau)
    scores = np.asarray(scores)
    classes = np.full(scores.shape, CLASS_UNCHANGED, dtype=np.int64)
    classes[scores > tau] = CLASS_NEW
    classes[scores < -tau] = CLASS_DEMOLISHED
    return classes


def _nn_chunk_scores(X0c: np.ndarray, X1c: np.ndarray) -> np.ndarray:
    # imported by detect_changes before any chunk starts; only this baseline
    # needs scipy.spatial
    from scipy.spatial import cKDTree

    _, idx = cKDTree(X0c).query(X1c, k=1)
    return X1c[:, 2] - X0c[idx, 2]


def _solve_chunk(
    chunk: ChunkPair,
    pc0: PointCloud,
    pc1: PointCloud,
    cfg: ChangeDetectionConfig,
) -> tuple[np.ndarray, ChunkDiagnostics]:
    start = time.perf_counter()
    X0c = pc0.xyz[chunk.source_indices]
    X1c = pc1.xyz[chunk.target_indices]
    n0, n1 = len(X0c), len(X1c)
    solve = {}
    if chunk.source_empty:
        # nothing can reach these targets; maximal new-structure evidence
        scores = np.full(n1, UNREACHED_SCORE)
    elif cfg.method == METHOD_NN_BASELINE:
        scores = _nn_chunk_scores(X0c, X1c)
    else:
        C = cost_matrix(X0c, X1c)
        if cfg.method == METHOD_UNBALANCED_OT:
            plan = sinkhorn_unbalanced(C, cfg.solver, overwrite_cost=True)
        else:
            plan = sinkhorn_balanced(C, cfg.solver, overwrite_cost=True)
        projected, _ = barycentric_projection(plan, X0c)
        scores = pointwise_scores(projected, X1c)
        solve = dict(
            iterations=plan.iterations,
            converged=plan.converged,
            peak_bytes_estimate=dense_solve_bytes(n0, n1),
            epsilon=plan.epsilon,
            gap=plan.gap if math.isfinite(plan.gap) else None,
            omega=plan.omega,
            mass_change=float(np.abs(plan.row_marginal - 1.0 / n0).sum()),
        )
    return scores, ChunkDiagnostics(
        chunk_id=chunk.chunk_id,
        n0=n0,
        n1=n1,
        wall_ms=(time.perf_counter() - start) * 1e3,
        **solve,
    )


def detect_changes(
    pc0: PointCloud, pc1: PointCloud, cfg: ChangeDetectionConfig
) -> ChangeMap:
    """Run the full pipeline: chunk, solve per chunk, project, score,
    merge, classify.

    Chunks run on one thread pool of ``min(workers, number of chunks)``
    threads, a single thread included; each chunk is self-contained, so the
    result is independent of the worker count and scheduling order. A chunk
    whose solver did not converge is still scored from the last iterate and
    reported in the diagnostics; strictness is the caller's policy.
    """
    chunks = build_chunks(pc0, pc1, cfg.chunking)
    if cfg.method == METHOD_NN_BASELINE:
        # scipy.spatial takes longer to import than most runs take to solve;
        # imported on the first worker thread, it would stall the other
        # workers on the import lock and count in that one chunk's wall_ms
        import scipy.spatial  # noqa: F401
    workers = min(cfg.workers or os.cpu_count() or 1, len(chunks))
    # pool.map yields in submission order, so results stay in chunk order
    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(lambda c: _solve_chunk(c, pc0, pc1, cfg), chunks))
    part_scores, diagnostics = zip(*results)
    scores = merge_scores(zip(chunks, part_scores), len(pc1))
    not_converged = sum(1 for d in diagnostics if not d.converged)
    if not_converged:
        logger.warning(
            "%d of %d chunks did not converge within max_iter; scored from "
            "the last iterate",
            not_converged,
            len(diagnostics),
        )
    return ChangeMap(scores, classify(scores, cfg.tau), list(diagnostics))
