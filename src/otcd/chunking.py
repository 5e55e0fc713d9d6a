"""Quadtree splitting of a bi-temporal pair into co-located spatial chunks.

Dense OT is quadratic in chunk size, so a cloud pair is recursively split
over the joint XY bounding box: a cell divides into 4 equal quadrants at its
midpoint whenever either epoch's point count exceeds the cap. Airborne
scenes are thin in z, so the tree is 2D. Later-epoch (target) points
partition exactly across chunks; earlier-epoch (source) points partition too
unless a positive halo margin lets border mass participate in neighboring
chunks.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .io import BoundingBox, PointCloud

logger = logging.getLogger(__name__)

# beyond this depth the cell extent is below float64 resolution for any
# realistic coordinate range; treated as a stalled split
_MAX_DEPTH = 96


class ChunkingError(ValueError):
    """The cloud pair cannot be split into chunks: an epoch is empty, or
    coincident points exceed the configured point cap."""


@dataclass(frozen=True)
class ChunkingConfig:
    """``point_cap`` bounds both epochs' per-chunk counts; ``halo_margin``
    (meters) expands each chunk's source-selection region in XY."""

    point_cap: int = 30_000
    halo_margin: float = 0.0

    def __post_init__(self) -> None:
        if self.point_cap < 1:
            raise ValueError(f"point_cap must be >= 1, got {self.point_cap}")
        if self.halo_margin < 0:
            raise ValueError(f"halo_margin must be >= 0, got {self.halo_margin}")


@dataclass(frozen=True)
class ChunkPair:
    """Co-located index subsets of the two epochs, the unit of OT work."""

    source_indices: np.ndarray
    target_indices: np.ndarray
    region: BoundingBox
    chunk_id: int

    @property
    def source_empty(self) -> bool:
        """True when no earlier-epoch point falls in this chunk's region;
        every target here counts as unreached downstream."""
        return len(self.source_indices) == 0


def build_chunks(
    pc0: PointCloud, pc1: PointCloud, cfg: ChunkingConfig
) -> list[ChunkPair]:
    """Split a cloud pair into chunks respecting ``cfg.point_cap``.

    Quadrant assignment is deterministic: a point exactly on a splitting
    line goes to the lower-index (left/bottom) quadrant. Leaves with no
    target points are dropped; leaves with targets but no sources are kept
    (genuinely new construction in empty terrain is a valid scene).

    Raises:
        ChunkingError: an empty input cloud, or more than ``point_cap``
            coincident points make the split stall (the offending coordinate
            is named).
    """
    if len(pc0) == 0 or len(pc1) == 0:
        raise ChunkingError("both epochs must be non-empty")
    xy0 = pc0.xyz[:, :2]
    xy1 = pc1.xyz[:, :2]
    lo = np.minimum(pc0.xyz.min(axis=0), pc1.xyz.min(axis=0))
    hi = np.maximum(pc0.xyz.max(axis=0), pc1.xyz.max(axis=0))
    z_lo, z_hi = lo[2], hi[2]

    leaves: list[tuple[float, float, float, float, np.ndarray, np.ndarray]] = []
    stack = [
        (
            float(lo[0]),
            float(lo[1]),
            float(hi[0]),
            float(hi[1]),
            np.arange(len(pc0)),
            np.arange(len(pc1)),
            0,
        )
    ]
    while stack:
        x0, y0, x1, y1, i0, i1, depth = stack.pop()
        if max(len(i0), len(i1)) <= cfg.point_cap:
            leaves.append((x0, y0, x1, y1, i0, i1))
            continue
        _check_splittable(xy0[i0], xy1[i1], cfg.point_cap, depth)
        mid_x = 0.5 * (x0 + x1)
        mid_y = 0.5 * (y0 + y1)
        # quadrant index = (x > mid_x) + 2*(y > mid_y); boundary ties land
        # in the lower-index quadrant
        q0 = (xy0[i0, 0] > mid_x).astype(np.int8) + 2 * (xy0[i0, 1] > mid_y)
        q1 = (xy1[i1, 0] > mid_x).astype(np.int8) + 2 * (xy1[i1, 1] > mid_y)
        rects = (
            (x0, y0, mid_x, mid_y),
            (mid_x, y0, x1, mid_y),
            (x0, mid_y, mid_x, y1),
            (mid_x, mid_y, x1, y1),
        )
        # push in reverse so quadrant 0 is processed first (stable chunk ids)
        for q in (3, 2, 1, 0):
            stack.append((*rects[q], i0[q0 == q], i1[q1 == q], depth + 1))

    chunks: list[ChunkPair] = []
    halo_overflow = 0
    for x0, y0, x1, y1, i0, i1 in leaves:
        if len(i1) == 0:
            continue
        region = BoundingBox(
            np.array([x0, y0, z_lo]), np.array([x1, y1, z_hi])
        )
        src = i0
        if cfg.halo_margin > 0:
            expanded = region.expanded_xy(cfg.halo_margin)
            src = np.flatnonzero(expanded.contains_xy(xy0))
            if len(src) > cfg.point_cap:
                halo_overflow += 1
        chunks.append(
            ChunkPair(
                source_indices=src,
                target_indices=i1,
                region=region,
                chunk_id=len(chunks),
            )
        )
    if halo_overflow:
        logger.warning(
            "halo margin %.3g pushed %d chunk(s) past the %d-point source cap",
            cfg.halo_margin,
            halo_overflow,
            cfg.point_cap,
        )
    return chunks


def _check_splittable(
    pts0: np.ndarray, pts1: np.ndarray, cap: int, depth: int
) -> None:
    stacked = [p for p in (pts0, pts1) if len(p)]
    span_lo = np.min([p.min(axis=0) for p in stacked], axis=0)
    span_hi = np.max([p.max(axis=0) for p in stacked], axis=0)
    if (span_lo == span_hi).all():
        raise ChunkingError(
            f"more than {cap} coincident points at xy="
            f"({span_lo[0]:.6g}, {span_lo[1]:.6g}); split cannot progress"
        )
    if depth >= _MAX_DEPTH:
        raise ChunkingError(
            f"quadtree split stalled at depth {depth} near xy="
            f"({span_lo[0]:.6g}, {span_lo[1]:.6g}); points closer than "
            "float resolution"
        )


@dataclass(frozen=True)
class ChunkStats:
    count: int
    src_min: int
    src_median: float
    src_max: int
    tgt_min: int
    tgt_median: float
    tgt_max: int

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "src": {"min": self.src_min, "median": self.src_median, "max": self.src_max},
            "tgt": {"min": self.tgt_min, "median": self.tgt_median, "max": self.tgt_max},
        }


def chunk_stats(chunks: list[ChunkPair]) -> ChunkStats:
    """Order statistics of chunk sizes per epoch. Raises on an empty list."""
    if not chunks:
        raise ValueError("no chunks to summarize")
    src = np.array([len(c.source_indices) for c in chunks])
    tgt = np.array([len(c.target_indices) for c in chunks])
    return ChunkStats(
        count=len(chunks),
        src_min=int(src.min()),
        src_median=float(np.median(src)),
        src_max=int(src.max()),
        tgt_min=int(tgt.min()),
        tgt_median=float(np.median(tgt)),
        tgt_max=int(tgt.max()),
    )
