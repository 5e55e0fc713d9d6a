import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otcd.chunking import (
    ChunkingConfig,
    ChunkingError,
    ChunkPair,
    build_chunks,
    chunk_stats,
)
from otcd.detection import merge_scores
from otcd.io import BoundingBox, PointCloud


def _cloud(xy, z=0.0):
    xy = np.asarray(xy, dtype=float)
    return PointCloud(xyz=np.column_stack([xy, np.full(len(xy), z)]))


def _random_cloud(rng, n, extent=100.0):
    return PointCloud(
        xyz=np.column_stack(
            [
                rng.uniform(0, extent, n),
                rng.uniform(0, extent, n),
                rng.uniform(0, 5, n),
            ]
        )
    )


class TestBuildChunks:
    def test_small_input_single_chunk(self):
        rng = np.random.default_rng(0)
        pc0 = _random_cloud(rng, 10)
        pc1 = _random_cloud(rng, 10)
        chunks = build_chunks(pc0, pc1, ChunkingConfig(point_cap=30_000))
        assert len(chunks) == 1
        assert sorted(chunks[0].source_indices) == list(range(10))
        assert sorted(chunks[0].target_indices) == list(range(10))

    def test_four_corner_clusters_split_once(self):
        # 4 clusters of 10 points each at the corners of a square; cap 15
        # forces exactly one split of the root cell, giving one leaf per
        # cluster with all 10+10 points (worked out by hand: 40 > 15 at the
        # root, 10 <= 15 in each quadrant).
        rng = np.random.default_rng(1)
        centers = [(2.0, 2.0), (8.0, 2.0), (2.0, 8.0), (8.0, 8.0)]
        xy = np.vstack(
            [np.array(c) + rng.uniform(-0.5, 0.5, (10, 2)) for c in centers]
        )
        pc0 = _cloud(xy)
        pc1 = _cloud(xy)
        chunks = build_chunks(pc0, pc1, ChunkingConfig(point_cap=15))
        assert len(chunks) == 4
        for chunk in chunks:
            assert len(chunk.source_indices) == 10
            assert len(chunk.target_indices) == 10
            np.testing.assert_array_equal(
                chunk.source_indices, chunk.target_indices
            )

    def test_targets_partition_exactly(self):
        rng = np.random.default_rng(2)
        pc0 = _random_cloud(rng, 1000)
        pc1 = _random_cloud(rng, 1000)
        chunks = build_chunks(pc0, pc1, ChunkingConfig(point_cap=100))
        seen = np.concatenate([c.target_indices for c in chunks])
        assert len(seen) == 1000
        assert set(seen.tolist()) == set(range(1000))

    def test_sources_partition_without_halo(self):
        rng = np.random.default_rng(3)
        pc0 = _random_cloud(rng, 700)
        pc1 = _random_cloud(rng, 500)
        chunks = build_chunks(pc0, pc1, ChunkingConfig(point_cap=64))
        seen = np.concatenate([c.source_indices for c in chunks])
        # empty-target leaves are dropped, so sources may be missing, but
        # never duplicated
        assert len(seen) == len(set(seen.tolist()))

    def test_cap_respected_on_both_epochs(self):
        rng = np.random.default_rng(4)
        pc0 = _random_cloud(rng, 2000)
        pc1 = _random_cloud(rng, 300)
        for chunk in build_chunks(pc0, pc1, ChunkingConfig(point_cap=150)):
            assert len(chunk.source_indices) <= 150
            assert len(chunk.target_indices) <= 150

    def test_targets_inside_region(self):
        rng = np.random.default_rng(5)
        pc0 = _random_cloud(rng, 400)
        pc1 = _random_cloud(rng, 400)
        for chunk in build_chunks(pc0, pc1, ChunkingConfig(point_cap=50)):
            assert chunk.region.contains_xy(pc1.xyz[chunk.target_indices, :2]).all()

    def test_halo_grows_sources(self):
        rng = np.random.default_rng(6)
        pc0 = _random_cloud(rng, 800)
        pc1 = _random_cloud(rng, 800)
        plain = build_chunks(pc0, pc1, ChunkingConfig(point_cap=100))
        haloed = build_chunks(
            pc0, pc1, ChunkingConfig(point_cap=100, halo_margin=10.0)
        )
        assert len(plain) == len(haloed)
        grew = 0
        for p, h in zip(plain, haloed):
            np.testing.assert_array_equal(p.target_indices, h.target_indices)
            assert set(p.source_indices) <= set(h.source_indices)
            expanded = p.region.expanded_xy(10.0)
            assert expanded.contains_xy(pc0.xyz[h.source_indices, :2]).all()
            grew += len(h.source_indices) > len(p.source_indices)
        assert grew > 0

    def test_empty_source_chunk_kept_and_flagged(self):
        # all epoch-0 mass in one corner, epoch-1 points in both corners
        pc0 = _cloud([[1, 1], [2, 2], [1, 2]])
        pc1 = _cloud([[1, 1], [2, 1], [99, 99], [98, 99]])
        chunks = build_chunks(pc0, pc1, ChunkingConfig(point_cap=3))
        flagged = [c for c in chunks if c.source_empty]
        assert flagged
        covered = np.concatenate([c.target_indices for c in chunks])
        assert set(covered.tolist()) == {0, 1, 2, 3}

    def test_coincident_points_beyond_cap_error(self):
        xy = np.full((10, 2), 3.25)
        pc = _cloud(xy)
        with pytest.raises(ChunkingError, match="3.25"):
            build_chunks(pc, pc, ChunkingConfig(point_cap=5))

    def test_cap_below_one_rejected(self):
        with pytest.raises(ValueError):
            ChunkingConfig(point_cap=0)

    def test_negative_halo_rejected(self):
        with pytest.raises(ValueError):
            ChunkingConfig(halo_margin=-1.0)

    def test_empty_cloud_rejected(self):
        pc = _cloud([[0, 0]])
        empty = PointCloud(xyz=np.empty((0, 3)))
        with pytest.raises(ChunkingError, match="both epochs must be non-empty"):
            build_chunks(empty, pc, ChunkingConfig())

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        pc0 = _random_cloud(rng, 500)
        pc1 = _random_cloud(rng, 500)
        first = build_chunks(pc0, pc1, ChunkingConfig(point_cap=60))
        second = build_chunks(pc0, pc1, ChunkingConfig(point_cap=60))
        assert len(first) == len(second)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.source_indices, b.source_indices)
            np.testing.assert_array_equal(a.target_indices, b.target_indices)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 40))
    def test_partition_property(self, seed, cap):
        rng = np.random.default_rng(seed)
        pc0 = _random_cloud(rng, int(rng.integers(1, 300)), extent=50.0)
        pc1 = _random_cloud(rng, int(rng.integers(1, 300)), extent=50.0)
        chunks = build_chunks(pc0, pc1, ChunkingConfig(point_cap=cap))
        tgt = np.concatenate([c.target_indices for c in chunks])
        assert len(tgt) == len(pc1)
        assert set(tgt.tolist()) == set(range(len(pc1)))
        for c in chunks:
            assert len(c.source_indices) <= cap
            assert len(c.target_indices) <= cap


def _unit_chunk(target_indices, chunk_id=0, source_indices=None):
    return ChunkPair(
        source_indices=np.asarray(
            source_indices if source_indices is not None else target_indices
        ),
        target_indices=np.asarray(target_indices),
        region=BoundingBox(np.zeros(3), np.ones(3)),
        chunk_id=chunk_id,
    )


class TestMergeScores:
    def test_identity_reassembly(self):
        chunk = _unit_chunk([0, 1, 2])
        out = merge_scores([(chunk, np.array([1.0, 2.0, 3.0]))], 3)
        np.testing.assert_array_equal(out, [1.0, 2.0, 3.0])

    def test_interleaved_scatter(self):
        parts = [
            (_unit_chunk([0, 2], 0), np.array([10.0, 30.0])),
            (_unit_chunk([1, 3], 1), np.array([20.0, 40.0])),
        ]
        out = merge_scores(parts, 4)
        np.testing.assert_array_equal(out, [10.0, 20.0, 30.0, 40.0])

    def test_overlap_rejected(self):
        parts = [
            (_unit_chunk([0, 1], 0), np.zeros(2)),
            (_unit_chunk([1, 2], 1), np.zeros(2)),
        ]
        with pytest.raises(ValueError, match="more than one"):
            merge_scores(parts, 3)

    def test_missing_index_rejected(self):
        parts = [(_unit_chunk([0, 2], 0), np.zeros(2))]
        with pytest.raises(ValueError, match="not covered"):
            merge_scores(parts, 3)

    def test_length_mismatch_rejected(self):
        parts = [(_unit_chunk([0, 1], 0), np.zeros(1))]
        with pytest.raises(ValueError, match="length"):
            merge_scores(parts, 2)


class TestChunkStats:
    def test_order_statistics(self):
        chunks = [
            _unit_chunk(list(range(s)), i) for i, s in enumerate([10, 20, 30])
        ]
        stats = chunk_stats(chunks)
        assert stats.count == 3
        assert (stats.tgt_min, stats.tgt_median, stats.tgt_max) == (10, 20.0, 30)

    def test_single_chunk_degenerate_stats(self):
        stats = chunk_stats([_unit_chunk([0, 1])])
        assert stats.src_min == stats.src_median == stats.src_max == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            chunk_stats([])

    def test_json_shape(self):
        payload = chunk_stats([_unit_chunk([0])]).to_dict()
        assert payload == {
            "count": 1,
            "src": {"min": 1, "median": 1.0, "max": 1},
            "tgt": {"min": 1, "median": 1.0, "max": 1},
        }
