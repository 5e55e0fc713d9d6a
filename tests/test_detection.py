import math

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from otcd.chunking import ChunkingConfig
from otcd.detection import (
    METHOD_BALANCED_OT,
    METHOD_NN_BASELINE,
    METHOD_UNBALANCED_OT,
    ChangeDetectionConfig,
    ChangeMap,
    classify,
    detect_changes,
    pointwise_scores,
)
from otcd.io import CLASS_DEMOLISHED, CLASS_NEW, CLASS_UNCHANGED, PointCloud
from otcd.solver import SolverConfig
from otcd.synth import Building, SceneSpec, generate_pair


def _cfg(method=METHOD_UNBALANCED_OT, tau=2.0, cap=1200, rho=1000.0, **solver_kw):
    if "epsilon" not in solver_kw:
        solver_kw.setdefault("epsilon_rel", 0.01)
    solver_kw.setdefault("max_iter", 2000)
    return ChangeDetectionConfig(
        solver=SolverConfig(rho=rho, **solver_kw),
        chunking=ChunkingConfig(point_cap=cap),
        tau=tau,
        method=method,
    )


def _one_building_scene(status, seed=21):
    return SceneSpec(
        extent=24.0,
        ground_density=4.0,
        buildings=(Building((7.0, 7.0, 16.0, 16.0), 8.0, status),),
        noise_sigma_z=0.03,
        seed=seed,
    )


class TestPointwiseScores:
    def test_coincident_projection_scores_zero(self):
        X = np.array([[1.0, 2.0, 3.0]])
        scores = pointwise_scores(X, X)
        assert scores[0] == 0.0

    def test_new_roof_scores_positive(self):
        projected = np.array([[0.0, 0.0, 0.0]])
        target = np.array([[0.0, 0.0, 10.0]])
        scores = pointwise_scores(projected, target)
        assert scores[0] == pytest.approx(10.0)

    def test_demolition_scores_negative(self):
        projected = np.array([[0.0, 0.0, 10.0]])
        target = np.array([[0.0, 0.0, 0.0]])
        scores = pointwise_scores(projected, target)
        assert scores[0] == pytest.approx(-10.0)

    def test_unreached_sentinel(self):
        projected = np.array([[np.nan, np.nan, np.nan], [0.0, 0.0, 0.0]])
        target = np.zeros((2, 3))
        scores = pointwise_scores(projected, target)
        assert np.isposinf(scores[0])
        assert scores[1] == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pointwise_scores(np.zeros((2, 3)), np.zeros((3, 3)))


class TestClassify:
    def test_threshold_rule(self):
        np.testing.assert_array_equal(
            classify(np.array([0.1, 5.0, -5.0]), tau=1.0), [0, 1, 2]
        )

    def test_exact_tau_stays_unchanged(self):
        assert classify(np.array([1.0, -1.0]), tau=1.0).tolist() == [0, 0]

    def test_all_zero(self):
        assert classify(np.zeros(4), tau=0.5).tolist() == [0, 0, 0, 0]

    def test_sentinel_is_new(self):
        assert classify(np.array([np.inf]), tau=100.0).tolist() == [CLASS_NEW]

    def test_tau_positive_required(self):
        for tau in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                classify(np.zeros(1), tau=tau)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=50),
        st.floats(0.1, 10),
        st.floats(0.1, 10),
    )
    def test_unchanged_set_grows_with_tau(self, scores, tau_a, extra):
        scores = np.array(scores)
        tau_b = tau_a + extra
        unchanged_a = classify(scores, tau_a) == CLASS_UNCHANGED
        unchanged_b = classify(scores, tau_b) == CLASS_UNCHANGED
        assert (unchanged_b | ~unchanged_a).all()


class TestDetectChanges:
    def test_change_map_length_is_the_target_count(self):
        change_map = ChangeMap(np.zeros(3), np.zeros(3, dtype=np.int8), [])
        assert len(change_map) == 3

    def test_change_map_lengths_must_agree(self):
        with pytest.raises(ValueError, match="lengths differ"):
            ChangeMap(np.zeros(3), np.zeros(2, dtype=np.int64), [])

    def test_identity_scene_all_unchanged(self):
        spec = SceneSpec(extent=16.0, ground_density=5.0, noise_sigma_z=0.03, seed=2)
        pc0, _ = generate_pair(spec)
        result = detect_changes(pc0, pc0, _cfg(tau=0.5, cap=500))
        assert (result.classes == CLASS_UNCHANGED).all()
        assert len(result.diagnostics) >= 1

    def test_added_building_detected(self):
        pc0, pc1 = generate_pair(_one_building_scene("added"))
        result = detect_changes(pc0, pc1, _cfg(tau=4.0, cap=800))
        truth_new = pc1.labels == CLASS_NEW
        hit = (result.classes[truth_new] == CLASS_NEW).mean()
        assert hit >= 0.9
        ground_ok = (result.classes[~truth_new] == CLASS_UNCHANGED).mean()
        assert ground_ok >= 0.95

    def test_removed_building_detected(self):
        spec = _one_building_scene("removed")
        pc0, pc1 = generate_pair(spec)
        result = detect_changes(pc0, pc1, _cfg(tau=2.0, cap=800))
        truth_gone = pc1.labels == CLASS_DEMOLISHED
        assert truth_gone.any()
        hit = (result.classes[truth_gone] == CLASS_DEMOLISHED).mean()
        assert hit >= 0.8
        # away from the entropic-blur band at the footprint edge, the
        # demolition signal is the full building height
        x0, y0, x1, y1 = spec.buildings[0].footprint
        xy = pc1.xyz[:, :2]
        interior = (
            truth_gone
            & (xy[:, 0] >= x0 + 1.5)
            & (xy[:, 0] <= x1 - 1.5)
            & (xy[:, 1] >= y0 + 1.5)
            & (xy[:, 1] <= y1 - 1.5)
        )
        assert (result.classes[interior] == CLASS_DEMOLISHED).mean() >= 0.95

    def test_epoch_swap_turns_new_into_demolished(self):
        spec = _one_building_scene("added")
        pc0, pc1 = generate_pair(spec)
        x0, y0, x1, y1 = spec.buildings[0].footprint
        reverse = detect_changes(pc1, pc0, _cfg(tau=2.0, cap=800))
        xy = pc0.xyz[:, :2]
        in_fp = (
            (xy[:, 0] >= x0) & (xy[:, 0] <= x1) & (xy[:, 1] >= y0) & (xy[:, 1] <= y1)
        )
        assert (reverse.classes[in_fp] == CLASS_DEMOLISHED).mean() >= 0.8
        assert (reverse.classes[~in_fp] == CLASS_UNCHANGED).mean() >= 0.95

    def test_rigid_z_shift_moves_balanced_scores_exactly(self):
        # with both marginals hard, a pure z-shift of one cloud changes the
        # plan's cost only by a constant over the polytope, so the plan and
        # hence the projection are unchanged
        rng = np.random.default_rng(5)
        pc0 = PointCloud(
            xyz=np.column_stack(
                [rng.uniform(0, 15, 250), rng.uniform(0, 15, 250), rng.normal(0, 0.2, 250)]
            )
        )
        pc1 = PointCloud(
            xyz=np.column_stack(
                [rng.uniform(0, 15, 230), rng.uniform(0, 15, 230), rng.normal(0, 0.2, 230)]
            )
        )
        h = 2.75
        shifted = PointCloud(xyz=pc1.xyz + np.array([0.0, 0.0, h]))
        cfg = ChangeDetectionConfig(
            solver=SolverConfig(epsilon=1.0, tol=1e-10, max_iter=5000),
            chunking=ChunkingConfig(point_cap=500),
            tau=1.0,
            method=METHOD_BALANCED_OT,
        )
        base = detect_changes(pc0, pc1, cfg)
        moved = detect_changes(pc0, shifted, cfg)
        np.testing.assert_allclose(moved.scores - base.scores, h, atol=1e-6)

    def test_worker_count_does_not_change_results(self):
        cases = [
            (20.0, METHOD_UNBALANCED_OT, 300, 4, 2000),
            # four chunks of about 1150x1150 points, large enough for
            # multi-threaded BLAS mat-vecs, had the solver used them; a
            # short sweep budget keeps the test fast and changes nothing
            # about determinism
            (34.0, METHOD_UNBALANCED_OT, 2500, 2, 200),
            (34.0, METHOD_BALANCED_OT, 2500, 2, 200),
        ]
        for extent, method, cap, workers, max_iter in cases:
            spec = SceneSpec(
                extent=extent, ground_density=4.0, noise_sigma_z=0.05, seed=8
            )
            pc0, pc1 = generate_pair(spec)
            cfg = _cfg(method=method, tau=1.0, cap=cap, max_iter=max_iter)
            serial = detect_changes(pc0, pc1, replace(cfg, workers=1))
            threaded = detect_changes(pc0, pc1, replace(cfg, workers=workers))
            np.testing.assert_array_equal(serial.scores, threaded.scores)
            np.testing.assert_array_equal(serial.classes, threaded.classes)
            # classes come from one classify call on the merged scores, and
            # diagnostics arrive in chunk-id order on both paths
            for result in (serial, threaded):
                np.testing.assert_array_equal(
                    result.classes, classify(result.scores, cfg.tau)
                )
                assert [d.chunk_id for d in result.diagnostics] == list(
                    range(len(result.diagnostics))
                )

    def test_source_free_region_classified_new(self):
        # epoch 0 only in one corner; far targets have no sources in range
        rng = np.random.default_rng(9)
        pc0 = PointCloud(
            xyz=np.column_stack(
                [rng.uniform(0, 5, 60), rng.uniform(0, 5, 60), np.zeros(60)]
            )
        )
        far = np.column_stack(
            [rng.uniform(95, 100, 40), rng.uniform(95, 100, 40), np.zeros(40)]
        )
        near = np.column_stack(
            [rng.uniform(0, 5, 40), rng.uniform(0, 5, 40), np.zeros(40)]
        )
        pc1 = PointCloud(xyz=np.vstack([near, far]))
        cfg = _cfg(method=METHOD_NN_BASELINE, tau=1.0, cap=50)
        result = detect_changes(pc0, pc1, cfg)
        assert (result.classes[40:] == CLASS_NEW).all()
        assert (result.classes[:40] == CLASS_UNCHANGED).all()

    def test_nn_baseline_scores_vertical_residual(self):
        pc0 = PointCloud(xyz=np.array([[0.0, 0.0, 1.0], [10.0, 0.0, 2.0]]))
        pc1 = PointCloud(xyz=np.array([[0.1, 0.0, 4.0], [10.1, 0.0, 1.0]]))
        result = detect_changes(
            pc0, pc1, _cfg(method=METHOD_NN_BASELINE, tau=0.5, cap=10)
        )
        np.testing.assert_allclose(result.scores, [3.0, -1.0])
        np.testing.assert_array_equal(result.classes, [CLASS_NEW, CLASS_DEMOLISHED])

    def test_nonconvergence_recorded_in_diagnostics(self):
        spec = SceneSpec(extent=10.0, ground_density=4.0, noise_sigma_z=0.1, seed=3)
        pc0, pc1 = generate_pair(spec)
        cfg = _cfg(tau=1.0, cap=500, max_iter=1, epsilon_rel=0.001)
        result = detect_changes(pc0, pc1, cfg)
        assert any(not d.converged for d in result.diagnostics)
        assert np.isfinite(result.scores).all()

    def test_balanced_is_large_rho_limit_of_unbalanced(self):
        spec = SceneSpec(extent=14.0, ground_density=4.0, noise_sigma_z=0.05, seed=4)
        pc0, pc1 = generate_pair(replace(spec, seed=14))
        base = dict(tau=1.0, cap=400)
        balanced = detect_changes(
            pc0, pc1, _cfg(method=METHOD_BALANCED_OT, epsilon=1.0, **base)
        )
        relaxed = detect_changes(
            pc0, pc1, _cfg(epsilon=1.0, rho=1e4, max_iter=20000, **base)
        )
        agreement = (balanced.classes == relaxed.classes).mean()
        assert agreement >= 0.999

    def test_unbalanced_requires_rho(self):
        # refused when the solver config is built, before any chunk is made
        with pytest.raises(ValueError, match="rho=inf .* method ot "):
            SolverConfig(rho=math.inf)
        assert ChangeDetectionConfig().solver == SolverConfig()

    def test_method_validated(self):
        with pytest.raises(ValueError, match="method"):
            ChangeDetectionConfig(
                solver=SolverConfig(epsilon=1.0), tau=1.0, method="m3c2"
            )

    def test_method_ids_are_the_cli_names(self):
        assert (METHOD_UNBALANCED_OT, METHOD_BALANCED_OT, METHOD_NN_BASELINE) == (
            "uot", "ot", "nn"
        )
        with pytest.raises(ValueError, match=r"one of \('uot', 'ot', 'nn'\)"):
            ChangeDetectionConfig(method="unbalanced_ot")

    def test_tau_validated(self):
        with pytest.raises(ValueError, match="tau"):
            ChangeDetectionConfig(solver=SolverConfig(epsilon=1.0), tau=0.0)

    def test_diagnostics_fields_populated(self):
        spec = SceneSpec(extent=10.0, ground_density=3.0, seed=6)
        pc0, pc1 = generate_pair(spec)
        cfg = _cfg(tau=1.0, cap=200)
        result = detect_changes(pc0, pc1, cfg)
        for diag in result.diagnostics:
            d = diag.to_dict()
            assert d["n1"] > 0
            assert d["wall_ms"] >= 0
            assert d["peak_bytes_estimate"] > 0
            assert d["iterations"] >= 1
            assert d["epsilon"] > 0
            # 1.0 when every sweep was plain
            assert d["omega"] >= 1.0
            assert d["converged"] == (d["gap"] <= cfg.solver.tol)
            assert d["mass_change"] > 0
        nn = detect_changes(pc0, pc1, _cfg(method=METHOD_NN_BASELINE, tau=1.0, cap=200))
        for diag in nn.diagnostics:
            assert (diag.iterations, diag.converged) == (0, True)
            fields = (
                diag.peak_bytes_estimate,
                diag.epsilon,
                diag.gap,
                diag.omega,
                diag.mass_change,
            )
            assert fields == (None,) * 5

    def test_mass_change_is_the_source_marginal_gap(self):
        spec = SceneSpec(
            extent=16.0,
            ground_density=3.0,
            buildings=(Building((4.0, 4.0, 10.0, 10.0), 6.0, "removed"),),
            seed=6,
        )
        pc0, pc1 = generate_pair(spec)
        tol = 1e-6
        ot = detect_changes(
            pc0, pc1, _cfg(method=METHOD_BALANCED_OT, tau=1.0, cap=300, tol=tol)
        )
        for d in ot.diagnostics:
            # the same L1 row violation, summed over the plan instead of the
            # last sweep's vectors
            assert d.converged
            assert d.mass_change == pytest.approx(d.gap, rel=1e-6, abs=1e-15)
        uot = detect_changes(pc0, pc1, _cfg(tau=1.0, cap=300, tol=tol))
        for d in uot.diagnostics:
            # the plan creates and destroys source mass, far beyond the
            # row violation that tol leaves a balanced plan
            assert d.converged and d.mass_change > 100 * tol

    def test_chunk_without_sources_has_no_mass_change(self):
        rng = np.random.default_rng(9)
        pc0 = PointCloud(
            xyz=np.column_stack(
                [rng.uniform(0, 5, 60), rng.uniform(0, 5, 60), np.zeros(60)]
            )
        )
        near = np.column_stack(
            [rng.uniform(0, 5, 40), rng.uniform(0, 5, 40), np.zeros(40)]
        )
        far = np.column_stack(
            [rng.uniform(95, 100, 40), rng.uniform(95, 100, 40), np.zeros(40)]
        )
        pc1 = PointCloud(xyz=np.vstack([near, far]))
        result = detect_changes(pc0, pc1, _cfg(tau=1.0, cap=50))
        empty = [d for d in result.diagnostics if d.n0 == 0]
        solved = [d for d in result.diagnostics if d.n0 > 0]
        assert empty and solved
        assert all(d.mass_change is None for d in empty)
        assert all(d.mass_change >= 0 for d in solved)
        # no dense solve, no bytes estimate
        assert all(d.peak_bytes_estimate is None for d in empty)
        # the float64 cost, and at 2**17 cells or more (at the default tol)
        # a float32 copy of the kernel; these chunks are below that
        assert all(d.n0 * d.n1 < 2**17 for d in solved)
        assert all(d.peak_bytes_estimate == 8 * d.n0 * d.n1 for d in solved)
