import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otcd.chunking import ChunkingConfig
from otcd.detection import ChangeDetectionConfig, detect_changes
from otcd.metrics import confusion, iou, sweep_scores
from otcd.solver import SolverConfig
from otcd.synth import Building, SceneSpec, generate_pair

labels = st.lists(st.integers(0, 2), min_size=1, max_size=60)


class TestConfusion:
    def test_diagonal_on_perfect_prediction(self):
        cm = confusion(np.array([0, 1, 2]), np.array([0, 1, 2]))
        np.testing.assert_array_equal(cm, np.eye(3, dtype=int))

    def test_off_diagonal_counts(self):
        cm = confusion(np.array([1, 1]), np.array([0, 1]))
        assert cm[1, 0] == 1 and cm[1, 1] == 1
        assert cm.sum() == 2

    def test_empty_inputs_give_zero_matrix(self):
        np.testing.assert_array_equal(
            confusion(np.array([], dtype=int), np.array([], dtype=int)),
            np.zeros((3, 3), dtype=int),
        )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion(np.array([0]), np.array([0, 1]))

    def test_out_of_range_class(self):
        with pytest.raises(ValueError):
            confusion(np.array([3]), np.array([0]))

    @settings(max_examples=30, deadline=None)
    @given(labels)
    def test_total_count_preserved(self, gt):
        gt = np.array(gt)
        rng = np.random.default_rng(0)
        pred = rng.integers(0, 3, len(gt))
        assert confusion(gt, pred).sum() == len(gt)


class TestIoU:
    def test_perfect_prediction(self):
        m = iou(confusion(np.array([0, 1, 2, 1]), np.array([0, 1, 2, 1])))
        assert m.iou_per_class == (1.0, 1.0, 1.0)
        assert m.mean_change_iou == 1.0

    def test_half_recall_no_false_positives(self):
        gt = np.array([1] * 10)
        pred = np.array([1] * 5 + [0] * 5)
        m = iou(confusion(gt, pred))
        assert m.iou_per_class[1] == pytest.approx(0.5)

    def test_absent_class_scores_one(self):
        # class 2 appears in neither vector: empty union convention
        m = iou(confusion(np.array([0, 1]), np.array([0, 1])))
        assert m.iou_per_class[2] == 1.0

    def test_wrongly_predicted_only_class_scores_zero(self):
        m = iou(confusion(np.array([0, 0]), np.array([2, 0])))
        assert m.iou_per_class[2] == 0.0

    def test_mean_is_over_change_classes_only(self):
        gt = np.array([0] * 8 + [1, 2])
        pred = np.array([1] * 8 + [1, 2])
        m = iou(confusion(gt, pred))
        assert m.mean_change_iou == pytest.approx(
            0.5 * (m.iou_per_class[1] + m.iou_per_class[2])
        )

    @settings(max_examples=30, deadline=None)
    @given(labels)
    def test_self_comparison_is_perfect(self, vec):
        m = iou(confusion(np.array(vec), np.array(vec)))
        assert m.iou_per_class == (1.0, 1.0, 1.0)

    @settings(max_examples=30, deadline=None)
    @given(labels, st.integers(0, 2**31 - 1))
    def test_permutation_invariance(self, gt, seed):
        rng = np.random.default_rng(seed)
        gt = np.array(gt)
        pred = rng.integers(0, 3, len(gt))
        perm = rng.permutation(len(gt))
        direct = iou(confusion(gt, pred))
        shuffled = iou(confusion(gt[perm], pred[perm]))
        assert direct.iou_per_class == shuffled.iou_per_class

    def test_json_shape(self):
        payload = iou(confusion(np.array([0]), np.array([0])), tau_used=2.0).to_dict()
        assert payload["tau"] == 2.0
        assert set(payload["iou"]) == {"unchanged", "new", "demolished"}
        assert "mean_change_iou" in payload


def _scene_cfg(tau=1.0):
    return ChangeDetectionConfig(
        solver=SolverConfig(epsilon_rel=0.01, rho=1000.0, max_iter=2000),
        chunking=ChunkingConfig(point_cap=800),
        tau=tau,
    )


@pytest.fixture(scope="module")
def box_scene():
    spec = SceneSpec(
        extent=30.0,
        ground_density=4.0,
        buildings=(
            Building((4.0, 4.0, 13.0, 13.0), 10.0, "added"),
            Building((17.0, 17.0, 27.0, 27.0), 10.0, "removed"),
        ),
        noise_sigma_z=0.05,
        seed=33,
    )
    return generate_pair(spec)


@pytest.fixture(scope="module")
def box_change_map(box_scene):
    pc0, pc1 = box_scene
    return detect_changes(pc0, pc1, _scene_cfg())


class TestThresholdSweep:
    """A sweep is one ``detect_changes`` run followed by ``sweep_scores``."""

    def test_box_scene_sweep_recovers_changes(self, box_scene, box_change_map):
        _, pc1 = box_scene
        grid = [float(t) for t in range(1, 10)]
        best_tau, per_tau = sweep_scores(box_change_map, pc1.labels, grid)
        best = max(m.mean_change_iou for m in per_tau)
        assert best >= 0.8
        assert grid[0] < best_tau < grid[-1]

    def test_single_tau_grid(self, box_scene):
        pc0, pc1 = box_scene
        change_map = detect_changes(pc0, pc1, _scene_cfg(tau=3.0))
        best_tau, per_tau = sweep_scores(change_map, pc1.labels, [3.0])
        assert best_tau == 3.0
        assert len(per_tau) == 1

    def test_identity_scene_ties_break_small(self):
        spec = SceneSpec(extent=12.0, ground_density=4.0, noise_sigma_z=0.02, seed=1)
        pc0, _ = generate_pair(spec)
        gt = np.zeros(len(pc0), dtype=int)
        change_map = detect_changes(pc0, pc0, _scene_cfg())
        best_tau, per_tau = sweep_scores(change_map, gt, [2.0, 1.0, 3.0])
        # no change classes anywhere: all taus tie at 1.0, smallest returned
        assert best_tau == 1.0
        assert [m.tau_used for m in per_tau] == [1.0, 2.0, 3.0]
        assert all(m.mean_change_iou == 1.0 for m in per_tau)

    def test_sweep_equals_full_run_per_tau(self, box_scene, box_change_map):
        pc0, pc1 = box_scene
        _, per_tau = sweep_scores(box_change_map, pc1.labels, [2.0, 5.0])
        for m in per_tau:
            fresh = detect_changes(pc0, pc1, _scene_cfg(tau=m.tau_used))
            fresh_m = iou(confusion(pc1.labels, fresh.classes), m.tau_used)
            assert fresh_m.mean_change_iou == pytest.approx(m.mean_change_iou)

    def test_superset_grid_never_worse(self, box_scene, box_change_map):
        _, pc1 = box_scene
        g1 = [1.0, 4.0]
        g2 = [1.0, 2.0, 4.0, 6.0]
        _, m1 = sweep_scores(box_change_map, pc1.labels, g1)
        _, m2 = sweep_scores(box_change_map, pc1.labels, g2)
        assert max(m.mean_change_iou for m in m2) >= max(
            m.mean_change_iou for m in m1
        )

    def test_missing_labels_rejected(self, box_change_map):
        with pytest.raises(ValueError, match="labels"):
            sweep_scores(box_change_map, None, [1.0])

    def test_empty_grid_rejected(self, box_scene, box_change_map):
        _, pc1 = box_scene
        with pytest.raises(ValueError, match="grid"):
            sweep_scores(box_change_map, pc1.labels, [])

    def test_nonpositive_tau_rejected(self, box_scene, box_change_map):
        _, pc1 = box_scene
        with pytest.raises(ValueError, match="positive"):
            sweep_scores(box_change_map, pc1.labels, [1.0, 0.0])
