import json
import re

import numpy as np
import pytest

from otcd.cli import EXIT_OK, run
from otcd.io import CLASS_DEMOLISHED, CLASS_NEW, CLASS_UNCHANGED
from otcd.synth import (
    MAX_POINTS_PER_EPOCH,
    Building,
    SceneSpec,
    buildings_from_list,
    generate_pair,
    preset,
    preset_names,
)


def _spec(**kwargs):
    defaults = dict(extent=30.0, ground_density=3.0, seed=42)
    defaults.update(kwargs)
    return SceneSpec(**defaults)


def test_flat_scene_has_no_change_labels():
    pc0, pc1 = generate_pair(_spec())
    assert len(pc0) > 0 and len(pc1) > 0
    assert (pc1.labels == CLASS_UNCHANGED).all()
    # flat ground stays near z=0
    assert abs(pc0.xyz[:, 2]).max() == 0.0


def test_seed_determinism_is_bitwise():
    spec = _spec(
        buildings=(Building((5, 5, 15, 15), 8.0, "added"),),
        noise_sigma_z=0.1,
    )
    a0, a1 = generate_pair(spec)
    b0, b1 = generate_pair(spec)
    np.testing.assert_array_equal(a0.xyz, b0.xyz)
    np.testing.assert_array_equal(a1.xyz, b1.xyz)
    np.testing.assert_array_equal(a1.labels, b1.labels)


def test_added_building_roof_points_are_exactly_the_new_labels():
    # 20x20 footprint at 5 pts/m2: expected 2000 roof samples; the label-1
    # set must be exactly the roof-point set (in-footprint, at roof height)
    spec = SceneSpec(
        extent=40.0,
        ground_density=5.0,
        buildings=(Building((10, 10, 30, 30), 10.0, "added"),),
        noise_sigma_z=0.01,
        seed=7,
    )
    _, pc1 = generate_pair(spec)
    xy = pc1.xyz[:, :2]
    in_fp = (
        (xy[:, 0] >= 10) & (xy[:, 0] <= 30) & (xy[:, 1] >= 10) & (xy[:, 1] <= 30)
    )
    at_roof = np.abs(pc1.xyz[:, 2] - 10.0) < 0.1
    roof_points = in_fp & at_roof
    np.testing.assert_array_equal(pc1.labels == CLASS_NEW, roof_points)
    n_roof = int(roof_points.sum())
    assert abs(n_roof - 2000) < 4 * np.sqrt(2000)


def test_removed_building_labels_ground_inside_footprint():
    spec = SceneSpec(
        extent=40.0,
        ground_density=4.0,
        buildings=(Building((5, 5, 20, 20), 12.0, "removed"),),
        noise_sigma_z=0.01,
        seed=3,
    )
    pc0, pc1 = generate_pair(spec)
    demolished = pc1.labels == CLASS_DEMOLISHED
    assert demolished.any()
    xy = pc1.xyz[demolished, :2]
    assert (
        (xy[:, 0] >= 5) & (xy[:, 0] <= 20) & (xy[:, 1] >= 5) & (xy[:, 1] <= 20)
    ).all()
    assert np.abs(pc1.xyz[demolished, 2]).max() < 0.1
    # epoch 0 still carries the roof there, and its ground is occluded
    in_fp0 = (
        (pc0.xyz[:, 0] >= 5)
        & (pc0.xyz[:, 0] <= 20)
        & (pc0.xyz[:, 1] >= 5)
        & (pc0.xyz[:, 1] <= 20)
    )
    assert (pc0.xyz[in_fp0, 2] > 11.0).all()


def test_persistent_building_unlabeled():
    spec = _spec(buildings=(Building((10, 10, 20, 20), 6.0, "persistent"),))
    _, pc1 = generate_pair(spec)
    assert (pc1.labels == CLASS_UNCHANGED).all()


def test_density_ratio_scales_epoch1():
    spec = _spec(extent=50.0, ground_density=6.0, density_t1_ratio=0.3, seed=9)
    pc0, pc1 = generate_pair(spec)
    expect0 = 50.0 * 50.0 * 6.0
    expect1 = expect0 * 0.3
    assert abs(len(pc0) - expect0) < 4 * np.sqrt(expect0)
    assert abs(len(pc1) - expect1) < 4 * np.sqrt(expect1)


def test_point_count_scales_linearly_with_density():
    for density in (1.0, 4.0):
        spec = _spec(extent=40.0, ground_density=density, seed=11)
        pc0, _ = generate_pair(spec)
        expect = 40.0 * 40.0 * density
        assert abs(len(pc0) - expect) <= 4 * np.sqrt(expect)


class TestSpecValidation:
    def test_footprint_outside_extent(self):
        with pytest.raises(ValueError, match="extent"):
            _spec(buildings=(Building((20, 20, 40, 40), 5.0, "added"),))

    def test_overlapping_footprints(self):
        with pytest.raises(ValueError, match="overlap"):
            _spec(
                buildings=(
                    Building((1, 1, 10, 10), 5.0, "added"),
                    Building((5, 5, 15, 15), 5.0, "removed"),
                )
            )

    def test_touching_footprints_allowed(self):
        _spec(
            buildings=(
                Building((1, 1, 10, 10), 5.0, "added"),
                Building((10, 1, 20, 10), 5.0, "removed"),
            )
        )

    def test_bad_status(self):
        with pytest.raises(ValueError, match="status"):
            Building((0, 0, 1, 1), 5.0, "renovated")

    def test_nonpositive_height(self):
        with pytest.raises(ValueError, match="height"):
            Building((0, 0, 1, 1), 0.0, "added")

    def test_nonpositive_density(self):
        with pytest.raises(ValueError):
            _spec(ground_density=0.0)

    @pytest.mark.parametrize("extent", [0.0, -5.0, float("nan"), float("inf")])
    def test_extent_positive_and_finite(self, extent):
        with pytest.raises(ValueError, match="extent"):
            _spec(extent=extent)

    @pytest.mark.parametrize(
        "field, message",
        [
            ("ground_density", "densities"),
            ("density_t1_ratio", "densities"),
            ("noise_sigma_z", "noise_sigma_z"),
        ],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_densities_and_noise_finite(self, field, message, value):
        with pytest.raises(ValueError, match=f"{message} must be .* finite"):
            _spec(**{field: value})

    @pytest.mark.parametrize(
        "fields",
        [
            dict(extent=1e7),
            dict(extent=1e300),  # the expected count overflows to inf
            dict(extent=1e4, ground_density=1.0, density_t1_ratio=2.0),
            dict(ground_density=1e300, density_t1_ratio=1e300),
            dict(extent=10**200, ground_density=1.0),  # its square is no float
            dict(extent=10**400, ground_density=1.0),  # nor is the int itself
        ],
    )
    def test_expected_point_count_bounded(self, fields):
        with pytest.raises(ValueError, match="points per epoch"):
            _spec(**fields)

    def test_expected_point_count_at_the_bound_is_accepted(self):
        # a spec is only checked here; no point is drawn
        spec = _spec(extent=1e4, ground_density=1.0)
        assert spec.extent**2 * spec.ground_density == MAX_POINTS_PER_EPOCH

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="seed"):
            _spec(seed=-1)

    def test_negative_noise(self):
        with pytest.raises(ValueError, match="noise_sigma_z"):
            _spec(noise_sigma_z=-1.0)

    @pytest.mark.parametrize(
        "footprint, height, field",
        [
            ((0, 0, 1), 5.0, "footprint"),
            ((0, 0, "1", 1), 5.0, "footprint"),
            (3, 5.0, "footprint"),
            ((0, 0, 1, 1), "5", "height"),
            ((0, 0, 1, 1), True, "height"),
            ((0, 0, 1, 1), float("nan"), "height"),
        ],
    )
    def test_ill_typed_building_field(self, footprint, height, field):
        with pytest.raises(ValueError, match=field):
            Building(footprint, height, "added")


@pytest.mark.parametrize(
    "items, message",
    [
        ({"a": 1}, "expected a list of buildings, got dict"),
        ([7], "building 0: expected an object, got int"),
        (
            [{"footprint": [0, 0, 1, 1], "height": 2.0}],
            "building 0: missing field 'status'",
        ),
        (
            [{"footprint": [0, 0, 1, 1], "height": 2.0, "status": "added"},
             {"footprint": [1, 1, 0, 0], "height": 2.0, "status": "added"}],
            "building 1: degenerate footprint",
        ),
    ],
)
def test_buildings_from_list_names_the_building_and_field(items, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        buildings_from_list(items)


class TestPresets:
    def test_documented_constants(self):
        assert preset("high_res_low_noise").ground_density == 10.0
        assert preset("high_res_low_noise").noise_sigma_z == 0.05
        assert preset("low_res_high_noise").ground_density == 1.0
        assert preset("low_res_high_noise").noise_sigma_z == 0.3
        assert preset("multi_density").density_t1_ratio == 0.3

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="bogus"):
            preset("bogus")

    def test_names_listed(self):
        assert "multi_density" in preset_names()


def test_spec_dict_records_every_field(tmp_path):
    buildings = [{"footprint": [2, 2, 8, 8], "height": 4.0, "status": "removed"}]
    bpath = tmp_path / "b.json"
    bpath.write_text(json.dumps(buildings))
    prefix = str(tmp_path / "scene")
    code = run(
        ["synth", "--preset", "multi_density", "--seed", "42", "--extent", "30",
         "--buildings", str(bpath), "--out-prefix", prefix]
    )
    assert code == EXIT_OK
    with open(prefix + "_scene.json", encoding="utf-8") as fh:
        recorded = json.load(fh)
    assert recorded == {
        "extent": 30.0,
        "ground_density": 4.0,
        "density_t1_ratio": 0.3,
        "buildings": buildings,
        "noise_sigma_z": 0.1,
        "seed": 42,
    }
    assert buildings_from_list(recorded["buildings"]) == (
        Building((2, 2, 8, 8), 4.0, "removed"),
    )
