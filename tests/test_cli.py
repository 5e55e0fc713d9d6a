import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from otcd import solver
from otcd.cli import (
    EXIT_DATA,
    EXIT_OK,
    EXIT_STRICT,
    EXIT_USAGE,
    _build_parser,
    _detection_config,
    _solver_config,
    run,
)
from otcd.chunking import ChunkingConfig
from otcd.detection import (
    METHOD_BALANCED_OT,
    ChangeDetectionConfig,
    classify,
    detect_changes,
)
from otcd.io import PointCloud, read_ply, read_xyz, write_ply_scored, write_xyz
from otcd.metrics import confusion, iou
from otcd.solver import SolverConfig
from otcd.synth import Building, SceneSpec, generate_pair


@pytest.fixture(scope="module")
def scene_files(tmp_path_factory):
    """A small labeled scene pair on disk."""
    root = tmp_path_factory.mktemp("scene")
    spec = SceneSpec(
        extent=20.0,
        ground_density=4.0,
        buildings=(Building((6.0, 6.0, 14.0, 14.0), 8.0, "added"),),
        noise_sigma_z=0.03,
        seed=17,
    )
    pc0, pc1 = generate_pair(spec)
    t0 = root / "t0.xyz"
    t1 = root / "t1.xyz"
    write_xyz(t0, pc0)
    write_xyz(t1, pc1)
    return str(t0), str(t1)


def _strict_json(text):
    """``json.loads`` that rejects the non-RFC 8259 NaN/Infinity literals."""

    def reject(name):
        raise ValueError(f"not strict JSON: {name}")

    return json.loads(text, parse_constant=reject)


def _detect_args(t0, t1, out, *extra):
    return [
        "detect",
        "--t0", t0,
        "--t1", t1,
        "--tau", "4.0",
        "--point-cap", "600",
        "--method", "nn",
        "-o", out,
        *extra,
    ]


class TestDetect:
    def test_happy_path_writes_ply_and_diagnostics(self, scene_files, tmp_path):
        t0, t1 = scene_files
        out = str(tmp_path / "out.ply")
        assert run(_detect_args(t0, t1, out)) == EXIT_OK
        assert os.path.exists(out)
        diag_path = str(tmp_path / "out.diag.json")
        assert os.path.exists(diag_path)
        cloud, scores, classes = read_ply(out)
        truth = read_xyz(t1)
        assert len(cloud) == len(truth)
        assert set(np.unique(classes)) <= {0, 1, 2}
        diag = json.loads(open(diag_path).read())
        assert diag["method"] == "nn"
        assert diag["n_chunks"] == len(diag["chunks"])

    def test_uot_detect_runs(self, scene_files, tmp_path):
        t0, t1 = scene_files
        out = str(tmp_path / "uot.ply")
        code = run(
            [
                "detect", "--t0", t0, "--t1", t1, "--tau", "4.0",
                "--epsilon-rel", "0.01", "--rho", "1000", "--point-cap", "600",
                "-o", out,
            ]
        )
        assert code == EXIT_OK
        _, scores, classes = read_ply(out)
        truth = read_xyz(t1)
        new_truth = truth.labels == 1
        assert (classes[new_truth] == 1).mean() >= 0.8

    def test_conflicting_epsilon_flags_usage_error(self, scene_files, tmp_path, capsys):
        t0, t1 = scene_files
        out = str(tmp_path / "x.ply")
        code = run(
            _detect_args(t0, t1, out) + ["--epsilon", "1.0", "--epsilon-rel", "0.01"]
        )
        assert code == EXIT_USAGE
        # SolverConfig owns the rule and its message
        err = capsys.readouterr().err
        assert "usage error: set at most one of epsilon / epsilon_rel" in err

    def test_missing_input_is_data_error(self, tmp_path):
        code = run(_detect_args("/nonexistent.xyz", "/nope.xyz", str(tmp_path / "o.ply")))
        assert code == EXIT_DATA

    def test_output_below_a_file_is_data_error(self, scene_files, capsys):
        # NotADirectoryError: an OSError that is none of the usual three
        t0, t1 = scene_files
        assert run(_detect_args(t0, t1, os.path.join(t0, "out.ply"))) == EXIT_DATA
        assert "error: [Errno" in capsys.readouterr().err

    def test_malformed_input_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.xyz"
        bad.write_text("1 2\n")
        code = run(_detect_args(str(bad), str(bad), str(tmp_path / "o.ply")))
        assert code == EXIT_DATA

    def test_upper_case_ply_suffix_is_read_as_ply(self, scene_files, tmp_path):
        # any letter case selects the PLY reader; the XYZ reader would
        # reject the file with "t1.PLY:1: expected 3 fields, got 1"
        t0, t1 = scene_files
        upper = str(tmp_path / "t1.PLY")
        cloud = read_xyz(t1)
        write_ply_scored(upper, cloud, np.zeros(len(cloud)), np.zeros(len(cloud)))
        out = str(tmp_path / "out.PLY")
        code = run(
            [
                "detect", "--t0", t0, "--t1", upper, "--tau", "4.0",
                "--point-cap", "600", "-o", out,
            ]
        )
        assert code == EXIT_OK
        assert len(read_ply(out)[0]) == len(cloud)
        diag = _strict_json((tmp_path / "out.diag.json").read_text())
        assert diag["method"] == "uot"
        for chunk in diag["chunks"]:
            assert chunk["converged"] and chunk["mass_change"] > 0

    def test_zero_vertex_ply_epoch_is_data_error(self, scene_files, tmp_path, capsys):
        empty = str(tmp_path / "empty.ply")
        write_ply_scored(
            empty, PointCloud(xyz=np.empty((0, 3))), np.empty(0), np.empty(0)
        )
        code = run(_detect_args(empty, scene_files[1], str(tmp_path / "o.ply")))
        assert code == EXIT_DATA
        assert "both epochs must be non-empty" in capsys.readouterr().err

    def test_strict_flags_nonconvergence(self, scene_files, tmp_path):
        t0, t1 = scene_files
        out = str(tmp_path / "strict.ply")
        code = run(
            [
                "detect", "--t0", t0, "--t1", t1, "--tau", "4.0",
                "--epsilon-rel", "0.001", "--rho", "1000", "--max-iter", "1",
                "--point-cap", "600", "--strict", "-o", out,
            ]
        )
        assert code == EXIT_STRICT
        # outputs still written for inspection
        assert os.path.exists(out)
        # a uot chunk stopped after one sweep has no stopping gap to report
        diag = _strict_json((tmp_path / "strict.diag.json").read_text())
        assert diag["chunks"]
        for chunk in diag["chunks"]:
            assert (chunk["iterations"], chunk["converged"], chunk["gap"]) == (
                1, False, None
            )

    def test_usage_error_on_unknown_command(self):
        assert run(["frobnicate"]) == EXIT_USAGE

    def test_single_point_chunk_with_zero_median_cost(self, tmp_path):
        # the isolated point lands alone in a 1x1 chunk whose only cost is 0
        rng = np.random.default_rng(3)
        xyz = np.column_stack(
            [rng.uniform(0, 10, 50), rng.uniform(0, 10, 50), rng.uniform(0, 1, 50)]
        )
        xyz = np.vstack([xyz, [100.0, 100.0, 0.5]])
        t0, t1 = str(tmp_path / "t0.xyz"), str(tmp_path / "t1.xyz")
        write_xyz(t0, PointCloud(xyz=xyz))
        write_xyz(t1, PointCloud(xyz=xyz))
        out = str(tmp_path / "o.ply")
        code = run(
            ["detect", "--t0", t0, "--t1", t1, "--tau", "2.0",
             "--point-cap", "20", "-o", out]
        )
        assert code == EXIT_OK
        _, _, classes = read_ply(out)
        assert (classes == 0).all()

    def test_detect_default_rho(self):
        args = _build_parser().parse_args(
            ["detect", "--t0", "a.xyz", "--t1", "b.xyz", "--tau", "2", "-o", "o.ply"]
        )
        cfg = _detection_config(args, tau=args.tau)
        assert cfg.solver == SolverConfig(epsilon_rel=0.01, rho=1000.0)
        assert cfg.chunking == ChunkingConfig()
        assert cfg.method == "uot"
        # the library defaults are the CLI's, for every field
        assert _solver_config(args) == SolverConfig()
        assert cfg == ChangeDetectionConfig()

    def test_detect_default_method_is_the_library_default(self, monkeypatch):
        argv = ["detect", "--t0", "a.xyz", "--t1", "b.xyz", "--tau", "2", "-o", "o.ply"]
        args = _build_parser().parse_args(argv)
        assert _detection_config(args, tau=2.0).method == ChangeDetectionConfig().method
        # the CLI reads its default from the config class, not from a copy
        monkeypatch.setattr(ChangeDetectionConfig, "method", METHOD_BALANCED_OT)
        args = _build_parser().parse_args(argv)
        assert args.method == "ot"
        assert _detection_config(args, tau=2.0).method == METHOD_BALANCED_OT

    def test_library_defaults_score_as_detect_without_solver_flags(
        self, scene_files, tmp_path
    ):
        t0, t1 = scene_files
        cli_out, lib_out = str(tmp_path / "cli.ply"), str(tmp_path / "lib.ply")
        argv = ["detect", "--t0", t0, "--t1", t1, "--tau", "2", "-o", cli_out]
        assert run(argv) == EXIT_OK
        pc1 = read_xyz(t1)
        result = detect_changes(read_xyz(t0), pc1, ChangeDetectionConfig())
        write_ply_scored(lib_out, pc1, result.scores, result.classes)
        with open(cli_out, "rb") as a, open(lib_out, "rb") as b:
            assert a.read() == b.read()


# the inputs do not exist: reading any of them first would be a data error
_ABSENT = ["--t0", "absent_t0.xyz", "--t1", "absent_t1.xyz"]


@pytest.mark.parametrize(
    "argv",
    [
        ["detect", *_ABSENT, "--tau", "0", "-o", "o.ply"],
        ["detect", *_ABSENT, "--tau", "2", "--workers", "0", "-o", "o.ply"],
        ["detect", *_ABSENT, "--tau", "2", "--point-cap", "0", "-o", "o.ply"],
        ["detect", *_ABSENT, "--tau", "2", "--halo", "-1", "-o", "o.ply"],
        ["detect", *_ABSENT, "--tau", "2", "--rho", "-1", "-o", "o.ply"],
        ["detect", *_ABSENT, "--tau", "2", "--max-iter", "0", "-o", "o.ply"],
        ["sweep", *_ABSENT, "--tau-grid", "0,1", "-o", "o.json"],
        ["sweep", *_ABSENT, "--tau-grid", "a:b:c", "-o", "o.json"],
        ["sweep", *_ABSENT, "--tau-grid", ",", "-o", "o.json"],
        # a comma list repeats a value; a range runs backwards
        ["sweep", *_ABSENT, "--tau-grid", "1,1", "-o", "o.json"],
        ["sweep", *_ABSENT, "--tau-grid", "2,1,2", "-o", "o.json"],
        ["sweep", *_ABSENT, "--tau-grid", "3:1:1", "-o", "o.json"],
        # argparse reads a leading "-" as a flag; no such grid is valid anyway
        ["sweep", *_ABSENT, "--tau-grid", "-1:1:0.5", "-o", "o.json"],
        ["detect", *_ABSENT, "--tau", "nan", "-o", "o.ply"],
        ["detect", *_ABSENT, "--tau", "inf", "-o", "o.ply"],
        ["detect", *_ABSENT, "--tau", "2", "--halo", "nan", "-o", "o.ply"],
        ["detect", *_ABSENT, "--tau", "2", "--halo", "inf", "-o", "o.ply"],
        ["detect", *_ABSENT, "--tau", "2", "--tol", "nan", "-o", "o.ply"],
        ["detect", *_ABSENT, "--tau", "2", "--epsilon", "nan", "-o", "o.ply"],
        ["detect", *_ABSENT, "--tau", "2", "--epsilon-rel", "nan", "-o", "o.ply"],
        ["detect", *_ABSENT, "--tau", "2", "--epsilon", "inf", "-o", "o.ply"],
        ["detect", *_ABSENT, "--tau", "2", "--epsilon-rel", "inf", "-o", "o.ply"],
        ["sweep", *_ABSENT, "--epsilon", "inf", "-o", "o.json"],
        ["detect", *_ABSENT, "--tau", "2", "--epsilon", "1", "--epsilon-rel", "0.01",
         "-o", "o.ply"],
        ["detect", *_ABSENT, "--tau", "2", "--method", "uot", "--rho", "inf",
         "-o", "o.ply"],
        ["sweep", *_ABSENT, "--method", "uot", "--rho", "inf", "-o", "o.json"],
        # the methods that do not use rho refuse an infinite one as well
        ["detect", *_ABSENT, "--tau", "2", "--method", "ot", "--rho", "inf",
         "-o", "o.ply"],
        ["detect", *_ABSENT, "--tau", "2", "--method", "nn", "--rho", "inf",
         "-o", "o.ply"],
        ["sweep", *_ABSENT, "--tau-grid", "1,nan", "-o", "o.json"],
        ["sweep", *_ABSENT, "--tau-grid", "nan", "-o", "o.json"],
        ["sweep", *_ABSENT, "--tau-grid", "1,inf", "-o", "o.json"],
        ["sweep", *_ABSENT, "--tau-grid", "0.5:nan:0.5", "-o", "o.json"],
        ["sweep", *_ABSENT, "--tau-grid", "0.5:inf:0.5", "-o", "o.json"],
        # rounded to 9 decimals: four zeros, then a repeat of 0.1
        ["sweep", *_ABSENT, "--tau-grid", "1e-10:1e-9:1e-10", "-o", "o.json"],
        ["sweep", *_ABSENT, "--tau-grid", "0.1:0.1000000001:1e-10", "-o", "o.json"],
        # 1e8 values, refused before the list is built
        ["sweep", *_ABSENT, "--tau-grid", "1e-7:10:1e-7", "-o", "o.json"],
        ["chunk-stats", *_ABSENT, "--point-cap", "0"],
        ["eval", "--scored", "absent.ply", "--truth", "absent.xyz", "--tau", "0"],
        ["eval", "--scored", "absent.ply", "--truth", "absent.xyz", "--tau", "nan"],
        ["bench", "--sizes", "10", "--iters", "0"],
        ["bench", "--sizes", "-5"],
        ["bench", "--sizes", "0"],
        ["bench", "--sizes", "10,0"],
        ["synth", "--preset", "multi_density", "--extent", "0", "--out-prefix", "o"],
        ["synth", "--preset", "multi_density", "--extent", "-5", "--out-prefix", "o"],
        ["synth", "--preset", "multi_density", "--seed", "-1", "--out-prefix", "o"],
        # 2e14 points per epoch: refused before numpy is asked for the arrays
        ["synth", "--preset", "low_res_low_noise", "--extent", "1e7",
         "--out-prefix", "o"],
        # the expected point count overflows to inf
        ["synth", "--preset", "low_res_low_noise", "--extent", "1e300",
         "--out-prefix", "o"],
    ],
    ids=lambda argv: " ".join(a for a in argv if a not in _ABSENT),
)
def test_invalid_flag_value_is_usage_error_before_any_read(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == EXIT_USAGE
    assert list(tmp_path.iterdir()) == []


def test_infinite_rho_points_to_method_ot(capsys):
    argv = ["detect", *_ABSENT, "--tau", "2", "--rho", "inf", "-o", "o.ply"]
    assert run(argv) == EXIT_USAGE
    assert "use method ot (METHOD_BALANCED_OT)" in capsys.readouterr().err


def test_help_lists_the_library_method_ids(capsys):
    with pytest.raises(SystemExit):
        run(["detect", "--help"])
    assert "{uot,ot,nn}" in capsys.readouterr().out


def test_diagnostics_name_method_ot_as_the_flag_does(scene_files, tmp_path):
    t0, t1 = scene_files
    out = str(tmp_path / "o.ply")
    argv = ["detect", "--t0", t0, "--t1", t1, "--tau", "4.0", "--method", "ot"]
    assert run([*argv, "--point-cap", "600", "-o", out]) == EXIT_OK
    assert json.loads((tmp_path / "o.diag.json").read_text())["method"] == "ot"


class TestSweepAndEval:
    @pytest.mark.parametrize("method", ["uot", "ot", "nn"])
    def test_sweep_writes_metrics_json(self, scene_files, tmp_path, method):
        t0, t1 = scene_files
        out = str(tmp_path / "metrics.json")
        code = run(
            [
                "sweep", "--t0", t0, "--t1", t1,
                "--tau-grid", "2,4,6",
                "--method", method,
                "--point-cap", "600",
                "--dataset", "toy",
                "-o", out,
            ]
        )
        assert code == EXIT_OK
        payload = _strict_json(open(out).read())
        assert payload["method"] == method
        assert payload["dataset"] == "toy"
        assert set(payload["iou"]) == {"unchanged", "new", "demolished"}
        assert len(payload["sweep"]) == 3
        assert payload["tau"] in (2.0, 4.0, 6.0)
        assert 0.0 <= payload["mean_change_iou"] <= 1.0

    def test_sweep_requires_labels(self, scene_files, tmp_path, capsys):
        t0, _ = scene_files
        code = run(
            ["sweep", "--t0", t0, "--t1", t0, "--method", "nn",
             "-o", str(tmp_path / "m.json")]
        )
        assert code == EXIT_DATA
        assert f"error: {t0}: ground-truth labels" in capsys.readouterr().err

    def test_eval_truth_from_ply_is_data_error(self, scene_files, tmp_path, capsys):
        t0, t1 = scene_files
        ply = str(tmp_path / "d.ply")
        assert run(_detect_args(t0, t1, ply)) == EXIT_OK
        capsys.readouterr()
        code = run(["eval", "--scored", ply, "--truth", ply])
        assert code == EXIT_DATA
        assert f"error: {ply}: ground-truth labels" in capsys.readouterr().err

    def test_eval_truth_one_row_short_is_data_error(
        self, scene_files, tmp_path, capsys
    ):
        t0, t1 = scene_files
        ply = str(tmp_path / "d.ply")
        assert run(_detect_args(t0, t1, ply)) == EXIT_OK
        rows = open(t1).read().splitlines(keepends=True)
        short = tmp_path / "short.xyz"
        short.write_text("".join(rows[:-1]))
        capsys.readouterr()
        code = run(["eval", "--scored", ply, "--truth", str(short)])
        assert code == EXIT_DATA
        n = len(read_xyz(t1))
        assert (
            f"error: label vectors differ in shape: ({n - 1},) vs ({n},)"
            in capsys.readouterr().err
        )

    def test_range_grid_syntax(self, scene_files, tmp_path):
        t0, t1 = scene_files
        out = str(tmp_path / "m.json")
        # 0.1 + 2 * 0.1 is 0.30000000000000004 unless rounded
        for spec, expected in (
            ("1:3:1", [1.0, 2.0, 3.0]),
            ("0.1:1:0.1", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]),
        ):
            code = run(
                ["sweep", "--t0", t0, "--t1", t1, "--tau-grid", spec,
                 "--method", "nn", "--point-cap", "600", "-o", out]
            )
            assert code == EXIT_OK
            taus = [row["tau"] for row in json.loads(open(out).read())["sweep"]]
            assert taus == expected

    def test_detect_then_eval_matches_sweep_point(self, scene_files, tmp_path, capsys):
        t0, t1 = scene_files
        ply = str(tmp_path / "d.ply")
        assert run(_detect_args(t0, t1, ply)) == EXIT_OK
        capsys.readouterr()

        eval_out = str(tmp_path / "eval.json")
        assert (
            run(["eval", "--scored", ply, "--truth", t1, "-o", eval_out])
            == EXIT_OK
        )
        eval_payload = _strict_json(open(eval_out).read())
        # without --tau the file's own classes are scored and tau is null
        assert eval_payload["tau"] is None
        assert _strict_json(capsys.readouterr().out) == eval_payload

        sweep_out = str(tmp_path / "s.json")
        assert (
            run(
                ["sweep", "--t0", t0, "--t1", t1, "--tau-grid", "4.0",
                 "--method", "nn", "--point-cap", "600", "-o", sweep_out]
            )
            == EXIT_OK
        )
        sweep_payload = json.loads(open(sweep_out).read())
        assert eval_payload["mean_change_iou"] == pytest.approx(
            sweep_payload["mean_change_iou"], abs=1e-12
        )

    def test_eval_tau_reclassifies_the_stored_scores(
        self, scene_files, tmp_path, capsys
    ):
        t0, t1 = scene_files
        ply = str(tmp_path / "d.ply")
        # stored at tau 9, above the 8 m roof: the new building is unchanged
        assert run(_detect_args(t0, t1, ply, "--tau", "9")) == EXIT_OK
        _, scores, stored = read_ply(ply)
        labels = read_xyz(t1).labels
        reclassified = classify(scores, 3.0)
        assert (reclassified != stored).any()
        for flags, classes, tau in (
            ([], stored, None),
            (["--tau", "3"], reclassified, 3.0),
        ):
            capsys.readouterr()
            assert run(["eval", "--scored", ply, "--truth", t1, *flags]) == EXIT_OK
            expected = iou(confusion(labels, classes), tau_used=tau).to_dict()
            assert _strict_json(capsys.readouterr().out) == {
                "scored": ply,
                "truth": t1,
                **expected,
            }

    def test_sweep_strict_flags_nonconvergence(self, scene_files, tmp_path):
        t0, t1 = scene_files
        out = str(tmp_path / "m.json")
        code = run(
            ["sweep", "--t0", t0, "--t1", t1, "--tau-grid", "2.0",
             "--epsilon-rel", "0.001", "--rho", "1000", "--max-iter", "1",
             "--point-cap", "600", "--strict", "-o", out]
        )
        assert code == EXIT_STRICT
        assert os.path.exists(out)

    def test_eval_rejects_ply_without_vertex_count(self, scene_files, tmp_path):
        _, t1 = scene_files
        bad = tmp_path / "bad.ply"
        bad.write_text(
            "ply\nformat ascii 1.0\nelement vertex\nproperty float x\nend_header\n"
        )
        code = run(["eval", "--scored", str(bad), "--truth", t1])
        assert code == EXIT_DATA

    def test_eval_rejects_unscored_ply(self, scene_files, tmp_path):
        t0, t1 = scene_files
        # write a PLY without score properties by hand
        plain = tmp_path / "plain.ply"
        plain.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n0 0 0\n"
        )
        code = run(["eval", "--scored", str(plain), "--truth", t1])
        assert code == EXIT_DATA


class TestSynthAndStats:
    def test_synth_writes_pair_and_sidecar(self, tmp_path, capsys):
        prefix = str(tmp_path / "scene")
        code = run(["synth", "--preset", "low_res_low_noise", "--seed", "4",
                    "--out-prefix", prefix])
        assert code == EXIT_OK
        pc0 = read_xyz(prefix + "_t0.xyz")
        pc1 = read_xyz(prefix + "_t1.xyz")
        assert len(pc0) > 0 and len(pc1) > 0
        sidecar = json.loads(open(prefix + "_scene.json").read())
        assert sidecar["seed"] == 4
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["n1"] == len(pc1)

    def test_synth_buildings_file(self, tmp_path):
        buildings = [
            {"footprint": [2, 2, 8, 8], "height": 5.0, "status": "added"}
        ]
        bpath = tmp_path / "b.json"
        bpath.write_text(json.dumps(buildings))
        prefix = str(tmp_path / "built")
        code = run(["synth", "--preset", "low_res_low_noise", "--buildings",
                    str(bpath), "--out-prefix", prefix])
        assert code == EXIT_OK
        pc1 = read_xyz(prefix + "_t1.xyz")
        assert (pc1.labels == 1).any()

    @pytest.mark.parametrize(
        "content, message",
        [
            ([{"footprint": [0, 0, 1, 1]}], "building 0: missing field 'height'"),
            ({"a": 1}, "expected a list of buildings, got dict"),
            (
                [{"footprint": [0, 0, 1, 1], "height": math.nan, "status": "added"}],
                "building 0: height must be positive and finite, got nan",
            ),
        ],
        ids=["missing field", "not a list", "NaN height"],
    )
    def test_synth_bad_buildings_file_is_data_error(
        self, tmp_path, capsys, content, message
    ):
        bpath = tmp_path / "b.json"
        bpath.write_text(json.dumps(content))
        code = run(["synth", "--preset", "low_res_low_noise", "--buildings",
                    str(bpath), "--out-prefix", str(tmp_path / "built")])
        assert code == EXIT_DATA
        assert f"error: {bpath}: {message}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [bpath]

    # a halo selects each chunk's sources from the grown cell
    @pytest.mark.parametrize("halo", ["0", "4"])
    def test_chunk_stats_json(self, scene_files, capsys, halo):
        t0, t1 = scene_files
        code = run(
            ["chunk-stats", "--t0", t0, "--t1", t1, "--point-cap", "300",
             "--halo", halo]
        )
        assert code == EXIT_OK
        payload = _strict_json(capsys.readouterr().out)
        assert payload["count"] >= 4
        assert set(payload["src"]) == {"min", "median", "max"}
        assert payload["tgt"]["max"] <= 300


class TestBench:
    def test_bench_reports_timings(self, capsys):
        code = run(["bench", "--sizes", "150,300", "--iters", "3"])
        assert code == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert [r["n"] for r in rows] == [150, 300]
        assert all(r["wall_ms"] > 0 for r in rows)
        assert all(r["iterations"] == 3 for r in rows)

    def test_bench_bad_sizes_usage_error(self):
        assert run(["bench", "--sizes", "abc"]) == EXIT_USAGE


class TestMemoryGuard:
    """The dense-allocation guard, on a stubbed reading of available memory:
    no test allocates an oversized matrix."""

    def test_detect_refusal_is_data_error(
        self, scene_files, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(solver, "_available_memory_bytes", lambda: 2**10)
        t0, t1 = scene_files
        out = str(tmp_path / "o.ply")
        argv = ["detect", "--t0", t0, "--t1", t1, "--tau", "4.0", "-o", out]
        assert run(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert "GiB" in err and "reduce the chunk point cap" in err
        assert not os.path.exists(out)

    def test_bench_reports_the_refused_size_as_an_error_row(
        self, capsys, monkeypatch
    ):
        # 1 MiB fits the 10x10 solve, not the 3000x3000 one
        monkeypatch.setattr(solver, "_available_memory_bytes", lambda: 2**20)
        code = run(["bench", "--sizes", "10,3000", "--iters", "1"])
        assert code == EXIT_OK
        small, refused = json.loads(capsys.readouterr().out)
        assert small["n"] == 10 and small["wall_ms"] > 0
        assert refused["n"] == 3000 and set(refused) == {"n", "error"}
        assert "GiB" in refused["error"]


def _run_python(*args, **env_vars):
    env = dict(os.environ, **env_vars)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True
    )


def test_module_entrypoint_smoke(tmp_path):
    result = _run_python(
        "-m", "otcd", "synth", "--preset", "low_res_low_noise",
        "--out-prefix", str(tmp_path / "cli"),
    )
    assert result.returncode == 0, result.stderr
    assert os.path.exists(str(tmp_path / "cli_t1.xyz"))


_RUN_ALL = """
import json, sys
import otcd.cli
sys.exit(max(otcd.cli.run(argv) for argv in json.loads(sys.argv[1])))
"""


def test_worker_count_does_not_change_bytes_with_two_blas_threads(tmp_path):
    # OpenBLAS reads its thread count when it loads: a fresh interpreter
    prefix = str(tmp_path / "s")
    argv = ["synth", "--preset", "low_res_low_noise", "--seed", "1"]
    assert run([*argv, "--out-prefix", prefix]) == EXIT_OK
    cases = {
        # four ~500x500 chunks, far above the 9,216 cells from which
        # OpenBLAS threads a gemv, whose uot sweeps are over-relaxed
        "uot": ["--method", "uot", "--point-cap", "1000"],
        # 16 balanced chunks of up to ~500 halo sources x ~140 targets
        "halo": ["--method", "ot", "--halo", "4", "--point-cap", "300"],
    }
    common = ["detect", "--t0", prefix + "_t0.xyz", "--t1", prefix + "_t1.xyz",
              "--tau", "2"]
    argvs = [
        [*common, *flags, "--workers", workers, "-o", f"{prefix}.{name}.w{workers}.ply"]
        for name, flags in cases.items()
        for workers in ("1", "2")
    ]
    result = _run_python("-c", _RUN_ALL, json.dumps(argvs), OPENBLAS_NUM_THREADS="2")
    assert result.returncode == EXIT_OK, result.stderr
    for name in cases:
        one, two = (
            (tmp_path / f"s.{name}.w{workers}.ply").read_bytes()
            for workers in ("1", "2")
        )
        assert one == two, name


_SCIPY_PROBE = """
import json, sys
import otcd, otcd.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

after_import = scipy_modules()
t0, t1, out = sys.argv[1:4]
common = ["--t0", t0, "--t1", t1, "--tau", "4.0", "--point-cap", "300",
          "--workers", "2", "-o", out]
uot_code = otcd.cli.run(["detect", "--method", "uot", *common])
after_uot = scipy_modules()
nn_code = otcd.cli.run(["detect", "--method", "nn", *common])
print(json.dumps({"after_import": after_import, "uot_code": uot_code,
                  "after_uot": after_uot, "nn_code": nn_code,
                  "cKDTree": "scipy.spatial" in sys.modules}))
"""


def test_scipy_is_loaded_only_by_the_nn_baseline(scene_files, tmp_path):
    t0, t1 = scene_files
    out = str(tmp_path / "probe.ply")
    result = _run_python("-c", _SCIPY_PROBE, t0, t1, out)
    assert result.returncode == 0, result.stderr
    probe = json.loads(result.stdout.strip().splitlines()[-1])
    assert probe["after_import"] == []
    assert probe["uot_code"] == EXIT_OK
    assert probe["after_uot"] == []
    # detect_changes imports scipy.spatial once, before the nn chunks start
    # on two worker threads
    assert probe["nn_code"] == EXIT_OK
    assert probe["cKDTree"]
    diag = json.loads((tmp_path / "probe.diag.json").read_text())
    assert diag["method"] == "nn" and diag["n_chunks"] >= 2
