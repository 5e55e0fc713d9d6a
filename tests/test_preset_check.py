"""scripts/preset_check.py on the smallest preset at one seed."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "preset_check.py"

_spec = importlib.util.spec_from_file_location("preset_check", SCRIPT)
preset_check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(preset_check)


def test_one_row_per_method():
    # low_res_high_noise is the sparsest preset: 2.3k + 2.4k points, and a
    # 600-point cap keeps each chunk's matrix small
    rows = preset_check.check("low_res_high_noise", [1], 600)
    assert [(r["preset"], r["method"]) for r in rows] == [
        ("low_res_high_noise", "ot"),
        ("low_res_high_noise", "uot"),
    ]
    for row in rows:
        assert row["seeds"] == [1] and row["point_cap"] == 600
        # one seed: the mean, min and max are that seed's best IoU
        assert row["best_iou_min"] == row["best_iou_mean"] == row["best_iou_max"]
        assert 0.8 < row["best_iou_mean"] <= 1.0
        assert row["sweeps"] > 0 and row["unconverged_chunks"] == 0
        # what main prints: one strict JSON line
        assert json.loads(json.dumps(row, allow_nan=False)) == row


def test_best_iou_spreads_over_seeds():
    rows = preset_check.check("low_res_high_noise", [1, 2], 600)
    for row in rows:
        assert row["best_iou_min"] <= row["best_iou_mean"] <= row["best_iou_max"]
        assert row["best_iou_min"] < row["best_iou_max"]


def test_bad_seeds_are_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        preset_check.main(["--seeds", "1,x"])
    assert exc.value.code == 2
    assert "not a comma list of integers" in capsys.readouterr().err
