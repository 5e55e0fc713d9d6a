"""scripts/reproduce_urb3dcd.py on small synthetic sub-datasets."""

import importlib.util
import json
from pathlib import Path

import pytest

from otcd.cli import EXIT_OK, run
from otcd.io import write_xyz
from otcd.synth import Building, SceneSpec, generate_pair

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "reproduce_urb3dcd.py"

_spec = importlib.util.spec_from_file_location("reproduce_urb3dcd", SCRIPT)
reproduce = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reproduce)

_CHANGES = (
    Building((3.0, 3.0, 11.0, 11.0), 8.0, "added"),
    Building((13.0, 13.0, 21.0, 21.0), 8.0, "removed"),
)


def _write_sub(root: Path, name: str, seed: int, buildings=_CHANGES) -> Path:
    spec = SceneSpec(
        extent=24.0,
        ground_density=2.0,
        density_t1_ratio=0.5,
        buildings=buildings,
        noise_sigma_z=0.05,
        seed=seed,
    )
    pc0, pc1 = generate_pair(spec)
    sub = root / name
    sub.mkdir(parents=True)
    write_xyz(sub / "t0.xyz", pc0)
    write_xyz(sub / "t1.xyz", pc1)
    return sub


@pytest.fixture(scope="module")
def data_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("urb3dcd")
    _write_sub(root, "a", seed=3)
    _write_sub(root, "b", seed=5)
    return root


def _direct_sweep(sub: Path, method: str, flags: list, out: Path) -> float:
    argv = ["sweep", "--t0", str(sub / "t0.xyz"), "--t1", str(sub / "t1.xyz"),
            "--method", method, *flags, "-o", str(out)]
    assert run(argv) == EXIT_OK
    return json.loads(out.read_text())["mean_change_iou"]


@pytest.mark.parametrize(
    "flags",
    [
        ["--point-cap", "600"],
        ["--point-cap", "600", "--tau-grid", "1,2,4", "--rho", "500"],
    ],
    ids=["default grid", "comma grid"],
)
def test_report_rows_equal_direct_sweeps(data_root, tmp_path, flags):
    report = tmp_path / "report.json"
    code = reproduce.main(["--data-root", str(data_root), *flags, "-o", str(report)])
    rows = json.loads(report.read_text())
    expected = []
    for name in ("a", "b"):
        ot, uot = (
            _direct_sweep(data_root / name, m, flags, tmp_path / f"{name}.{m}.json")
            for m in ("ot", "uot")
        )
        expected.append({"dataset": name, "ot": ot, "uot": uot, "uot_wins": uot > ot})
    assert rows == expected
    assert code == (0 if all(row["uot_wins"] for row in rows) else 1)


def test_ordering_violated_exits_1(tmp_path, capsys):
    # no buildings: both methods classify every point unchanged, IoU 1.0 each
    _write_sub(tmp_path / "root", "flat", seed=1, buildings=())
    code = reproduce.main(["--data-root", str(tmp_path / "root"), "--point-cap", "600"])
    assert code == 1
    assert "OT 1.0000  UOT 1.0000  ORDERING VIOLATED" in capsys.readouterr().out


def test_malformed_epoch_is_data_error(data_root, tmp_path, capsys):
    sub = tmp_path / "root" / "bad"
    sub.mkdir(parents=True)
    (sub / "t0.xyz").write_text("1 2\n")
    (sub / "t1.xyz").write_text((data_root / "a" / "t1.xyz").read_text())
    assert reproduce.main(["--data-root", str(tmp_path / "root")]) == 2
    err = capsys.readouterr().err
    assert f"{sub / 't0.xyz'}:1: expected 3 fields, got 2" in err
    assert "bad: otcd sweep --method ot exited 2" in err


@pytest.mark.parametrize(
    "flags, code",
    [
        (["--point-cap", "0"], 2),
        (["--frobnicate"], 2),
        (["--max-iter", "1", "--strict"], 3),
    ],
)
def test_sweep_failure_exit_codes(data_root, flags, code):
    assert reproduce.main(["--data-root", str(data_root), *flags]) == code


def test_no_usable_sub_dataset_exits_2(tmp_path):
    (tmp_path / "empty").mkdir()
    assert reproduce.main(["--data-root", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--data-root", "{root}/none"], "{root}/none: not a directory"),
        (["--data-roo", "{root}"], "--data-root is required"),
        (["--point-cap", "600"], "--data-root is required"),
        (["-o", "{root}/report.json"], "--data-root is required"),
    ],
    ids=["missing root", "misspelled flag", "flags only", "output only"],
)
def test_bad_or_missing_root_exits_2_without_a_sweep(
    tmp_path, monkeypatch, capsys, argv, message
):
    monkeypatch.setattr(reproduce, "run", lambda argv: pytest.fail("ran a sweep"))
    argv = [a.format(root=tmp_path) for a in argv]
    assert reproduce.main(argv) == 2
    assert message.format(root=tmp_path) in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
