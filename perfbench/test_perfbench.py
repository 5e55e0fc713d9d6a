"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``."""

import json
import shutil
import subprocess
import sys
import threading
import types
from pathlib import Path

import pytest

from spans import Recorder, chunk_schedule, layer_metrics, layer_self_times, self_times

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _span(id, parent, name, start, end, **counts):
    return {"id": id, "parent": parent, "name": name, "thread": 1,
            "start": start, "end": end, **counts}


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        _span(0, None, "cli.run", 0.0, 10.0),
        _span(1, 0, "io.read", 1.0, 4.0),
        _span(2, 0, "detection.detect", 3.0, 6.0),
        _span(3, 2, "solver.sinkhorn", 2.0, 5.0),  # starts before its parent
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(5.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(3.0)


def test_layer_self_times_of_one_thread_add_up_to_the_root():
    spans = [
        _span(0, None, "cli.run", 0.0, 10.0),
        _span(1, 0, "io.read", 0.5, 1.5),
        _span(2, 0, "detection.detect", 2.0, 9.0),
        _span(3, 2, "chunking.build", 2.0, 2.5),
        _span(4, 2, "detection.chunk", 2.5, 8.5),
        _span(5, 4, "solver.sinkhorn", 3.0, 8.0),
    ]
    layers = layer_self_times(spans)
    assert sum(layers.values()) == pytest.approx(10.0)
    assert layers["detection"] == pytest.approx(0.5 + 1.0)
    assert layers["cli"] == pytest.approx(2.0)


def test_chunk_schedule_on_two_workers():
    spans = [
        _span(0, None, "chunking.build", 0.0, 1.0),
        _span(1, None, "detection.chunk", 1.0, 3.0),
        _span(2, None, "detection.chunk", 1.0, 2.0),
        _span(3, None, "detection.chunk", 2.0, 4.0),
    ]
    s = chunk_schedule(spans, workers=2)
    assert s["busy_s"] == pytest.approx(5.0)
    assert s["parallel_eff"] == pytest.approx(5.0 / (2 * 3.0))
    assert s["chunk_wait_s"] == pytest.approx(1.0)
    assert s["chunk_ms_p50"] == pytest.approx(2000.0)
    assert s["chunk_ms_max"] == pytest.approx(2000.0)


def test_layer_metrics_cover_every_per_layer_metric():
    spans = [
        _span(0, None, "cli.run", 0.0, 4.0),
        _span(1, 0, "io.read", 0.0, 0.5, bytes=100),
        _span(2, 0, "detection.detect", 0.5, 3.5),
        _span(3, 2, "chunking.build", 0.5, 1.0, n_chunks=1, cells_total=6, cells_max=6),
        _span(4, 2, "detection.chunk", 1.0, 3.0),
        _span(5, 4, "solver.sinkhorn", 1.0, 2.0, n0=2, n1=3, iterations=10,
              converged=False),
        _span(6, 4, "solver.bytes", 2.0, 2.0, bytes=96),
        _span(7, 0, "io.write", 3.5, 4.0, bytes=50),
    ]
    m = layer_metrics(spans, workers=1, untraced_run_s=3.2)
    assert set(m) == {metric["name"] for metric in SPEC["per_layer"]}
    assert m["solver.cell_sweeps"] == 60
    assert m["solver.ns_per_cell_sweep"] == pytest.approx(1e9 / 60)
    assert m["solver.unconverged_chunks"] == 1
    assert m["chunking.cells_max_share"] == 1.0
    assert m["detection.chunk_wait_s"] == 0.0
    assert m["trace.overhead_frac"] == pytest.approx(0.25)
    assert m["cli.self_s"] == pytest.approx(0.0)


def test_recorder_parents_worker_spans_to_the_submitting_span():
    module = types.SimpleNamespace(work=lambda n: list(range(n)))
    rec = Recorder()
    rec.wrap(module, "work", "solver.work", lambda a, k, r: {"n": len(r)})
    with rec.span("cli.run") as root:
        worker = threading.Thread(target=module.work, args=(3,))
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive()
    child = next(s for s in rec.spans if s["name"] == "solver.work")
    assert child["parent"] == root["id"] and child["n"] == 3
    assert root["start"] <= child["start"] <= child["end"] <= root["end"]


def test_output_checks_reject_bad_outputs(tmp_path):
    import numpy as np
    from otcd.io import PointCloud, write_ply_scored
    from workloads import TAUS, OutputError, check_output

    labels = np.array([0, 1, 2, 0])
    cloud = PointCloud(xyz=np.zeros((4, 3)))
    ply = tmp_path / "out.ply"
    write_ply_scored(ply, cloud, np.array([0.0, 3.0, -3.0, 0.1]), np.array([0, 1, 2, 0]))
    digest, best = check_output("detect", str(ply), labels)
    assert best == 1.0
    with pytest.raises(OutputError, match="rows"):
        check_output("detect", str(ply), labels[:3])

    sweep = tmp_path / "out.json"
    curve = [{"tau": t, "mean_change_iou": 0.5} for t in TAUS]
    sweep.write_text(json.dumps({"mean_change_iou": 0.5, "sweep": curve}))
    assert check_output("sweep", str(sweep), labels)[1] == 0.5
    sweep.write_text(json.dumps({"mean_change_iou": 0.5, "sweep": curve[:-1]}))
    with pytest.raises(OutputError, match="taus"):
        check_output("sweep", str(sweep), labels)


def _run(args, cwd, timeout=300):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def test_smoke_runs_every_workload_traced():
    proc = _run(["--workload", "all", "--smoke", "--seconds", "0", "--trace", "1"],
                HERE.parent)
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    records, results = lines[0::2], lines[1::2]
    assert [r["workload"] for r in records] == [w["name"] for w in SPEC["workloads"]]
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for record, result in zip(records, results):
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == per_layer
        assert set(record["summary"]) == end_to_end
        if record["workload"] == "ot_halo_sweep":  # one worker: self times tile run_s
            trace = record["trace"]
            assert sum(trace["layer_self_s"].values()) == pytest.approx(trace["run_s"], rel=0.05)


def test_fails_without_the_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _run(["--workload", "uot_large_chunks", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
