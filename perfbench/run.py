"""End-to-end and per-layer benchmark of the otcd CLI.

    python3 perfbench/run.py --workload uot_large_chunks --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25   # every workload
    python3 perfbench/run.py --workload all --smoke --seconds 0    # tiny scenes, seconds

Each workload generates ``SCENES`` scene pairs from the seed with the public
``otcd.synth`` API, outside any timing. Every repeat then starts a fresh
process (``child.py``) that imports ``otcd.cli`` and calls
``otcd.cli.run(argv)`` on one pair. After one warm-up repeat, repeats cycle
over the pairs until ``--seconds`` have passed, and at least once over all
of them. Each output is
checked. End-to-end metrics are medians over the untraced repeats (the IoU is
the mean over the pairs). With ``--trace 1`` one more, traced, run on the
first pair gives the per-layer metrics.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it holds the full record (argv, inputs, machine, samples).
The exit code is 0 only if every run passed its checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCENES = 3
CHILD_TIMEOUT_S = 60
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _manifest(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "blas": blas,
        "thread_env": THREAD_ENV,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _make_inputs(workload, seed: int, smoke: bool, work: Path) -> list[dict]:
    import numpy as np
    from otcd.io import write_xyz
    from otcd.synth import generate_pair

    scenes = []
    for i in range(SCENES):
        scene_seed = int(np.random.SeedSequence([seed, i]).generate_state(1)[0])
        pc0, pc1 = generate_pair(workload.spec(scene_seed, smoke))
        t0, t1 = work / f"scene{i}_t0.xyz", work / f"scene{i}_t1.xyz"
        write_xyz(t0, pc0)
        write_xyz(t1, pc1)
        out = work / (f"scene{i}.json" if workload.command == "sweep" else f"scene{i}.ply")
        scenes.append(
            {
                "scene_seed": scene_seed,
                "n0": len(pc0),
                "n1": len(pc1),
                "t0_sha256": _sha256(t0),
                "t1_sha256": _sha256(t1),
                "argv": workload.argv(str(t0), str(t1), str(out), smoke),
                "out": str(out),
                "labels": pc1.labels,
            }
        )
    return scenes


def _run_child(argv: list[str], trace: bool, result: Path) -> tuple[dict | None, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)
    result.unlink(missing_ok=True)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(result), str(int(trace)),
             repr(spawned), "--", *argv],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0 or not result.is_file():
        return None, f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    sample = json.loads(result.read_text())
    if sample["exit_code"] != 0:
        return None, f"otcd exited {sample['exit_code']}: {proc.stderr.strip()[-2000:]}"
    return sample, ""


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


class Run:
    """One workload at one seed: inputs, repeats, checks and results."""

    def __init__(self, workload, seed: int, smoke: bool, work: Path) -> None:
        self.workload = workload
        self.work = work
        self.scenes = _make_inputs(workload, seed, smoke, work)
        self.attempted = 0
        self.failures: list[str] = []
        self.samples: list[dict] = []
        self.fingerprints: dict[int, str] = {}
        self.ious: dict[int, float] = {}

    def repeat(self, index: int, trace: bool) -> dict | None:
        """Run scene ``index`` once; a failed run or check returns None."""
        from workloads import check_output

        scene = self.scenes[index]
        self.attempted += 1
        sample, error = _run_child(scene["argv"], trace, self.work / "child.json")
        if sample is not None:
            try:
                digest, best = check_output(
                    self.workload.command, scene["out"], scene["labels"]
                )
            except (OSError, ValueError, KeyError, TypeError) as exc:
                error = f"output check: {type(exc).__name__}: {exc}"
            else:
                if self.fingerprints.setdefault(index, digest) != digest:
                    error = "output differs from the first repeat of this scene"
                self.ious.setdefault(index, best)
        if error:
            self.failures.append(f"scene {index}: {error}")
            print(f"FAILED {self.workload.name} scene {index}: {error}", file=sys.stderr)
            return None
        sample["scene"] = index
        return sample

    def measure(self, seconds: float) -> None:
        # the first child after input generation runs 10-15% slow on a
        # 2-core Xeon; it is checked but left out of the samples
        self.repeat(0, trace=False)
        deadline = time.monotonic() + seconds
        i = 0
        while i < len(self.scenes) or time.monotonic() < deadline:
            sample = self.repeat(i % len(self.scenes), trace=False)
            if sample is not None:
                self.samples.append(sample)
            i += 1

    def end_to_end(self) -> dict:
        if not self.samples or len(self.ious) < len(self.scenes):
            return {}
        summary = {
            key: _quartiles([s[key] for s in self.samples])
            for key in ("setup_s", "run_s", "peak_rss_mb")
        }
        ious = [self.ious[i] for i in range(len(self.scenes))]
        summary["mean_change_iou"] = {"mean": statistics.fmean(ious), "per_scene": ious}
        return summary

    def per_layer(self) -> tuple[dict, dict]:
        """Traced run of scene 0: per-layer metrics, and for the record the
        traced run_s with the self time of each layer."""
        from spans import layer_metrics, layer_self_times

        sample = self.repeat(0, trace=True)
        untraced = [s["run_s"] for s in self.samples if s["scene"] == 0]
        if sample is None or not untraced:
            return {}, {}
        spans = sample["spans"]
        metrics = layer_metrics(
            spans, self.workload.effective_workers(), statistics.median(untraced)
        )
        return metrics, {"run_s": sample["run_s"], "layer_self_s": layer_self_times(spans)}


def _load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(name: str, args, spec: dict) -> bool:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    work = ROOT / ".perfbench_work" / f"{name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(workload, args.seed, args.smoke, work)
        run.measure(args.seconds)
        summary = run.end_to_end()
        layers, trace = run.per_layer() if args.trace else ({}, {})
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = {}
    if summary:
        values = {k: v["median"] for k, v in summary.items() if "median" in v}
        values["mean_change_iou"] = summary["mean_change_iou"]["mean"]
    wanted, source = (spec["per_layer"], layers) if args.trace else (spec["end_to_end"], values)
    metrics = {
        m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
        for m in wanted
        if m["name"] in source
    }
    correct = not run.failures and len(metrics) == len(wanted)

    print(f"== {name} seed {args.seed}: {run.attempted} runs, "
          f"{len(run.failures)} failed", file=sys.stderr)
    shown = [(m, values) for m in spec["end_to_end"]]
    shown += [(m, layers) for m in spec["per_layer"]] if args.trace else []
    for m, got in shown:
        if m["name"] not in got:
            print(f"  {m['name']:28s} MISSING", file=sys.stderr)
            continue
        q = summary.get(m["name"], {})
        spread = f"  (q1 {q['q1']:.4g}, q3 {q['q3']:.4g}, n {q['n']})" if "q1" in q else ""
        print(f"  {m['name']:28s} {got[m['name']]:.6g} {m['unit']}{spread}",
              file=sys.stderr)
    record = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "manifest": _manifest(args.seed),
        "inputs": [
            {k: v for k, v in s.items() if k not in ("labels", "out")} for s in run.scenes
        ],
        "summary": summary,
        "samples": [{k: v for k, v in s.items() if k != "spans"} for s in run.samples],
        "trace": trace,
        "failures": run.failures,
    }
    print(json.dumps(record))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }))
    return correct


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny scenes")
    args = parser.parse_args()

    if not (SRC / "otcd" / "cli.py").is_file():
        print(f"error: no otcd source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    spec = _load_spec()
    ok = [run_workload(name, args, spec) for name in names]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
