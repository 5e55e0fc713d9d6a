"""The benchmark's workloads: scenes made from the seed, the exact argv, and
the checks on each run's output.

Why each workload exists, and which per-layer metrics should move which
end-to-end metric on it, is recorded in ``BENCHMARK.json`` and README.md.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from otcd.detection import classify
from otcd.io import VALID_CLASSES, read_ply
from otcd.metrics import confusion, iou
from otcd.synth import Building, SceneSpec, preset

TAU_GRID = "0.5:10:0.5"
TAUS = [0.5 * k for k in range(1, 21)]
DETECT_TAU = "2.0"
# a smoke run divides scene density and point cap by this, keeping the
# chunk structure of the full scene with far fewer cells
SMOKE_SHRINK = 8


def six_buildings(seed: int) -> SceneSpec:
    """The acceptance scene (3 added, 3 removed 10 m buildings, extent 48)
    at half the ``multi_density`` ground density."""
    buildings = []
    for k, (y, x) in enumerate((y, x) for y in (3.0, 19.0, 35.0) for x in (5.0, 29.0)):
        status, side = ("added", 10.0) if k % 2 == 0 else ("removed", 12.0)
        buildings.append(Building((x, y, x + side, y + side), 10.0, status))
    return replace(
        preset("multi_density"),
        extent=48.0,
        ground_density=2.0,
        buildings=tuple(buildings),
        seed=seed,
    )


def building_grid(seed: int) -> SceneSpec:
    """A 320 m ``low_res_low_noise`` scene with a 16 x 16 grid of 14 m
    footprints, 3 to 7 m tall, cycling persistent / added / removed; about
    0.4 M points. Nearest-neighbour scoring finds a demolition only where
    the ground lies farther from the footprint edge than the roof was high,
    so the heights keep both change classes in play."""
    statuses = ("persistent", "added", "removed")
    buildings = tuple(
        Building(
            (20.0 * i + 3, 20.0 * j + 3, 20.0 * i + 17, 20.0 * j + 17),
            3.0 + 2.0 * ((i + j) % 3),
            statuses[(i + 2 * j) % 3],
        )
        for i in range(16)
        for j in range(16)
    )
    return replace(
        preset("low_res_low_noise"), extent=320.0, buildings=buildings, seed=seed
    )


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # otcd subcommand: "detect" writes PLY, "sweep" writes JSON
    method: str
    point_cap: int
    halo: float
    workers: int
    scene: Callable[[int], SceneSpec]

    def effective_workers(self) -> int:
        return min(self.workers, os.cpu_count() or 1)

    def argv(self, t0: str, t1: str, out: str, smoke: bool) -> list[str]:
        """The full otcd argv; every knob is pinned, none is left to a default."""
        cap = self.point_cap // SMOKE_SHRINK if smoke else self.point_cap
        argv = [
            self.command, "--t0", t0, "--t1", t1,
            "--method", self.method,
            "--epsilon-rel", "0.01", "--rho", "1000",
            "--max-iter", "5000", "--tol", "1e-6",
            "--point-cap", str(cap), "--halo", str(self.halo),
            "--workers", str(self.effective_workers()),
        ]
        if self.command == "sweep":
            argv += ["--tau-grid", TAU_GRID]
        else:
            argv += ["--tau", DETECT_TAU]
        return argv + ["-o", out]

    def spec(self, seed: int, smoke: bool) -> SceneSpec:
        spec = self.scene(seed)
        if smoke:
            spec = replace(spec, ground_density=spec.ground_density / SMOKE_SHRINK)
        return spec


WORKLOADS = {
    w.name: w
    for w in (
        Workload("uot_large_chunks", "detect", "uot", 2500, 0.0, 2, six_buildings),
        Workload("ot_halo_sweep", "sweep", "ot", 600, 4.0, 1, six_buildings),
        Workload("nn_io_large", "detect", "nn", 5000, 0.0, 2, building_grid),
    )
}


class OutputError(ValueError):
    """A run's output file is missing, malformed or inconsistent."""


def check_output(command: str, out: str, labels: np.ndarray) -> tuple[str, float]:
    """Validate one run's output against the scene's labels.

    Returns a fingerprint of the result (equal fingerprints mean bitwise
    equal classes and scores, or an equal sweep curve) and the best mean
    change IoU over ``TAUS``.
    """
    if command == "sweep":
        with open(out, encoding="utf-8") as fh:
            payload = json.load(fh)
        sweep = payload.get("sweep", [])
        if [entry["tau"] for entry in sweep] != TAUS:
            raise OutputError(f"sweep JSON holds taus {[e['tau'] for e in sweep]}")
        best = max(entry["mean_change_iou"] for entry in sweep)
        if payload.get("mean_change_iou") != best:
            raise OutputError("sweep JSON best IoU is not the best of its curve")
        return hashlib.sha256(json.dumps(sweep).encode()).hexdigest(), best
    cloud, scores, classes = read_ply(out)
    if scores is None or classes is None:
        raise OutputError("scored PLY has no change_score/change_class")
    if len(cloud) != len(labels):
        raise OutputError(f"scored PLY has {len(cloud)} rows, t1 has {len(labels)}")
    if not np.isin(classes, VALID_CLASSES).all():
        raise OutputError("scored PLY has classes outside {0, 1, 2}")
    digest = hashlib.sha256(classes.tobytes() + scores.tobytes()).hexdigest()
    best = max(
        iou(confusion(labels, classify(scores, tau))).mean_change_iou for tau in TAUS
    )
    return digest, best
