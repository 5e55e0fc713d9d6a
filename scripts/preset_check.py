#!/usr/bin/env python3
"""Four-preset check: best change IoU of OT and UOT on every sensor preset.

Each preset's densities and noise are laid out as the six-building scene of
the acceptance suite (``synth.six_buildings``: extent 48 m, 3 added 10 m
and 3 removed 12 m buildings, 10 m tall), one scene per seed. Every scene
is run through ``detect_changes`` with ``--method ot`` and ``--method
uot`` at the solver defaults of ``otcd detect``, and its best mean change
IoU is taken over the 0.05-10 m tau grid in 0.05 m steps.

Prints one JSON line per preset and method: the mean, min and max best IoU
over the seeds, the total sweeps and the number of chunks that did not
converge. The check only reports; it changes no default.

    python3 scripts/preset_check.py --seeds 11,12 --point-cap 2500
"""

import argparse
import json

from otcd.chunking import ChunkingConfig
from otcd.detection import (
    METHOD_BALANCED_OT,
    METHOD_UNBALANCED_OT,
    ChangeDetectionConfig,
    detect_changes,
)
from otcd.metrics import sweep_scores
from otcd.synth import generate_pair, preset_names, six_buildings

TAUS = [k / 20 for k in range(1, 201)]
METHODS = (METHOD_BALANCED_OT, METHOD_UNBALANCED_OT)


def check(name: str, seeds: list[int], point_cap: int) -> list[dict]:
    """One row per method for preset ``name`` over ``seeds``."""
    best = {m: [] for m in METHODS}
    sweeps = dict.fromkeys(METHODS, 0)
    unconverged = dict.fromkeys(METHODS, 0)
    for seed in seeds:
        pc0, pc1 = generate_pair(six_buildings(seed, name))
        for method in METHODS:
            cfg = ChangeDetectionConfig(
                chunking=ChunkingConfig(point_cap=point_cap), method=method
            )
            change_map = detect_changes(pc0, pc1, cfg)
            _, per_tau = sweep_scores(change_map, pc1.labels, TAUS)
            best[method].append(max(m.mean_change_iou for m in per_tau))
            sweeps[method] += sum(d.iterations for d in change_map.diagnostics)
            unconverged[method] += sum(not d.converged for d in change_map.diagnostics)
    return [
        {
            "preset": name,
            "method": method,
            "seeds": seeds,
            "point_cap": point_cap,
            "best_iou_mean": sum(best[method]) / len(seeds),
            "best_iou_min": min(best[method]),
            "best_iou_max": max(best[method]),
            "sweeps": sweeps[method],
            "unconverged_chunks": unconverged[method],
        }
        for method in METHODS
    ]


def _seeds(text: str) -> list[int]:
    # syntax only: SceneSpec refuses a negative seed
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma list of integers: {text!r}"
        ) from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--seeds",
        type=_seeds,
        default=[11, 12, 13, 14],
        help="comma list of scene seeds (default 11,12,13,14)",
    )
    parser.add_argument(
        "--point-cap", type=int, default=2500, help="chunk point cap (default 2500)"
    )
    args = parser.parse_args(argv)
    for name in preset_names():
        for row in check(name, args.seeds, args.point_cap):
            print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
