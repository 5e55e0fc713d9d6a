"""Command-line interface.

Subcommands: ``detect`` (score a pair, write scored PLY + diagnostics),
``sweep`` (threshold sweep against ground truth, write metrics JSON),
``eval`` (compare a scored PLY with a labeled cloud), ``synth`` (write a
synthetic scene pair), ``chunk-stats`` (print the chunk decomposition
summary), ``bench`` (time the solver on growing instance sizes).

Exit codes: 0 success, 1 usage error, 2 data error, 3 convergence failure
under --strict.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import asdict, replace

import numpy as np

from .chunking import ChunkingConfig, ChunkingError, build_chunks, chunk_stats
from .detection import (
    METHOD_BALANCED_OT,
    METHOD_NN_BASELINE,
    METHOD_UNBALANCED_OT,
    ChangeDetectionConfig,
    _check_tau,
    classify,
    detect_changes,
)
from .io import (
    PointCloud,
    PointCloudFormatError,
    read_ply,
    read_xyz,
    write_ply_scored,
    write_xyz,
)
from .metrics import confusion, iou, sweep_scores
from .solver import (
    SolverConfig,
    SolverNumericalError,
    SolverResourceError,
    cost_matrix,
    sinkhorn_unbalanced,
)
from . import synth

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_STRICT = 3

DEFAULT_TAU_GRID = "0.5:10:0.5"

_METHODS = {
    "uot": METHOD_UNBALANCED_OT,
    "ot": METHOD_BALANCED_OT,
    "nn": METHOD_NN_BASELINE,
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage problems; remap to our contract
    def error(self, message):
        raise _UsageError(message)


def _add_chunking_flags(p: _Parser) -> None:
    p.add_argument(
        "--point-cap",
        type=int,
        default=ChunkingConfig.point_cap,
        help="most points of either epoch in one chunk's cell (default %(default)s)",
    )
    p.add_argument(
        "--halo",
        type=float,
        default=ChunkingConfig.halo_margin,
        help="meters that a chunk's sources reach past its cell (default %(default)s)",
    )


def _add_detection_flags(p: _Parser) -> None:
    """The flags of ``detect`` and ``sweep``."""
    p.add_argument(
        "--method", choices=sorted(_METHODS), default="uot", help="(default %(default)s)"
    )
    group = p.add_mutually_exclusive_group()
    group.add_argument(
        "--epsilon", type=float, help="entropic weight, squared meters (absolute)"
    )
    group.add_argument(
        "--epsilon-rel",
        type=float,
        help="entropic weight as a fraction of the per-chunk median cost "
        f"(default {SolverConfig().epsilon_rel} without --epsilon)",
    )
    p.add_argument(
        "--rho",
        type=float,
        default=SolverConfig.rho,
        help="KL penalty weight on the source marginal (unbalanced OT), "
        "squared meters (default %(default)s)",
    )
    p.add_argument(
        "--max-iter",
        type=int,
        default=SolverConfig.max_iter,
        help="most sweeps per chunk (default %(default)s)",
    )
    p.add_argument(
        "--tol",
        type=float,
        default=SolverConfig.tol,
        help="L1 stopping gap on the source marginal (default %(default)s)",
    )
    _add_chunking_flags(p)
    p.add_argument(
        "--workers", type=int, help="chunk worker threads (default all cores)"
    )
    p.add_argument(
        "--strict",
        action="store_true",
        help="exit 3 when any chunk fails to converge",
    )


def _build_parser() -> _Parser:
    parser = _Parser(prog="otcd", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="score a bi-temporal pair")
    p.add_argument("--t0", required=True, help="earlier epoch (.xyz or .ply)")
    p.add_argument("--t1", required=True, help="later epoch (.xyz or .ply)")
    p.add_argument("--tau", type=float, required=True, help="class threshold, m")
    p.add_argument("-o", "--output", required=True, help="scored PLY path")
    _add_detection_flags(p)

    p = sub.add_parser("sweep", help="threshold sweep against labels on t1")
    p.add_argument("--t0", required=True)
    p.add_argument("--t1", required=True, help="later epoch with labels")
    p.add_argument(
        "--tau-grid",
        default=DEFAULT_TAU_GRID,
        help="comma list or start:stop:step, inclusive (default %(default)s)",
    )
    p.add_argument("--dataset", default=None, help="name stamped into the JSON")
    p.add_argument("-o", "--output", required=True, help="metrics JSON path")
    _add_detection_flags(p)

    p = sub.add_parser("eval", help="compare a scored PLY with a labeled cloud")
    p.add_argument("--scored", required=True, help="PLY written by detect")
    p.add_argument("--truth", required=True, help="labeled .xyz of the same points")
    p.add_argument(
        "--tau",
        type=float,
        default=None,
        help="reclassify stored scores at this threshold instead of using "
        "the stored classes",
    )
    p.add_argument("-o", "--output", default=None, help="metrics JSON path")

    p = sub.add_parser("synth", help="write a synthetic scene pair")
    p.add_argument("--preset", required=True, choices=synth.preset_names())
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--extent", type=float, default=None)
    p.add_argument("--buildings", default=None, help="JSON file with a building list")
    p.add_argument("--out-prefix", required=True)

    p = sub.add_parser("chunk-stats", help="print the chunk decomposition summary")
    p.add_argument("--t0", required=True)
    p.add_argument("--t1", required=True)
    _add_chunking_flags(p)

    p = sub.add_parser("bench", help="time the unbalanced solver on growing sizes")
    p.add_argument("--sizes", default="1000,5000,20000", help="comma list of n")
    p.add_argument("--iters", type=int, default=5, help="fixed sweep count per size")

    return parser


def _config(make, *args, **fields):
    """Build a config as ``make(*args, **fields)`` from flag values; a value
    it rejects is a usage error, reported before any file is read."""
    try:
        return make(*args, **fields)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _solver_config(args) -> SolverConfig:
    return _config(
        SolverConfig,
        epsilon=args.epsilon,
        epsilon_rel=args.epsilon_rel,
        rho=args.rho,
        max_iter=args.max_iter,
        tol=args.tol,
    )


def _chunking_config(args) -> ChunkingConfig:
    return _config(ChunkingConfig, point_cap=args.point_cap, halo_margin=args.halo)


def _detection_config(args, tau: float) -> ChangeDetectionConfig:
    return _config(
        ChangeDetectionConfig,
        solver=_solver_config(args),
        chunking=_chunking_config(args),
        tau=tau,
        method=_METHODS[args.method],
        workers=args.workers,
    )


def _load_cloud(path: str, want_labels: bool = False) -> PointCloud:
    if str(path).lower().endswith(".ply"):
        cloud, _, _ = read_ply(path)
    else:
        cloud = read_xyz(path)
    if want_labels and cloud.labels is None:
        raise PointCloudFormatError(
            f"{path}: ground-truth labels must come from a 4-column .xyz file"
        )
    return cloud


def _parse_tau_grid(spec: str) -> list[float]:
    try:
        if ":" not in spec:
            values = [float(v) for v in spec.split(",") if v.strip()]
        else:
            start, stop, step = values = [float(v) for v in spec.split(":")]
    except ValueError:
        raise _UsageError(
            f"bad tau grid {spec!r}; want a comma list or start:stop:step"
        ) from None
    if not values:
        raise _UsageError("tau grid is empty")
    for value in values:
        _config(_check_tau, value)
    if ":" not in spec:
        return values
    if stop < start:
        raise _UsageError(f"bad tau grid {spec!r}")
    # counted before the list is built: a tiny step would never finish
    steps = (stop - start) / step
    if steps > 10_000:
        raise _UsageError(f"bad tau grid {spec!r}; more than 10000 steps")
    taus = (round(start + k * step, 9) for k in range(round(steps) + 1))
    taus = [t for t in taus if t <= stop + 1e-9]
    # rounding is monotone, so the first value is the smallest
    if taus[0] <= 0 or len(set(taus)) < len(taus):
        raise _UsageError(
            f"bad tau grid {spec!r}; its values rounded to 9 decimals must be "
            "positive and distinct"
        )
    return taus


def _diag_path(output: str) -> str:
    base = output[: -len(".ply")] if output.lower().endswith(".ply") else output
    return base + ".diag.json"


def _write_json(path: str | None, payload: dict | list) -> None:
    text = json.dumps(payload, indent=2)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _unconverged_chunks(change_map) -> list[int]:
    return [d.chunk_id for d in change_map.diagnostics if not d.converged]


def _strict_exit(unconverged: list[int], strict: bool) -> int:
    """EXIT_STRICT when --strict is set and a chunk did not converge."""
    if unconverged and strict:
        print(
            f"{len(unconverged)} chunk(s) did not converge (--strict)",
            file=sys.stderr,
        )
        return EXIT_STRICT
    return EXIT_OK


def _cmd_detect(args) -> int:
    cfg = _detection_config(args, tau=args.tau)
    pc0 = _load_cloud(args.t0)
    pc1 = _load_cloud(args.t1)
    start = time.perf_counter()
    change_map = detect_changes(pc0, pc1, cfg)
    wall_ms = (time.perf_counter() - start) * 1e3
    write_ply_scored(args.output, pc1, change_map.scores, change_map.classes)
    unconverged = _unconverged_chunks(change_map)
    _write_json(
        _diag_path(args.output),
        {
            "method": cfg.method,
            "tau": cfg.tau,
            "wall_ms_total": wall_ms,
            "n_chunks": len(change_map.diagnostics),
            "unconverged_chunks": unconverged,
            "chunks": [d.to_dict() for d in change_map.diagnostics],
        },
    )
    return _strict_exit(unconverged, args.strict)


def _cmd_sweep(args) -> int:
    grid = _parse_tau_grid(args.tau_grid)
    cfg = _detection_config(args, tau=grid[0])
    pc0 = _load_cloud(args.t0)
    pc1 = _load_cloud(args.t1, want_labels=True)
    change_map = detect_changes(pc0, pc1, cfg)
    best_tau, per_tau = sweep_scores(change_map, pc1.labels, grid)
    best = next(m for m in per_tau if m.tau_used == best_tau)
    payload = {
        "method": cfg.method,
        "dataset": args.dataset or os.path.basename(args.t1),
        **best.to_dict(),
        "sweep": [
            {"tau": m.tau_used, "mean_change_iou": m.mean_change_iou}
            for m in per_tau
        ],
    }
    _write_json(args.output, payload)
    return _strict_exit(_unconverged_chunks(change_map), args.strict)


def _cmd_eval(args) -> int:
    if args.tau is not None:
        _config(_check_tau, args.tau)
    cloud, scores, classes = read_ply(args.scored)
    if scores is None or classes is None:
        raise PointCloudFormatError(
            f"{args.scored}: no change_score/change_class properties; "
            "was this written by 'otcd detect'?"
        )
    truth = _load_cloud(args.truth, want_labels=True)
    if len(truth) != len(cloud):
        raise PointCloudFormatError(
            f"scored cloud has {len(cloud)} points but truth has {len(truth)}"
        )
    if args.tau is not None:
        classes = classify(scores, args.tau)
    m = iou(confusion(truth.labels, classes), tau_used=args.tau)
    payload = {"scored": args.scored, "truth": args.truth, **m.to_dict()}
    _write_json(args.output, payload)
    if args.output:
        print(json.dumps(payload, indent=2))
    return EXIT_OK


def _cmd_synth(args) -> int:
    flags = {"seed": args.seed, "extent": args.extent}
    flags = {name: value for name, value in flags.items() if value is not None}
    spec = _config(replace, synth.preset(args.preset), **flags)
    if args.buildings:
        try:
            with open(args.buildings, "r", encoding="utf-8") as fh:
                buildings = synth.buildings_from_list(json.load(fh))
            spec = replace(spec, buildings=buildings)
        except ValueError as exc:
            raise ValueError(f"{args.buildings}: {exc}") from None
    pc0, pc1 = synth.generate_pair(spec)
    t0_path = args.out_prefix + "_t0.xyz"
    t1_path = args.out_prefix + "_t1.xyz"
    write_xyz(t0_path, pc0)
    write_xyz(t1_path, pc1)
    _write_json(args.out_prefix + "_scene.json", asdict(spec))
    print(
        json.dumps(
            {"t0": t0_path, "n0": len(pc0), "t1": t1_path, "n1": len(pc1)},
        )
    )
    return EXIT_OK


def _cmd_chunk_stats(args) -> int:
    cfg = _chunking_config(args)
    pc0 = _load_cloud(args.t0)
    pc1 = _load_cloud(args.t1)
    print(json.dumps(chunk_stats(build_chunks(pc0, pc1, cfg)), indent=2))
    return EXIT_OK


def _cmd_bench(args) -> int:
    """Time cost matrix plus ``--iters`` unbalanced sweeps per size on
    uniform random points; seed and epsilon_rel are fixed and rho is the
    default, so rows are comparable between runs and machines."""
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        sizes = []
    if not sizes or min(sizes) < 1:
        raise _UsageError(
            f"bad --sizes {args.sizes!r}; want a comma list of positive integers"
        )
    rng = np.random.default_rng(0)
    cfg = _config(
        SolverConfig,
        epsilon_rel=0.05,
        max_iter=args.iters,
        tol=1e-30,  # never triggers: fixed-iteration timing
    )
    rows = []
    for n in sizes:
        X0 = np.column_stack(
            [rng.uniform(0, 100, n), rng.uniform(0, 100, n), rng.uniform(0, 5, n)]
        )
        X1 = np.column_stack(
            [rng.uniform(0, 100, n), rng.uniform(0, 100, n), rng.uniform(0, 5, n)]
        )
        try:
            start = time.perf_counter()
            C = cost_matrix(X0, X1)
            plan = sinkhorn_unbalanced(C, cfg, overwrite_cost=True)
            wall_ms = (time.perf_counter() - start) * 1e3
            rows.append({"n": n, "wall_ms": wall_ms, "iterations": plan.iterations})
            del C, plan
        except SolverResourceError as exc:
            rows.append({"n": n, "error": str(exc)})
    print(json.dumps(rows, indent=2))
    return EXIT_OK


_COMMANDS = {
    "detect": _cmd_detect,
    "sweep": _cmd_sweep,
    "eval": _cmd_eval,
    "synth": _cmd_synth,
    "chunk-stats": _cmd_chunk_stats,
    "bench": _cmd_bench,
}


def run(argv: list[str]) -> int:
    """Parse and execute; returns the process exit code."""
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (
        PointCloudFormatError,
        ChunkingError,
        SolverNumericalError,
        SolverResourceError,
        OSError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
