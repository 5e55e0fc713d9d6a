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

import numpy as np

from .chunking import ChunkingConfig, ChunkingError, build_chunks, chunk_stats
from .detection import (
    METHOD_BALANCED_OT,
    METHOD_NN_BASELINE,
    METHOD_UNBALANCED_OT,
    ChangeDetectionConfig,
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
    sinkhorn_balanced,
    sinkhorn_unbalanced,
)
from . import synth

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_STRICT = 3

# empirical defaults; see README for how they were chosen
DEFAULT_EPSILON_REL = 0.01
DEFAULT_RHO = 1000.0
DEFAULT_TAU_GRID = "0.5:10:0.5"

_METHOD_ALIASES = {
    "uot": METHOD_UNBALANCED_OT,
    "ot": METHOD_BALANCED_OT,
    "nn": METHOD_NN_BASELINE,
    METHOD_UNBALANCED_OT: METHOD_UNBALANCED_OT,
    METHOD_BALANCED_OT: METHOD_BALANCED_OT,
    METHOD_NN_BASELINE: METHOD_NN_BASELINE,
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage problems; remap to our contract
    def error(self, message):
        raise _UsageError(message)


def _add_solver_flags(p: _Parser) -> None:
    group = p.add_mutually_exclusive_group()
    group.add_argument(
        "--epsilon", type=float, help="entropic weight, squared meters (absolute)"
    )
    group.add_argument(
        "--epsilon-rel",
        type=float,
        help="entropic weight as a fraction of the per-chunk median cost "
        f"(default {DEFAULT_EPSILON_REL})",
    )
    p.add_argument(
        "--rho",
        type=float,
        default=DEFAULT_RHO,
        help="KL penalty weight on the source marginal (unbalanced OT), "
        f"squared meters (default {DEFAULT_RHO})",
    )
    p.add_argument("--max-iter", type=int, default=SolverConfig.max_iter)
    p.add_argument("--tol", type=float, default=SolverConfig.tol)


def _add_method_flags(p: _Parser) -> None:
    p.add_argument(
        "--method",
        choices=sorted(set(_METHOD_ALIASES)),
        default="uot",
        help="uot (default), ot, or nn",
    )


def _add_chunking_flags(p: _Parser) -> None:
    p.add_argument("--point-cap", type=int, default=ChunkingConfig.point_cap)
    p.add_argument("--halo", type=float, default=ChunkingConfig.halo_margin)


def _add_run_flags(p: _Parser) -> None:
    p.add_argument("--workers", type=int, default=None)
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
    _add_method_flags(p)
    _add_solver_flags(p)
    _add_chunking_flags(p)
    _add_run_flags(p)

    p = sub.add_parser("sweep", help="threshold sweep against labels on t1")
    p.add_argument("--t0", required=True)
    p.add_argument("--t1", required=True, help="later epoch with labels")
    p.add_argument(
        "--tau-grid",
        default=DEFAULT_TAU_GRID,
        help="comma list or start:stop:step, inclusive "
        f"(default {DEFAULT_TAU_GRID})",
    )
    p.add_argument("--dataset", default=None, help="name stamped into the JSON")
    p.add_argument("-o", "--output", required=True, help="metrics JSON path")
    _add_method_flags(p)
    _add_solver_flags(p)
    _add_chunking_flags(p)
    _add_run_flags(p)

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

    p = sub.add_parser("bench", help="time the solver on growing sizes")
    p.add_argument("--sizes", default="1000,5000,20000", help="comma list of n")
    p.add_argument("--iters", type=int, default=5, help="fixed sweep count per size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon-rel", type=float, default=0.05)
    p.add_argument("--balanced", action="store_true")

    return parser


def _config(cls, **fields):
    """Build a config from flag values; a value it rejects is a usage error,
    reported before any file is read."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _solver_config(args) -> SolverConfig:
    epsilon = getattr(args, "epsilon", None)
    epsilon_rel = getattr(args, "epsilon_rel", None)
    if epsilon is None and epsilon_rel is None:
        epsilon_rel = DEFAULT_EPSILON_REL
    return _config(
        SolverConfig,
        epsilon=epsilon,
        epsilon_rel=epsilon_rel,
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
        method=_METHOD_ALIASES[args.method],
        workers=args.workers,
    )


def _load_cloud(path: str, want_labels: bool = False) -> PointCloud:
    if str(path).endswith(".ply"):
        cloud, _, _ = read_ply(path)
        if want_labels:
            raise PointCloudFormatError(
                f"{path}: ground-truth labels must come from a 4-column .xyz file"
            )
        return cloud
    has_label = _sniff_label_column(path)
    if want_labels and not has_label:
        raise PointCloudFormatError(f"{path}: expected a 4th label column")
    return read_xyz(path, has_label=has_label)


def _sniff_label_column(path: str) -> bool:
    # decoded as read_xyz decodes, so bytes that are not UTF-8 reach its
    # line-numbered errors
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line in fh:
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            return len(stripped.split()) == 4
    return False


def _parse_tau_grid(spec: str) -> list[float]:
    try:
        if ":" not in spec:
            return [float(v) for v in spec.split(",") if v.strip()]
        start, stop, step = (float(v) for v in spec.split(":"))
    except ValueError:
        raise _UsageError(
            f"bad tau grid {spec!r}; want a comma list or start:stop:step"
        ) from None
    if step <= 0 or stop < start:
        raise _UsageError(f"bad tau grid {spec!r}")
    n = int(round((stop - start) / step))
    return [start + k * step for k in range(n + 1) if start + k * step <= stop + 1e-9]


def _diag_path(output: str) -> str:
    base = output[: -len(".ply")] if output.endswith(".ply") else output
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
    grid = sorted(_parse_tau_grid(args.tau_grid))
    if not grid:
        raise _UsageError("tau grid is empty")
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
    if args.tau is not None and args.tau <= 0:
        raise _UsageError(f"--tau must be positive, got {args.tau}")
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
    tau = args.tau
    if tau is not None:
        classes = classify(scores, tau)
    m = iou(confusion(truth.labels, classes), tau_used=tau if tau is not None else float("nan"))
    payload = {"scored": args.scored, "truth": args.truth, **m.to_dict()}
    _write_json(args.output, payload)
    if args.output:
        print(json.dumps(payload, indent=2))
    return EXIT_OK


def _cmd_synth(args) -> int:
    data = synth.scene_spec_to_dict(synth.preset(args.preset))
    if args.seed is not None:
        data["seed"] = args.seed
    if args.extent is not None:
        data["extent"] = args.extent
    if args.buildings:
        with open(args.buildings, "r", encoding="utf-8") as fh:
            data["buildings"] = json.load(fh)
    spec = synth.scene_spec_from_dict(data)
    pc0, pc1 = synth.generate_pair(spec)
    t0_path = args.out_prefix + "_t0.xyz"
    t1_path = args.out_prefix + "_t1.xyz"
    write_xyz(t0_path, pc0)
    write_xyz(t1_path, pc1)
    _write_json(args.out_prefix + "_scene.json", synth.scene_spec_to_dict(spec))
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
    stats = chunk_stats(build_chunks(pc0, pc1, cfg))
    print(json.dumps(stats.to_dict(), indent=2))
    return EXIT_OK


def _cmd_bench(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        raise _UsageError(f"bad --sizes {args.sizes!r}") from None
    rng = np.random.default_rng(args.seed)
    cfg = _config(
        SolverConfig,
        epsilon_rel=args.epsilon_rel,
        rho=DEFAULT_RHO,
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
            if args.balanced:
                plan = sinkhorn_balanced(C, cfg, overwrite_cost=True)
            else:
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
        FileNotFoundError,
        IsADirectoryError,
        PermissionError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
