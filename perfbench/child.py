"""One measured ``otcd`` run in a fresh process.

Usage: ``child.py RESULT_JSON TRACE SPAWNED -- OTCD_ARGV...``

``SPAWNED`` is the parent's ``time.monotonic()`` just before it started this
process; ``setup_s`` runs from there until ``otcd.cli`` is imported. With
``TRACE`` 1 the functions that ``otcd.cli`` and ``otcd.detection`` look up
at call time are wrapped with span recorders before ``otcd.cli.run``.
"""

import json
import os
import resource
import sys
import time

import otcd.cli  # the import is what setup_s measures

_READY = time.monotonic()

import otcd.detection  # noqa: E402  (already loaded by otcd.cli)

from spans import Recorder  # noqa: E402


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _chunk_counts(args, kwargs, chunks):
    cells = [len(c.source_indices) * len(c.target_indices) for c in chunks]
    return {"n_chunks": len(chunks), "cells_total": sum(cells), "cells_max": max(cells)}


def _plan_counts(args, kwargs, plan):
    n0, n1 = plan.coupling.shape
    return {"n0": n0, "n1": n1, "iterations": plan.iterations, "converged": plan.converged}


# (module, attribute, span name, counts); every name is resolved at call time
TRACED = (
    (otcd.cli, "read_xyz", "io.read", _file_bytes),
    (otcd.cli, "read_ply", "io.read", _file_bytes),
    (otcd.cli, "write_ply_scored", "io.write", _file_bytes),
    (otcd.cli, "detect_changes", "detection.detect", None),
    (otcd.cli, "sweep_scores", "metrics.sweep", None),
    (otcd.detection, "build_chunks", "chunking.build", _chunk_counts),
    (otcd.detection, "_solve_chunk", "detection.chunk", None),
    (otcd.detection, "cost_matrix", "solver.cost", None),
    (otcd.detection, "sinkhorn_unbalanced", "solver.sinkhorn", _plan_counts),
    (otcd.detection, "sinkhorn_balanced", "solver.sinkhorn", _plan_counts),
    (otcd.detection, "barycentric_projection", "solver.project", None),
    (otcd.detection, "dense_solve_bytes", "solver.bytes", lambda a, k, r: {"bytes": r}),
    (otcd.detection, "pointwise_scores", "detection.score", None),
    (otcd.detection, "classify", "detection.score", None),
    (otcd.detection, "merge_scores", "detection.merge", None),
)


def main() -> None:
    result_path, trace, spawned = sys.argv[1], sys.argv[2] == "1", float(sys.argv[3])
    argv = sys.argv[sys.argv.index("--") + 1 :]
    setup_s = _READY - spawned
    spans = None
    if trace:
        recorder = Recorder()
        for module, attr, name, counts in TRACED:
            recorder.wrap(module, attr, name, counts)
        with recorder.span("cli.run") as root:
            code = otcd.cli.run(argv)
        run_s = root["end"] - root["start"]
        spans = recorder.spans
    else:
        start = time.perf_counter()
        code = otcd.cli.run(argv)
        run_s = time.perf_counter() - start
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "exit_code": code,
                "setup_s": setup_s,
                "run_s": run_s,
                "peak_rss_mb": maxrss_kb / 1024.0,
                "spans": spans,
            },
            fh,
        )


if __name__ == "__main__":
    main()
