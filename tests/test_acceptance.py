"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion. Tolerances and runtime budgets are fixed here, not calibrated
elsewhere.
"""

import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np

from otcd import (
    METHOD_BALANCED_OT,
    METHOD_NN_BASELINE,
    METHOD_UNBALANCED_OT,
    ChangeDetectionConfig,
    ChunkingConfig,
    SolverConfig,
    SolverResourceError,
    build_chunks,
    cost_matrix,
    detect_changes,
    generate_pair,
    preset,
    sinkhorn_balanced,
    sinkhorn_unbalanced,
    sweep_scores,
)
from otcd.cli import run as cli_run
from otcd.synth import six_buildings

from lp_oracle import lp_exact_small

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _report(criterion: int, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS — {detail}")


def test_criterion_1_solver_matches_exact_oracle():
    """Entropic cost within 1% of the exact LP optimum on 50 small
    instances, under 5 seconds total."""
    start = time.perf_counter()
    cfg = SolverConfig(epsilon=0.001, max_iter=4000, tol=1e-5)
    worst = 0.0
    for k in range(50):
        rng = np.random.default_rng(1000 + k)
        n0 = int(rng.integers(2, 16))
        n1 = int(rng.integers(2, 16))
        C = rng.random((n0, n1))
        plan = sinkhorn_balanced(C, cfg)
        entropic_cost = float((plan.coupling * C).sum())
        lp_cost, _ = lp_exact_small(C)
        rel = (entropic_cost - lp_cost) / max(lp_cost, 1e-12)
        worst = max(worst, rel)
        assert entropic_cost <= lp_cost * 1.01, f"instance {k}: gap {rel:.2%}"
    wall = time.perf_counter() - start
    assert wall < 5.0, f"took {wall:.2f}s"
    _report(1, f"worst relative gap {worst:.2e} over 50 instances in {wall:.2f}s")


def test_criterion_2_marginal_feasibility():
    """Converged 200x250 plans satisfy their hard marginals to 1e-6 L1,
    under 30 seconds for 20 instances."""
    start = time.perf_counter()
    worst_balanced = worst_target = 0.0
    for k in range(20):
        rng = np.random.default_rng(2000 + k)
        C = rng.random((200, 250))
        balanced = sinkhorn_balanced(C, SolverConfig(epsilon=0.01, tol=1e-6))
        assert balanced.converged
        row = np.abs(balanced.row_marginal - 1 / 200).sum()
        col = np.abs(balanced.col_marginal - 1 / 250).sum()
        assert row <= 1e-6 and col <= 1e-6
        worst_balanced = max(worst_balanced, row, col)
        relaxed = sinkhorn_unbalanced(C, SolverConfig(epsilon=0.01, rho=0.5, tol=1e-6))
        assert relaxed.converged
        target = np.abs(relaxed.col_marginal - 1 / 250).sum()
        assert target <= 1e-6
        worst_target = max(worst_target, target)
    wall = time.perf_counter() - start
    assert wall < 30.0, f"took {wall:.2f}s"
    _report(
        2,
        f"20 instances, worst balanced violation {worst_balanced:.2e}, "
        f"worst unbalanced target violation {worst_target:.2e}, {wall:.1f}s",
    )


def test_criterion_3_balanced_limit_of_unbalanced():
    """rho = 1e4 * epsilon reproduces the balanced plan to 1e-3 Frobenius
    on 10 random 50x60 instances."""
    eps = 0.05
    worst = 0.0
    for k in range(10):
        rng = np.random.default_rng(3000 + k)
        C = rng.random((50, 60))
        balanced = sinkhorn_balanced(C, SolverConfig(epsilon=eps, tol=1e-9))
        relaxed = sinkhorn_unbalanced(
            C, SolverConfig(epsilon=eps, rho=1e4 * eps, tol=1e-9, max_iter=20000)
        )
        dist = float(np.linalg.norm(relaxed.coupling - balanced.coupling))
        worst = max(worst, dist)
        assert dist <= 1e-3, f"instance {k}: Frobenius {dist:.2e}"
    _report(3, f"worst Frobenius distance {worst:.2e} across 10 instances")


def test_criterion_4_identity_scene_all_unchanged():
    """pc1 = pc0 on a building-free high-res scene classifies 100%
    unchanged at tau = 0.5 m."""
    spec = replace(preset("high_res_low_noise"), extent=32.0, seed=5)
    pc0, _ = generate_pair(spec)
    cfg = ChangeDetectionConfig(
        solver=SolverConfig(epsilon_rel=0.01, rho=1000.0, max_iter=2000),
        chunking=ChunkingConfig(point_cap=1250),
        tau=0.5,
        method=METHOD_UNBALANCED_OT,
    )
    result = detect_changes(pc0, pc0, cfg)
    unchanged = (result.classes == 0).mean()
    assert unchanged == 1.0, f"only {unchanged:.4%} unchanged"
    _report(4, f"{len(pc0)} points, 100% class 0 at tau=0.5")


def test_criterion_5_synthetic_change_recovery_and_uot_ordering():
    """Threshold sweep recovers the changes (mean change IoU >= 0.80) and
    unbalanced OT beats balanced OT on the multi_density preset, within 2
    minutes.

    With a positive halo margin, border source mass enters chunks that hold
    no matching targets; balanced OT must ship it somewhere while
    unbalanced OT may destroy it, which is the mass-creation/destruction
    advantage at desk scale.
    """
    start = time.perf_counter()
    # 3 added and 3 removed buildings at multi_density preset densities;
    # removed footprints are larger, so the scene destroys net mass
    spec = six_buildings(11)
    pc0, pc1 = generate_pair(spec)
    grid = [0.5 * k for k in range(1, 21)]
    best = {}
    for method in (METHOD_UNBALANCED_OT, METHOD_BALANCED_OT):
        cfg = ChangeDetectionConfig(
            solver=SolverConfig(epsilon_rel=0.01, rho=100.0, max_iter=2000),
            chunking=ChunkingConfig(point_cap=1200, halo_margin=4.0),
            tau=grid[0],
            method=method,
        )
        change_map = detect_changes(pc0, pc1, cfg)
        _, per_tau = sweep_scores(change_map, pc1.labels, grid)
        best[method] = max(per_tau, key=lambda m: m.mean_change_iou)
    wall = time.perf_counter() - start
    uot = best[METHOD_UNBALANCED_OT]
    ot = best[METHOD_BALANCED_OT]
    assert uot.mean_change_iou >= 0.80, f"UOT best {uot.mean_change_iou:.4f}"
    assert uot.mean_change_iou >= ot.mean_change_iou, (
        f"UOT {uot.mean_change_iou:.4f} < OT {ot.mean_change_iou:.4f}"
    )
    assert wall < 120.0, f"took {wall:.1f}s"
    _report(
        5,
        f"UOT {uot.mean_change_iou:.4f} (tau {uot.tau_used}) >= "
        f"OT {ot.mean_change_iou:.4f} (tau {ot.tau_used}), "
        f"UOT >= 0.80, {wall:.1f}s",
    )


def test_criterion_6_chunking_cap_partition_and_worker_invariance():
    """A 200k-point pair chunks under a 5000 cap with an exact target
    partition, and results are identical for 1 and 8 workers."""
    spec = replace(
        preset("low_res_low_noise"), extent=224.0, ground_density=2.0, seed=12
    )
    pc0, pc1 = generate_pair(spec)
    total = len(pc0) + len(pc1)
    assert total >= 190_000
    chunk_cfg = ChunkingConfig(point_cap=5000)
    chunks = build_chunks(pc0, pc1, chunk_cfg)
    for chunk in chunks:
        assert len(chunk.source_indices) <= 5000
        assert len(chunk.target_indices) <= 5000
    covered = np.concatenate([c.target_indices for c in chunks])
    assert len(covered) == len(pc1)
    assert len(np.unique(covered)) == len(pc1)

    base = ChangeDetectionConfig(
        solver=SolverConfig(epsilon_rel=0.01, rho=1000.0),
        chunking=chunk_cfg,
        tau=1.0,
        method=METHOD_NN_BASELINE,
    )
    one = detect_changes(pc0, pc1, replace(base, workers=1))
    eight = detect_changes(pc0, pc1, replace(base, workers=8))
    np.testing.assert_array_equal(one.scores, eight.scores)
    np.testing.assert_array_equal(one.classes, eight.classes)
    _report(
        6,
        f"{total} points, {len(chunks)} chunks all under cap, exact "
        "partition, workers 1 == workers 8",
    )


def test_criterion_7_external_benchmark_reproduction_is_stubbed():
    """Absolute benchmark IoU values need the external dataset; the
    repository ships a documented ordering-check script instead."""
    script = os.path.join(REPO_ROOT, "scripts", "reproduce_urb3dcd.py")
    assert os.path.exists(script)
    readme = open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8").read()
    assert "reproduce_urb3dcd" in readme
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    proc = subprocess.run(
        [sys.executable, script],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "no dataset" in proc.stdout
    _report(7, "reproduction stub present, documented, and runnable without data")


def test_criterion_8_quadratic_scaling_and_memory_path():
    """Wall time grows about quadratically with chunk size, and a
    25000x25000 dense solve either fits under 16 GiB or aborts with a
    clear resource diagnostic."""
    sizes = [1000, 5000, 20000]
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_run(
            ["bench", "--sizes", ",".join(map(str, sizes)), "--iters", "4"]
        )
    assert code == 0
    rows = json.loads(buf.getvalue())
    walls = {r["n"]: r["wall_ms"] for r in rows if "wall_ms" in r}
    assert set(walls) == set(sizes), f"bench rows: {rows}"
    for small, big in zip(sizes, sizes[1:]):
        expected = (big / small) ** 2
        observed = walls[big] / walls[small]
        assert expected / 2 <= observed <= expected * 2, (
            f"{small}->{big}: observed x{observed:.1f}, "
            f"quadratic would be x{expected:.1f}"
        )

    n = 25_000
    rng = np.random.default_rng(8)
    X0 = np.column_stack(
        [rng.uniform(0, 200, n), rng.uniform(0, 200, n), rng.uniform(0, 5, n)]
    )
    X1 = np.column_stack(
        [rng.uniform(0, 200, n), rng.uniform(0, 200, n), rng.uniform(0, 5, n)]
    )
    try:
        C = cost_matrix(X0, X1)
        plan = sinkhorn_unbalanced(
            C,
            SolverConfig(epsilon_rel=0.05, rho=1000.0, max_iter=2, tol=1e-9),
            overwrite_cost=True,
        )
        peak_gib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 2**20
        assert np.isfinite(plan.coupling).all()
        assert peak_gib < 16.0, f"peak RSS {peak_gib:.1f} GiB"
        memory_note = f"dense 25k solve ran, peak RSS {peak_gib:.1f} GiB"
    except SolverResourceError as exc:
        assert "GiB" in str(exc)
        memory_note = f"aborted with resource diagnostic: {exc}"
    _report(
        8,
        "wall-time ratios "
        + ", ".join(
            f"{a}->{b}: x{walls[b] / walls[a]:.1f}" for a, b in zip(sizes, sizes[1:])
        )
        + f"; {memory_note}",
    )
