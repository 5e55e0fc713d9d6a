#!/usr/bin/env python3
"""Total Sinkhorn sweeps and unconverged solves per instance family.

A change to the solver's sweep schedule is judged on these families: no
family may take more sweeps, or leave more solves unconverged, than the
parent commit. Run it against each checkout's ``src`` and compare:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 scripts/solver_families.py

Prints one JSON line per family on stdout (about 20 s in all on one core;
the detector logs its halo-cap and max_iter warnings to stderr):

* ``property``: the 10,001 instances of ``test_marginal_feasibility_property``
  (``default_rng(seed)``, sides ``integers(2, 12)``, epsilon 0.05, tol 1e-7);
* ``criterion1``: the 50 instances of acceptance criterion 1
  (``default_rng(1000 + k)``, sides ``integers(2, 16)``, epsilon 1e-3,
  tol 1e-5, ``max_iter`` 4000);
* ``unbalanced``: 1,000 unbalanced instances (``default_rng(seed)``, sides
  ``integers(2, 31)``, epsilon 0.01, rho 10);
* ``uot_large_chunks`` and ``ot_halo_sweep``: the chunks of the benchmark's
  three scenes at benchmark seed 1 (``synth.six_buildings`` at ground
  density 2, scene seeds ``SeedSequence([1, i])``), solved as those
  workloads solve them (uot at point cap 2500; ot at cap 600, halo 4);
* ``six_uot_1e-3`` and ``six_ot_halo_1e-3``: the same scenes at scene seeds
  1 and 2 with ``epsilon_rel`` 0.001, where halo chunks converge slowly.
"""

import json
from dataclasses import replace

import numpy as np

from otcd.chunking import ChunkingConfig
from otcd.detection import (
    METHOD_BALANCED_OT,
    METHOD_UNBALANCED_OT,
    ChangeDetectionConfig,
    detect_changes,
)
from otcd.solver import SolverConfig, sinkhorn_balanced, sinkhorn_unbalanced
from otcd.synth import generate_pair, six_buildings


def _random_costs(seed: int, high: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.random((int(rng.integers(2, high)), int(rng.integers(2, high))))


def _property():
    cfg = SolverConfig(epsilon=0.05, tol=1e-7)
    return [sinkhorn_balanced(_random_costs(seed, 12), cfg) for seed in range(10_001)]


def _criterion1():
    cfg = SolverConfig(epsilon=1e-3, tol=1e-5, max_iter=4000)
    return [sinkhorn_balanced(_random_costs(1000 + k, 16), cfg) for k in range(50)]


def _unbalanced():
    cfg = SolverConfig(epsilon=0.01, rho=10.0)
    return [sinkhorn_unbalanced(_random_costs(seed, 31), cfg) for seed in range(1000)]


def _chunks(scene_seeds, method, point_cap, halo, epsilon_rel):
    cfg = ChangeDetectionConfig(
        solver=SolverConfig(epsilon_rel=epsilon_rel),
        chunking=ChunkingConfig(point_cap=point_cap, halo_margin=halo),
        method=method,
        workers=1,
    )
    diagnostics = []
    for seed in scene_seeds:
        pc0, pc1 = generate_pair(replace(six_buildings(seed), ground_density=2.0))
        diagnostics += detect_changes(pc0, pc1, cfg).diagnostics
    # chunks that solved no plan (no sources, or nn) have no epsilon
    return [d for d in diagnostics if d.epsilon is not None]


BENCHMARK_SCENES = [
    int(np.random.SeedSequence([1, i]).generate_state(1)[0]) for i in range(3)
]

FAMILIES = {
    "property": _property,
    "criterion1": _criterion1,
    "unbalanced": _unbalanced,
    "uot_large_chunks": lambda: _chunks(
        BENCHMARK_SCENES, METHOD_UNBALANCED_OT, 2500, 0.0, 0.01
    ),
    "ot_halo_sweep": lambda: _chunks(
        BENCHMARK_SCENES, METHOD_BALANCED_OT, 600, 4.0, 0.01
    ),
    "six_uot_1e-3": lambda: _chunks((1, 2), METHOD_UNBALANCED_OT, 2500, 0.0, 0.001),
    "six_ot_halo_1e-3": lambda: _chunks((1, 2), METHOD_BALANCED_OT, 600, 4.0, 0.001),
}


def count(name: str) -> dict:
    """Solves, total sweeps and unconverged solves of family ``name``."""
    runs = FAMILIES[name]()
    return {
        "family": name,
        "solves": len(runs),
        "sweeps": sum(r.iterations for r in runs),
        "unconverged": sum(not r.converged for r in runs),
    }


def main() -> int:
    for name in FAMILIES:
        print(json.dumps(count(name)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
