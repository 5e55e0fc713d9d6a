"""scripts/solver_families.py on one of its smallest families."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "solver_families.py"

_spec = importlib.util.spec_from_file_location("solver_families", SCRIPT)
solver_families = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(solver_families)


def test_counts_the_benchmark_halo_chunks():
    # the ot_halo_sweep workload: 3 scenes of 16 chunks at cap 600, halo 4
    row = solver_families.count("ot_halo_sweep")
    assert row["family"] == "ot_halo_sweep"
    assert row["solves"] == 48 and row["unconverged"] == 0
    assert row["sweeps"] > row["solves"]
