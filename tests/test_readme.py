"""The README's library example runs as written."""

import re
from pathlib import Path

from otcd.io import write_xyz
from otcd.synth import Building, SceneSpec, generate_pair

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs(tmp_path, monkeypatch):
    spec = SceneSpec(
        extent=16.0,
        ground_density=2.0,
        buildings=(Building((4.0, 4.0, 10.0, 10.0), 6.0, "added"),),
        seed=5,
    )
    pc0, pc1 = generate_pair(spec)
    write_xyz(tmp_path / "t0.xyz", pc0)
    write_xyz(tmp_path / "t1.xyz", pc1)
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(_library_example(), str(README), "exec"), namespace)
    assert (tmp_path / "out.ply").exists()
    assert len(namespace["result"].scores) == len(pc1)
