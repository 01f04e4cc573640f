"""The benchmark's traced replay still runs against the package's public API.

perfbench/replay.py drives every pipeline stage through public names, so
removing or re-signing one breaks the benchmark; this runs it on two tiny
configs, one per tensor source, as a subprocess the way the benchmark does.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

TINY = {
    "effective": dict(
        model="effective", n_modes=6, n_particles=3, cutoff=20, grid_points=100,
        compute_spacings=False,
    ),
    "syk_gauss_complex": dict(
        model="syk_gauss_complex", n_modes=6, n_particles=3,
        compute_spacings=False,
    ),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_replay_runs(name, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY[name]))
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "replay.py"), str(config),
         "--master-seed", "0", "--realizations", "2", "--out", str(out)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    trace = json.loads((out / "trace.json").read_text())
    assert trace["serial_failed"] == 0
