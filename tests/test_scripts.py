"""The example scripts under ``scripts/`` run end to end on a tiny budget.

They write config keys by name, so a renamed or dropped key shows here.
Each script runs as a subprocess with BLAS at one thread.  The fixture
generator must reproduce the bundled topology files byte for byte."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

RUN_FILES = ["final_model.ckpt", "metrics.csv", "resolved_config.json"]

# script, then the files it leaves under --out
EXPECTED = {
    "compare_strategies.py": ["cll.json", "compare.csv", "dfl.json", "sfl.json"]
    + [f"{s}/{f}" for s in ("cll", "dfl", "sfl") for f in RUN_FILES],
    "convergence_curves.py": ["dfl_gaia11.json", "dfl_nws22.json"]
    + [f"{t}/{f}" for t in ("gaia11", "nws22") for f in RUN_FILES],
}


def run_script(script, *args):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]]
                                          if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("script", sorted(EXPECTED))
def test_script_runs(tmp_path, script):
    out = tmp_path / "out"
    run_script(script, "--rounds", "1", "--samples", "100", "--out", str(out))
    produced = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
    assert produced == sorted(EXPECTED[script])


def test_fixture_generator_reproduces_bundled_files(tmp_path):
    run_script("generate_fixtures.py", "--out", str(tmp_path))
    bundled = ROOT / "src" / "dflsim" / "fixtures"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gaia11.json", "nws22.json"]
    for name in ("gaia11.json", "nws22.json"):
        assert (tmp_path / name).read_bytes() == (bundled / name).read_bytes()
