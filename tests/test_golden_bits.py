"""Golden bits: tiny dfl, sfl and cll runs (and one cll run of the
``backbone_only`` ablation) must write exactly the committed
``metrics.csv`` and ``final_model.ckpt``.  Two more runs use the default
32x32 model at the benchmark's batch sizes (dfl on nws22 at batch 32, sfl on
gaia11 at batch 4), which the 8x8 runs never reach: the stem conv's
transposed patch matrix (8 output channels) and the blocked inference
convolution.

Each run is a ``dflsim run`` subprocess with BLAS at one thread.  The bits
depend on the numpy/OpenBLAS build and the CPU, so a failure prints that
build; on another machine a mismatch may mean a different build, not a
defect.  A change that alters the bits on purpose updates the digests here
and says why."""
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent

TINY = {"sample_count": 120, "rounds": 3, "eval_interval": 1, "local_steps": 2,
        "batch_size": 4, "input_height": 8, "input_width": 8, "widths": [2, 3, 4],
        "feature_dim": 5, "seed": 1}

# the default FADNetConfig (32x32, widths 8, 16, 32), small data, few rounds
BENCH_GEOMETRY = {"sample_count": 300, "rounds": 2, "eval_interval": 1, "seed": 1}

# config, then the md5 of metrics.csv and of final_model.ckpt
GOLDEN = {
    "dfl": (dict(TINY, strategy="dfl", topology="nws22"),
            "cbb7132e05c092246bff65fe1e37ecfa", "98a93a767bdfc5f93c490fa88b3c2558"),
    "sfl": (dict(TINY, strategy="sfl", topology="gaia11", workers=2),
            "c260ee41eb184a5ea595bc4c09ccb521", "773dcd0af4cfd37d8dbd0cc1d24fb0d6"),
    "cll": (dict(TINY, strategy="cll"),
            "adf307c9b18d77b8abe45fdc2ee3910c", "866f502de9a70224ffa5b8f750858862"),
    "cll-backbone_only": (dict(TINY, strategy="cll", model_kind="backbone_only"),
                          "ff76363a6cae7ed3d7a096ef59942e01", "f4d8833e82532fed8003d82a73666132"),
    "dfl-nws22-b32": (dict(BENCH_GEOMETRY, strategy="dfl", topology="nws22", batch_size=32),
                      "713cfff4fcf435c70155ff46344b5d1a", "d9afec5bd82c0a204b2ba005a7a39a27"),
    "sfl-gaia11-b4": (dict(BENCH_GEOMETRY, strategy="sfl", topology="gaia11", batch_size=4,
                           workers=2),
                      "2dc12d8aba3aa026d2537244a9f48668", "7aeda063183fa1c058a533f0eca8036f"),
}


def build() -> str:
    """numpy version, BLAS build and CPU, for the failure message."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = blas.get("openblas configuration") or blas.get("name")
    except Exception as e:  # the config API differs across numpy versions
        blas = f"unknown ({e})"
    return f"numpy {np.__version__}, BLAS {blas}, {platform.machine()} {platform.processor()}"


@pytest.mark.parametrize("strategy", sorted(GOLDEN))
def test_outputs_match_committed_digests(tmp_path, strategy):
    payload, metrics_md5, ckpt_md5 = GOLDEN[strategy]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]]
                                          if os.environ.get("PYTHONPATH") else [])))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "dflsim.cli", "run", str(config), "--out", str(out), "--quiet"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr

    got = tuple(hashlib.md5((out / name).read_bytes()).hexdigest()
                for name in ("metrics.csv", "final_model.ckpt"))
    assert got == (metrics_md5, ckpt_md5), (
        f"{strategy} outputs differ from the committed digests on {build()}")
