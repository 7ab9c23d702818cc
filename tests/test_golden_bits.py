"""Golden bits: tiny dfl, sfl and cll runs (and one cll run of the
``backbone_only`` ablation) must write exactly the committed
``metrics.csv`` and ``final_model.ckpt``.  Two more runs use the default
32x32 model at the benchmark's batch sizes (dfl on nws22 at batch 32, sfl on
gaia11 at batch 4), which the 8x8 runs never reach: the stem conv's
transposed patch matrix (8 output channels) and the blocked inference
convolution.

Training and evaluation compute at float32 while the parameters stay
float64.  The model's float64 path keeps its own digests: ``loss_and_grad``
and ``predict`` on float64 parameters, for both model kinds at batch 32 and
batch 4 (``FLOAT64_DIGESTS``).

Each run is a ``dflsim run`` subprocess with BLAS at one thread.  The bits
depend on the numpy/OpenBLAS build and the CPU, so a failure prints that
build; on another machine a mismatch may mean a different build, not a
defect.  A change that alters the bits on purpose updates the digests here
and says why."""
import hashlib
import json
import os
import platform
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dflsim import model as M
from dflsim.data import generate_linesteer

ROOT = Path(__file__).resolve().parent.parent

TINY = {"sample_count": 120, "rounds": 3, "eval_interval": 1, "local_steps": 2,
        "batch_size": 4, "input_height": 8, "input_width": 8, "widths": [2, 3, 4],
        "feature_dim": 5, "seed": 1}

# the default FADNetConfig (32x32, widths 8, 16, 32), small data, few rounds
BENCH_GEOMETRY = {"sample_count": 300, "rounds": 2, "eval_interval": 1, "seed": 1}

# config, then the md5 of metrics.csv and of final_model.ckpt
GOLDEN = {
    "dfl": (dict(TINY, strategy="dfl", topology="nws22"),
            "aef235ff1409758bf23e7184f20e4a23", "5cff9b9f23929ae7bb424aeeb9296146"),
    "sfl": (dict(TINY, strategy="sfl", topology="gaia11", workers=2),
            "067a888b25103664a6b87ef95c8cc601", "27b9f96459a92456e6dd2d9ab86191bc"),
    "cll": (dict(TINY, strategy="cll"),
            "5762933ec8ecd3e457c5633587042b39", "0863ac45996941f719efc9e1a8a6c9d9"),
    "cll-backbone_only": (dict(TINY, strategy="cll", model_kind="backbone_only"),
                          "e04cedaeb96bc588cffae6d1e65b371b", "80fed54f53fc50546d64fefa927c2bfb"),
    "dfl-nws22-b32": (dict(BENCH_GEOMETRY, strategy="dfl", topology="nws22", batch_size=32),
                      "181b526083c9bdc078ab961763ef6dc1", "7da3af7a564d456b451e54c423ae1e27"),
    "sfl-gaia11-b4": (dict(BENCH_GEOMETRY, strategy="sfl", topology="gaia11", batch_size=4,
                           workers=2),
                      "88c03f5fab0a8fd4987423e450c4cf3c", "a43ecf0910a08fa59835c82424f243fa"),
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


# md5 of the loss (little-endian float64) followed by the flat gradient's
# bytes, and md5 of the predictions: float64 parameters of seed 1 on the
# default 32x32 model, a linesteer batch of seed equal to its size
FLOAT64_DIGESTS = {
    ("fadnet", 32): ("80357909d5639a12af1c910be127b266", "78cad4042ec046bc07b41990ef42278e"),
    ("fadnet", 4): ("edfb4872c536d56c8d2c829b7632119d", "0f01da601f7e60e1e1c4ee015c6655ed"),
    ("backbone_only", 32): ("8fb39e9bafb2e6a50a016cd9b0c9ca76",
                            "3b04c9c406e8b48429e6e790c7511968"),
    ("backbone_only", 4): ("397fa6dff3b4fe613d2ea22b21c5b5b4",
                           "4d3edf9038e6b68e5111c20fbb491f14"),
}


@pytest.mark.parametrize("kind, batch", sorted(FLOAT64_DIGESTS))
def test_float64_model_keeps_its_bits(kind, batch):
    cfg = M.TOY_CONFIG
    params = M.init_params(kind, cfg, 1)
    data = generate_linesteer(batch, cfg.input_height, cfg.input_width, batch)
    loss, grad = M.loss_and_grad(kind, cfg, params, data)
    preds = M.predict(kind, cfg, params, data.inputs)
    assert grad.dtype == preds.dtype == np.float64
    got = (hashlib.md5(struct.pack("<d", loss) + grad.tobytes()).hexdigest(),
           hashlib.md5(preds.tobytes()).hexdigest())
    assert got == FLOAT64_DIGESTS[kind, batch], (
        f"float64 {kind} at batch {batch} differs from the committed digests on {build()}")
