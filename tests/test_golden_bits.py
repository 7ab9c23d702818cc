"""Golden bits: tiny dfl, sfl and cll runs (and one cll run of the
``backbone_only`` ablation) must write exactly the committed
``metrics.csv`` and ``final_model.ckpt``, and so must one dfl run with
plain SGD in place of Adam.  Two more runs use the default
32x32 model at the benchmark's batch sizes (dfl on nws22 at batch 32, sfl on
gaia11 at batch 4), which the 8x8 runs never reach: the stem conv's
transposed patch matrix (8 output channels) and the blocked inference
convolution.

Training and evaluation compute at float32 while the parameters stay
float64; the step's gradient and Adam's moments are float32, and SGD's step
is rounded at float64.  The model's float64 path keeps its own digests:
``loss_and_grad`` and ``predict`` on float64 parameters, for both model
kinds at batch 32 and batch 4 (``FLOAT64_DIGESTS``).

The last change of the bits on purpose kept Adam's two moments (and its
scratch) at float32, updated by the float32 gradient straight from the step
workspace, where they had been float64 and the gradient cast up each step.
That moved the six Adam run digests once; every run's round-0
``metrics.csv`` row, ``FLOAT64_DIGESTS`` and the SGD run kept their bits.
The float32 gradient vector alone moved none: it held only float32 values
before.

Each run is a ``dflsim run`` subprocess with BLAS at one thread.  The bits
depend on the numpy/OpenBLAS build and the CPU, so a failure prints that
build; on another machine a mismatch may mean a different build, not a
defect.  A change that alters the bits on purpose updates the digests here
and says why."""
import hashlib
import json
import platform
import struct
import subprocess
import sys

import numpy as np
import pytest

from conftest import child_env
from dflsim import model as M
from dflsim.data import generate_linesteer

TINY = {"sample_count": 120, "rounds": 3, "eval_interval": 1, "local_steps": 2,
        "batch_size": 4, "input_height": 8, "input_width": 8, "widths": [2, 3, 4],
        "feature_dim": 5, "seed": 1}

# the default FADNetConfig (32x32, widths 8, 16, 32), small data, few rounds
BENCH_GEOMETRY = {"sample_count": 300, "rounds": 2, "eval_interval": 1, "seed": 1}

# config, then the md5 of metrics.csv and of final_model.ckpt
GOLDEN = {
    "dfl": (dict(TINY, strategy="dfl", topology="nws22"),
            "2a24be08e3b921b0243751664784a396", "497cbcea237fa9d42cbe9d1e2393489e"),
    "sfl": (dict(TINY, strategy="sfl", topology="gaia11", workers=2),
            "5d7da937239a2e16d341266e74114311", "13dd88aefa3f104f5efa9398a9580afe"),
    "dfl-sgd": (dict(TINY, strategy="dfl", topology="nws22", optimizer="sgd"),
                "5a72dfe2091ed8df7b6928f4ebc27802", "608d46b4add150e5691384808938efea"),
    "cll": (dict(TINY, strategy="cll"),
            "8f14ba19fcbec87db7c8313d9208d7be", "64a909c03eb22ed33b3d2db4ac01f728"),
    "cll-backbone_only": (dict(TINY, strategy="cll", model_kind="backbone_only"),
                          "c7e13efc4b15d1333aab53f69f32e000", "dc3478b0d7aafcfac0f4e33b1829ac3f"),
    "dfl-nws22-b32": (dict(BENCH_GEOMETRY, strategy="dfl", topology="nws22", batch_size=32),
                      "ec9616c008703d1c36acd38976b3dd2a", "3064fcbe0126abc939f0adaabe3f49d0"),
    "sfl-gaia11-b4": (dict(BENCH_GEOMETRY, strategy="sfl", topology="gaia11", batch_size=4,
                           workers=2),
                      "f8cac1847d5f6b4803251880fb38b74e", "566007c16e70ed542c89663eeedc4ab8"),
}

# the round-0 row of each run's metrics.csv: the loss and test RMSE of the
# initial parameters, which no gradient has touched yet
ROUND0 = {
    "dfl": "0,0.0,0.3224190150803596,0.5884357291938845,dfl",
    "dfl-sgd": "0,0.0,0.3224190150803596,0.5884357291938845,dfl",
    "sfl": "0,0.0,0.29362985350757914,0.5884357291938845,sfl",
    "cll": "0,0.0,0.24297341036222192,0.5884357291938845,cll",
    "cll-backbone_only": "0,0.0,0.1625423891189638,0.5981522948361385,cll",
    "dfl-nws22-b32": "0,0.0,0.3592637118663097,0.6275897795678581,dfl",
    "sfl-gaia11-b4": "0,0.0,0.3843558067875545,0.6275897795678581,sfl",
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
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "dflsim.cli", "run", str(config), "--out", str(out), "--quiet"],
        env=child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr

    assert (out / "metrics.csv").read_text().splitlines()[1] == ROUND0[strategy], (
        f"{strategy} forward bits differ from the committed round-0 row on {build()}")
    got = tuple(hashlib.md5((out / name).read_bytes()).hexdigest()
                for name in ("metrics.csv", "final_model.ckpt"))
    assert got == (metrics_md5, ckpt_md5), (
        f"{strategy} outputs differ from the committed digests on {build()}")


# md5 of the loss (little-endian float64) followed by the flat gradient's
# bytes, and md5 of the predictions: float64 parameters of seed 1 on the
# default 32x32 model, a linesteer batch of seed equal to its size
FLOAT64_DIGESTS = {
    ("fadnet", 32): ("22c4d926c54ffe684ca929096a130ee6", "78cad4042ec046bc07b41990ef42278e"),
    ("fadnet", 4): ("f9800466998ae792c4d1e8e398c455c4", "0f01da601f7e60e1e1c4ee015c6655ed"),
    ("backbone_only", 32): ("cca58c5d97eac2beb1b77a961a897d36",
                            "3b04c9c406e8b48429e6e790c7511968"),
    ("backbone_only", 4): ("f8fc88ad90e8943487a4667361c60508",
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
