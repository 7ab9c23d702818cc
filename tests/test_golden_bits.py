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

The last change of the bits on purpose computed each conv's input
gradient as one transposed convolution (the output gradient convolved at
stride 1 with the flipped, phase-stacked weight) in place of the col2im
scatter, and each conv and fc bias gradient as one product with a ones
vector: that moved the run digests and the gradient halves of
``FLOAT64_DIGESTS`` once, while the predictions and every run's round-0
``metrics.csv`` row kept their bits.

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
            "2c8554a58e551ea8a8a603c2d4650df8", "b60ed4659dd9076de0e2285696059cdf"),
    "sfl": (dict(TINY, strategy="sfl", topology="gaia11", workers=2),
            "939837caa3e6dcda89ff5f2681c52dd4", "825970b83e2b60fb5776802255ed9c9b"),
    "cll": (dict(TINY, strategy="cll"),
            "50a2358d3328e1e2dfc1df58329c71b3", "a4236e1eb4221d60a6ddb2fa69b76b8b"),
    "cll-backbone_only": (dict(TINY, strategy="cll", model_kind="backbone_only"),
                          "4afc5c8f6e88b575d159fc4679794ba5", "e3a4768af7ad991fad7ed1b84c08030f"),
    "dfl-nws22-b32": (dict(BENCH_GEOMETRY, strategy="dfl", topology="nws22", batch_size=32),
                      "abe862e07fdce92eccb69a71184f9dfe", "a6a77b6d420d636d8eaf1385bcee36ae"),
    "sfl-gaia11-b4": (dict(BENCH_GEOMETRY, strategy="sfl", topology="gaia11", batch_size=4,
                           workers=2),
                      "f6bdffa0d9e08612377b9ee89eeb79f2", "f51f85bdbb55076cf569482fb3a33914"),
}

# the round-0 row of each run's metrics.csv: the loss and test RMSE of the
# initial parameters, which no gradient has touched yet
ROUND0 = {
    "dfl": "0,0.0,0.3224190150803596,0.5884357291938845,dfl",
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
