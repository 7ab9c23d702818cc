"""The contract between dflsim and its benchmark: a traced ``dflsim run``
through ``perfbench/child.py`` makes exactly the calls that
``perfbench/layers.py`` expects, so renaming or bypassing a traced function
fails here rather than in the benchmark's traced run."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env
from dflsim import topology as tp

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import layers  # noqa: E402

TINY = {"topology": "gaia11", "sample_count": 120, "rounds": 2, "eval_interval": 1,
        "local_steps": 2, "batch_size": 4, "input_height": 8, "input_width": 8,
        "widths": [2, 3, 4], "feature_dim": 5}


def facts(cfg: dict) -> dict:
    """What layers.expected_calls reads, worked out from the config."""
    rounds, count = cfg["rounds"], cfg["sample_count"]
    eval_rounds = {0, rounds} | set(range(0, rounds + 1, cfg["eval_interval"]))
    return {"silos": tp.load_topology(tp.fixture_path(cfg["topology"])).n,
            "rounds": rounds, "local_steps": cfg["local_steps"],
            "eval_rows": len(eval_rounds), "test_count": count - int(0.8 * count)}


# the default 32x32 model at the dfl benchmark's batch size: the stem conv's
# transposed patches, written in its pool's slabs
DEFAULT_GEOMETRY = {"topology": "nws22", "sample_count": 300, "rounds": 1, "eval_interval": 1,
                    "local_steps": 1, "batch_size": 32}


@pytest.mark.parametrize("strategy, workers", [("dfl", 1), ("sfl", 2)])
def test_traced_run_makes_the_expected_calls(tmp_path, strategy, workers):
    cfg = dict(TINY, strategy=strategy, workers=workers)
    metrics = traced_metrics(tmp_path, cfg)
    assert metrics["model.loss_and_grad.calls"] == facts(cfg)["silos"] * (1 + 2 * 2)


def test_traced_default_geometry_run_makes_the_expected_calls(tmp_path):
    cfg = dict(DEFAULT_GEOMETRY, strategy="dfl", workers=1)
    metrics = traced_metrics(tmp_path, cfg)
    assert metrics["model.loss_and_grad.calls"] == 22 * 2
    assert metrics["model.predict.calls"] == 2  # 60 test samples, rounds 0 and 1


def traced_metrics(tmp_path, cfg: dict) -> dict:
    """The per-layer metrics of one traced run of ``cfg``; fails on any
    call-count mismatch."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    spans_path = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), str(config), str(tmp_path / "out"),
         str(tmp_path / "result.json"), str(spans_path)],
        env=child_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr

    metrics, failures = layers.analyse(json.loads(spans_path.read_text()), facts(cfg))
    assert failures == []
    return metrics
