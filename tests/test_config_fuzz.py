"""Fuzz of ``dflsim run`` over one- and two-key mutations of an 8x8 config.

Each example writes a small config with one or two keys set to a value of
the wrong type or at an edge, runs ``dflsim run`` on it in a child process
(3 GiB address-space cap, a timeout) and checks how it ends: exit 0 with all
three outputs and a finite test RMSE in every row, exit 1 with a message
that names a config key, or exit 2 with one line; never a traceback.
Hypothesis is derandomized, so every run draws the same examples, and the
children run one after another.
"""
import csv
import json
import math
import re
import resource
import subprocess
import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import child_env
from dflsim import cli

BASE = {"sample_count": 120, "rounds": 3, "eval_interval": 1, "batch_size": 4,
        "input_height": 8, "input_width": 8, "widths": [2, 3, 4], "feature_dim": 5}

KEYS = sorted(cli._CONFIG_FIELDS)

# wrong types, booleans, null, strings, empty and nested containers, and
# numbers at the edges: 2**53 + 1 is the first integer float64 cannot hold,
# and the config parser reads 1e300 as a 301-digit integer
VALUES = [True, False, None, "", "x", [], {}, [[1]], {"a": []},
          0, -1, 2 ** 53 + 1, 1e300, 1e-300, -0.0]

OUTPUTS = ["final_model.ckpt", "metrics.csv", "resolved_config.json"]

CAP = 3 << 30
TIMEOUT = 60


def names_a_key(message: str) -> bool:
    # dataclass checks name a key unquoted ("config validation: rounds must
    # be >= 1, got 0"), the parser's checks quoted
    return any(re.search(rf"\b{re.escape(key)}\b", message) for key in KEYS)


def run_child(tmp_path, config: dict) -> subprocess.CompletedProcess:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return subprocess.run(
        [sys.executable, "-m", "dflsim.cli", "run", str(path), "--out", str(tmp_path / "out"),
         "--quiet"], cwd=tmp_path, env=child_env(), capture_output=True, text=True,
        timeout=TIMEOUT, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (CAP, CAP)))


# one child takes about 0.2 s; 60 examples keep the test within 20 s
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(strategy=st.sampled_from(["dfl", "sfl", "cll"]),
       mutations=st.dictionaries(st.sampled_from(KEYS), st.sampled_from(VALUES),
                                 min_size=1, max_size=2))
# before the size and local_steps bounds, a size at 1e300 ended in a numpy
# traceback, and local_steps past 2**53 never finished its first round
@example(strategy="cll", mutations={"sample_count": 1e300})
@example(strategy="dfl", mutations={"local_steps": 2 ** 53 + 1})
def test_every_config_ends_in_a_result_or_one_line(tmp_path_factory, strategy, mutations):
    tmp_path = tmp_path_factory.mktemp("fuzz")
    proc = run_child(tmp_path, {"strategy": strategy, **BASE, **mutations})
    err = proc.stderr
    assert proc.returncode in (0, 1, 2), err
    assert "Traceback" not in err, err
    if proc.returncode == 0:
        out = tmp_path / "out"
        assert sorted(p.name for p in out.iterdir()) == OUTPUTS
        with open(out / "metrics.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert rows and all(math.isfinite(float(row["test_rmse"])) for row in rows)
    elif proc.returncode == 1:
        assert names_a_key(err), err
    else:
        assert len(err.splitlines()) == 1, err
