import json
import os
import resource
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from dflsim import cli, data as D, model as M, protocol as P, topology as tp


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def run_cli_child(args, timeout, cap=2 << 30, **env):
    """``python -m dflsim.cli`` in a child with BLAS at 1 thread, the
    package from this checkout, and an address-space cap of ``cap`` bytes."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", **env,
               PYTHONPATH=os.pathsep.join([src] + ([os.environ["PYTHONPATH"]]
                                                   if os.environ.get("PYTHONPATH") else [])))
    return subprocess.run(
        [sys.executable, "-m", "dflsim.cli", *args], env=env, capture_output=True, text=True,
        timeout=timeout, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))


FAST = {"sample_count": 120, "rounds": 3, "eval_interval": 1, "batch_size": 4,
        "input_height": 8, "input_width": 8, "widths": [2, 3, 4], "feature_dim": 5}


class TestRun:
    def test_minimal_config_produces_three_files(self, tmp_path):
        cfg_path = write_config(tmp_path, {"strategy": "cll", "rounds": 10})
        assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "out"),
                         "--quiet"]) == 0
        produced = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert produced == ["final_model.ckpt", "metrics.csv", "resolved_config.json"]

    def test_failed_write_leaves_no_partial_output(self, tmp_path, monkeypatch):
        # each output goes through a temporary file and a rename
        def fail_midway(path, *args):
            Path(path).write_bytes(b"partial")
            raise OSError("disk full")

        monkeypatch.setattr(M, "save_checkpoint", fail_midway)
        out = tmp_path / "out"
        with pytest.raises(OSError, match="disk full"):
            cli.run_command(write_config(tmp_path, {"strategy": "cll", **FAST}), out, quiet=True)
        assert sorted(p.name for p in out.iterdir()) == ["metrics.csv"]

    def test_unknown_strategy_names_field(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {"strategy": "xfl"})
        assert cli.main(["run", str(cfg_path)]) == 1
        assert "'strategy'" in capsys.readouterr().err

    def test_unknown_field_rejected(self, tmp_path, capsys):
        for field in ("epochs", "adam_beta1"):
            cfg_path = write_config(tmp_path, {"strategy": "cll", field: 5})
            assert cli.main(["run", str(cfg_path)]) == 1
            assert field in capsys.readouterr().err

    def test_resolved_config_keys_and_defaults(self, tmp_path):
        # the accepted keys and their defaults; out_dir is set by --out
        cfg_path = write_config(tmp_path, {"strategy": "cll", "rounds": 1})
        assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "out"),
                         "--quiet"]) == 0
        resolved = json.loads((tmp_path / "out" / "resolved_config.json").read_text())
        assert resolved.pop("out_dir") == str(tmp_path / "out")
        assert resolved == {
            "batch_size": 32, "cll_compute_s": 0.1, "data_source": "linesteer",
            "eval_interval": 10, "eval_mask": None, "external_path": None,
            "feature_dim": 64, "input_channels": 1, "input_height": 32, "input_width": 32,
            "learning_rate": 0.001, "local_steps": 1, "model_kind": "fadnet",
            "optimizer": "adam", "rounds": 1, "sample_count": 2000, "seed": 0,
            "server_bandwidth_Bps": 25000000.0, "server_compute_s": 0.05,
            "server_latency_s": 0.05, "skew": 0.8, "strategy": "cll", "topology": "gaia11",
            "train_fraction": 0.8, "widths": [8, 16, 32], "workers": 1}
        assert cli.load_config(write_config(tmp_path, {}))["rounds"] == 3000

    def test_missing_topology_file_rejected(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {"strategy": "dfl", "topology": "nope.json"})
        assert cli.main(["run", str(cfg_path)]) == 1
        assert "topology" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_path = write_config(tmp_path, {"strategy": "dfl", "seed": 3, **FAST})
        for sub in ("a", "b"):
            assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / sub),
                             "--quiet"]) == 0
        a = (tmp_path / "a" / "metrics.csv").read_bytes()
        b = (tmp_path / "b" / "metrics.csv").read_bytes()
        assert a == b

    def test_resolved_config_reproduces_run(self, tmp_path):
        cfg_path = write_config(tmp_path, {"strategy": "sfl", "seed": 7, **FAST})
        assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "first"),
                         "--quiet"]) == 0
        resolved = tmp_path / "first" / "resolved_config.json"
        assert cli.main(["run", str(resolved), "--out", str(tmp_path / "second"),
                         "--quiet"]) == 0
        assert (tmp_path / "first" / "metrics.csv").read_bytes() == \
               (tmp_path / "second" / "metrics.csv").read_bytes()

    def test_seed_override_lands_in_resolved_config(self, tmp_path):
        cfg_path = write_config(tmp_path, {"strategy": "cll", "seed": 1, **FAST})
        assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "out"),
                         "--seed", "99", "--quiet"]) == 0
        resolved = json.loads((tmp_path / "out" / "resolved_config.json").read_text())
        assert resolved["seed"] == 99

    def test_quiet_suppresses_summary(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {"strategy": "cll", **FAST})
        assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "out"),
                         "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_summary_line_printed(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {"strategy": "cll", **FAST})
        assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "final_rmse=" in out and "sim_time_s=" in out

    def test_checkpoint_matches_final_model(self, tmp_path):
        cfg_path = write_config(tmp_path, {"strategy": "cll", "seed": 5, **FAST})
        assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "out"),
                         "--quiet"]) == 0
        kind, cfg, theta = M.load_checkpoint(tmp_path / "out" / "final_model.ckpt")
        assert kind == "fadnet"
        assert theta.shape == (M.param_count(kind, cfg),)
        assert np.all(np.isfinite(theta))

    def test_divergent_run_exits_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {
            "strategy": "cll", "optimizer": "sgd", "learning_rate": 1e30, **FAST})
        with np.errstate(all="ignore"):
            assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "out"),
                             "--quiet"]) == 2
        assert "abort" in capsys.readouterr().err

    @pytest.mark.parametrize("strategy", ["dfl", "sfl"])
    def test_overflowing_parameters_exit_2(self, tmp_path, capsys, strategy):
        # one sgd step at learning rate 1e300 leaves finite parameters near
        # 1e299 that overflow the forward pass: no exit 0 with a NaN RMSE
        cfg_path = write_config(tmp_path, {
            **FAST, "strategy": strategy, "topology": "gaia11", "optimizer": "sgd",
            "learning_rate": 1e300, "rounds": 1})
        with np.errstate(all="ignore"):
            assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "out"),
                             "--quiet"]) == 2
        assert "non-finite test RMSE at round 1" in capsys.readouterr().err

    @pytest.mark.parametrize("payload, reason", [
        ({"strategy": "cll", "optimizer": "sgd", "learning_rate": 1e30}, "non-finite test RMSE"),
        ({"strategy": "sfl", "topology": "gaia11", "optimizer": "sgd",
          "learning_rate": 3e307}, "after the mix broadcast_mean"),
    ])
    def test_abort_prints_one_stderr_line(self, tmp_path, payload, reason):
        # the kernels overflow on the way (in matmul, in the server mean);
        # numpy's warnings must not reach stderr ahead of the abort message
        cfg_path = write_config(tmp_path, {**FAST, **payload})
        proc = run_cli_child(["run", str(cfg_path), "--out", str(tmp_path / "out"), "--quiet"],
                             timeout=120, PYTHONWARNINGS="default")
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("runtime abort: "), proc.stderr
        assert reason in lines[0]

    def test_out_of_memory_exits_2(self, tmp_path):
        # one mini-batch of 10^7 8x8 samples needs 5 GB, past the child's
        # 2 GiB address-space cap
        cfg_path = write_config(tmp_path, {**FAST, "strategy": "cll", "batch_size": 10 ** 7})
        proc = run_cli_child(["run", str(cfg_path), "--out", str(tmp_path / "out"), "--quiet"],
                             timeout=120)
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("runtime abort: out of memory"), proc.stderr
        assert "batch_size" in lines[0]

    def test_external_data_source(self, tmp_path):
        ds = D.generate_linesteer(40, 8, 8, seed=0)
        D.save_external(tmp_path / "ext", ds)
        cfg = dict(FAST)
        del cfg["sample_count"]
        cfg_path = write_config(tmp_path, {
            "strategy": "cll", "data_source": "external",
            "external_path": str(tmp_path / "ext"), **cfg})
        assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "out"),
                         "--quiet"]) == 0

    @pytest.mark.parametrize("bad", [(17,), (0, 3, 6, 9), (41, 52)], ids=str)
    def test_external_value_beyond_float32_names_sample(self, tmp_path, capsys, bad):
        # a run holds its data at float32; one sample of 60 that a cll run
        # may never draw still stops it before anything is trained
        ds = D.generate_linesteer(60, 8, 8, seed=0)
        inputs = ds.inputs.copy()
        inputs[bad[0], 3, 4, 0] = 1e39
        inputs[bad[1:], 0, 0, 0] = -3.5e38
        D.save_external(tmp_path / "ext", D.Dataset(inputs=inputs, targets=ds.targets))
        cfg = dict(FAST)
        del cfg["sample_count"]
        cfg_path = write_config(tmp_path, {
            "strategy": "cll", "data_source": "external",
            "external_path": str(tmp_path / "ext"), **cfg})
        with np.errstate(all="raise"):  # the overflow is reported, not warned
            assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "out"),
                             "--quiet"]) == 1
        err = capsys.readouterr().err
        assert (f"config field 'external_path': sample {bad[0]} (data row {bad[0] + 1} "
                f"of labels.csv) holds a value beyond float32's range") in err
        assert not (tmp_path / "out").exists()

    def test_external_values_at_float32_range_accepted(self, tmp_path):
        ds = D.generate_linesteer(40, 8, 8, seed=0)
        inputs = ds.inputs.copy()
        inputs[5, 0, 0, 0] = float(np.finfo(np.float32).max)
        inputs[6, 0, 0, 0] = 1e-50  # rounds to 0 at float32
        D.save_external(tmp_path / "ext", D.Dataset(inputs=inputs, targets=ds.targets))
        cfg = dict(FAST)
        del cfg["sample_count"]
        cfg = cli.load_config(write_config(tmp_path, {
            "strategy": "cll", "data_source": "external",
            "external_path": str(tmp_path / "ext"), **cfg}))
        train, test = cli._build_data(cfg, cli._dataclass_config(M.FADNetConfig, cfg))
        held = np.concatenate([train.inputs, test.inputs])
        assert held.dtype == np.float32 and np.all(np.isfinite(held))

    def test_external_data_loads_straight_to_float32(self, tmp_path):
        # each sample is converted as it is read, and the split copies only
        # the test samples: no float64 copy of the set, no second float32 one
        ds = D.generate_linesteer(200, 64, 64, seed=0)
        D.save_external(tmp_path / "ext", ds)
        float32_bytes = ds.inputs.size * 4
        cfg = cli.load_config(write_config(tmp_path, {
            "strategy": "cll", "data_source": "external", "external_path": str(tmp_path / "ext"),
            "input_height": 64, "input_width": 64}))
        model_cfg = cli._dataclass_config(M.FADNetConfig, cfg)
        tracemalloc.start()
        try:
            train, test = cli._build_data(cfg, model_cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert train.inputs.dtype == test.inputs.dtype == np.float32
        assert train.count + test.count == 200
        assert peak <= 1.3 * float32_bytes

    def test_external_shape_mismatch_names_field(self, tmp_path, capsys):
        ds = D.generate_linesteer(10, 16, 16, seed=0)
        D.save_external(tmp_path / "ext", ds)
        cfg_path = write_config(tmp_path, {
            "strategy": "cll", "data_source": "external",
            "external_path": str(tmp_path / "ext"), **FAST})
        assert cli.main(["run", str(cfg_path), "--quiet"]) == 1
        assert "external_path" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["not_json", "shape_2d", "no_shape_key", "shape_not_list",
                                      "shape_fractional", "missing_sample", "sample_is_dir",
                                      "sample_outside_dir", "wrong_sample_size", "no_angle",
                                      "nan_angle", "inf_angle"])
    def test_malformed_external_dataset_names_field(self, tmp_path, capsys, case):
        ext = tmp_path / "ext"
        D.save_external(ext, D.generate_linesteer(10, 8, 8, seed=0))
        if case == "not_json":
            (ext / "shape.json").write_text("{not json")
        elif case == "shape_2d":
            (ext / "shape.json").write_text(json.dumps({"shape": [8, 8]}))
        elif case == "no_shape_key":
            (ext / "shape.json").write_text(json.dumps({"format_version": 1}))
        elif case == "shape_not_list":
            (ext / "shape.json").write_text(json.dumps({"shape": 8}))
        elif case == "shape_fractional":
            (ext / "shape.json").write_text(json.dumps({"shape": [8.5, 8, 1]}))
        elif case == "no_angle":
            with open(ext / "labels.csv", "a") as f:
                f.write("sample_000003.bin\n")
        elif case in ("nan_angle", "inf_angle"):
            labels = (ext / "labels.csv").read_text().splitlines()
            name = labels[4].split(",")[0]
            labels[4] = f"{name},{case[:3]}"
            (ext / "labels.csv").write_text("\n".join(labels) + "\n")
        elif case == "missing_sample":
            (ext / "sample_000003.bin").unlink()
        elif case == "sample_is_dir":
            (ext / "sample_000003.bin").unlink()
            (ext / "sample_000003.bin").mkdir()
        elif case == "sample_outside_dir":
            D.save_external(tmp_path / "other", D.generate_linesteer(10, 8, 8, seed=1))
            labels = (ext / "labels.csv").read_text()
            (ext / "labels.csv").write_text(
                labels.replace("sample_000005.bin", "../other/sample_000005.bin"))
        else:
            np.zeros(5, dtype="<f8").tofile(ext / "sample_000003.bin")
        cfg_path = write_config(tmp_path, {
            "strategy": "cll", "data_source": "external",
            "external_path": str(ext), **FAST})
        assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "out"),
                         "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "config field 'external_path':" in err
        if case in ("nan_angle", "inf_angle"):
            assert "labels.csv line 5: need a file name and a finite angle" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("payload", [
        {"strategy": "cll", "cll_compute_s": 1e308, "local_steps": 2},
        {"strategy": "sfl", "server_latency_s": 1e308},
        {"strategy": "sfl", "server_compute_s": 1.7e308},
        {"strategy": "cll", "rounds": 400, "cll_compute_s": 1e306},
    ], ids=["cll-inf-round", "sfl-inf-round", "sfl-sum-overflows", "cll-sum-overflows"])
    def test_simulated_time_overflow_exits_1(self, tmp_path, capsys, payload):
        # the round duration, or rounds times it, is past the float range:
        # no run may end with an inf sim_time_s or an overflow in the clock
        cfg_path = write_config(tmp_path, {**FAST, **payload})
        assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "out"),
                         "--quiet"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: config field 'rounds': ")
        assert "overflow the simulated clock" in lines[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_negative_seed_override_rejected(self, tmp_path, capsys, command):
        paths = [write_config(tmp_path, {"strategy": s, **FAST}, name=f"{s}.json")
                 for s in ("cll", "sfl")]
        if command == "run":
            paths = paths[:1]
        assert cli.main([command, *map(str, paths), "--out", str(tmp_path / "out"),
                         "--seed", "-1", "--quiet"]) == 1
        assert "config validation: seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


INT_FIELDS = [key for key, (_, parse) in cli._CONFIG_FIELDS.items() if parse is D.whole_number]
SIZE_FIELDS = ["sample_count", "input_height", "input_width", "batch_size", "feature_dim"]


class TestFieldTypes:
    @pytest.mark.parametrize("field", ["learning_rate", "skew", "server_latency_s"])
    @pytest.mark.parametrize("value", ["nan", "inf", float("nan"), float("-inf"), 10 ** 400])
    def test_non_finite_float_names_field(self, tmp_path, capsys, field, value):
        cfg_path = write_config(tmp_path, {"strategy": "cll", field: value, **FAST})
        assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "out"),
                         "--quiet"]) == 1
        assert f"config field '{field}':" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_boolean_float_rejected(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {"strategy": "cll", "learning_rate": True, **FAST})
        assert cli.main(["run", str(cfg_path), "--quiet"]) == 1
        assert "config field 'learning_rate':" in capsys.readouterr().err

    def test_fractional_rounds_rejected(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {"strategy": "cll", **dict(FAST, rounds=2.7)})
        assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "out"),
                         "--quiet"]) == 1
        assert "config field 'rounds':" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("rounds", [1e300, 2 ** 53 + 1], ids=["1e300", "2**53+1"])
    def test_rounds_past_2_53_rejected(self, tmp_path, capsys, rounds):
        # past 2**53 a round count, and rounds times the round duration, are
        # no longer exact floats; 1e300 rounds would also never end
        cfg_path = write_config(tmp_path, {"strategy": "cll", **dict(FAST, rounds=rounds)})
        assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "out"),
                         "--quiet"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: config field 'rounds': ")
        # the value past the bound is shown compactly, not as 301 digits
        assert "at most 2**53" in lines[0] and len(lines[0]) < 120
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [1e300, 2 ** 53 + 1], ids=["1e300", "2**53+1"])
    @pytest.mark.parametrize("field", ["local_steps", *SIZE_FIELDS])
    def test_huge_count_ends_in_one_line(self, tmp_path, field, value):
        # past its bound a size key or local_steps exits 1 naming the key; a
        # size numpy can index but memory cannot hold exits 2.  Either way
        # the run ends at once, with one line and no traceback
        cfg_path = write_config(tmp_path, {"strategy": "cll", **dict(FAST, **{field: value})})
        proc = run_cli_child(["run", str(cfg_path), "--out", str(tmp_path / "out"), "--quiet"],
                             timeout=30, cap=3 << 30)
        assert proc.returncode in (1, 2)
        assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr
        assert len(proc.stderr.rstrip("\n")) < 120
        if proc.returncode == 1:
            assert f"config field '{field}'" in proc.stderr
            assert f"at most {cli._UPPER_BOUNDS[field][1]}," in proc.stderr

    def test_rounds_up_to_2_53_accepted(self, tmp_path):
        cfg_path = write_config(tmp_path, {"strategy": "cll", **dict(FAST, rounds=2 ** 53)})
        assert cli.load_config(cfg_path)["rounds"] == 2 ** 53
        with pytest.raises(ValueError, match="rounds must be at most 2"):
            P.TrainConfig(rounds=2 ** 53 + 1)

    def test_local_steps_up_to_2_53_accepted(self, tmp_path):
        cfg_path = write_config(tmp_path, {"strategy": "cll", **dict(FAST, local_steps=2 ** 53)})
        assert cli.load_config(cfg_path)["local_steps"] == 2 ** 53
        with pytest.raises(ValueError, match="local_steps must be at most 2"):
            P.TrainConfig(local_steps=2 ** 53 + 1)

    @pytest.mark.parametrize("sizes, named", [
        ({"input_height": 2 ** 31 - 1, "input_width": 2 ** 31 - 1}, "'sample_count'"),
        ({"widths": [2, 3, 2 ** 31 - 1], "feature_dim": 2 ** 31 - 1}, "'widths'"),
    ], ids=["dataset", "parameters"])
    def test_array_past_numpy_index_range_names_its_fields(self, tmp_path, capsys, sizes,
                                                           named):
        # each key is within its bound, but together they size an array of
        # more bytes than numpy can index
        cfg_path = write_config(tmp_path, {"strategy": "cll", **dict(FAST, **sizes)})
        assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "out"), "--quiet"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and named in lines[0] and "too big for numpy" in lines[0]

    @pytest.mark.parametrize("field, value", [
        ("input_height", 4), ("input_width", 7), ("input_channels", 0), ("widths", [2, 0, 4]),
        ("widths", [2, 3]), ("feature_dim", 0)])
    def test_model_key_out_of_range_names_that_key_alone(self, tmp_path, capsys, field, value):
        # linesteer data fixes input_channels at 1, so that key is tried on
        # external data, whose path is checked only for existence here
        external = {"data_source": "external", "external_path": str(tmp_path)}
        cfg_path = write_config(tmp_path, {"strategy": "cll", **FAST, field: value,
                                           **(external if field == "input_channels" else {})})
        assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "out"), "--quiet"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and field in lines[0]
        assert [f.name for f in fields(M.FADNetConfig)
                if f.name != field and f.name in lines[0]] == []

    @pytest.mark.parametrize("field", INT_FIELDS)
    def test_boolean_int_rejected(self, tmp_path, capsys, field):
        cfg_path = write_config(tmp_path, {"strategy": "cll", **dict(FAST, **{field: True})})
        assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "out"),
                         "--quiet"]) == 1
        assert f"config field '{field}':" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [("widths", [2, True, 4]), ("widths", [2, 3.5, 4]),
                                             ("eval_mask", [1, True])])
    def test_list_entries_checked(self, tmp_path, capsys, field, value):
        cfg_path = write_config(tmp_path, {"strategy": "cll", **dict(FAST, **{field: value})})
        assert cli.main(["run", str(cfg_path), "--quiet"]) == 1
        assert f"config field '{field}':" in capsys.readouterr().err

    @pytest.mark.parametrize("strategy, field, value", [
        ("sfl", "server_bandwidth_Bps", 0), ("sfl", "server_bandwidth_Bps", -1e6),
        ("sfl", "server_latency_s", -0.01), ("sfl", "server_compute_s", -0.01),
        ("cll", "cll_compute_s", -0.01), ("cll", "seed", -1)])
    def test_timing_field_out_of_range_names_field(self, tmp_path, capsys, strategy, field,
                                                   value):
        cfg_path = write_config(tmp_path, {"strategy": strategy, "topology": "gaia11",
                                           **dict(FAST, **{field: value})})
        assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "out"),
                         "--quiet"]) == 1
        assert f"{field} must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field", sorted(cli._CONFIG_FIELDS))
    def test_wrong_json_type_names_field(self, tmp_path, capsys, field):
        # a boolean for a number key, a number for a string or list key
        default = cli._CONFIG_FIELDS[field][0]
        value = True if isinstance(default, (int, float)) else 5
        cfg_path = write_config(tmp_path, {**FAST, "strategy": "cll", field: value})
        assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "out"),
                         "--quiet"]) == 1
        assert f"config field '{field}':" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field", ["rounds", "learning_rate", "topology", "widths"])
    def test_null_rejected_where_default_is_set(self, tmp_path, capsys, field):
        # only a key whose default is null (eval_mask, external_path, out_dir)
        # takes null
        cfg_path = write_config(tmp_path, {**FAST, "strategy": "cll", field: None})
        assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "out"),
                         "--quiet"]) == 1
        assert f"config field '{field}':" in capsys.readouterr().err

    def test_whole_numbers_accepted(self):
        assert D.whole_number(3.0) == 3 and D.whole_number("4") == 4
        assert D.finite_number(2) == 2.0 and D.finite_number("1e-3") == 1e-3


class TestSampleAndSiloChecks:
    """Fields checked once the data split and the topology are known."""

    @pytest.mark.parametrize("strategy", ["dfl", "sfl"])
    def test_eval_mask_length_names_field(self, tmp_path, capsys, strategy):
        cfg_path = write_config(tmp_path, {"strategy": strategy, "topology": "gaia11",
                                           **dict(FAST, eval_mask=[1, 0, 1])})
        assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "out"),
                         "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "config field 'eval_mask':" in err
        assert "11 entries, got 3" in err
        assert not (tmp_path / "out").exists()

    def test_full_length_eval_mask_accepted(self, tmp_path):
        cfg_path = write_config(tmp_path, {"strategy": "dfl", "topology": "gaia11",
                                           **dict(FAST, rounds=1, eval_mask=[1] * 11)})
        assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "out"),
                         "--quiet"]) == 0

    def test_too_few_samples_for_silos_names_field(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {"strategy": "dfl", "topology": "nws22",
                                           **dict(FAST, sample_count=10)})
        assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "out"),
                         "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "config field 'sample_count':" in err
        assert "needs at least 22 training samples" in err
        assert not (tmp_path / "out").exists()

    def test_empty_split_names_field(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {"strategy": "cll", **dict(FAST, sample_count=1)})
        assert cli.main(["run", str(cfg_path), "--quiet"]) == 1
        assert "config field 'sample_count': split 0.8 of 1 samples" in capsys.readouterr().err


    @pytest.mark.parametrize("count", [0, -3])
    def test_sample_count_below_one_names_field(self, tmp_path, capsys, count):
        cfg_path = write_config(tmp_path, {"strategy": "cll", **dict(FAST, sample_count=count)})
        assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "out"),
                         "--quiet"]) == 1
        assert (f"config field 'sample_count': must be >= 1, got {count}"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()


class TestOutDir:
    """An output directory that an existing file blocks fails before any work."""

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("case", ["is-a-file", "under-a-file"])
    def test_blocked_out_dir_names_field(self, tmp_path, capsys, monkeypatch, command, case):
        monkeypatch.setattr(cli, "execute", lambda cfg: pytest.fail("the run started"))
        blocker = tmp_path / "blocker"
        blocker.write_text("kept\n")
        # an existing file given as the config's out_dir, or a directory
        # below one given with --out
        in_config = {"out_dir": str(blocker)} if case == "is-a-file" else {}
        flag = [] if case == "is-a-file" else ["--out", str(blocker / "sub")]
        paths = [write_config(tmp_path, {"strategy": s, **FAST, **in_config}, name=f"{s}.json")
                 for s in (["cll"] if command == "run" else ["cll", "sfl"])]
        before = sorted(tmp_path.rglob("*"))
        assert cli.main([command, *map(str, paths), *flag, "--quiet"]) == 1
        assert f"config field 'out_dir': {blocker} exists and is not a directory" \
            in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before
        assert blocker.read_text() == "kept\n"


class TestTopologyFile:
    """A custom topology file is checked value by value when it is loaded."""

    @pytest.mark.parametrize("strategy", ["dfl", "sfl"])
    @pytest.mark.parametrize("section, k, key, value, named", [
        ("links", 0, "latency_s", "nan", "links[0] field 'latency_s': must be finite"),
        ("silos", 3, "compute_time_s", "nan", "silos[3] field 'compute_time_s': must be finite"),
        ("links", 2, "bandwidth_Bps", "inf", "links[2] field 'bandwidth_Bps': must be finite"),
        ("silos", 1, "id", 1.7, "silos[1] field 'id': expected an integer, got 1.7"),
        ("links", 4, "dst", True, "links[4] field 'dst': expected an integer, got True"),
        (None, None, "undirected", "false", "'undirected' must be true or false, got 'false'"),
        ("links", 1, "latency_s", True, "links[1] field 'latency_s': expected a number, got True"),
        ("silos", 2, "compute_time_s", True,
         "silos[2] field 'compute_time_s': expected a number, got True"),
        ("links", 3, "bandwidth_Bps", False,
         "links[3] field 'bandwidth_Bps': expected a number, got False"),
    ], ids=["nan-latency", "nan-compute", "inf-bandwidth", "fractional-id", "boolean-dst",
            "string-undirected", "boolean-latency", "boolean-compute", "boolean-bandwidth"])
    def test_bad_value_names_record_and_field(self, tmp_path, capsys, strategy, section, k,
                                              key, value, named):
        topo = json.loads(tp.fixture_path("gaia11").read_text())
        record = topo if section is None else topo[section][k]
        record[key] = value
        (tmp_path / "topo.json").write_text(json.dumps(topo))
        cfg_path = write_config(tmp_path, {**FAST, "strategy": strategy,
                                           "topology": str(tmp_path / "topo.json")})
        assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "out"),
                         "--quiet"]) == 1
        assert named.format(**record) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_one_way_link_fails_dfl_and_runs_sfl(self, tmp_path):
        # links 0<->1 and 1->2 only: connected, but silo 2 reaches no one;
        # a missing reachability check rebuilds relay paths without end, so
        # this runs in a child under a time and memory cap
        topo = {"silos": [{"id": i, "compute_time_s": 0.1} for i in range(3)],
                "links": [{"src": a, "dst": b, "latency_s": 0.05, "bandwidth_Bps": 1e7}
                          for a, b in ((0, 1), (1, 0), (1, 2))],
                "undirected": False}
        (tmp_path / "topo.json").write_text(json.dumps(topo))
        rcs = {}
        for strategy in ("dfl", "sfl"):
            cfg_path = write_config(tmp_path, {**FAST, "strategy": strategy, "rounds": 1,
                                               "topology": str(tmp_path / "topo.json")},
                                    name=f"{strategy}.json")
            proc = run_cli_child(["run", str(cfg_path), "--out", str(tmp_path / strategy),
                                  "--quiet"], timeout=60)
            rcs[strategy] = proc.returncode
            if strategy == "dfl":
                assert "silo 0 cannot be reached from silo 2" in proc.stderr
        assert rcs == {"dfl": 1, "sfl": 0}


class TestCompare:
    def make_trio(self, tmp_path, seed=0):
        paths = []
        for strategy in ("cll", "sfl", "dfl"):
            paths.append(write_config(
                tmp_path, {"strategy": strategy, "seed": seed, **FAST},
                name=f"{strategy}.json"))
        return paths

    def test_three_strategy_table(self, tmp_path, capsys):
        paths = self.make_trio(tmp_path)
        out = tmp_path / "cmp"
        assert cli.main(["compare", *map(str, paths), "--out", str(out)]) == 0
        table = (out / "compare.csv").read_text().splitlines()
        assert table[0] == "strategy,model_kind,final_test_rmse,total_sim_time_s"
        assert len(table) == 4
        assert [line.split(",")[0] for line in table[1:]] == ["cll", "sfl", "dfl"]
        for strategy in ("cll", "sfl", "dfl"):
            assert (out / strategy / "metrics.csv").exists()

    def test_single_config_rejected(self, tmp_path, capsys):
        paths = self.make_trio(tmp_path)
        assert cli.main(["compare", str(paths[0])]) == 1
        assert ">= 2" in capsys.readouterr().err

    def test_incompatible_data_rejected(self, tmp_path, capsys):
        a = write_config(tmp_path, {"strategy": "cll", **FAST}, name="a.json")
        mismatched = dict(FAST, sample_count=64)
        b = write_config(tmp_path, {"strategy": "dfl", **mismatched}, name="b.json")
        assert cli.main(["compare", str(a), str(b)]) == 1
        assert "incompatible" in capsys.readouterr().err

    def test_failed_table_write_keeps_the_previous_table(self, tmp_path, monkeypatch):
        paths = self.make_trio(tmp_path)[:2]
        out = tmp_path / "cmp"
        out.mkdir()
        (out / "compare.csv").write_text("previous\n")
        write_text = Path.write_text

        def disk_full(path, text, *args, **kwargs):
            if path.name != "compare.csv.tmp":
                return write_text(path, text, *args, **kwargs)
            write_text(path, text[:10])
            raise OSError("No space left on device")

        monkeypatch.setattr(Path, "write_text", disk_full)
        with pytest.raises(OSError, match="No space"):
            cli.compare_command([str(p) for p in paths], out=out, quiet=True)
        assert (out / "compare.csv").read_text() == "previous\n"
        assert sorted(p.name for p in out.iterdir()) == ["cll", "compare.csv", "sfl"]

    def test_dfl_row_time_is_rounds_times_cycle_time(self, tmp_path):
        paths = self.make_trio(tmp_path, seed=4)
        out = tmp_path / "cmp"
        assert cli.main(["compare", *map(str, paths), "--out", str(out),
                         "--quiet"]) == 0
        rows = (out / "compare.csv").read_text().splitlines()[1:]
        dfl_time = float(rows[2].split(",")[3])
        model_cfg = M.FADNetConfig(input_height=8, input_width=8, input_channels=1,
                                   widths=(2, 3, 4), feature_dim=5)
        delay = tp.DelayParams(8.0 * M.param_count("fadnet", model_cfg), 1)
        g = tp.load_topology(tp.fixture_path("gaia11"))
        overlay = tp.build_overlay_christofides(g, delay)
        assert dfl_time == FAST["rounds"] * tp.cycle_time(overlay, delay)

    def test_shared_file_stem_rejected_before_any_run(self, tmp_path, capsys, monkeypatch):
        # --out puts each config's outputs under its file stem: a/run.json and
        # b/run.json would share one run directory
        monkeypatch.setattr(cli, "execute", lambda cfg: pytest.fail("the run started"))
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        first = write_config(tmp_path / "a", {"strategy": "cll", **FAST}, name="run.json")
        second = write_config(tmp_path / "b", {"strategy": "sfl", **FAST}, name="run.json")
        out = tmp_path / "cmp"
        assert cli.main(["compare", str(first), str(second), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert str(first) in err and str(second) in err and "'run'" in err
        assert not out.exists()


def test_dfl_overlay_weighs_float64_parameters(tmp_path, monkeypatch):
    # the model computes at float32, but silos exchange float64 parameters
    sizes = []
    real = tp.build_overlay_christofides

    def build(graph, delay):
        sizes.append(delay.model_size_bytes)
        return real(graph, delay)

    monkeypatch.setattr(tp, "build_overlay_christofides", build)
    cfg_path = write_config(tmp_path, {**FAST, "strategy": "dfl", "rounds": 1})
    assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    model_cfg = M.FADNetConfig(input_height=8, input_width=8, widths=(2, 3, 4), feature_dim=5)
    assert sizes == [8 * M.param_count("fadnet", model_cfg)]


@pytest.mark.parametrize("strategy", P.STRATEGIES)
def test_runner_gets_float32_data(tmp_path, monkeypatch, strategy):
    # the shards (or cll's training set) and the test set hold 4 bytes per
    # value: the float64 dataset rounded once, as every step reads it
    handed = {}

    def runner(*args):
        handed["train"], handed["test"] = args[-3:-1]
        return "log"

    monkeypatch.setattr(P, f"run_{strategy}", runner)
    cfg = cli.load_config(write_config(tmp_path, {**FAST, "strategy": strategy}))
    assert cli.execute(cfg) == "log"

    ds = D.generate_linesteer(FAST["sample_count"], 8, 8, cfg["seed"])
    train, test = D.train_test_split(ds, cfg["train_fraction"], cfg["seed"])
    if strategy != "cll":
        n = tp.load_topology(tp.fixture_path(cfg["topology"])).n
        train = D.partition_noniid(train, n, cfg["skew"], cfg["seed"]).shards(train)
    for held, expected in ((handed["train"], train), (handed["test"], test)):
        for h, e in (zip(held, expected) if isinstance(held, list) else [(held, expected)]):
            assert h.inputs.dtype == np.float32
            assert h.inputs.nbytes == h.count * 8 * 8 * 1 * 4
            assert np.array_equal(h.inputs, e.inputs.astype(np.float32))
            assert h.targets.dtype == np.float64 and np.array_equal(h.targets, e.targets)
