import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dflsim import cli, data as D, model as M, topology as tp


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


FAST = {"sample_count": 120, "rounds": 3, "eval_interval": 1, "batch_size": 4,
        "input_height": 8, "input_width": 8, "widths": [2, 3, 4], "feature_dim": 5}


class TestRun:
    def test_minimal_config_produces_three_files(self, tmp_path):
        cfg_path = write_config(tmp_path, {"strategy": "cll", "rounds": 10})
        assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "out"),
                         "--quiet"]) == 0
        produced = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert produced == ["final_model.ckpt", "metrics.csv", "resolved_config.json"]

    def test_unknown_strategy_names_field(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {"strategy": "xfl"})
        assert cli.main(["run", str(cfg_path)]) == 1
        assert "'strategy'" in capsys.readouterr().err

    def test_unknown_field_rejected(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {"strategy": "cll", "epochs": 5})
        assert cli.main(["run", str(cfg_path)]) == 1
        assert "epochs" in capsys.readouterr().err

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
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONWARNINGS="default",
                   PYTHONPATH=os.pathsep.join([src] + ([os.environ["PYTHONPATH"]]
                                                       if os.environ.get("PYTHONPATH") else [])))
        proc = subprocess.run(
            [sys.executable, "-m", "dflsim.cli", "run", str(cfg_path),
             "--out", str(tmp_path / "out"), "--quiet"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("runtime abort: "), proc.stderr
        assert reason in lines[0]

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

    def test_external_shape_mismatch_names_field(self, tmp_path, capsys):
        ds = D.generate_linesteer(10, 16, 16, seed=0)
        D.save_external(tmp_path / "ext", ds)
        cfg_path = write_config(tmp_path, {
            "strategy": "cll", "data_source": "external",
            "external_path": str(tmp_path / "ext"), **FAST})
        assert cli.main(["run", str(cfg_path), "--quiet"]) == 1
        assert "external_path" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["not_json", "shape_2d", "no_shape_key", "shape_not_list",
                                      "missing_sample", "sample_is_dir", "wrong_sample_size",
                                      "no_angle"])
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
        elif case == "no_angle":
            with open(ext / "labels.csv", "a") as f:
                f.write("sample_000003.bin\n")
        elif case == "missing_sample":
            (ext / "sample_000003.bin").unlink()
        elif case == "sample_is_dir":
            (ext / "sample_000003.bin").unlink()
            (ext / "sample_000003.bin").mkdir()
        else:
            np.zeros(5, dtype="<f8").tofile(ext / "sample_000003.bin")
        cfg_path = write_config(tmp_path, {
            "strategy": "cll", "data_source": "external",
            "external_path": str(ext), **FAST})
        assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "out"),
                         "--quiet"]) == 1
        assert "config field 'external_path':" in capsys.readouterr().err
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


INT_FIELDS = [key for key, (_, parse) in cli._CONFIG_FIELDS.items() if parse is cli._int]


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

    def test_whole_numbers_accepted(self):
        assert cli._int(3.0) == 3 and cli._int("4") == 4
        assert cli._float(2) == 2.0 and cli._float("1e-3") == 1e-3


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
