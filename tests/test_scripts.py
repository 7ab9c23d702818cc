"""The example scripts under ``scripts/`` run end to end on a tiny budget.

They write config keys by name, so a renamed or dropped key shows here.
Each script runs as a subprocess with BLAS at one thread.  The fixture
generator must reproduce the bundled topology files byte for byte.  The
benchmark-pairs script is checked in process, with its benchmark
invocations replaced, so no benchmark runs here."""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

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
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          env=child_env(), capture_output=True, text=True, timeout=120)
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


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_result(**values):
    return {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {name: {"value": v, "unit": "1"} for name, v in values.items()}}


def test_bench_pairs_summary():
    bp = load_bench_pairs()
    parent = [2.0, 1.0, 4.0, 3.0, 5.0]
    change = [1.5, 1.0, 3.0, 3.5, 4.0]
    pairs = [{"parent": bench_result(run_s=p, concurrency=p, gone=1.0),
              "change": bench_result(run_s=c, concurrency=c, gone=None)}
             for p, c in zip(parent, change)]
    summary = bp.summarize(pairs, {"run_s": "lower", "concurrency": "higher"}, {})
    assert sorted(summary) == ["concurrency", "run_s"]  # a side without a value is left out
    assert "verdict" not in summary["run_s"]  # a metric without a bound gets none
    s = summary["run_s"]
    assert (s["parent_q1"], s["parent_median"], s["parent_q3"]) == (2.0, 3.0, 4.0)
    assert (s["change_q1"], s["change_median"], s["change_q3"]) == (1.5, 3.0, 3.5)
    assert s["change_better_pairs"] == 3 and s["pairs"] == 5  # a tie is not a win
    assert s["change_minus_parent_median"] == 0.0 and s["relative"] == 0.0
    assert summary["concurrency"]["change_better_pairs"] == 1
    assert bp.quartiles([7.0]) == (7.0, 7.0, 7.0)
    assert "run_s" in bp.report(summary)
    assert "change/parent" not in bp.report(summary)  # only end-to-end metrics get ratios

    # ten pairs per metric, each metric with a bound of 10% of the parent's median
    steady = [1.0, 1.001, 1.002, 1.003, 1.004, 1.005, 1.006, 1.007, 1.008, 1.009]
    spread = [1.0, 1.3, 0.8, 1.2, 0.9, 1.1, 0.7, 1.4, 1.0, 1.05]  # IQR 0.25
    sides = {
        "slower": (steady, [v * 1.2 for v in steady]),
        "within_bound": (steady, [v * 1.05 for v in steady]),
        "faster": (steady, [v * 0.9 for v in steady]),
        "faster_in_8_of_10": (steady, [v * 0.9 for v in steady[:8]] + steady[8:]),
        "noisy": (spread, [v * 0.95 for v in spread]),
        "noisy_but_every_run_faster": (spread, [v * 0.4 for v in spread]),
        "throughput_lower": (steady, [v * 0.8 for v in steady]),
    }
    pairs = [{"parent": bench_result(**{name: p[i] for name, (p, _) in sides.items()}),
              "change": bench_result(**{name: c[i] for name, (_, c) in sides.items()})}
             for i in range(10)]
    better = {name: "lower" for name in sides} | {"throughput_lower": "higher"}
    summary = bp.summarize(pairs, better, dict.fromkeys(sides, 0.1))
    assert {name: s["verdict"] for name, s in summary.items()} == {
        "slower": "worse", "within_bound": "no worse", "faster": "better",
        "faster_in_8_of_10": "no worse", "noisy": "unresolved",
        "noisy_but_every_run_faster": "better", "throughput_lower": "worse"}
    assert "unresolved" in bp.report(summary)
    # each end-to-end metric's change/parent ratio per pair, after the table
    lines = bp.report(summary).splitlines()
    ratios = dict(line.split(" change/parent by pair: ") for line in lines
                  if "change/parent" in line)
    assert sorted(ratios) == sorted(sides)
    assert ratios["faster"] == " ".join(["0.900"] * 10)
    assert ratios["faster_in_8_of_10"].split()[-3:] == ["0.900", "1.000", "1.000"]
    assert ratios["slower"].split()[0] == "1.200"

    # peak RSS with runs on glibc's upper level, 6-8 MiB above the usual one
    parent = [74.7, 74.6, 82.9, 74.8, 75.0]
    change = [74.5, 82.4, 82.6, 74.6, 74.5]
    pairs = [{"parent": bench_result(peak_rss_mb=p), "change": bench_result(peak_rss_mb=c)}
             for p, c in zip(parent, change)]
    summary = bp.summarize(pairs, {}, {"peak_rss_mb": 0.1})
    assert summary["peak_rss_mb"]["upper_level_runs"] == {"parent": 1, "change": 2}
    lines = bp.report(summary).splitlines()
    assert "peak_rss_mb parent: 74.70 74.60 82.90 74.80 75.00; 1 of 5 more than 3 MiB" in lines[-3]
    assert lines[-2].startswith("peak_rss_mb change: 74.50 82.40 82.60 74.60 74.50; 2 of 5 ")
    assert lines[-1] == "peak_rss_mb change/parent by pair: 0.997 1.105 0.996 0.997 0.993"
    assert bp.upper_level_runs([80.0, 81.0, 83.0]) == 0  # all within 3 MiB of the lowest


def test_bench_pairs_alternate_and_record_each_pair_at_once(tmp_path, monkeypatch):
    bp = load_bench_pairs()
    out = tmp_path / "bench.json"
    calls = []

    def invoke(tree, workload, seed, seconds, trace):
        runs = json.loads(out.read_text())["runs"] if out.exists() else {}
        recorded = len(runs.get(workload, {}).get("untraced", {}).get("pairs", []))
        calls.append((workload, tree.name, recorded))
        return bench_result(run_s=1.0 if tree.name == "parent" else 0.9)

    monkeypatch.setattr(bp, "invoke", invoke)
    monkeypatch.setattr(bp, "copy_change", lambda dest: None)
    monkeypatch.setattr(bp, "unpack_parent", lambda ref, dest: "abc")
    args = ["--parent", "HEAD", "--out", str(out), "--workload", "dfl-nws22", "--pairs", "3"]
    assert bp.main(args) == 0
    assert json.loads(out.read_text())["source_lines"] == {"parent": {}, "change": {}}
    assert calls == [("dfl-nws22", "parent", 0), ("dfl-nws22", "change", 0),
                     ("dfl-nws22", "change", 1), ("dfl-nws22", "parent", 1),
                     ("dfl-nws22", "parent", 2), ("dfl-nws22", "change", 2)]
    entry = json.loads(out.read_text())["runs"]["dfl-nws22"]["untraced"]
    assert [p["first"] for p in entry["pairs"]] == ["parent", "change", "parent"]
    assert entry["summary"]["run_s"]["change_better_pairs"] == 3
    # a second invocation extends the file; another parent is refused
    assert bp.main(args[:-1] + ["1"]) == 0
    assert len(json.loads(out.read_text())["runs"]["dfl-nws22"]["untraced"]["pairs"]) == 4
    monkeypatch.setattr(bp, "unpack_parent", lambda ref, dest: "def")
    with pytest.raises(SystemExit, match="abc"):
        bp.main(args)
    assert not list(tmp_path.glob("*.tmp"))


def test_bench_pairs_source_lines(tmp_path):
    bp = load_bench_pairs()
    modules = {"parent": {"pkg/a.py": "x = 1\ny = 2\nz = 3\n", "pkg/b.py": "b = 1\n"},
               "change": {"pkg/a.py": "x = 1\n", "pkg/c.py": "c = 1\nd = 2\n",
                          "pkg/notes.txt": "not a module\n"}}
    for side, files in modules.items():
        for name, text in files.items():
            path = tmp_path / side / "src" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
    parent, change = bp.source_lines(tmp_path / "parent"), bp.source_lines(tmp_path / "change")
    assert parent == {"pkg/a.py": 3, "pkg/b.py": 1}
    assert change == {"pkg/a.py": 1, "pkg/c.py": 2}
    assert bp.source_lines(tmp_path / "missing") == {}
    rows = [line.split() for line in bp.source_report(parent, change).splitlines()[1:]]
    assert rows == [["pkg/a.py", "3", "1", "-2"], ["pkg/b.py", "1", "0", "-1"],
                    ["pkg/c.py", "0", "2", "+2"], ["total", "4", "3", "-1"]]
