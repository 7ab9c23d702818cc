"""dflsim benchmark: closed-loop, single-client ``dflsim run`` workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run is one ``dflsim run`` of a generated config in a fresh child
process (child.py), with BLAS pinned to one thread.  Runs repeat, one after
another, until the next would end past ``--seconds``; every run passes the
correctness gate or counts as failed.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics (medians over the runs, timings in reference seconds,
see speed.py) with ``--trace 0`` and the per-layer metrics of one extra
traced run with ``--trace 1``.  Each run's own figures and the environment
they come from go to standard error.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)  # before numpy loads: the speed probe runs here

sys.path.insert(0, str(HERE))
import layers  # noqa: E402
import speed  # noqa: E402
from stats import Tally, median  # noqa: E402

WORKLOADS = {
    "dfl-nws22": {"strategy": "dfl", "topology": "nws22", "model_kind": "fadnet",
                  "batch_size": 32, "workers": 1, "sample_count": 2000, "skew": 0.8,
                  "rounds": 12, "eval_interval": 12},
    "sfl-gaia11-b4": {"strategy": "sfl", "topology": "gaia11", "model_kind": "fadnet",
                      "batch_size": 4, "workers": 2, "sample_count": 2000, "skew": 0.8,
                      "rounds": 60, "eval_interval": 60},
}

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MiB"}
TIMED = ("setup_s", "run_s")  # reported in reference seconds (speed.py)

MIN_RUNS = 3          # untraced runs per invocation, whatever --seconds says
DEADLINE_S = 170.0    # the whole invocation ends within this


class BenchError(RuntimeError):
    """The benchmark cannot run here (no sources, or a broken set-up)."""


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "child_blas_threads": BLAS_THREADS,
        "workers": {name: cfg["workers"] for name, cfg in WORKLOADS.items()},
        "malloc_vars_present": sorted(k for k in os.environ if k.startswith("MALLOC_")),
    }


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    env.update(BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def expectations(config_path: Path) -> dict:
    """What every correct run of the config writes, worked out from the
    config alone: the evaluated rounds, the closed-form round duration
    (topology.cycle_time of the overlay for dfl) and the call-count facts."""
    from dflsim import cli, model, topology as tp

    cfg = cli.load_config(config_path)
    rounds, steps = cfg["rounds"], cfg["local_steps"]
    graph = tp.load_topology(tp.fixture_path(cfg["topology"]))
    silos = graph.n
    model_cfg = model.FADNetConfig(
        input_height=cfg["input_height"], input_width=cfg["input_width"],
        input_channels=cfg["input_channels"], widths=tuple(cfg["widths"]),
        feature_dim=cfg["feature_dim"])
    size = 8.0 * model.param_count(cfg["model_kind"], model_cfg)
    if cfg["strategy"] == "dfl":
        delay = tp.DelayParams(model_size_bytes=size, local_steps=steps)
        duration = tp.cycle_time(tp.build_overlay_christofides(graph, delay), delay)
    else:  # sfl: worst silo round trip through the server, plus its aggregation
        lat, per_leg = cfg["server_latency_s"], size / cfg["server_bandwidth_Bps"]
        duration = max(
            (steps * graph.compute_time(i) + lat + per_leg)  # uplink
            + cfg["server_compute_s"] + (lat + per_leg)      # aggregate, downlink
            for i in range(silos))
    eval_rounds = sorted({0, rounds} | set(range(0, rounds + 1, cfg["eval_interval"])))
    count = cfg["sample_count"]
    return {"strategy": cfg["strategy"], "rounds": rounds, "local_steps": steps,
            "silos": silos, "round_s": duration, "eval_rounds": eval_rounds,
            "eval_rows": len(eval_rounds),
            "test_count": count - int(cfg["train_fraction"] * count)}


def check_metrics(text: str, facts: dict) -> list[str]:
    """Reasons a metrics.csv is wrong; empty when it is right."""
    lines = text.splitlines()
    if not lines or lines[0] != "round,sim_time_s,train_loss,test_rmse,strategy":
        return ["metrics.csv header missing or wrong"]
    rows = [line.split(",") for line in lines[1:]]
    if any(len(r) != 5 for r in rows):
        return ["metrics.csv has a malformed row"]
    values = [float(v) for r in rows for v in r[:4]]
    reasons = []
    if not all(math.isfinite(v) for v in values):
        reasons.append("non-finite value in metrics.csv")
    if [int(r[0]) for r in rows] != facts["eval_rounds"]:
        reasons.append(f"rows at rounds {[r[0] for r in rows]}, expected {facts['eval_rounds']}")
    if any(r[4] != facts["strategy"] for r in rows):
        reasons.append("wrong strategy column")
    if rows:
        want = facts["rounds"] * facts["round_s"]
        if float(rows[-1][1]) != want:
            reasons.append(f"final sim_time_s {rows[-1][1]} != rounds x round duration {want!r}")
        if not float(rows[-1][3]) < float(rows[0][3]):
            reasons.append(f"final test_rmse {rows[-1][3]} not below round-0 {rows[0][3]}")
    return reasons


def run_child(config: Path, out: Path, deadline: float, spans: Path | None = None) -> dict:
    """One child run: exit status, its own timings, peak RSS and the
    metrics.csv text.  The child is killed if it outlives ``deadline``."""
    result_path = out.with_suffix(".result.json")
    argv = [sys.executable, str(HERE / "child.py"), str(config), str(out), str(result_path)]
    if spans is not None:
        argv.append(str(spans))
    with open(out.with_suffix(".log"), "wb") as log:
        proc = subprocess.Popen(argv, env=child_env(), cwd=str(ROOT),
                                stdout=log, stderr=subprocess.STDOUT)
    # the parent blocks in wait4 rather than polling, so it takes no CPU
    # from the child; after the reap, Popen.kill finds no child and sends nothing
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        os.waitpid(proc.pid, 0)
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    res = {"rc": proc.returncode, "peak_rss_mb": usage.ru_maxrss / 1024.0}
    if result_path.exists():
        res.update(json.loads(result_path.read_text()))
    csv = out / "metrics.csv"
    res["csv"] = csv.read_text() if csv.exists() else None
    return res


def gate(res: dict, facts: dict, reference: str | None) -> list[str]:
    """The correctness gate of one run."""
    if res["rc"] != 0:
        return [f"exit status {res['rc']}"]
    if not str(res.get("dflsim_file", "")).startswith(str(SRC)):
        return [f"child imported dflsim from {res.get('dflsim_file')}, not {SRC}"]
    if res["csv"] is None or "run_s" not in res:
        return ["no metrics.csv or no training step"]
    reasons = check_metrics(res["csv"], facts)
    if reference is not None and res["csv"] != reference:
        reasons.append("metrics.csv differs from the first run at this seed")
    return reasons


def bench(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not (SRC / "dflsim" / "__init__.py").is_file():
        raise BenchError(f"no dflsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.monotonic()
    deadline = t0 + DEADLINE_S
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK))
    try:
        config = tmp / "config.json"
        config.write_text(json.dumps(dict(WORKLOADS[workload], seed=seed)))
        facts = expectations(config)
        tally = Tally()
        probe = speed.Probe()
        probe.measure()  # before the first run and after every run
        # in a traced invocation the traced run, about one run longer than
        # an untraced one, comes out of the same time budget
        runs, reference, last = [], None, 0.0
        while (len(runs) < MIN_RUNS
               or time.monotonic() - t0 + last * (2.2 if trace else 1.0) <= seconds):
            start = time.monotonic()
            res = run_child(config, tmp / f"run{len(runs)}", deadline)
            probe.measure()
            last = time.monotonic() - start
            reasons = gate(res, facts, reference)
            tally.record(reasons)
            print(f"run {len(runs)}: " + " ".join(
                f"{k}={res[k]:.4f}" for k in END_TO_END if k in res)
                + f" probe_s={median(probe.times[-speed.CHUNKS:]):.6f}", file=sys.stderr)
            if reference is None and res["csv"] is not None:
                reference = res["csv"]
            runs.append(res)
            if reasons and res["rc"] != 0:
                break  # a crashing program will not recover on a rerun

        ok = [r for r in runs if "run_s" in r]

        def typical(key):
            value = median([r[key] for r in ok])
            return probe.to_reference(value) if key in TIMED else value

        if not trace:
            metrics = {k: {"value": typical(k) if ok else None, "unit": u}
                       for k, u in END_TO_END.items()}
        else:
            values = {}
            if ok:  # the traced run is compared with the untraced ones
                spans_path = tmp / "spans.json"
                res = run_child(config, tmp / "traced", deadline, spans_path)
                reasons = gate(res, facts, reference)
                if not reasons:
                    spans = json.loads(spans_path.read_text())
                    values, reasons = layers.analyse(spans, facts)
                    values["trace.overhead_s"] = probe.to_reference(
                        res["run_s"] - median([r["run_s"] for r in ok]))
                    values["protocol.final_test_rmse"] = float(res["csv"].splitlines()[-1].split(",")[3])
                tally.record(["traced run: " + r for r in reasons])
            metrics = {name: {"value": values.get(name), "unit": unit}
                       for name, unit in layers.metric_names()}
        for failure in tally.failures:
            print(f"FAILED {failure}", file=sys.stderr)
        return {"correct": tally.failed == 0, "attempted": tally.attempted,
                "failed": tally.failed, "metrics": metrics}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(environment()), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
