"""Per-layer metrics and call-count checks computed from one traced run's
spans (see tracing.py for how they are recorded)."""
from __future__ import annotations

import math
from collections import defaultdict

from stats import median, self_time, tail_percentile, union_length
from tracing import ROLES

# tensor.forward calls per fadnet forward pass, by role (three residual
# blocks); the backward pass makes the same calls
FADNET_ROLE_CALLS = {"norm": 1, "stem_conv": 1, "stem_pool": 1, "conv3x3": 6,
                     "conv1x1": 3, "fc": 4, "elementwise": 9}

EVAL_BATCH = 256  # protocol.evaluate's batch size

TIMED_ONCE = ("topology.load_topology", "topology.build_overlay_christofides",
              "topology.consensus_matrix", "simnet.simulate_round",
              "data.generate_linesteer", "data.train_test_split",
              "data.partition_noniid", "cli.load_config")


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    names = []
    for role in ROLES:
        names.append((f"tensor.train.fwd.{role}.ms", "ms"))
        names.append((f"tensor.train.bwd.{role}.ms", "ms"))
        names.append((f"tensor.eval.fwd.{role}.us_per_sample", "us"))
    names += [
        ("model.loss_and_grad.ms_p50", "ms"),
        ("model.loss_and_grad.ms_tail", "ms"),
        ("model.loss_and_grad.self_ms", "ms"),
        ("model.loss_and_grad.minflt_per_call", "count"),
        ("model.loss_and_grad.calls", "count"),
        ("model.predict.us_per_sample", "us"),
        ("model.predict.self_us_per_sample", "us"),
        ("model.predict.minflt_per_call", "count"),
        ("model.predict.calls", "count"),
        ("model.save_checkpoint.ms", "ms"),
        ("protocol.self_ms_per_round", "ms"),
        ("protocol.dpasgd_update.consensus_ms", "ms"),
        ("protocol.federated_average.ms", "ms"),
        ("protocol.evaluate.ms", "ms"),
        ("protocol.evaluate.share", "1"),
        ("protocol.step_concurrency", "1"),
        ("protocol.final_test_rmse", "1"),
    ]
    names += [(f"{name}.ms", "ms") for name in TIMED_ONCE]
    names += [("cli.tail_ms", "ms"), ("trace.overhead_s", "s")]
    return names


def expected_calls(facts: dict) -> dict:
    """Allowed call counts the config implies: one round-0 probe step per
    silo plus rounds x local_steps steps per silo; ceil(test/256) predict
    batches per evaluated round; 25 tensor calls per forward or backward
    pass.  The input-norm gradient is thrown away, so a step may skip its
    backward call: 0 such calls are allowed too."""
    steps = facts["silos"] * (1 + facts["rounds"] * facts["local_steps"])
    predicts = facts["eval_rows"] * math.ceil(facts["test_count"] / EVAL_BATCH)
    counts = {"model.loss_and_grad": {steps}, "model.predict": {predicts}}
    for role, per_pass in FADNET_ROLE_CALLS.items():
        counts[f"tensor.forward.{role}"] = {per_pass * (steps + predicts)}
        counts[f"tensor.backward.{role}"] = {per_pass * steps}
    counts["tensor.backward.norm"].add(0)
    return counts


def _dur(span) -> float:
    return span["end"] - span["start"]


def analyse(spans: list[dict], facts: dict) -> tuple[dict, list[str]]:
    """(metrics, failures): the per-layer metrics, except trace.overhead_s,
    and every mismatch between traced and expected call counts."""
    by_name = defaultdict(list)
    by_id = {}
    children = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
        by_id[s["id"]] = s
        children[s["parent"]].append(s)

    failures = []
    counts = {name: len(by_name[name]) for name in ("model.loss_and_grad", "model.predict")}
    for s in by_name["tensor.forward"] + by_name["tensor.backward"]:
        key = f"{s['name']}.{s['role']}"
        counts[key] = counts.get(key, 0) + 1
    for key, allowed in expected_calls(facts).items():
        if counts.get(key, 0) not in allowed:
            failures.append(f"traced {key} calls {counts.get(key, 0)} not in {sorted(allowed)}")
    runs = by_name["protocol.run"]
    if len(runs) != 1 or len(by_name["cli.main"]) != 1:
        failures.append(f"expected one protocol.run and one cli.main span, got "
                        f"{len(runs)} and {len(by_name['cli.main'])}")
    steps, predicts = by_name["model.loss_and_grad"], by_name["model.predict"]
    if failures or not steps or not predicts:
        return {}, failures or ["no traced loss_and_grad or predict calls"]

    m = {}
    samples = sum(s["samples"] for s in predicts)
    tensor_ms = defaultdict(float)
    for s in by_name["tensor.forward"] + by_name["tensor.backward"]:
        owner = by_id[s["parent"]]["name"]
        phase = "fwd" if s["name"] == "tensor.forward" else "bwd"
        tensor_ms[(owner, phase, s["role"])] += _dur(s)
    for role in ROLES:
        for phase in ("fwd", "bwd"):
            m[f"tensor.train.{phase}.{role}.ms"] = (
                tensor_ms[("model.loss_and_grad", phase, role)] / len(steps) * 1e3)
        m[f"tensor.eval.fwd.{role}.us_per_sample"] = (
            tensor_ms[("model.predict", "fwd", role)] / samples * 1e6)

    step_ms = [_dur(s) * 1e3 for s in steps]
    _, tail = tail_percentile(step_ms)
    m["model.loss_and_grad.ms_p50"] = median(step_ms)
    m["model.loss_and_grad.ms_tail"] = tail

    def own(s):
        return self_time(s["start"], s["end"],
                         [(c["start"], c["end"]) for c in children[s["id"]]])

    m["model.loss_and_grad.self_ms"] = sum(own(s) for s in steps) / len(steps) * 1e3
    m["model.loss_and_grad.minflt_per_call"] = sum(s["minflt"] for s in steps) / len(steps)
    m["model.loss_and_grad.calls"] = len(steps)
    m["model.predict.us_per_sample"] = sum(_dur(s) for s in predicts) / samples * 1e6
    m["model.predict.self_us_per_sample"] = sum(own(s) for s in predicts) / samples * 1e6
    m["model.predict.minflt_per_call"] = sum(s["minflt"] for s in predicts) / len(predicts)
    m["model.predict.calls"] = len(predicts)
    m["model.save_checkpoint.ms"] = sum(_dur(s) for s in by_name["model.save_checkpoint"]) * 1e3

    run = runs[0]
    rounds = facts["rounds"]
    evals = by_name["protocol.evaluate"]
    step_spans = [(s["start"], s["end"]) for s in steps]
    m["protocol.self_ms_per_round"] = self_time(
        run["start"], run["end"], step_spans + [(s["start"], s["end"]) for s in evals]
    ) / rounds * 1e3
    m["protocol.dpasgd_update.consensus_ms"] = sum(
        _dur(s) for s in by_name["protocol.dpasgd_update"] if s["consensus"]) / rounds * 1e3
    averages = by_name["protocol.federated_average"]
    m["protocol.federated_average.ms"] = (
        sum(_dur(s) for s in averages) / len(averages) * 1e3 if averages else 0.0)
    m["protocol.evaluate.ms"] = sum(_dur(s) for s in evals) / len(evals) * 1e3
    m["protocol.evaluate.share"] = sum(_dur(s) for s in evals) / _dur(run)
    m["protocol.step_concurrency"] = sum(_dur(s) for s in steps) / union_length(step_spans)
    for name in TIMED_ONCE:
        m[f"{name}.ms"] = sum(_dur(s) for s in by_name[name]) * 1e3
    m["cli.tail_ms"] = (by_name["cli.main"][0]["end"] - run["end"]) * 1e3
    return m, []
