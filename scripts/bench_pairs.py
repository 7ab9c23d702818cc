#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, gathered in one JSON file.

    python3 scripts/bench_pairs.py --parent REF --out BENCH.json \\
        [--workload NAME ...] [--pairs 5] [--seed 23] [--seconds 60] [--trace 0|1]

The change side is a copy of this tree's ``src/``, ``perfbench/`` and
``BENCHMARK.json``, taken before the first run, so that edits made while
the pairs run do not reach them.  The parent side is ``git archive REF``
unpacked into a temporary directory (no worktree, no checkout).  Each side
of a pair is one ``perfbench/run.py`` invocation; pair i runs the parent
first when i is odd and the change first when i is even.

Every finished pair is written to --out at once (a temporary file, then a
rename), together with the summary of all pairs so far: per metric, each
side's median and quartiles and the number of pairs the change won, and per
end-to-end metric a verdict against its bound in BENCHMARK.json (see
``verdict``).  An existing --out for the same parent is extended, so an
untraced and a traced invocation can fill one file.  The summary is printed
at the end, with each side's ``peak_rss_mb`` run by run and the number of
runs on an upper RSS level, more than RSS_LEVEL_GAP_MB above that side's
lowest run (glibc puts some runs 6-8 MiB above the usual level with no
change in what the program holds), and then each pair's change/parent ratio
of every end-to-end metric, so that a reader can count the pairs a claimed
gain won.

The file also records each side's line count per Python module under
``src/`` (``source_lines``), and the difference per module and in total is
printed last: every benchmark child byte-compiles the package, so
``peak_rss_mb`` moves with the length of the source.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREE = ("src", "perfbench", "BENCHMARK.json")
RSS_LEVEL_GAP_MB = 3.0


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    values = [float(v) for v in values]
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def verdict(s: dict, better: str, bound: float) -> str:
    """How the change's runs in summary entry ``s`` compare with the
    parent's, for a metric that may worsen by ``bound`` times the parent's
    median, in the first of these that holds:

    - "worse": the change's median is beyond the parent's by more than that;
    - "unresolved": the parent's quartiles lie further apart than that,
      unless every change run beats every parent run;
    - "better": the change won at least 9 in 10 pairs, and the medians lie
      further apart than the parent's quartiles;
    - "no worse".
    """
    sign = -1.0 if better == "higher" else 1.0
    allowed = bound * abs(s["parent_median"])
    gain = sign * (s["parent_median"] - s["change_median"])
    iqr = s["parent_q3"] - s["parent_q1"]
    if -gain > allowed:
        return "worse"
    if iqr > allowed and not all(sign * (c - p) < 0 for c in s["change"] for p in s["parent"]):
        return "unresolved"
    if 10 * s["change_better_pairs"] >= 9 * s["pairs"] and gain > iqr:
        return "better"
    return "no worse"


def upper_level_runs(values) -> int:
    """How many of one side's runs lie more than RSS_LEVEL_GAP_MB above its lowest."""
    low = min(values)
    return sum(v > low + RSS_LEVEL_GAP_MB for v in values)


def summarize(pairs: list[dict], better: dict[str, str], bounds: dict[str, float]) -> dict:
    """Per metric that every pair reports on both sides: the values, each
    side's quartiles, the pairs in which the change is strictly better
    (``better[name]`` is "lower" or "higher"; "lower" if not given), and
    the change of the median, absolute and relative to the parent's.  A
    metric with an entry in ``bounds`` also gets its ``verdict``, and
    ``peak_rss_mb`` each side's ``upper_level_runs``."""
    def value(side, name):
        return (side.get("metrics", {}).get(name) or {}).get("value")

    names = [name for name in pairs[0]["parent"].get("metrics", {})
             if all(value(p[s], name) is not None for p in pairs for s in ("parent", "change"))]
    summary = {}
    for name in names:
        parent = [value(p["parent"], name) for p in pairs]
        change = [value(p["change"], name) for p in pairs]
        sign = -1.0 if better.get(name, "lower") == "higher" else 1.0
        pq1, pmed, pq3 = quartiles(parent)
        cq1, cmed, cq3 = quartiles(change)
        summary[name] = {
            "parent": parent, "change": change,
            "parent_median": pmed, "parent_q1": pq1, "parent_q3": pq3,
            "change_median": cmed, "change_q1": cq1, "change_q3": cq3,
            "change_better_pairs": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
            "pairs": len(pairs),
            "change_minus_parent_median": cmed - pmed,
            "relative": (cmed - pmed) / pmed if pmed else None,
        }
        if name in bounds:
            summary[name]["verdict"] = verdict(summary[name], better.get(name, "lower"),
                                               bounds[name])
        if name == "peak_rss_mb":
            summary[name]["upper_level_runs"] = {"parent": upper_level_runs(parent),
                                                 "change": upper_level_runs(change)}
    return summary


def directions(benchmark: Path) -> tuple[dict[str, str], dict[str, float]]:
    """From a BENCHMARK.json: metric name -> "lower" or "higher", and
    end-to-end metric name -> its bound."""
    spec = json.loads(benchmark.read_text())
    return ({m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]},
            {m["name"]: m["bound"] for m in spec["end_to_end"]})


def report(summary: dict) -> str:
    lines = [f"{'metric':44s} {'parent (IQR)':>22s} {'change (IQR)':>22s} {'rel':>7s} won"
             "  verdict"]
    for name, s in summary.items():
        rel = "" if s["relative"] is None else f"{100 * s['relative']:+.1f}%"
        lines.append(
            f"{name:44s} {s['parent_median']:>11.4g} ({s['parent_q3'] - s['parent_q1']:.3g})"
            f"{'':>3s} {s['change_median']:>11.4g} ({s['change_q3'] - s['change_q1']:.3g})"
            f"{'':>3s} {rel:>7s} {s['change_better_pairs']}/{s['pairs']}"
            f"  {s.get('verdict', '')}".rstrip())
    for name, s in summary.items():
        for side, upper in s.get("upper_level_runs", {}).items():
            lines.append(f"{name} {side}: {' '.join(f'{v:.2f}' for v in s[side])}; {upper} "
                         f"of {s['pairs']} more than {RSS_LEVEL_GAP_MB:g} MiB above the lowest")
    for name, s in summary.items():
        if "verdict" in s:
            lines.append(f"{name} change/parent by pair: " + " ".join(
                f"{c / p:.3f}" if p else "-" for p, c in zip(s["parent"], s["change"])))
    return "\n".join(lines)


def source_lines(tree: Path) -> dict[str, int]:
    """Line count of each Python module under ``tree/src``, by its path there."""
    src = tree / "src"
    return {p.relative_to(src).as_posix(): len(p.read_text().splitlines())
            for p in sorted(src.rglob("*.py"))}


def source_report(parent: dict[str, int], change: dict[str, int]) -> str:
    """Each module's lines on both sides and the change's difference, then
    the totals; a module missing from one side counts 0 lines there."""
    lines = [f"{'src/ lines':44s} {'parent':>8s} {'change':>8s} {'diff':>7s}"]
    for name in sorted(parent.keys() | change.keys()) + ["total"]:
        p, c = ((sum(parent.values()), sum(change.values())) if name == "total"
                else (parent.get(name, 0), change.get(name, 0)))
        lines.append(f"{name:44s} {p:>8d} {c:>8d} {c - p:>+7d}")
    return "\n".join(lines)


def unpack_parent(ref: str, dest: Path) -> str:
    """``git archive ref`` unpacked into dest; returns the commit id."""
    sha = subprocess.run(["git", "rev-parse", "--verify", ref + "^{commit}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return sha


def copy_change(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".perfbench-work", "*.pyc")
    for name in TREE:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=ignore)
        else:
            shutil.copy2(src, dest / name)


def invoke(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One perfbench invocation in ``tree``: its result, the last line of
    its standard output."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def write_json(path: Path, data: dict) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(data, indent=1) + "\n")
    os.replace(tmp, path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent side")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload in BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=23)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    better, bounds = directions(ROOT / "BENCHMARK.json")
    workloads = args.workload or [w["name"] for w in
                                  json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    kind = "traced" if args.trace else "untraced"
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        sides = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        for path in sides.values():
            path.mkdir()
        sha = unpack_parent(args.parent, sides["parent"])
        copy_change(sides["change"])
        data = json.loads(args.out.read_text()) if args.out.exists() else {"parent": sha}
        if data["parent"] != sha:
            raise SystemExit(f"{args.out} holds pairs against parent {data['parent']}, not {sha}")
        data["source_lines"] = {side: source_lines(path) for side, path in sides.items()}
        data.setdefault("runs", {})
        for workload in workloads:
            entry = data["runs"].setdefault(workload, {}).setdefault(kind, {"pairs": []})
            for i in range(1, args.pairs + 1):
                order = ("parent", "change") if i % 2 else ("change", "parent")
                pair = {"seed": args.seed, "seconds": args.seconds, "first": order[0]}
                for side in order:
                    pair[side] = invoke(sides[side], workload, args.seed, args.seconds,
                                        args.trace)
                entry["pairs"].append(pair)
                entry["summary"] = summarize(entry["pairs"], better, bounds)
                write_json(args.out, data)
                print(f"{workload} {kind}: pair {len(entry['pairs'])} done", file=sys.stderr)
            print(f"{workload} {kind}, {len(entry['pairs'])} pairs:")
            print(report(entry["summary"]))
        print(source_report(data["source_lines"]["parent"], data["source_lines"]["change"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
