"""Config-driven experiment runner.

``dflsim run <config.json>`` executes one strategy end to end and writes
``metrics.csv``, a ``final_model.ckpt`` checkpoint, and the fully defaulted
``resolved_config.json`` into the output directory.  ``dflsim compare
<config.json>...`` runs several configs that share model/data settings and
emits a side-by-side summary.  Exit status: 0 ok, 1 config validation
failure, 2 runtime abort (a non-finite loss, parameters or test RMSE, or
running out of memory), each with one line on stderr.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import data as D
from . import model as M
from . import protocol as P
from . import topology as tp

DATA_SOURCES = ("linesteer", "external")


class ConfigError(ValueError):
    """Config validation failure; the message names the offending field."""


# field -> (default, parser): the run-level keys, then every field of
# TrainConfig and of FADNetConfig with the default declared there.  A key
# whose default is None may also be null.
_CONFIG_FIELDS: dict = {
    "model_kind": ("fadnet", D.json_string),
    "topology": ("gaia11", D.json_string),
    "data_source": ("linesteer", D.json_string),
    "sample_count": (2000, D.whole_number),
    "skew": (0.8, D.finite_number),
    "train_fraction": (0.8, D.finite_number),
    "external_path": (None, D.json_string),
    "out_dir": (None, D.json_string),
    **{f.name: (f.default, D.field_parser(f.default))
       for cls in (P.TrainConfig, M.FADNetConfig) for f in fields(cls)},
}

# the keys with an upper bound, and the bound: past 2**53 a count is no
# longer an exact float64, and past 2**31 - 1 a size is far beyond any
# dataset or model this runs
_UPPER_BOUNDS = {
    "rounds": (P.MAX_COUNT, "2**53"), "local_steps": (P.MAX_COUNT, "2**53"),
    **dict.fromkeys(("sample_count", "batch_size", "input_height", "input_width", "feature_dim"),
                    (2 ** 31 - 1, "2**31 - 1")),
}

# settings that must agree across configs for a comparison to be meaningful
_COMPARE_KEYS = (
    "model_kind", *(f.name for f in fields(M.FADNetConfig)), "data_source",
    "sample_count", "skew", "train_fraction", "external_path", "seed",
)


def load_config(path, seed=None) -> dict:
    """Parse, default, and validate an experiment config file; ``seed``,
    when given, replaces the file's seed before the checks."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as e:
        raise ConfigError(f"config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path}: invalid JSON ({e})") from e
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path}: top level must be a JSON object")
    for key in raw:
        if key not in _CONFIG_FIELDS:
            raise ConfigError(f"unknown config field {key!r}")
    if seed is not None:
        raw["seed"] = seed
    cfg = {}
    for key, (default, parse) in _CONFIG_FIELDS.items():
        value = raw.get(key, default)
        try:
            cfg[key] = None if value is None and default is None else parse(value)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"config field {key!r}: {e}") from e
    return validate_config(cfg)


def validate_config(cfg: dict) -> dict:
    for key, names in (("strategy", P.STRATEGIES), ("model_kind", M.MODEL_KINDS),
                       ("data_source", DATA_SOURCES)):
        if cfg[key] not in names:
            raise ConfigError(f"config field {key!r}: must be one of {list(names)}, "
                              f"got {cfg[key]!r}")
    if cfg["eval_mask"] is not None and any(v not in (0, 1) for v in cfg["eval_mask"]):
        raise ConfigError("config field 'eval_mask': entries must be 0 or 1")
    if not 0.0 <= cfg["skew"] <= 1.0:
        raise ConfigError(f"config field 'skew': must be in [0, 1], got {cfg['skew']}")
    if not 0.0 < cfg["train_fraction"] < 1.0:
        raise ConfigError(
            f"config field 'train_fraction': must be in (0, 1), got {cfg['train_fraction']}")
    if cfg["data_source"] == "external":
        if not cfg["external_path"]:
            raise ConfigError("config field 'external_path': required when "
                              "data_source is 'external'")
        if not Path(cfg["external_path"]).exists():
            raise ConfigError(f"config field 'external_path': "
                              f"{cfg['external_path']} does not exist")
    elif cfg["input_channels"] != 1:
        raise ConfigError("config field 'input_channels': linesteer data is "
                          "single-channel, set input_channels to 1")
    elif cfg["sample_count"] < 1:
        raise ConfigError(f"config field 'sample_count': must be >= 1, "
                          f"got {cfg['sample_count']}")
    for key, (bound, text) in _UPPER_BOUNDS.items():
        if cfg[key] > bound:
            raise ConfigError(f"config field {key!r}: must be at most {text}, "
                              f"got {_compact(cfg[key])}")
    if cfg["strategy"] in ("dfl", "sfl"):
        _topology_path(cfg["topology"])
    if cfg["out_dir"] is None:
        cfg["out_dir"] = f"runs/{cfg['strategy']}"
    # delegate numeric range checks to the dataclass validators
    try:
        _dataclass_config(P.TrainConfig, cfg)
        model_cfg = _dataclass_config(M.FADNetConfig, cfg)
    except ValueError as e:
        raise ConfigError(f"config validation: {e}") from e
    # numpy refuses an array of more bytes than its index type holds
    index_max = np.iinfo(np.intp).max
    if cfg["data_source"] == "linesteer" and (
            8 * cfg["sample_count"] * cfg["input_height"] * cfg["input_width"] > index_max):
        raise ConfigError("config fields 'sample_count', 'input_height' and 'input_width': "
                          "the float64 dataset they size is too big for numpy to index")
    if 8 * M.param_count(cfg["model_kind"], model_cfg) > index_max:
        raise ConfigError("config fields 'input_height', 'input_width', 'widths' and "
                          "'feature_dim': the float64 parameter vector they size is too big "
                          "for numpy to index")
    return cfg


def _compact(n: int) -> str:
    """Whole number ``n`` as written, or past 15 digits in scientific
    notation with its first four digits (1e300 reads 1.000e+300)."""
    digits = str(n)
    return digits if len(digits) <= 15 else f"{digits[0]}.{digits[1:4]}e+{len(digits) - 1}"


def _dataclass_config(cls, cfg: dict):
    """A TrainConfig or FADNetConfig of the config's keys."""
    return cls(**{f.name: cfg[f.name] for f in fields(cls)})


def _topology_path(name: str) -> Path:
    """The file a ``topology`` value names: a bundled fixture or an
    existing file."""
    if name in tp.BUNDLED_TOPOLOGIES:
        return tp.fixture_path(name)
    if not Path(name).exists():
        raise ConfigError(f"config field 'topology': {name!r} is neither a bundled name "
                          f"{list(tp.BUNDLED_TOPOLOGIES)} nor an existing file")
    return Path(name)


def _check_out_dir(cfg: dict) -> None:
    """Reject an ``out_dir`` that is, or lies under, an existing
    non-directory; checked before any work is done."""
    out = Path(cfg["out_dir"])
    for p in (out, *out.parents):
        if p.exists() and not p.is_dir():
            raise ConfigError(f"config field 'out_dir': {p} exists and is not a directory")


def _build_data(cfg: dict, model_cfg: M.FADNetConfig):
    """The run's (train, test) split, with inputs held at float32.

    Every training step and evaluation casts its inputs to float32 (the
    model's compute precision), so the dataset is held at float32 from the
    start: external samples are converted as they are loaded, and one
    whose values do not fit float32 is a config error naming it.  The model
    reads the same values either way, so no output bit moves.  Targets stay
    float64.
    """
    if cfg["data_source"] == "linesteer":
        ds = D.generate_linesteer(cfg["sample_count"], model_cfg.input_height,
                                  model_cfg.input_width, cfg["seed"])
        ds = D.Dataset(inputs=ds.inputs.astype(np.float32), targets=ds.targets)
    else:
        try:
            ds = D.load_external(cfg["external_path"], np.float32)
        except ValueError as e:
            raise ConfigError(f"config field 'external_path': {e}") from e
        expected = (model_cfg.input_height, model_cfg.input_width, model_cfg.input_channels)
        if ds.inputs.shape[1:] != expected:
            raise ConfigError(f"config field 'external_path': dataset shape "
                              f"{ds.inputs.shape[1:]} does not match model input {expected}")
    try:
        return D.train_test_split(ds, cfg["train_fraction"], cfg["seed"])
    except ValueError as e:
        raise ConfigError(f"config field {_samples_field(cfg)!r}: {e}") from e


def _samples_field(cfg: dict) -> str:
    """The field that sets how many samples the run has."""
    return "sample_count" if cfg["data_source"] == "linesteer" else "external_path"


def _check_against_topology(cfg: dict, n_silos: int, n_train: int) -> None:
    """The checks that need the topology's silo count: one eval_mask entry
    per silo, and at least one training sample per silo."""
    topo = cfg["topology"]
    mask = cfg["eval_mask"]
    if mask is not None and len(mask) != n_silos:
        raise ConfigError(f"config field 'eval_mask': topology {topo!r} has {n_silos} "
                          f"silos, so the mask needs {n_silos} entries, got {len(mask)}")
    if n_train < n_silos:
        raise ConfigError(f"config field {_samples_field(cfg)!r}: topology {topo!r} has "
                          f"{n_silos} silos and needs at least {n_silos} training samples, "
                          f"but train_fraction {cfg['train_fraction']} leaves {n_train}")


def execute(cfg: dict) -> P.MetricsLog:
    """Run one validated config and return its metrics log."""
    model_cfg = _dataclass_config(M.FADNetConfig, cfg)
    train_cfg = _dataclass_config(P.TrainConfig, cfg)
    train, test = _build_data(cfg, model_cfg)

    if cfg["strategy"] == "cll":
        return P.run_cll(cfg["model_kind"], model_cfg, train, test, train_cfg)

    graph = tp.load_topology(_topology_path(cfg["topology"]))
    _check_against_topology(cfg, graph.n, train.count)
    plan = D.partition_noniid(train, graph.n, cfg["skew"], cfg["seed"])
    shards = plan.shards(train)
    del train  # the shards hold copies of every training sample
    if cfg["strategy"] == "sfl":
        return P.run_sfl(graph, cfg["model_kind"], model_cfg, shards, test, train_cfg)

    delay = tp.DelayParams(
        model_size_bytes=8.0 * M.param_count(cfg["model_kind"], model_cfg),
        local_steps=cfg["local_steps"])
    overlay = tp.build_overlay_christofides(graph, delay)
    a = tp.consensus_matrix(overlay)
    return P.run_dfl(overlay, a, cfg["model_kind"], model_cfg, shards, test, train_cfg)


def _write_outputs(cfg: dict, log: P.MetricsLog) -> Path:
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    _replace(out / "metrics.csv", log.to_csv)
    _replace(out / "final_model.ckpt", lambda path: M.save_checkpoint(
        path, cfg["model_kind"], _dataclass_config(M.FADNetConfig, cfg), log.final_params))
    _replace(out / "resolved_config.json", lambda path: path.write_text(
        json.dumps(cfg, indent=2, sort_keys=True) + "\n"))
    return out


def _replace(path: Path, write) -> None:
    """``write(tmp)`` a temporary file beside ``path``, then rename it into
    place: a run that dies while writing leaves no truncated output."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def run_command(config_path, out=None, seed=None, quiet=False) -> int:
    cfg = load_config(config_path, seed)
    if out is not None:
        cfg["out_dir"] = str(out)
    _check_out_dir(cfg)
    log = execute(cfg)
    out_dir = _write_outputs(cfg, log)
    if not quiet:
        final = log.final
        print(f"{cfg['strategy']}: final_rmse={final.test_rmse:.6f} "
              f"sim_time_s={final.sim_time_s:.3f} rounds={final.round} -> {out_dir}")
    return 0


def compare_command(config_paths, out=None, seed=None, quiet=False) -> int:
    if len(config_paths) < 2:
        raise ConfigError("compare: need >= 2 configs")
    cfgs = [load_config(p, seed) for p in config_paths]
    base = cfgs[0]
    for c, path in zip(cfgs[1:], config_paths[1:]):
        diffs = [k for k in _COMPARE_KEYS if c[k] != base[k]]
        if diffs:
            raise ConfigError(f"compare: incompatible data settings in {path}: "
                              f"{diffs} differ from {config_paths[0]}")
    out_base = Path(out) if out is not None else None
    stems = {}
    for path, c in zip(config_paths, cfgs):
        if out_base is not None:
            stem = Path(path).stem
            if stems.setdefault(stem, path) != path:
                raise ConfigError(f"compare --out: {stems[stem]} and {path} share stem {stem!r}")
            c["out_dir"] = str(out_base / stem)
        _check_out_dir(c)
    rows = []
    for c in cfgs:
        log = execute(c)
        _write_outputs(c, log)
        rows.append((c["strategy"], c["model_kind"], log.final.test_rmse,
                     log.final.sim_time_s))
    lines = ["strategy,model_kind,final_test_rmse,total_sim_time_s"]
    for strategy, kind, rmse_v, sim_t in rows:
        lines.append(f"{strategy},{kind},{rmse_v!r},{sim_t!r}")
    table = "\n".join(lines) + "\n"
    summary_path = (out_base or Path(".")) / "compare.csv"
    summary_path.parent.mkdir(parents=True, exist_ok=True)
    _replace(summary_path, lambda path: path.write_text(table))
    if not quiet:
        print(f"{'strategy':<10}{'model':<15}{'final_rmse':<14}{'sim_time_s':<12}")
        for strategy, kind, rmse_v, sim_t in rows:
            print(f"{strategy:<10}{kind:<15}{rmse_v:<14.6f}{sim_t:<12.3f}")
        print(f"wrote {summary_path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="dflsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run one experiment config")
    run_p.add_argument("config")
    cmp_p = sub.add_parser("compare", help="run several configs side by side")
    cmp_p.add_argument("configs", nargs="+")
    for p in (run_p, cmp_p):
        p.add_argument("--out", default=None, help="override output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return run_command(args.config, args.out, args.seed, args.quiet)
        return compare_command(args.configs, args.out, args.seed, args.quiet)
    except (ConfigError, tp.TopologyError, P.ClockOverflowError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except P.NanGradientError as e:
        print(f"runtime abort: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        print(f"runtime abort: out of memory{f' ({e})' if str(e) else ''}; a smaller "
              f"batch_size, sample_count or model needs less", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
