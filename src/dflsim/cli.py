"""Config-driven experiment runner.

``dflsim run <config.json>`` executes one strategy end to end and writes
``metrics.csv``, a ``final_model.ckpt`` checkpoint, and the fully defaulted
``resolved_config.json`` into the output directory.  ``dflsim compare
<config.json>...`` runs several configs that share model/data settings and
emits a side-by-side summary.  Exit status: 0 ok, 1 config validation
failure, 2 runtime abort.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import data as D
from . import model as M
from . import protocol as P
from . import topology as tp

DATA_SOURCES = ("linesteer", "external")


class ConfigError(ValueError):
    """Config validation failure; the message names the offending field."""


def _int(value) -> int:
    """A whole number: an integer, an integral float or an integer string.
    Booleans and fractional numbers are rejected rather than truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _float(value) -> float:
    """A finite number or numeric string; booleans, NaN and infinities are
    rejected."""
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {value!r}")
    return value


def _parse_field(key: str, parse, value):
    try:
        return parse(value)
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"config field {key!r}: {e}") from e


# field -> (default, parser). Defaults mirror the reference training setup.
_CONFIG_FIELDS: dict = {
    "strategy": ("dfl", str),
    "model_kind": ("fadnet", str),
    "topology": ("gaia11", str),
    "input_height": (32, _int),
    "input_width": (32, _int),
    "input_channels": (1, _int),
    "widths": ([8, 16, 32], list),
    "feature_dim": (64, _int),
    "rounds": (3000, _int),
    "local_steps": (1, _int),
    "batch_size": (32, _int),
    "learning_rate": (1e-3, _float),
    "optimizer": ("adam", str),
    "eval_interval": (10, _int),
    "eval_mask": (None, list),
    "workers": (1, _int),
    "server_latency_s": (0.05, _float),
    "server_bandwidth_Bps": (2.5e7, _float),
    "server_compute_s": (0.05, _float),
    "cll_compute_s": (0.1, _float),
    "data_source": ("linesteer", str),
    "sample_count": (2000, _int),
    "skew": (0.8, _float),
    "train_fraction": (0.8, _float),
    "external_path": (None, str),
    "out_dir": (None, str),
    "seed": (0, _int),
}

# settings that must agree across configs for a comparison to be meaningful
_COMPARE_KEYS = (
    "model_kind", "input_height", "input_width", "input_channels", "widths",
    "feature_dim", "data_source", "sample_count", "skew", "train_fraction",
    "external_path", "seed",
)


def load_config(path) -> dict:
    """Parse, default, and validate an experiment config file."""
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
    cfg = {}
    for key, (default, parse) in _CONFIG_FIELDS.items():
        value = raw.get(key, default)
        if value is not None and key not in ("widths", "eval_mask"):
            value = _parse_field(key, parse, value)
        cfg[key] = value
    return validate_config(cfg)


def validate_config(cfg: dict) -> dict:
    if cfg["strategy"] not in P.STRATEGIES:
        raise ConfigError(f"config field 'strategy': must be one of "
                          f"{list(P.STRATEGIES)}, got {cfg['strategy']!r}")
    if cfg["model_kind"] not in M.MODEL_KINDS:
        raise ConfigError(f"config field 'model_kind': must be one of "
                          f"{list(M.MODEL_KINDS)}, got {cfg['model_kind']!r}")
    if cfg["data_source"] not in DATA_SOURCES:
        raise ConfigError(f"config field 'data_source': must be one of "
                          f"{list(DATA_SOURCES)}, got {cfg['data_source']!r}")
    if not isinstance(cfg["widths"], (list, tuple)) or len(cfg["widths"]) != 3:
        raise ConfigError(f"config field 'widths': need 3 block widths, got {cfg['widths']!r}")
    cfg["widths"] = [_parse_field("widths", _int, w) for w in cfg["widths"]]
    if cfg["eval_mask"] is not None:
        if not isinstance(cfg["eval_mask"], (list, tuple)):
            raise ConfigError(f"config field 'eval_mask': need a list, got {cfg['eval_mask']!r}")
        cfg["eval_mask"] = [_parse_field("eval_mask", _int, v) for v in cfg["eval_mask"]]
        if any(v not in (0, 1) for v in cfg["eval_mask"]):
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
    elif cfg["data_source"] == "linesteer" and cfg["input_channels"] != 1:
        raise ConfigError("config field 'input_channels': linesteer data is "
                          "single-channel, set input_channels to 1")
    if cfg["strategy"] in ("dfl", "sfl"):
        topo = cfg["topology"]
        if topo not in tp.BUNDLED_TOPOLOGIES and not Path(topo).exists():
            raise ConfigError(f"config field 'topology': {topo!r} is neither a "
                              f"bundled name {list(tp.BUNDLED_TOPOLOGIES)} nor an existing file")
    if cfg["out_dir"] is None:
        cfg["out_dir"] = f"runs/{cfg['strategy']}"
    # delegate numeric range checks to the dataclass validators
    try:
        _train_config(cfg)
        _model_config(cfg)
    except ValueError as e:
        raise ConfigError(f"config validation: {e}") from e
    return cfg


def _model_config(cfg: dict) -> M.FADNetConfig:
    return M.FADNetConfig(
        input_height=cfg["input_height"], input_width=cfg["input_width"],
        input_channels=cfg["input_channels"], widths=tuple(cfg["widths"]),
        feature_dim=cfg["feature_dim"])


def _train_config(cfg: dict) -> P.TrainConfig:
    return P.TrainConfig(
        strategy=cfg["strategy"], rounds=cfg["rounds"], local_steps=cfg["local_steps"],
        batch_size=cfg["batch_size"], learning_rate=cfg["learning_rate"],
        optimizer=cfg["optimizer"], seed=cfg["seed"], eval_interval=cfg["eval_interval"],
        eval_mask=None if cfg["eval_mask"] is None else tuple(cfg["eval_mask"]),
        workers=cfg["workers"], server_latency_s=cfg["server_latency_s"],
        server_bandwidth_Bps=cfg["server_bandwidth_Bps"],
        server_compute_s=cfg["server_compute_s"], cll_compute_s=cfg["cll_compute_s"])


def _resolve_topology_path(name: str):
    if name in tp.BUNDLED_TOPOLOGIES:
        return tp.fixture_path(name)
    return Path(name)


def _build_data(cfg: dict, model_cfg: M.FADNetConfig):
    if cfg["data_source"] == "linesteer":
        ds = D.generate_linesteer(cfg["sample_count"], model_cfg.input_height,
                                  model_cfg.input_width, cfg["seed"])
    else:
        try:
            ds = D.load_external(cfg["external_path"])
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
    model_cfg = _model_config(cfg)
    train_cfg = _train_config(cfg)
    train, test = _build_data(cfg, model_cfg)

    if cfg["strategy"] == "cll":
        return P.run_cll(cfg["model_kind"], model_cfg, train, test, train_cfg)

    graph = tp.load_topology(_resolve_topology_path(cfg["topology"]))
    _check_against_topology(cfg, graph.n, train.count)
    plan = D.partition_noniid(train, graph.n, cfg["skew"], cfg["seed"])
    shards = plan.shards(train)
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
    log.to_csv(out / "metrics.csv")
    M.save_checkpoint(out / "final_model.ckpt", cfg["model_kind"],
                      _model_config(cfg), log.final_params)
    (out / "resolved_config.json").write_text(
        json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    return out


def run_command(config_path, out=None, seed=None, quiet=False) -> int:
    cfg = load_config(config_path)
    if out is not None:
        cfg["out_dir"] = str(out)
    if seed is not None:
        cfg["seed"] = int(seed)
        validate_config(cfg)
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
    cfgs = [load_config(p) for p in config_paths]
    if seed is not None:
        for c in cfgs:
            c["seed"] = int(seed)
            validate_config(c)
    base = cfgs[0]
    for c, path in zip(cfgs[1:], config_paths[1:]):
        diffs = [k for k in _COMPARE_KEYS if c[k] != base[k]]
        if diffs:
            raise ConfigError(f"compare: incompatible data settings in {path}: "
                              f"{diffs} differ from {config_paths[0]}")
    out_base = Path(out) if out is not None else None
    rows = []
    for path, c in zip(config_paths, cfgs):
        if out_base is not None:
            c["out_dir"] = str(out_base / Path(path).stem)
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
    summary_path.write_text(table)
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
    except (ConfigError, tp.TopologyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except P.NanGradientError as e:
        print(f"runtime abort: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
