"""Steering-angle regression models built on the tensor kernel.

The full model ("fadnet"): per-image normalization, a conv+maxpool stem,
three stride-2 residual blocks (conv-relu-conv with a 1x1 projection
shortcut).  Each block feeds a global-average-pool branch linearly projected
to a shared feature width d; a learnable length-n weight vector blends the n
branch features into one d-vector, and the prediction is the mean of the
elementwise product between that blended feature and the fc-reduced backbone
feature.  The "backbone_only" ablation keeps the stem and blocks but maps the
flattened backbone output straight to the scalar prediction.

Parameters live in one flat float64 vector; the layout (names, shapes,
offsets) is a pure function of the model kind and config.  A checkpoint
stores that layout in its manifest and is loaded only if it matches.
"""
from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import tensor as T

MODEL_KINDS = ("fadnet", "backbone_only")

CHECKPOINT_VERSION = 1

N_BLOCKS = 3


@dataclass(frozen=True)
class FADNetConfig:
    """Model geometry: input shape, per-block channel widths and the shared
    feature width d (the model has one branch per residual block)."""

    input_height: int = 32
    input_width: int = 32
    input_channels: int = 1
    widths: tuple[int, int, int] = (8, 16, 32)
    feature_dim: int = 64

    def __post_init__(self):
        if len(self.widths) != N_BLOCKS:
            raise ValueError(f"widths must list {N_BLOCKS} block widths, got {self.widths}")
        if min(self.widths) < 1 or self.feature_dim < 1:
            raise ValueError(f"widths and feature_dim must be positive: {self}")
        if self.input_height < 8 or self.input_width < 8 or self.input_channels < 1:
            raise ValueError(f"input shape too small: {self}")

    def to_dict(self) -> dict:
        return {
            "input_height": self.input_height,
            "input_width": self.input_width,
            "input_channels": self.input_channels,
            "widths": list(self.widths),
            "feature_dim": self.feature_dim,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FADNetConfig":
        return cls(
            input_height=int(d["input_height"]),
            input_width=int(d["input_width"]),
            input_channels=int(d["input_channels"]),
            widths=tuple(int(w) for w in d["widths"]),
            feature_dim=int(d["feature_dim"]),
        )


TOY_CONFIG = FADNetConfig()

# Full-scale preset with the published shared feature width; constructible,
# but far too large for the test suite to train.
PAPER_SCALE_CONFIG = FADNetConfig(
    input_height=200, input_width=200, input_channels=3,
    widths=(32, 64, 128), feature_dim=6272,
)


@dataclass(frozen=True)
class Batch:
    """A batch of images and normalized steering targets in [-1, 1]."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        if self.inputs.ndim != 4 or self.inputs.shape[0] < 1:
            raise ValueError(f"inputs must be a nonempty NHWC tensor, got {self.inputs.shape}")
        if self.targets.shape != (self.inputs.shape[0],):
            raise ValueError(
                f"targets shape {self.targets.shape} != batch size ({self.inputs.shape[0]},)")
        if not np.all(np.isfinite(self.inputs)):
            raise ValueError("batch inputs contain non-finite values")

    @property
    def size(self) -> int:
        return self.inputs.shape[0]


# --------------------------------------------------------------------------
# Layer plan and parameter layout


def _stage_dims(cfg: FADNetConfig) -> list[tuple[int, int, int]]:
    """(H, W, C) after the stem pool and after each residual block."""
    h, w = T.conv_output_hw(cfg.input_height, cfg.input_width, 3, 1, 1)
    h, w = T.conv_output_hw(h, w, 2, 2, 0)  # stem maxpool
    dims = [(h, w, cfg.widths[0])]
    c_in = cfg.widths[0]
    for c_out in cfg.widths:
        h, w = T.conv_output_hw(h, w, 3, 2, 1)
        dims.append((h, w, c_out))
        c_in = c_out
    return dims  # dims[0] is the stem output, dims[1..3] the block outputs


@lru_cache(maxsize=32)
def _plan(kind: str, cfg: FADNetConfig) -> dict:
    """Layer specs plus the flat parameter layout for a model kind/config."""
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    dims = _stage_dims(cfg)
    flat_dim = dims[-1][0] * dims[-1][1] * dims[-1][2]

    specs: dict[str, T.LayerSpec] = {
        "norm": T.LayerSpec("input_norm"),
        "stem.conv": T.LayerSpec("conv2d", kernel=3, stride=1, padding=1,
                                 in_channels=cfg.input_channels, out_channels=cfg.widths[0]),
        "stem.pool": T.LayerSpec("maxpool2d", kernel=2, stride=2),
    }
    c_in = cfg.widths[0]
    for h, c_out in enumerate(cfg.widths, start=1):
        specs[f"block{h}.conv1"] = T.LayerSpec("conv2d", kernel=3, stride=2, padding=1,
                                               in_channels=c_in, out_channels=c_out)
        specs[f"block{h}.relu"] = T.LayerSpec("relu")
        specs[f"block{h}.conv2"] = T.LayerSpec("conv2d", kernel=3, stride=1, padding=1,
                                               in_channels=c_out, out_channels=c_out)
        specs[f"block{h}.shortcut"] = T.LayerSpec("conv2d", kernel=1, stride=2, padding=0,
                                                  in_channels=c_in, out_channels=c_out)
        specs[f"block{h}.add"] = T.LayerSpec("residual_add")
        c_in = c_out

    if kind == "fadnet":
        specs["tail.fc"] = T.LayerSpec("fc", in_features=flat_dim, out_features=cfg.feature_dim)
        for h, c_out in enumerate(cfg.widths, start=1):
            specs[f"branch{h}.gap"] = T.LayerSpec("gap")
            specs[f"branch{h}.proj"] = T.LayerSpec("fc", in_features=c_out,
                                                   out_features=cfg.feature_dim, bias=False)
    else:
        specs["tail.fc"] = T.LayerSpec("fc", in_features=flat_dim, out_features=1)

    names: list[str] = []
    shapes: list[tuple[int, ...]] = []

    def add(layer_name: str):
        ps = T.param_shapes(specs[layer_name])
        suffixes = ["W", "b"][: len(ps)]
        for sfx, shape in zip(suffixes, ps):
            names.append(f"{layer_name}.{sfx}")
            shapes.append(shape)

    add("stem.conv")
    for h in range(1, N_BLOCKS + 1):
        add(f"block{h}.conv1")
        add(f"block{h}.conv2")
        add(f"block{h}.shortcut")
    add("tail.fc")
    if kind == "fadnet":
        for h in range(1, N_BLOCKS + 1):
            add(f"branch{h}.proj")
        names.append("head.accum.w")
        shapes.append((N_BLOCKS,))

    layout: dict[str, tuple[int, int, tuple[int, ...]]] = {}
    total = 0
    for name, shape in zip(names, shapes):
        size = math.prod(shape)
        layout[name] = (total, size, shape)
        total += size
    return {"specs": specs, "names": tuple(names), "shapes": tuple(shapes),
            "layout": layout, "total": total, "dims": dims}


def param_count(kind: str, cfg: FADNetConfig) -> int:
    return _plan(kind, cfg)["total"]


class ModelParams:
    """Named views over one flat float64 parameter vector."""

    def __init__(self, kind: str, cfg: FADNetConfig, flat: np.ndarray):
        plan = _plan(kind, cfg)
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (plan["total"],):
            raise ValueError(f"expected {plan['total']} parameters, got shape {flat.shape}")
        self.kind = kind
        self.cfg = cfg
        self.flat = flat
        self._plan = plan

    @property
    def names(self) -> tuple[str, ...]:
        return self._plan["names"]

    def __getitem__(self, name: str) -> np.ndarray:
        off, size, shape = self._plan["layout"][name]
        return self.flat[off:off + size].reshape(shape)


def init_params(kind: str, cfg: FADNetConfig, seed: int) -> np.ndarray:
    """Seeded initial parameters as a flat vector.

    Conv kernels use He scaling, fc/projection weights 1/sqrt(fan_in),
    biases zero, and the branch-blend vector starts uniform (1/n each).
    """
    plan = _plan(kind, cfg)
    rng = np.random.default_rng(seed)
    chunks = []
    for name, shape in zip(plan["names"], plan["shapes"]):
        if name == "head.accum.w":
            chunks.append(np.full(shape, 1.0 / N_BLOCKS))
        elif name.endswith(".b"):
            chunks.append(np.zeros(shape))
        elif name.endswith("conv1.W") or name.endswith("conv2.W") or name.endswith("shortcut.W") \
                or name == "stem.conv.W":
            fan_in = int(np.prod(shape[:3]))
            chunks.append(rng.standard_normal(shape) * np.sqrt(2.0 / fan_in))
        else:
            # fc / projection weights damped below 1/sqrt(fan_in): the
            # residual adds roughly double activation variance per block, and
            # the product head squares feature scale, so undamped heads start
            # with predictions far outside the [-1, 1] target range.
            fan_in = shape[0]
            chunks.append(rng.standard_normal(shape) * (0.3 * np.sqrt(1.0 / fan_in)))
    return np.concatenate([c.ravel() for c in chunks])


# --------------------------------------------------------------------------
# Feature blending and product head


def accumulation(features, weights) -> np.ndarray:
    """Weighted sum of n equal-length feature vectors: sum_h w_h * f_h.

    Accepts 1-D vectors or (batch, d) arrays; all features must agree in
    shape and there must be one weight per feature.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 1 or len(features) != weights.shape[0]:
        raise ValueError(f"need one weight per feature: {len(features)} features, "
                         f"{weights.shape} weights")
    arrs = [np.asarray(f, dtype=np.float64) for f in features]
    for f in arrs[1:]:
        if f.shape != arrs[0].shape:
            raise ValueError(f"feature shape mismatch: {f.shape} vs {arrs[0].shape}")
    out = np.zeros_like(arrs[0])
    for w, f in zip(weights, arrs):
        out += w * f
    return out


def aggregation(f_s, f_c):
    """Mean of the elementwise (Hadamard) product; the scalar prediction.

    1-D inputs give a float; (batch, d) inputs give a length-batch vector.
    """
    a = np.asarray(f_s, dtype=np.float64)
    b = np.asarray(f_c, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"feature shape mismatch: {a.shape} vs {b.shape}")
    prod = a * b
    if a.ndim == 1:
        return float(prod.mean())
    return prod.mean(axis=1)


# --------------------------------------------------------------------------
# Forward / backward


def _coerce_params(kind: str, cfg: FADNetConfig, params) -> ModelParams:
    if isinstance(params, ModelParams):
        return params
    return ModelParams(kind, cfg, params)


def _run(name: str, mp: ModelParams, x, caches: dict | None, specs):
    spec = specs[name]
    layer_params = []
    if spec.kind in ("conv2d", "fc"):
        layer_params.append(mp[f"{name}.W"])
        if spec.bias:
            layer_params.append(mp[f"{name}.b"])
    out, cache = T.forward(spec, layer_params, x)
    if caches is not None:
        caches[name] = cache
    return out


def _forward(kind: str, cfg: FADNetConfig, mp: ModelParams, x: np.ndarray,
             caches: dict | None = None) -> np.ndarray:
    """Run the whole network and return its predictions.

    Given a ``caches`` dict, each layer stores its backward cache there under
    its layer name, and the product head stores its inputs under "head";
    ``_backward_full`` reads them.  With None no cache is kept, so each
    layer's workspace is freed once the next layer has run.
    """
    specs = _plan(kind, cfg)["specs"]
    if x.shape[1:] != (cfg.input_height, cfg.input_width, cfg.input_channels):
        raise T.ShapeError(
            f"batch shape {x.shape[1:]} != config input "
            f"({cfg.input_height}, {cfg.input_width}, {cfg.input_channels})")

    h0 = _run("norm", mp, x, None, specs)  # backward never reaches the input
    s1 = _run("stem.conv", mp, h0, caches, specs)
    cur = _run("stem.pool", mp, s1, caches, specs)

    block_outputs = []
    for h in range(1, N_BLOCKS + 1):
        t1 = _run(f"block{h}.conv1", mp, cur, caches, specs)
        r1 = _run(f"block{h}.relu", mp, t1, caches, specs)
        t2 = _run(f"block{h}.conv2", mp, r1, caches, specs)
        sc = _run(f"block{h}.shortcut", mp, cur, caches, specs)
        cur = _run(f"block{h}.add", mp, (t2, sc), caches, specs)
        block_outputs.append(cur)

    tail = _run("tail.fc", mp, cur.reshape(x.shape[0], -1), caches, specs)

    if kind == "backbone_only":
        return tail[:, 0]

    branch_feats = []
    for h in range(1, N_BLOCKS + 1):
        g = _run(f"branch{h}.gap", mp, block_outputs[h - 1], caches, specs)
        branch_feats.append(_run(f"branch{h}.proj", mp, g, caches, specs))
    w = mp["head.accum.w"]
    f_c = accumulation(branch_feats, w)
    preds = aggregation(tail, f_c)
    if caches is not None:
        caches["head"] = (tail, f_c, branch_feats, w)
    return preds


def _back(name: str, mp: ModelParams, caches, grad_out, grads: ModelParams, specs,
          input_grad: bool = True):
    """Backward through one layer; its parameter gradients are added into
    their views of ``grads``."""
    gx, gparams = T.backward(specs[name], caches[name], grad_out, input_grad=input_grad)
    for suffix, g in zip(("W", "b"), gparams):
        view = grads[f"{name}.{suffix}"]
        view += g
    return gx


def _backward_full(kind: str, cfg: FADNetConfig, mp: ModelParams, caches: dict,
                   gpred: np.ndarray) -> np.ndarray:
    """The flat parameter gradient, one zeroed vector filled layer by layer."""
    plan = _plan(kind, cfg)
    specs = plan["specs"]
    grads = ModelParams(kind, cfg, np.zeros(plan["total"]))
    d = cfg.feature_dim

    if kind == "fadnet":
        tail, f_c, branch_feats, w = caches["head"]
        gtail = gpred[:, None] * f_c / d
        gfc = gpred[:, None] * tail / d
        grads["head.accum.w"][:] = [float((gfc * f).sum()) for f in branch_feats]
        gblocks_from_branches = []
        for h in range(1, N_BLOCKS + 1):
            gfh = gfc * w[h - 1]
            ggap = _back(f"branch{h}.proj", mp, caches, gfh, grads, specs)
            gblocks_from_branches.append(
                _back(f"branch{h}.gap", mp, caches, ggap, grads, specs))
    else:
        gtail = np.zeros((gpred.shape[0], 1))
        gtail[:, 0] = gpred
        gblocks_from_branches = [0.0] * N_BLOCKS

    gflat = _back("tail.fc", mp, caches, gtail, grads, specs)
    gcur = gflat.reshape(gpred.shape[0], *plan["dims"][-1])

    for h in range(N_BLOCKS, 0, -1):
        gcur = gcur + gblocks_from_branches[h - 1]
        gt2, gsc = _back(f"block{h}.add", mp, caches, gcur, grads, specs)
        gr1 = _back(f"block{h}.conv2", mp, caches, gt2, grads, specs)
        gt1 = _back(f"block{h}.relu", mp, caches, gr1, grads, specs)
        gin_main = _back(f"block{h}.conv1", mp, caches, gt1, grads, specs)
        gin_sc = _back(f"block{h}.shortcut", mp, caches, gsc, grads, specs)
        gcur = gin_main + gin_sc

    gs1 = _back("stem.pool", mp, caches, gcur, grads, specs)
    # the input has no parameters upstream: neither the stem conv's input
    # gradient nor the input_norm backward would be used
    _back("stem.conv", mp, caches, gs1, grads, specs, input_grad=False)
    return grads.flat


def predict(kind: str, cfg: FADNetConfig, params, inputs: np.ndarray) -> np.ndarray:
    """Predictions for a batch of inputs; keeps no backward caches."""
    return _forward(kind, cfg, _coerce_params(kind, cfg, params), inputs)


def loss_and_grad(kind: str, cfg: FADNetConfig, params, batch: Batch):
    """Mean squared error over the batch and its exact gradient with respect
    to the flat parameter vector."""
    mp = _coerce_params(kind, cfg, params)
    caches: dict = {}
    preds = _forward(kind, cfg, mp, batch.inputs, caches)
    residual = preds - batch.targets
    loss = float(np.mean(residual ** 2))
    gpred = 2.0 * residual / batch.size
    return loss, _backward_full(kind, cfg, mp, caches, gpred)


def rmse(predictions, targets) -> float:
    """Root-mean-square error between two equal-length vectors."""
    p = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if p.shape != t.shape or p.ndim != 1 or p.size < 1:
        raise ValueError(f"need equal-length nonempty vectors, got {p.shape} and {t.shape}")
    return float(np.sqrt(np.mean((p - t) ** 2)))


# --------------------------------------------------------------------------
# Checkpoint I/O: length-prefixed JSON manifest + raw little-endian float64


def save_checkpoint(path, kind: str, cfg: FADNetConfig, params) -> None:
    """Write a single-file checkpoint; round-trips bit-exactly."""
    mp = _coerce_params(kind, cfg, params)
    manifest = {
        "format_version": CHECKPOINT_VERSION,
        "model_kind": kind,
        "config": cfg.to_dict(),
        "params": [{"name": n, "shape": list(s)}
                   for n, s in zip(mp._plan["names"], mp._plan["shapes"])],
    }
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    buf = np.ascontiguousarray(mp.flat, dtype="<f8").tobytes()
    with open(path, "wb") as f:
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        f.write(buf)


def load_checkpoint(path):
    """Read a checkpoint; returns (model_kind, config, flat_params)."""
    raw = Path(path).read_bytes()
    if len(raw) < 4:
        raise ValueError(f"checkpoint {path}: truncated header")
    (hlen,) = struct.unpack("<I", raw[:4])
    if len(raw) < 4 + hlen:
        raise ValueError(f"checkpoint {path}: truncated manifest")
    manifest = json.loads(raw[4:4 + hlen].decode("utf-8"))
    if manifest.get("format_version") != CHECKPOINT_VERSION:
        raise ValueError(f"checkpoint {path}: unsupported format_version "
                         f"{manifest.get('format_version')}")
    kind = manifest["model_kind"]
    cfg = FADNetConfig.from_dict(manifest["config"])
    plan = _plan(kind, cfg)
    listed = manifest.get("params")
    if not isinstance(listed, list):
        raise ValueError(f"checkpoint {path}: manifest has no parameter list")
    for i, (name, shape) in enumerate(zip(plan["names"], plan["shapes"])):
        entry = listed[i] if i < len(listed) else None
        if entry != {"name": name, "shape": list(shape)}:
            raise ValueError(f"checkpoint {path}: parameter {name!r} with shape "
                             f"{list(shape)} expected at manifest entry {i}, found {entry!r}")
    if len(listed) > len(plan["names"]):
        raise ValueError(f"checkpoint {path}: unexpected parameter "
                         f"{listed[len(plan['names'])]!r} after the {kind} layout")
    flat = np.frombuffer(raw[4 + hlen:], dtype="<f8").astype(np.float64)
    expected = plan["total"]
    if flat.shape != (expected,):
        raise ValueError(f"checkpoint {path}: expected {expected} parameters, "
                         f"got {flat.size}")
    return kind, cfg, flat
