"""Steering-angle regression models built on the tensor kernel.

The full model ("fadnet"): per-image normalization, a conv+maxpool stem,
three stride-2 residual blocks (conv-relu-conv with a 1x1 projection
shortcut).  Each block feeds a global-average-pool branch linearly projected
to a shared feature width d; a learnable length-n weight vector blends the n
branch features into one d-vector, and the prediction is the mean of the
elementwise product between that blended feature and the fc-reduced backbone
feature.  The "backbone_only" ablation keeps the stem and blocks but maps the
flattened backbone output straight to the scalar prediction.

Parameters live in one flat float64 vector; the model computes in its dtype,
float32 or float64, and returns its gradients at that dtype.  The layer plan
is the one table that names them: each layer's weight, then its bias, in
layer order, then the fadnet blend vector ``head.accum.w``.  ``param_views``
gives each its shaped view.  ``init_params`` goes by layer kind: He-scaled
conv kernels, fc weights 0.3/sqrt(fan_in), zero biases and a uniform 1/n
blend.  A checkpoint stores the names and shapes in its manifest and is
loaded only if they match.

The plan also holds the step program, one ``Step`` per layer in forward
order; each layer writes the activation named after it.  The forward pass is
one loop over the program plus the product head.  The backward pass is the
head's gradient plus one loop over it in reverse, in which each layer adds
its parameter gradients into their views and passes its input gradients back
to the activations it read.  An activation's gradients sum in the order that
walk meets its readers: shortcuts are listed before their conv1 and branches
right after their block, so a block output sums (next conv1 + next shortcut)
+ branch gap, and the last block's tail + branch gap.

A training step (``loss_and_grad``) runs in a ``Workspace``: one block that
holds every array the step writes, its parameters and its gradient at the
model dtype, with each layer's parameter and gradient views and its
``tensor.layout`` (kernel buffers and index data) bound once.  Each
buffer lives as its layout says, and an activation is its writer's "out"
buffer (or the input), read by its readers.  ``_work_plan`` places the
arrays by when the program first writes and last reads each, so arrays
whose lives do not overlap share memory (Chen et al., "Training Deep Nets
with Sublinear Memory Cost", 2016).  A prediction runs in an inference
workspace, the plan of the forward walk alone: no caches or gradients, and
only the parameters kept (as Pisarchyk and Lee, "Efficient Memory
Management for Deep Neural Net Inference", 2020, plan inference).  The
training loop keeps one workspace between evaluations; a call without one
makes a throwaway workspace, so nothing batch-sized outlives it.
"""
from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, fields
from functools import lru_cache
from itertools import zip_longest
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import tensor as T
from .data import Dataset, field_parser

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
        # one check per key, whose message names that key alone
        for key, low in (("input_height", 8), ("input_width", 8), ("input_channels", 1),
                         ("feature_dim", 1)):
            value = getattr(self, key)
            if value < low:
                need = "positive" if low == 1 else f"at least {low}"
                raise ValueError(f"{key} must be {need}, got {value}")
        if len(self.widths) != N_BLOCKS or min(self.widths) < 1:
            raise ValueError(f"widths must list {N_BLOCKS} positive block widths, "
                             f"got {list(self.widths)}")

    @classmethod
    def from_dict(cls, d: dict) -> "FADNetConfig":
        """The config of a JSON object such as ``asdict`` writes, each
        field parsed as its default's type (``data.field_parser``)."""
        values = {}
        for f in fields(cls):
            if f.name not in d:
                raise ValueError(f"model config {f.name!r}: missing")
            try:
                values[f.name] = field_parser(f.default)(d[f.name])
            except (TypeError, ValueError) as e:
                raise ValueError(f"model config {f.name!r}: {e}") from e
        return cls(**values)


TOY_CONFIG = FADNetConfig()

# Full-scale preset with the published shared feature width; constructible,
# but far too large for the test suite to train.
PAPER_SCALE_CONFIG = FADNetConfig(
    input_height=200, input_width=200, input_channels=3,
    widths=(32, 64, 128), feature_dim=6272,
)


# --------------------------------------------------------------------------
# Layer plan, step program and parameter layout


class Step(NamedTuple):
    """One layer of the step program; it writes the activation named after it."""
    layer: str
    reads: tuple[str, ...]  # in argument order
    backward: bool  # a parameter gradient depends on its output
    input_grad: bool  # ... and on what it reads
    flattens: tuple[int, ...]  # the per-sample shape of an input it flattens, or ()


@lru_cache(maxsize=32)
def _plan(kind: str, cfg: FADNetConfig) -> dict:
    """Layer specs, step program and flat parameter layout for a model kind/config."""
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    # the stem conv knows its pool, so it writes its output in the pool's
    # window-position slabs (see tensor._geometry)
    pool = T.LayerSpec("maxpool2d", kernel=2, stride=2)
    specs: dict[str, T.LayerSpec] = {
        "norm": T.LayerSpec("input_norm"),
        "stem.conv": T.LayerSpec("conv2d", kernel=3, stride=1, padding=1,
                                 in_channels=cfg.input_channels, out_channels=cfg.widths[0],
                                 pool=pool),
        "stem.pool": pool,
    }

    def out_hw(hw, layer):
        spec = specs[layer]
        return T.conv_output_hw(*hw, spec.kernel, spec.stride, spec.padding)

    # the layers in forward order with the activations each reads (see the
    # module docstring), the (H, W, C) after the stem pool and after each
    # block, whose conv1 sets it, and the activations the product head reads
    edges = [("norm", ("input",)), ("stem.conv", ("norm",)), ("stem.pool", ("stem.conv",))]
    hw = out_hw(out_hw((cfg.input_height, cfg.input_width), "stem.conv"), "stem.pool")
    dims = [(*hw, cfg.widths[0])]
    head = ["tail.fc"]
    branches: dict[str, T.LayerSpec] = {}  # stored after the tail
    c_in, cur = cfg.widths[0], "stem.pool"
    for h, c_out in enumerate(cfg.widths, start=1):
        b = f"block{h}"
        specs[f"{b}.conv1"] = T.LayerSpec("conv2d", kernel=3, stride=2, padding=1,
                                          in_channels=c_in, out_channels=c_out)
        specs[f"{b}.relu"] = T.LayerSpec("relu")
        specs[f"{b}.conv2"] = T.LayerSpec("conv2d", kernel=3, stride=1, padding=1,
                                          in_channels=c_out, out_channels=c_out)
        specs[f"{b}.shortcut"] = T.LayerSpec("conv2d", kernel=1, stride=2, padding=0,
                                             in_channels=c_in, out_channels=c_out)
        specs[f"{b}.add"] = T.LayerSpec("residual_add")
        edges += [(f"{b}.shortcut", (cur,)), (f"{b}.conv1", (cur,)),
                  (f"{b}.relu", (f"{b}.conv1",)), (f"{b}.conv2", (f"{b}.relu",)),
                  (f"{b}.add", (f"{b}.conv2", f"{b}.shortcut"))]
        hw = out_hw(hw, f"{b}.conv1")
        dims.append((*hw, c_out))
        c_in, cur = c_out, f"{b}.add"
        if kind == "fadnet":
            gap, proj = f"branch{h}.gap", f"branch{h}.proj"
            branches[gap] = T.LayerSpec("gap")
            branches[proj] = T.LayerSpec("fc", in_features=c_out, out_features=cfg.feature_dim,
                                         bias=False)
            edges += [(gap, (cur,)), (proj, (gap,))]
            head.append(proj)
    edges.append(("tail.fc", (cur,)))
    specs["tail.fc"] = T.LayerSpec("fc", in_features=math.prod(dims[-1]),
                                   out_features=cfg.feature_dim if kind == "fadnet" else 1)
    specs.update(branches)

    # the one table of parameter names and shapes, in storage order: each
    # layer's weight before its bias, layers in plan order, then the blend
    params = {layer: dict(zip((f"{layer}.W", f"{layer}.b"), T.param_shapes(spec)))
              for layer, spec in specs.items()}
    if kind == "fadnet":
        params["head.accum"] = {"head.accum.w": (N_BLOCKS,)}

    layout: dict[str, tuple[int, int, tuple[int, ...]]] = {}
    total = 0
    for name, shape in (item for shapes in params.values() for item in shapes.items()):
        size = math.prod(shape)
        layout[name] = (total, size, shape)
        total += size
    # each layer's (offset, size, shape) triples, in storage order
    slots = {layer: tuple(layout[name] for name in shapes) for layer, shapes in params.items()}

    carried: set[str] = set()  # the activations a parameter gradient depends on
    program = []
    for layer, reads in edges:
        input_grad = any(a in carried for a in reads)
        if input_grad or params[layer]:
            carried.add(layer)
        program.append(Step(layer, reads, layer in carried, input_grad,
                            dims[-1] if layer == "tail.fc" else ()))
    return {"specs": specs, "params": params, "layout": layout, "slots": slots,
            "total": total, "dims": dims, "program": tuple(program), "head": tuple(head)}


def param_count(kind: str, cfg: FADNetConfig) -> int:
    return _plan(kind, cfg)["total"]


def _floats(a) -> np.ndarray:  # float32 and float64 kept, anything else float64
    a = np.asarray(a)
    return a if a.dtype in (np.float32, np.float64) else a.astype(np.float64)


def _checked_flat(plan: dict, flat) -> np.ndarray:
    flat = _floats(flat)
    if flat.shape != (plan["total"],):
        raise ValueError(f"expected {plan['total']} parameters, got shape {flat.shape}")
    return flat


def _layer_views(plan: dict, layer: str, flat: np.ndarray) -> list[np.ndarray]:
    """The shaped views of one layer's parameters (or gradients) in ``flat``."""
    return [flat[off:off + size].reshape(shape) for off, size, shape in plan["slots"][layer]]


def param_views(kind: str, cfg: FADNetConfig, flat) -> dict[str, np.ndarray]:
    """Each parameter's shaped view into the flat vector, by name."""
    plan = _plan(kind, cfg)
    flat = _checked_flat(plan, flat)
    return {name: flat[off:off + size].reshape(shape)
            for name, (off, size, shape) in plan["layout"].items()}


def init_params(kind: str, cfg: FADNetConfig, seed: int) -> np.ndarray:
    """Seeded initial parameters as a flat vector (rules in the module docstring)."""
    plan = _plan(kind, cfg)
    rng = np.random.default_rng(seed)
    chunks = []
    for layer, shapes in plan["params"].items():
        spec = plan["specs"].get(layer)  # None for the branch blend
        for i, shape in enumerate(shapes.values()):
            if spec is None:
                chunks.append(np.full(shape, 1.0 / N_BLOCKS))
            elif i > 0:  # the bias
                chunks.append(np.zeros(shape))
            elif spec.kind == "conv2d":  # fan-in k * k * c_in
                chunks.append(rng.standard_normal(shape) * np.sqrt(2.0 / math.prod(shape[:3])))
            else:
                # fc weights damped below 1/sqrt(fan_in): the residual adds
                # roughly double activation variance per block, and the product
                # head squares feature scale, so undamped heads start with
                # predictions far outside the [-1, 1] target range.
                chunks.append(rng.standard_normal(shape) * (0.3 * np.sqrt(1.0 / shape[0])))
    return np.concatenate([c.ravel() for c in chunks])


# --------------------------------------------------------------------------
# Feature blending and product head


def accumulation(features, weights) -> np.ndarray:
    """Weighted sum of n equal-length feature vectors: sum_h w_h * f_h.

    Accepts 1-D vectors or (batch, d) arrays; all features must agree in
    shape and there must be one weight per feature.
    """
    weights = _floats(weights)
    if weights.ndim != 1 or len(features) != weights.shape[0]:
        raise ValueError(f"need one weight per feature: {len(features)} features, "
                         f"{weights.shape} weights")
    arrs = [_floats(f) for f in features]
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
    a, b = _floats(f_s), _floats(f_c)
    if a.shape != b.shape:
        raise ValueError(f"feature shape mismatch: {a.shape} vs {b.shape}")
    prod = a * b
    # np.mean is this sum divided by the count, bit for bit
    if a.ndim == 1:
        return float(np.add.reduce(prod) / prod.size)
    return np.add.reduce(prod, axis=1) / prod.shape[1]


# --------------------------------------------------------------------------
# Forward / backward


def _forward(kind: str, cfg: FADNetConfig, work: Workspace,
             caches: dict | None = None) -> np.ndarray:
    """Run the whole network on ``work``'s parameters and inputs, through its
    views and buffers, and return its predictions, in the parameters' dtype.
    Given a ``caches`` dict (and a training workspace), each layer that
    backward reaches stores its cache there under its name, and the product
    head its inputs under "head"; with None (inference) none is kept."""
    plan = _plan(kind, cfg)
    acts = {"input": work.inputs}
    for step in plan["program"]:
        x = [acts[a] for a in step.reads]
        x = x[0] if len(x) == 1 else x  # a residual add reads two
        if step.flattens:
            x = x.reshape(len(x), -1)
        acts[step.layer], cache = T.forward(
            plan["specs"][step.layer], work.param_views[step.layer], x,
            keep_cache=caches is not None and step.backward, work=work.layers[step.layer])
        if cache is not None:
            caches[step.layer] = cache

    tail, *branch_feats = (acts[a] for a in plan["head"])
    if kind == "backbone_only":
        return tail[:, 0]
    (w,) = work.param_views["head.accum"]
    f_c = accumulation(branch_feats, w)
    preds = aggregation(tail, f_c)
    if caches is not None:
        caches["head"] = (tail, f_c, branch_feats, w)
    return preds


def _backward_full(kind: str, cfg: FADNetConfig, caches: dict, gpred: np.ndarray,
                   work: Workspace) -> np.ndarray:
    """The flat parameter gradient, ``work``'s zeroed vector filled layer by
    layer in one reverse walk of the program (see the module docstring)."""
    plan = _plan(kind, cfg)
    grads = work.grads
    grads.fill(0.0)
    if kind == "fadnet":
        tail, f_c, branch_feats, w = caches["head"]
        gfc = gpred[:, None] * tail / cfg.feature_dim
        work.grad_views["head.accum"][0][:] = [
            float(np.add.reduce(gfc * f, axis=None)) for f in branch_feats]
        ghead = [gpred[:, None] * f_c / cfg.feature_dim, *(gfc * wh for wh in w)]
    else:
        ghead = [gpred[:, None]]
    gacts = dict(zip(plan["head"], ghead))  # each activation's gradient so far

    for step in reversed(plan["program"]):
        if not step.backward:
            continue
        gx, gparams = T.backward(plan["specs"][step.layer], caches[step.layer],
                                 gacts.pop(step.layer), input_grad=step.input_grad,
                                 work=work.layers[step.layer])
        for view, g in zip(work.grad_views[step.layer], gparams):
            view += g
        if step.input_grad:
            if step.flattens:
                gx = gx.reshape(len(gx), *step.flattens)
            for a, g in zip(step.reads, gx if len(step.reads) > 1 else (gx,)):
                gacts[a] = np.add(gacts[a], g, out=work.sums[step.layer, a]) if a in gacts else g
    return grads


def _loaded(kind: str, cfg: FADNetConfig, params, inputs: np.ndarray,
            workspace: Workspace | None, train: bool) -> Workspace:
    """``workspace`` (or a throwaway one) checked against this call, with
    ``params`` and ``inputs`` copied in unless they are its own."""
    flat = _checked_flat(_plan(kind, cfg), params)
    want = (cfg.input_height, cfg.input_width, cfg.input_channels)
    if inputs.shape[1:] != want:
        raise T.ShapeError(f"batch shape {inputs.shape[1:]} != config input {want}")
    key = (kind, cfg, len(inputs), flat.dtype, train)
    work = workspace if workspace is not None else Workspace(*key)
    if work.key != key:
        said = [f"{'training' if k[4] else 'prediction'} of {k[0]} at batch {k[2]} and {k[3]}"
                for k in (work.key, key)]
        raise ValueError(f"a workspace for {said[0]} cannot take {said[1]}")
    if flat is not work.params:
        np.copyto(work.params, flat)
    if inputs is not work.inputs:
        np.copyto(work.inputs, inputs)
    return work


def predict(kind: str, cfg: FADNetConfig, params, inputs: np.ndarray) -> np.ndarray:
    """Predictions for a batch of inputs, made in a throwaway inference
    ``Workspace`` and returned in an array of their own."""
    return _forward(kind, cfg, _loaded(kind, cfg, params, inputs, None, False)).copy()


def loss_and_grad(kind: str, cfg: FADNetConfig, params, batch: Dataset,
                  workspace: Workspace | None = None):
    """Mean squared error over the batch and its exact gradient with respect
    to the flat parameter vector.

    The step runs in ``workspace``, a training ``Workspace`` for the batch's
    size and the parameters' dtype, and returns its gradient vector, which
    the next call through it overwrites.  The parameters and inputs are
    copied into it unless they are its own.  Without one the call makes a
    throwaway workspace and returns a copy of the gradient."""
    work = _loaded(kind, cfg, params, batch.inputs, workspace, True)
    caches: dict = {}
    preds = _forward(kind, cfg, work, caches)
    residual = preds - batch.targets
    loss = float(np.add.reduce(residual ** 2) / batch.count)
    gpred = (2.0 * residual / batch.count).astype(preds.dtype, copy=False)
    grads = _backward_full(kind, cfg, caches, gpred, work)
    return loss, grads if workspace is not None else grads.copy()


# --------------------------------------------------------------------------
# Step and prediction workspaces

# every buffer starts on a cache line
ALIGN = 64


class _WorkPlan(NamedTuple):
    nbytes: int
    kept: int  # the first ``kept`` bytes hold the arrays that live throughout
    slots: dict  # key -> (byte offset, T.Buffer, (first, last) time, or None if kept)
    consts: dict  # layer -> its layout's index data


@lru_cache(maxsize=8)
def _work_plan(kind: str, cfg: FADNetConfig, batch: int, dtype: np.dtype,
               train: bool = True) -> _WorkPlan:
    """Where each array of a training step, or with ``train`` false of a
    prediction (the forward walk alone), sits in the workspace's block.

    The keys are "params", "grads" and "input", (layer, name) for each
    buffer of ``T.layout``, and ("sum", reader, activation) for the sum of an
    activation's gradients that the reader's backward completes.  Time runs
    over the program: forward step i at i, the head at n, backward step i at
    2n - i.  Each array is live from the step that first writes it to the
    last step that reads it, which the forward walk and then the reverse one
    work out as ``_forward`` and ``_backward_full`` run them: an output is
    read by its readers (until their backward, if their cache holds it) and
    the head, and a gradient by the backward it is passed to and the sum
    that takes it; a residual add passes its output gradient on as both its
    input gradients.  Zeroed and filled buffers, the parameters and the
    gradient vector live throughout and come first.  Then, largest first,
    each other array takes the lowest offset clear of every array placed so
    far whose life overlaps its own.
    """
    plan = _plan(kind, cfg)
    program = plan["program"]
    n = len(program)
    shape = (batch, cfg.input_height, cfg.input_width, cfg.input_channels)
    bufs = {"params": T.Buffer((plan["total"],), dtype, "zeros"),
            "grads": T.Buffer((plan["total"],), dtype, "zeros"),
            "input": T.Buffer(shape, dtype, "fwd")}
    if not train:
        del bufs["grads"]
    spans = {"input": [-1, -1]}  # first and last time of each array that is not kept
    shapes, consts = {"input": shape}, {}

    def read(key, t):
        if key in spans:
            spans[key][1] = max(spans[key][1], t)

    for i, step in enumerate(program):
        keep_cache = train and step.backward
        back = 2 * n - i if keep_cache else i
        shape = (batch, math.prod(step.flattens)) if step.flattens else shapes[step.reads[0]]
        lay = T.layout(plan["specs"][step.layer], shape, dtype, step.input_grad, keep_cache)
        consts[step.layer] = lay.consts
        for a in step.reads:
            read(a if a == "input" else (a, "out"), back if lay.keeps_input else i)
        life_spans = {"fwd": (i, i), "cache": (i, back), "bwd": (back, back)}
        for name, buf in lay.buffers.items():
            bufs[step.layer, name] = buf
            if buf.life in life_spans:
                spans[step.layer, name] = list(life_spans[buf.life])
        shapes[step.layer] = lay.consts["out_shape"]
    for a in plan["head"]:
        read((a, "out"), n)

    grads = dict.fromkeys(plan["head"])  # the head's gradients are its own arrays
    for i in reversed(range(n if train else 0)):
        step, t = program[i], 2 * n - i
        if not step.backward:
            continue
        g = grads.pop(step.layer)
        read(g, t)
        if not step.input_grad:
            continue
        gx = (step.layer, "gx") if (step.layer, "gx") in bufs else g
        for a in step.reads:
            if a in grads:
                read(grads[a], t)
                grads[a] = ("sum", step.layer, a)
                bufs[grads[a]] = T.Buffer(shapes[a], dtype, "bwd")
                spans[grads[a]] = [t, t]
            else:
                grads[a] = gx

    def nbytes(key):
        return -(-math.prod(bufs[key].shape) * bufs[key].dtype.itemsize // ALIGN) * ALIGN

    # the arrays that live throughout first, one after another
    slots, end = {}, 0
    for key in bufs:
        if key not in spans:
            slots[key] = (end, bufs[key], None)
            end += nbytes(key)
    start, placed = end, []
    for key in sorted(spans, key=nbytes, reverse=True):
        size, (first, last) = nbytes(key), spans[key]
        offset = start
        for lo, hi in sorted([(lo, hi) for lo, hi, f, l in placed if f <= last and first <= l]):
            if offset + size <= lo:
                break
            offset = max(offset, hi)
        placed.append((offset, offset + size, first, last))
        slots[key] = (offset, bufs[key], (first, last))
        end = max(end, offset + size)
    return _WorkPlan(end, start, slots, consts)


class Workspace:
    """Every batch-sized array of a training step (or with ``train`` false,
    of a prediction), for one model kind, config, batch size and dtype, in
    one block planned by ``_work_plan``, with each layer's parameter (and
    gradient) views and index data bound once.  ``params`` (the model-dtype
    parameters), ``inputs`` and a training workspace's ``grads`` (the
    model-dtype gradient vector) are its arrays that callers fill and read."""

    def __init__(self, kind: str, cfg: FADNetConfig, batch: int, dtype=np.float32,
                 train: bool = True):
        self.key = (kind, cfg, batch, np.dtype(dtype), train)
        plan = _plan(kind, cfg)
        work = _work_plan(*self.key)
        # every other array is written before it is read
        self.block = np.empty(work.nbytes, np.uint8)
        self.block[:work.kept] = 0
        self.layers = {layer: dict(consts) for layer, consts in work.consts.items()}
        self.sums = {}
        views = {}
        for key, (offset, (shape, dtype, life), _) in work.slots.items():
            view = views[key] = np.ndarray(shape, dtype, self.block, offset)
            if life == "ones":
                view.fill(1)
            if isinstance(key, tuple) and key[0] == "sum":
                self.sums[key[1:]] = view
            elif isinstance(key, tuple):
                self.layers[key[0]][key[1]] = view
        self.params, self.inputs = views["params"], views["input"]
        self.param_views = {layer: _layer_views(plan, layer, self.params) for layer in plan["slots"]}
        if train:
            self.grads = views["grads"]
            self.grad_views = {layer: _layer_views(plan, layer, self.grads)
                               for layer in plan["slots"]}


def rmse(predictions, targets) -> float:
    """Root-mean-square error between two equal-length vectors."""
    p = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if p.shape != t.shape or p.ndim != 1 or p.size < 1:
        raise ValueError(f"need equal-length nonempty vectors, got {p.shape} and {t.shape}")
    return float(np.sqrt(np.mean((p - t) ** 2)))


# --------------------------------------------------------------------------
# Checkpoint I/O: length-prefixed JSON manifest + raw little-endian float64


def _manifest_params(plan: dict) -> list[dict]:
    """A checkpoint manifest's parameter list: names and shapes in storage order."""
    return [{"name": n, "shape": list(shape)} for n, (_, _, shape) in plan["layout"].items()]


def save_checkpoint(path, kind: str, cfg: FADNetConfig, params) -> None:
    """Write a single-file checkpoint of the flat parameter vector;
    round-trips bit-exactly."""
    plan = _plan(kind, cfg)
    flat = _checked_flat(plan, params)
    manifest = {
        "format_version": CHECKPOINT_VERSION,
        "model_kind": kind,
        "config": asdict(cfg),
        "params": _manifest_params(plan),
    }
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    buf = np.ascontiguousarray(flat, dtype="<f8").tobytes()
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
    for key, typ in (("model_kind", str), ("config", dict), ("params", list)):
        if not isinstance(manifest.get(key), typ):
            raise ValueError(f"checkpoint {path}: manifest has no {key!r} {typ.__name__}")
    kind = manifest["model_kind"]
    cfg = FADNetConfig.from_dict(manifest["config"])
    plan = _plan(kind, cfg)
    for i, (entry, want) in enumerate(zip_longest(manifest["params"], _manifest_params(plan))):
        if entry != want:
            raise ValueError(f"checkpoint {path}: manifest entry {i} is {entry!r}, "
                             f"where the {kind} layout has {want!r}")
    flat = np.frombuffer(raw[4 + hlen:], dtype="<f8").astype(np.float64)
    if flat.shape != (plan["total"],):
        raise ValueError(f"checkpoint {path}: expected {plan['total']} parameters, "
                         f"got {flat.size}")
    return kind, cfg, flat
