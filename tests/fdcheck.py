"""Central finite-difference checks of the analytic gradients.

``grad_check`` checks one tensor-kernel layer on a small seeded instance;
``model_grad_check`` checks a full model's flat parameter gradient, at a
seed that ``find_smooth_seed`` picks so that no relu or max-pooling decision
sits near its kink.
"""
from __future__ import annotations

import numpy as np

from dflsim import model as M
from dflsim.data import Dataset
from dflsim import tensor as T

FD_STEP = 1e-5


def _default_instance(spec: T.LayerSpec, rng: np.random.Generator, size=(6, 6)):
    """Small random (input, params) pair for gradient checking; images are
    ``size`` (height, width)."""
    kind = spec.kind
    if kind in ("input_norm", "maxpool2d", "relu"):
        ch = 3 if kind != "relu" else 1
        x = rng.standard_normal((2, *size, ch))
    elif kind == "conv2d":
        x = rng.standard_normal((2, *size, spec.in_channels))
    elif kind == "fc":
        x = rng.standard_normal((2, spec.in_features))
    elif kind == "gap":
        x = rng.standard_normal((2, 4, 5, 3))
    elif kind == "residual_add":
        x = (rng.standard_normal((2, 3, 3, 2)), rng.standard_normal((2, 3, 3, 2)))
    else:
        raise T.ShapeError(kind)
    params = [rng.standard_normal(s) * 0.5 for s in T.param_shapes(spec)]
    return x, params


def _pool_margin(x, k, s) -> float:
    """Smallest gap between the largest and second-largest element of any
    k x k pooling window at stride s; x is NHWC, or a pooled conv's output
    in its k*k window-position slabs."""
    if x.ndim == 4:
        _, h, w, _ = x.shape
        oh, ow = (h - k) // s + 1, (w - k) // s + 1
        x = [x[:, a:a + oh * s:s, bb:bb + ow * s:s] for a in range(k) for bb in range(k)]
    patches = np.stack(list(x), axis=3)
    top2 = np.sort(patches, axis=3)[:, :, :, -2:, :]
    return float((top2[:, :, :, 1, :] - top2[:, :, :, 0, :]).min())


def _nudge_kinks(spec: T.LayerSpec, x, rng: np.random.Generator, margin: float = 1e-3):
    """Resample until the instance sits away from relu/maxpool kinks."""
    if spec.kind == "relu":
        while np.abs(x).min() < margin:
            x = rng.standard_normal(x.shape)
        return x
    if spec.kind == "maxpool2d":
        while _pool_margin(x, spec.kernel, spec.stride) <= margin:
            x = rng.standard_normal(x.shape)
    return x


def relative_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-3) -> float:
    """Max elementwise |a-n| / max(|a|,|n|,floor); the floor keeps
    finite-difference roundoff on near-zero coordinates from dominating."""
    a = np.asarray(analytic, dtype=np.float64).ravel()
    n = np.asarray(numeric, dtype=np.float64).ravel()
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - n) / denom))


def grad_check(spec: T.LayerSpec, seed: int, step: float = FD_STEP, size=(6, 6)) -> float:
    """Compare backward against central finite differences on every input and
    parameter coordinate of a small seeded instance with ``size`` images;
    returns the max relative error."""
    rng = np.random.default_rng(seed)
    x, params = _default_instance(spec, rng, size)
    if spec.kind in ("relu", "maxpool2d"):
        x = _nudge_kinks(spec, x, rng)

    out, cache = T.forward(spec, params, x)
    proj = np.random.default_rng(seed + 1).standard_normal(out.shape)

    def loss_at(x_val, p_val):
        y, _ = T.forward(spec, p_val, x_val)
        return float(np.sum(y * proj))

    gx, gparams = T.backward(spec, cache, proj)

    def fd(read, write, analytic):
        flatg = np.asarray(analytic).ravel()
        numeric = np.empty_like(flatg)
        base = read()
        for idx in range(base.size):
            orig = base.flat[idx]
            base.flat[idx] = orig + step
            up = loss_at(*write())
            base.flat[idx] = orig - step
            down = loss_at(*write())
            base.flat[idx] = orig
            numeric[idx] = (up - down) / (2 * step)
        return relative_error(flatg, numeric)

    errs = []
    if spec.kind == "residual_add":
        for t, g in zip(x, gx):
            errs.append(fd(lambda t=t: t, lambda: (x, params), g))
    else:
        errs.append(fd(lambda: x, lambda: (x, params), gx))
    for p, g in zip(params, gparams):
        errs.append(fd(lambda p=p: p, lambda: (x, params), g))
    return max(errs)


def _kink_margin(kind: str, cfg: M.FADNetConfig, flat: np.ndarray, x: np.ndarray) -> float:
    """Smallest distance of any relu input or stem pooling decision to its
    kink, read from the caches of one training forward pass."""
    caches: dict = {}
    M._forward(kind, cfg, M._loaded(kind, cfg, flat, x, None, True), caches)
    views = M.param_views(kind, cfg, flat)
    margin = _pool_margin(caches["stem.pool"][2], 2, 2)  # the stem conv's slabs
    for h in range(1, M.N_BLOCKS + 1):
        name = f"block{h}.conv1"
        _, _, cols, _, wmat = caches[name]
        # the relu input, in the conv forward's own op order
        t1 = cols @ wmat
        t1 += views[f"{name}.b"]
        margin = min(margin, float(np.abs(t1).min()))
    return margin


def find_smooth_seed(kind: str, cfg: M.FADNetConfig, batch_size: int = 2,
                     start_seed: int = 0, margin: float = 1e-3) -> int:
    """First seed whose random instance keeps every relu input and pooling
    decision at least ``margin`` away from its kink, so central finite
    differences with a 1e-5 step stay trustworthy."""
    for seed in range(start_seed, start_seed + 200):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((batch_size, cfg.input_height, cfg.input_width,
                                 cfg.input_channels))
        if _kink_margin(kind, cfg, M.init_params(kind, cfg, seed), x) > margin:
            return seed
    raise RuntimeError("no finite-difference-safe seed found in 200 tries")


def model_grad_check(kind: str, cfg: M.FADNetConfig, seed: int, batch_size: int = 2,
                     max_coords_per_tensor: int | None = None,
                     step: float = FD_STEP) -> float:
    """Compare the analytic parameter gradient against central finite
    differences on a seeded random batch; returns the max relative error.

    With max_coords_per_tensor set, large tensors are sampled on an evenly
    strided index subset (every tensor is still covered); otherwise every
    coordinate is checked.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch_size, cfg.input_height, cfg.input_width,
                             cfg.input_channels))
    targets = rng.uniform(-1.0, 1.0, batch_size)
    batch = Dataset(inputs=x, targets=targets)
    flat = M.init_params(kind, cfg, seed)

    _, analytic = M.loss_and_grad(kind, cfg, flat, batch)

    worst = 0.0
    for off, size, _ in M._plan(kind, cfg)["layout"].values():
        if max_coords_per_tensor is None or size <= max_coords_per_tensor:
            idx = range(off, off + size)
        else:
            stride = size / max_coords_per_tensor
            idx = [off + int(i * stride) for i in range(max_coords_per_tensor)]
        for i in idx:
            orig = flat[i]
            flat[i] = orig + step
            up, _ = M.loss_and_grad(kind, cfg, flat, batch)
            flat[i] = orig - step
            down, _ = M.loss_and_grad(kind, cfg, flat, batch)
            flat[i] = orig
            numeric = (up - down) / (2 * step)
            worst = max(worst, relative_error(analytic[i], numeric))
    return worst
