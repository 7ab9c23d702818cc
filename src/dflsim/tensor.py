"""Minimal dense-tensor kernel: hand-written forward and backward passes.

Arrays are float64, C-contiguous, NHWC for images.  Exactly the layer
vocabulary the steering model needs is implemented; each forward returns an
opaque cache consumed by the matching backward, and every backward is the
exact analytic adjoint (finite-difference checked in the test suite).

Convolution is im2col followed by one matrix product.  im2col writes the
input into a zero-bordered buffer and makes one copy of a (b, oh, ow, k, k, c)
window view of it, so every copied run is a window row of k*c elements.  With
one input channel that run is only k long, and the copy goes in
(k, k, c, b, oh, ow) order instead, along output rows; the product then
takes the transposed buffer (see _transposed_patches for when).  col2im adds
each window position's slice of the patch gradient onto the input in turn.

Max pooling takes a running ``np.maximum`` over the k*k strided views of its
input; on ties the first window position in row-major order wins, both for
the output value (which matters only for -0.0 against 0.0) and for where
backward routes the window's gradient.  Backward records that position per
window and scatters all windows' gradients with one ``np.bincount``; where
windows overlap (kernel > stride) the entries go in window-position order.
Either way every input element sums its terms from +0.0 in the order a loop
over window positions would, so the bits match that loop.

``backward(..., input_grad=False)`` tells conv2d that the caller will
discard the input gradient: it skips computing it and returns None in its
place.  The first conv of a network needs no input gradient, and for it this
saves the transposed product and the col2im scatter.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

KINDS = ("input_norm", "conv2d", "maxpool2d", "relu", "fc", "gap", "residual_add")

NORM_EPS = 1e-6


class ShapeError(ValueError):
    """Raised when an input does not match a layer's declared geometry."""


@dataclass(frozen=True)
class LayerSpec:
    """One layer: a kind plus the hyperparameters that kind needs."""

    kind: str
    kernel: int = 0
    stride: int = 1
    padding: int = 0
    in_channels: int = 0
    out_channels: int = 0
    in_features: int = 0
    out_features: int = 0
    bias: bool = True

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ShapeError(f"unknown layer kind {self.kind!r}")
        if self.kind == "conv2d":
            if self.kernel < 1 or self.stride < 1 or self.padding < 0:
                raise ShapeError(f"bad conv2d geometry: {self}")
            if self.in_channels < 1 or self.out_channels < 1:
                raise ShapeError(f"conv2d needs positive channel counts: {self}")
        elif self.kind == "maxpool2d":
            if self.kernel < 1 or self.stride < 1:
                raise ShapeError(f"bad maxpool2d geometry: {self}")
        elif self.kind == "fc":
            if self.in_features < 1 or self.out_features < 1:
                raise ShapeError(f"fc needs positive widths: {self}")


def conv_output_hw(h: int, w: int, kernel: int, stride: int, padding: int) -> tuple[int, int]:
    oh = (h + 2 * padding - kernel) // stride + 1
    ow = (w + 2 * padding - kernel) // stride + 1
    if oh < 1 or ow < 1:
        raise ShapeError(f"window {kernel}x{kernel}/s{stride}/p{padding} does not fit {h}x{w}")
    return oh, ow


def param_shapes(spec: LayerSpec) -> list[tuple[int, ...]]:
    """Shapes of the layer's parameter tensors, in storage order."""
    if spec.kind == "conv2d":
        shapes = [(spec.kernel, spec.kernel, spec.in_channels, spec.out_channels)]
        if spec.bias:
            shapes.append((spec.out_channels,))
        return shapes
    if spec.kind == "fc":
        shapes = [(spec.in_features, spec.out_features)]
        if spec.bias:
            shapes.append((spec.out_features,))
        return shapes
    return []


def _windows(x: np.ndarray, k: int, s: int, oh: int, ow: int) -> list[np.ndarray]:
    """The k*k strided views of NHWC x, one per offset inside a k x k window
    in row-major order; view a*k+b holds element (a, b) of every one of the
    oh x ow windows taken at stride s."""
    return [x[:, a:a + oh * s:s, b:b + ow * s:s, :] for a in range(k) for b in range(k)]


def _window_view(x: np.ndarray, k: int, s: int, oh: int, ow: int) -> np.ndarray:
    """Read-only (b, oh, ow, k, k, c) view of NHWC x: element [n, i, j, a, bb, ch]
    is x[n, i*s + a, j*s + bb, ch]."""
    sb, sh, sw, sc = x.strides
    return as_strided(x, (x.shape[0], oh, ow, k, k, x.shape[3]),
                      (sb, s * sh, s * sw, sh, sw, sc), writeable=False)


def _transposed_patches(spec: LayerSpec) -> bool:
    """Whether conv2d builds its patch matrix as the transposed (K, N) copy.

    With one input channel a window row is only k elements long, so the copy
    runs along output rows instead.  BLAS then gets the transposed operand,
    which gives the same product bits only where its kernels for the output
    columns do not depend on operand layout.  Measured with OpenBLAS, that
    holds when out_channels is a multiple of 8 (the FADNet stem has 8) and
    fails for some other widths, 1 to 4 among them.  The bitwise kernel
    tests pin both layouts to the bits of the plain (N, K) copy.
    """
    return spec.in_channels == 1 and spec.out_channels % 8 == 0


def _im2col(x: np.ndarray, kernel: int, stride: int, padding: int, transposed: bool):
    """The (b*oh*ow, k*k*c) patch matrix, columns in (a, bb, channel) order,
    built with one copy of a window view of the zero-bordered input; with
    ``transposed`` it is the transpose of a C-ordered (K, N) buffer."""
    b, h, w, c = x.shape
    oh, ow = conv_output_hw(h, w, kernel, stride, padding)
    if padding:
        xp = np.zeros((b, h + 2 * padding, w + 2 * padding, c))
        xp[:, padding:padding + h, padding:padding + w, :] = x
    else:
        xp = x
    win = _window_view(xp, kernel, stride, oh, ow)
    n, kk = b * oh * ow, kernel * kernel * c
    geom = (b, h, w, c, oh, ow)
    if transposed:
        return np.ascontiguousarray(win.transpose(3, 4, 5, 0, 1, 2)).reshape(kk, n).T, geom
    return win.reshape(n, kk), geom


def _col2im(gcols: np.ndarray, geom: tuple, kernel: int, stride: int, padding: int) -> np.ndarray:
    """Adjoint of _im2col: each window position's slice of the patch gradient
    is added onto the input in turn, so every input element sums its terms
    from +0.0 in window-position order."""
    b, h, w, c, oh, ow = geom
    gxp = np.zeros((b, h + 2 * padding, w + 2 * padding, c), dtype=np.float64)
    g5 = gcols.reshape(b, oh, ow, kernel * kernel, c)
    for i, view in enumerate(_windows(gxp, kernel, stride, oh, ow)):
        view += g5[:, :, :, i, :]
    return gxp[:, padding:h + padding, padding:w + padding, :]


@lru_cache(maxsize=16)
def _pool_index(shape: tuple, k: int, s: int, oh: int, ow: int):
    """Flat indices into an NHWC array of this shape for its oh x ow windows
    of k x k at stride s: ``origins`` (b, oh, ow) holds each window's first
    element (channel 0) and ``offsets`` (k*k,) the distance from there to
    window position (a, bb), in row-major order.  Both are read-only."""
    b, h, w, c = shape
    origins = ((np.arange(b)[:, None, None] * h + s * np.arange(oh)[:, None]) * w
               + s * np.arange(ow)) * c
    offsets = ((np.arange(k)[:, None] * w + np.arange(k)) * c).ravel()
    origins.flags.writeable = False
    offsets.flags.writeable = False
    return origins, offsets


def forward(spec: LayerSpec, params: list[np.ndarray], x):
    """Run the layer; returns (output, cache) with cache bound to this call."""
    kind = spec.kind

    if kind == "input_norm":
        if x.ndim != 4:
            raise ShapeError(f"input_norm expects NHWC, got shape {x.shape}")
        b = x.shape[0]
        flat = x.reshape(b, -1)
        mu = flat.mean(axis=1, keepdims=True)
        centered = flat - mu
        sigma = np.sqrt((centered ** 2).mean(axis=1, keepdims=True))
        y = (centered / (sigma + NORM_EPS)).reshape(x.shape)
        return y, (spec, x.shape, centered, sigma)

    if kind == "conv2d":
        wgt = params[0]
        if x.ndim != 4 or x.shape[3] != spec.in_channels:
            raise ShapeError(f"conv2d expects NHWC with C={spec.in_channels}, got {x.shape}")
        cols, geom = _im2col(x, spec.kernel, spec.stride, spec.padding,
                             _transposed_patches(spec))
        wmat = wgt.reshape(-1, spec.out_channels)
        out = cols @ wmat
        if spec.bias:
            out += params[1]
        b, _, _, _, oh, ow = geom
        y = out.reshape(b, oh, ow, spec.out_channels)
        return y, (spec, cols, geom, wmat)

    if kind == "maxpool2d":
        if x.ndim != 4:
            raise ShapeError(f"maxpool2d expects NHWC, got shape {x.shape}")
        oh, ow = conv_output_hw(x.shape[1], x.shape[2], spec.kernel, spec.stride, 0)
        views = _windows(x, spec.kernel, spec.stride, oh, ow)
        y = views[0].copy()
        for view in views[1:]:
            # np.maximum returns its second operand when the two compare
            # equal, so the earlier window position keeps the signed zero
            np.maximum(view, y, out=y)
        return y, (spec, x, y)

    if kind == "relu":
        return np.maximum(x, 0.0), (spec, x > 0)

    if kind == "fc":
        wgt = params[0]
        if x.ndim != 2 or x.shape[1] != spec.in_features:
            raise ShapeError(f"fc expects (batch, {spec.in_features}), got {x.shape}")
        y = x @ wgt
        if spec.bias:
            y += params[1]
        return y, (spec, x, wgt)

    if kind == "gap":
        if x.ndim != 4:
            raise ShapeError(f"gap expects NHWC, got shape {x.shape}")
        return x.mean(axis=(1, 2)), (spec, x.shape)

    if kind == "residual_add":
        a, b = x
        if a.shape != b.shape:
            raise ShapeError(f"residual_add shape mismatch: {a.shape} vs {b.shape}")
        return a + b, (spec, a.shape)

    raise ShapeError(f"unknown layer kind {kind!r}")


def backward(spec: LayerSpec, cache, grad_out, input_grad: bool = True):
    """Exact gradients of the forward pass: returns (grad_input, grad_params).

    For residual_add the grad_input is the (grad_a, grad_b) pair; max pooling
    routes each window's gradient to the first-encountered argmax.  With
    input_grad=False, conv2d returns None as grad_input without computing
    it; the other kinds ignore the flag.
    """
    if not isinstance(cache, tuple) or not cache or cache[0] != spec:
        raise ShapeError("stale or mismatched cache for backward")
    kind = spec.kind

    if kind == "input_norm":
        _, x_shape, centered, sigma = cache
        if grad_out.shape != x_shape:
            raise ShapeError(f"grad shape {grad_out.shape} != forward shape {x_shape}")
        b = x_shape[0]
        g = grad_out.reshape(b, -1)
        n = g.shape[1]
        denom = sigma + NORM_EPS
        gc = (g - g.mean(axis=1, keepdims=True)) / denom
        dot = (g * centered).sum(axis=1, keepdims=True)
        safe_sigma = np.where(sigma > 0.0, sigma, 1.0)
        scale = np.where(sigma > 0.0, dot / (denom ** 2 * n * safe_sigma), 0.0)
        gx = gc - centered * scale
        return gx.reshape(x_shape), []

    if kind == "conv2d":
        _, cols, geom, wmat = cache
        b, h, w, c, oh, ow = geom
        if grad_out.shape != (b, oh, ow, spec.out_channels):
            raise ShapeError(f"grad shape {grad_out.shape} != ({b},{oh},{ow},{spec.out_channels})")
        gmat = grad_out.reshape(-1, spec.out_channels)
        gw = (cols.T @ gmat).reshape(spec.kernel, spec.kernel, spec.in_channels, spec.out_channels)
        grads = [gw]
        if spec.bias:
            grads.append(gmat.sum(axis=0))
        if not input_grad:
            return None, grads
        gx = _col2im(gmat @ wmat.T, geom, spec.kernel, spec.stride, spec.padding)
        return gx, grads

    if kind == "maxpool2d":
        _, x, y = cache
        if grad_out.shape != y.shape:
            raise ShapeError(f"grad shape {grad_out.shape} != forward shape {y.shape}")
        _, oh, ow, _ = y.shape
        k, s = spec.kernel, spec.stride
        # arg: the first window position (row-major) holding the max
        arg = np.zeros(y.shape, dtype=np.min_scalar_type(k * k - 1))
        unrouted = np.ones(y.shape, dtype=bool)
        hit = np.empty(y.shape, dtype=bool)
        for i, view in enumerate(_windows(x, k, s, oh, ow)):
            np.equal(view, y, out=hit)
            hit &= unrouted
            unrouted ^= hit
            if i:
                arg += hit.view(np.uint8) * arg.dtype.type(i)
        # scatter every window's gradient onto its routed element at once
        origins, offsets = _pool_index(x.shape, k, s, oh, ow)
        idx = offsets.take(arg)
        idx += origins[..., None]
        idx += np.arange(y.shape[3])
        idx, weights = idx.ravel(), grad_out.ravel()
        if k > s:
            # overlapping windows: an element must take its terms in
            # window-position order
            order = np.argsort(arg, axis=None, kind="stable")
            idx, weights = idx[order], weights[order]
        gx = np.bincount(idx, weights=weights, minlength=x.size).reshape(x.shape)
        return gx, []

    if kind == "relu":
        _, mask = cache
        if grad_out.shape != mask.shape:
            raise ShapeError(f"grad shape {grad_out.shape} != forward shape {mask.shape}")
        return grad_out * mask, []

    if kind == "fc":
        _, x, wgt = cache
        if grad_out.shape != (x.shape[0], spec.out_features):
            raise ShapeError(f"grad shape {grad_out.shape} != ({x.shape[0]},{spec.out_features})")
        gw = x.T @ grad_out
        gx = grad_out @ wgt.T
        grads = [gw]
        if spec.bias:
            grads.append(grad_out.sum(axis=0))
        return gx, grads

    if kind == "gap":
        _, x_shape = cache
        b, h, w, c = x_shape
        if grad_out.shape != (b, c):
            raise ShapeError(f"grad shape {grad_out.shape} != ({b},{c})")
        gx = np.broadcast_to(grad_out[:, None, None, :] / (h * w), x_shape).copy()
        return gx, []

    if kind == "residual_add":
        _, shape = cache
        if grad_out.shape != shape:
            raise ShapeError(f"grad shape {grad_out.shape} != forward shape {shape}")
        return (grad_out.copy(), grad_out.copy()), []

    raise ShapeError(f"unknown layer kind {kind!r}")

