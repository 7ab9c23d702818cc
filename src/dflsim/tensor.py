"""Minimal dense-tensor kernel: hand-written forward and backward passes.

Arrays are C-contiguous, NHWC for images, float32 or float64; each kernel
computes in and returns its input's dtype (the parameters must match it).
Exactly the layer vocabulary the steering model needs is implemented; each
forward returns an opaque cache consumed by the matching backward, and every
backward is the exact analytic adjoint (finite-difference checked).

Convolution is im2col followed by one matrix product.  im2col writes the
input into a zero-bordered buffer and makes one copy of a (b, oh, ow, k, k, c)
window view of it, so every copied run is a window row of k*c elements.  With
one input channel that run is only k long, and the copy goes in
(k, k, c, b, oh, ow) order instead, along output rows; the product then
takes the transposed buffer (see _transposed_patches for when).  col2im
adds the patch gradient onto the input window position by window position.
With stride 1 it first copies the gradient into (k*k, b, oh, ow, c) order,
so that each add reads a contiguous block; with a larger stride the windows
go in groups that touch disjoint elements, one add per group.

The index arithmetic of a windowed layer (output shape, window slices, the
im2col view's shape and strides, the pooling scatter index) is worked out
once per layer spec and input shape and cached (``_geometry``); none of it
grows faster than the batch.  Every buffer that does grow with the batch
(padded inputs, patch matrices, gradients) is allocated per call and freed
with it, so nothing batch-sized outlives the call that made it.

Max pooling takes a running ``np.maximum`` over the k*k strided views of its
input; on ties the first window position in row-major order wins, both for
the output value (which matters only for -0.0 against 0.0) and for where
backward routes the window's gradient.  Backward records that position per
window and scatters all windows' gradients with one ``np.bincount``; where
windows overlap (kernel > stride) the entries go in window-position order.
Either way every input element sums its terms from +0.0 in the order a loop
over window positions would, in float64 (``np.bincount``'s sums); a float32
element is that sum rounded once, which is exact where windows do not overlap.

``forward(..., keep_cache=False)`` is the inference path: every kind
returns None in place of its cache, relu builds no mask, and conv2d never
holds the whole patch matrix.  It builds the matrix for one block of whole
samples at a time (see EVAL_BLOCK_BYTES) and writes each block's product
into its rows of a preallocated output.  The output has the bits of the
one-shot product; the bitwise kernel and model tests pin that.

``backward(..., input_grad=False)`` tells conv2d that the caller will
discard the input gradient: it skips computing it and returns None in its
place.  The first conv of a network needs no input gradient, and for it this
saves the transposed product and the col2im scatter.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

KINDS = ("input_norm", "conv2d", "maxpool2d", "relu", "fc", "gap", "residual_add")

NORM_EPS = 1e-6

# A conv2d forward without a cache works through the batch in blocks of
# whole samples, each holding about EVAL_BLOCK_BYTES to twice that of patch
# matrix (512 KiB ran a batch-256 toy predict faster than 1-4 MiB).  A
# block's product also has more than SMALL_GEMM_MNK multiply-adds: OpenBLAS
# computes products of at most 1e6 (M*N*K) with a separate small-matrix
# kernel that rounds differently for some shapes (dgemm: 2 to 4 output
# channels, or 3x3 kernels over 64 or more input channels; sgemm: blocks of an
# (m, 72) x (72, 8) product differed up to 8.9e5 and matched from 1.2e6).
EVAL_BLOCK_BYTES = 512 << 10
SMALL_GEMM_MNK = 10 ** 6


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
    """Shapes of the layer's parameter tensors, in storage order: the weight,
    then the bias (one entry per output) if the layer has one."""
    if spec.kind == "conv2d":
        weight = (spec.kernel, spec.kernel, spec.in_channels, spec.out_channels)
    elif spec.kind == "fc":
        weight = (spec.in_features, spec.out_features)
    else:
        return []
    return [weight, weight[-1:]] if spec.bias else [weight]


class _Geometry(NamedTuple):
    """Index arithmetic of one conv2d or maxpool2d layer on one input shape."""

    out_shape: tuple      # (b, oh, ow, output channels)
    padded: tuple         # the zero-bordered input's shape (the input's own if unpadded)
    interior: tuple       # index of the input inside the padded buffer
    windows: tuple        # k*k index tuples, one per window position (see _geometry)
    view_shape: tuple     # the (b, oh, ow, k, k, c) im2col view of the padded buffer
    view_strides: tuple   # ... and its byte strides
    phases: tuple | None  # col2im buffer as (b, rows/s, s, cols/s, s, c); conv stride > 1
    groups: tuple | None  # (target, source) index pairs of the col2im adds; conv stride > 1
    pool_index: tuple | None  # (offsets, base, starts) of the max-pool scatter


@lru_cache(maxsize=128)
def _geometry(spec: LayerSpec, shape: tuple, itemsize: int) -> _Geometry:
    """The geometry of ``spec`` on an NHWC input of ``shape`` whose elements
    take ``itemsize`` bytes, worked out once.

    ``windows[a*k + bb]`` indexes the strided view of the padded input that
    holds element (a, bb) of every one of the oh x ow windows, in row-major
    window-position order.  Element [n, i, j, a, bb, ch] of the im2col view
    is padded[n, i*s + a, j*s + bb, ch].

    A conv with stride s > 1 scatters its patch gradient in ``groups``.
    Write a window offset as a = qa*s + ra (and bb = qb*s + rb).  Windows
    that share (qa, qb) but differ in (ra, rb) touch disjoint elements, so
    each such group is one add: a view of the patch gradient (dims b, i, a,
    j, bb, c) onto the buffer reshaped to ``phases``, which splits each row
    index into (row // s, row % s) and each column index likewise.  An
    element only ever gets terms from one (ra, rb), and the groups go in
    row-major (qa, qb) order, so each element still sums its terms in
    window-position order.

    For max pooling, the flat index in the input of window position p of
    output element [n, i, j, ch] is ``offsets[p] + base[i, j, ch] +
    starts[n]``.  Nothing cached here is larger than one sample's output
    plus one integer per sample.
    """
    b, h, w, c = shape
    k, s, p = spec.kernel, spec.stride, spec.padding
    oh, ow = conv_output_hw(h, w, k, s, p)
    hp, wp = h + 2 * p, w + 2 * p
    windows = tuple((slice(None), slice(a, a + oh * s, s), slice(bb, bb + ow * s, s))
                    for a in range(k) for bb in range(k))
    sw = c * itemsize
    sh = wp * sw
    phases = groups = pool_index = None
    if spec.kind == "conv2d" and s > 1:
        # rounded up to whole phases; the extra rows and columns are cut off
        phases = (b, -(-hp // s), s, -(-wp // s), s, c)
        q = range(-(-k // s))
        groups = tuple(
            ((slice(None), slice(qa, qa + oh), slice(0, min(s, k - qa * s)),
              slice(qb, qb + ow), slice(0, min(s, k - qb * s))),
             (slice(None), slice(None), slice(qa * s, qa * s + s),
              slice(None), slice(qb * s, qb * s + s)))
            for qa in q for qb in q)
    if spec.kind == "maxpool2d":
        offsets = ((np.arange(k)[:, None] * w + np.arange(k)) * c).ravel()
        base = ((s * np.arange(oh)[:, None] * w + s * np.arange(ow)) * c)[..., None] + np.arange(c)
        starts = (np.arange(b) * (h * w * c)).reshape(b, 1, 1, 1)
        for arr in (offsets, base, starts):
            arr.flags.writeable = False
        pool_index = (offsets, base, starts)
    return _Geometry(
        out_shape=(b, oh, ow, spec.out_channels if spec.kind == "conv2d" else c),
        padded=(b, hp, wp, c),
        interior=(slice(None), slice(p, p + h), slice(p, p + w)),
        windows=windows,
        view_shape=(b, oh, ow, k, k, c),
        view_strides=(hp * sh, s * sh, s * sw, sh, sw, itemsize),
        phases=phases,
        groups=groups,
        pool_index=pool_index)


def _transposed_patches(spec: LayerSpec) -> bool:
    """Whether conv2d builds its patch matrix as the transposed (K, N) copy.

    With one input channel a window row is only k elements long, so the copy
    runs along output rows instead.  BLAS then gets the transposed operand,
    which gives the same product bits only where its kernels for the output
    columns do not depend on operand layout.  Measured with OpenBLAS, that
    holds when out_channels is a multiple of 8 (the FADNet stem has 8) and
    fails for some other widths, 1 to 4 among them, in dgemm and sgemm.  The
    bitwise kernel tests pin both layouts to the plain (N, K) copy's bits.
    """
    return spec.in_channels == 1 and spec.out_channels % 8 == 0


def _im2col(x: np.ndarray, geo: _Geometry, transposed: bool) -> np.ndarray:
    """The (b*oh*ow, k*k*c) patch matrix of x, whose geometry is ``geo``,
    columns in (a, bb, channel) order, built with one copy of a window view
    of the zero-bordered input; with ``transposed`` it is the transpose of a
    C-ordered (K, N) buffer."""
    if geo.padded != x.shape:
        xp = np.zeros(geo.padded, x.dtype)
        xp[geo.interior] = x
    else:
        xp = np.ascontiguousarray(x)
    # the window view is built on the contiguous buffer directly, which
    # costs far less per call than numpy's as_strided
    win = np.ndarray(geo.view_shape, xp.dtype, xp, 0, geo.view_strides)
    b, oh, ow, k, _, c = geo.view_shape
    n, kk = b * oh * ow, k * k * c
    if transposed:
        return np.ascontiguousarray(win.transpose(3, 4, 5, 0, 1, 2)).reshape(kk, n).T
    return win.reshape(n, kk)


def _col2im(gcols: np.ndarray, geo: _Geometry) -> np.ndarray:
    """Adjoint of _im2col: each window position's slice of the patch gradient
    is added onto the input in turn, so every input element sums its terms
    from +0.0 in window-position order.  With stride > 1 the windows go in
    groups that touch disjoint elements (see _geometry)."""
    b, oh, ow, k, _, c = geo.view_shape
    if geo.groups is None:
        gxp = np.zeros(geo.padded, gcols.dtype)
        # one copy in (k*k, b, oh, ow, c) order, so each add reads a contiguous block
        g5 = np.ascontiguousarray(gcols.reshape(b, oh, ow, k * k, c).transpose(3, 0, 1, 2, 4))
        for window, g in zip(geo.windows, g5):
            view = gxp[window]
            view += g
        return gxp[geo.interior]
    gx6 = np.zeros(geo.phases, gcols.dtype)
    g6 = gcols.reshape(b, oh, ow, k, k, c).transpose(0, 1, 3, 2, 4, 5)
    for target, source in geo.groups:
        view = gx6[target]
        view += g6[source]
    _, nh, s, nw, _, _ = geo.phases
    return gx6.reshape(b, nh * s, nw * s, c)[geo.interior]


def _eval_block_samples(spec: LayerSpec, oh: int, ow: int, itemsize: int) -> int:
    """Fewest samples in one block of conv2d without a cache: enough to fill
    EVAL_BLOCK_BYTES of patch matrix of ``itemsize``-byte elements, and to
    lift the block's product above SMALL_GEMM_MNK multiply-adds."""
    rows, k = oh * ow, spec.kernel ** 2 * spec.in_channels
    return max(EVAL_BLOCK_BYTES // (rows * k * itemsize),
               SMALL_GEMM_MNK // (rows * k * spec.out_channels) + 1)


def forward(spec: LayerSpec, params: list[np.ndarray], x, keep_cache: bool = True):
    """Run the layer; returns (output, cache) with cache bound to this call,
    or (output, None) when ``keep_cache`` is false."""
    kind = spec.kind

    if kind == "input_norm":
        if x.ndim != 4:
            raise ShapeError(f"input_norm expects NHWC, got shape {x.shape}")
        b = x.shape[0]
        flat = x.reshape(b, -1)
        n = flat.shape[1]
        # np.mean of float64 is this sum divided by the count, bit for bit
        mu = np.add.reduce(flat, axis=1, keepdims=True) / n
        centered = flat - mu
        sigma = np.sqrt(np.add.reduce(centered ** 2, axis=1, keepdims=True) / n)
        y = (centered / (sigma + NORM_EPS)).reshape(x.shape)
        cache = (spec, x.shape, centered, sigma)

    elif kind == "conv2d":
        wgt = params[0]
        if x.ndim != 4 or x.shape[3] != spec.in_channels:
            raise ShapeError(f"conv2d expects NHWC with C={spec.in_channels}, got {x.shape}")
        geo = _geometry(spec, x.shape, x.itemsize)
        b, oh, ow, _ = geo.out_shape
        rows = oh * ow
        # backward needs the whole patch matrix; without a cache it is built
        # in blocks of whole samples that differ in size by at most one
        n_blocks = 1 if keep_cache else max(1, b // _eval_block_samples(spec, oh, ow, x.itemsize))
        transposed = _transposed_patches(spec)
        wmat = wgt.reshape(-1, spec.out_channels)
        out = np.empty((b * rows, spec.out_channels), x.dtype)
        for i in range(n_blocks):
            s0, s1 = i * b // n_blocks, (i + 1) * b // n_blocks
            part = geo if n_blocks == 1 else _geometry(spec, (s1 - s0, *x.shape[1:]), x.itemsize)
            cols = _im2col(x[s0:s1], part, transposed)
            np.matmul(cols, wmat, out=out[s0 * rows:s1 * rows])
        if spec.bias:
            out += params[1]
        y = out.reshape(geo.out_shape)
        cache = (spec, cols, geo, wmat)

    elif kind == "maxpool2d":
        if x.ndim != 4:
            raise ShapeError(f"maxpool2d expects NHWC, got shape {x.shape}")
        first, *rest = _geometry(spec, x.shape, x.itemsize).windows
        y = x[first].copy()
        for window in rest:
            # np.maximum returns its second operand when the two compare
            # equal, so the earlier window position keeps the signed zero
            np.maximum(x[window], y, out=y)
        cache = (spec, x, y)

    elif kind == "relu":
        y = np.maximum(x, 0.0)
        cache = (spec, x > 0) if keep_cache else None

    elif kind == "fc":
        wgt = params[0]
        if x.ndim != 2 or x.shape[1] != spec.in_features:
            raise ShapeError(f"fc expects (batch, {spec.in_features}), got {x.shape}")
        y = x @ wgt
        if spec.bias:
            y += params[1]
        cache = (spec, x, wgt)

    elif kind == "gap":
        if x.ndim != 4:
            raise ShapeError(f"gap expects NHWC, got shape {x.shape}")
        y = np.add.reduce(x, axis=(1, 2)) / (x.shape[1] * x.shape[2])
        cache = (spec, x.shape)

    elif kind == "residual_add":
        a, b = x
        if a.shape != b.shape:
            raise ShapeError(f"residual_add shape mismatch: {a.shape} vs {b.shape}")
        y = a + b
        cache = (spec, a.shape)

    else:
        raise ShapeError(f"unknown layer kind {kind!r}")
    return y, cache if keep_cache else None


def backward(spec: LayerSpec, cache, grad_out, input_grad: bool = True):
    """Exact gradients of the forward pass: returns (grad_input, grad_params).

    For residual_add the grad_input is the (grad_a, grad_b) pair; max pooling
    routes each window's gradient to the first-encountered argmax.  With
    input_grad=False, conv2d returns None as grad_input without computing
    it; the other kinds ignore the flag.
    """
    if not isinstance(cache, tuple) or not cache or (cache[0] is not spec and cache[0] != spec):
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
        gc = (g - np.add.reduce(g, axis=1, keepdims=True) / n) / denom
        dot = (g * centered).sum(axis=1, keepdims=True)
        safe_sigma = np.where(sigma > 0.0, sigma, 1.0)
        scale = np.where(sigma > 0.0, dot / (denom ** 2 * n * safe_sigma), 0.0)
        gx = gc - centered * scale
        return gx.reshape(x_shape), []

    if kind == "conv2d":
        _, cols, geo, wmat = cache
        if grad_out.shape != geo.out_shape:
            raise ShapeError(f"grad shape {grad_out.shape} != {geo.out_shape}")
        gmat = grad_out.reshape(-1, spec.out_channels)
        # this order, unlike cols.T @ gmat, gives both patch layouts equal sgemm bits
        gw = (gmat.T @ cols).T.reshape(spec.kernel, spec.kernel, -1, spec.out_channels)
        grads = [gw]
        if spec.bias:
            # einsum gives the bits of sum(axis=0), and faster, from two
            # channels on; with one channel its bits differ
            grads.append(np.einsum("ij->j", gmat) if spec.out_channels >= 2
                         else gmat.sum(axis=0))
        if not input_grad:
            return None, grads
        gx = _col2im(gmat @ wmat.T, geo)
        return gx, grads

    if kind == "maxpool2d":
        _, x, y = cache
        if grad_out.shape != y.shape:
            raise ShapeError(f"grad shape {grad_out.shape} != forward shape {y.shape}")
        geo = _geometry(spec, x.shape, x.itemsize)
        # arg: the first window position (row-major) holding the max
        arg = np.zeros(y.shape, dtype=np.min_scalar_type(len(geo.windows) - 1))
        unrouted = np.ones(y.shape, dtype=bool)
        hit = np.empty(y.shape, dtype=bool)
        for i, window in enumerate(geo.windows):
            np.equal(x[window], y, out=hit)
            hit &= unrouted
            unrouted ^= hit
            if i:
                arg += hit.view(np.uint8) * arg.dtype.type(i)
        # scatter every window's gradient onto its routed element at once
        offsets, base, starts = geo.pool_index
        idx = offsets.take(arg)
        idx += base
        idx += starts
        idx, weights = idx.ravel(), grad_out.ravel()
        if spec.kernel > spec.stride:
            # overlapping windows: an element must take its terms in
            # window-position order
            order = np.argsort(arg, axis=None, kind="stable")
            idx, weights = idx[order], weights[order]
        gx = np.bincount(idx, weights=weights, minlength=x.size).astype(x.dtype, copy=False)
        return gx.reshape(x.shape), []

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
        gx = np.empty(x_shape, grad_out.dtype)
        np.divide(grad_out[:, None, None, :], h * w, out=gx)
        return gx, []

    if kind == "residual_add":
        _, shape = cache
        if grad_out.shape != shape:
            raise ShapeError(f"grad shape {grad_out.shape} != forward shape {shape}")
        return (grad_out.copy(), grad_out.copy()), []

    raise ShapeError(f"unknown layer kind {kind!r}")

