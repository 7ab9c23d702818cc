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
takes the transposed buffer (see _transposed_patches for when).

A conv's input gradient is itself a convolution: the output gradient,
zero-bordered, convolved at stride 1 with the flipped weight.  With stride
s > 1 it splits into s*s phases, one per (row, column) offset modulo s; the
phases' flipped taps stack side by side into one weight, zero where a phase
lacks a tap, gathered from the flat weight by one int32 index (see
_grad_conv), so one product computes them all and one depth-to-space copy
interleaves them into NHWC.  Phases that no tap reaches are not computed and
stay +0.0.  An unpadded 1x1 conv skips all of that: its input gradient is
the output gradient times the transposed weight, written into every s-th
row and column of a zero array.  Bias gradients are one product with a ones
vector.

A conv whose spec names the max pool it feeds (``LayerSpec.pool``) orders
its patch rows by that pool's window position, in either layout.  Its
output is then k*k contiguous slabs, each of the pool's output shape, slab
a*k + bb holding element (a, bb) of every pooling window; rows that no
window covers are not computed.  A row's product has the same bits wherever
the row sits in the patch matrix, so the slabs hold exactly the NHWC conv's
values; the weight and bias gradients sum their rows in slab order.

``layout(spec, input shape, dtype, ...)`` is the one description of a
layer call, cached per argument: every array a kernel writes, with its
shape and life (``Buffer``), and the call's index data: its input and
output shapes (``forward`` checks the input against the one and
``backward`` the output gradient against the other, for every kind) and a
conv's index arithmetic (``_geometry``, ``_grad_conv``), none of which
grows with the batch.  ``bind`` adds every view the kernels take of those
buffers: a padded buffer's interior and windows, the 2-D patch and output
matrices, each block's rows, the input gradient's interleave and more.  A
kernel takes all of it and the parameter gradients ("grads") from its
``work`` argument, and builds per call only views of its own input (an
unpadded conv's window, a pool's grouping of NHWC input).  A caller that
runs the same shapes again (``model.Workspace``) binds them once, with the
gradients as views of its gradient vector, so a call allocates nothing
that grows with the batch.  Called without ``work``, a kernel allocates and
binds them for that call alone (``_fresh``).

A max pool reads each input element at most once and pads nothing
(``LayerSpec`` rejects kernel > stride and any padding), so every pool
works on k*k window-position slabs: a pooled conv's output as it is, or an
NHWC input grouped by one copy.  It takes a running ``np.maximum`` slab by
slab; on ties the first position in row-major order wins, both for the
output value (which matters only for -0.0 against 0.0) and for where
backward routes the window's gradient.  Backward compares each slab with
the output and masks each window's gradient into the first slab that holds
its max, + 0.0 so that -0.0 becomes +0.0; every other element is +0.0.  It
returns the gradient in slabs, which the pooled conv takes as its output
gradient with no copy; an NHWC input gets it back in NHWC by one copy.

``forward(..., keep_cache=False)`` is the inference path: every kind
returns None in place of its cache, relu builds no mask, and conv2d never
holds the whole patch matrix.  conv2d runs one loop over blocks of m whole
samples: one block with a cache, and without one blocks of about
EVAL_BLOCK_BYTES of patch matrix, the last overlapping the one before.
Each block takes one im2col (the zero-bordered input is one block's, zeroed
once per inference call) and one product, written in place where the
block's rows are contiguous in the output (one block, or a conv without a
pool) and otherwise copied once into the block's rows of each slab.  A
row's bits do not depend on its block; the bitwise tests pin that.

``backward(..., input_grad=False)`` tells conv2d that the caller will
discard the input gradient: it skips computing it and returns None in its
place.  The first conv of a network needs no input gradient, and for it this
saves the input gradient's convolution.
"""
from __future__ import annotations

import math
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

# Below this many elements a conv output takes its bias by broadcasting,
# whose inner loop is one row of c elements; from here on the tiled add wins
# (float32 timeit: 16 against 33 us at (4096, 8), 78 against 250 us at the
# stem's (32768, 8); even at (1024, 16); np.tile's cost loses below).
BIAS_TILE_ELEMENTS = 1 << 15


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
    pool: LayerSpec | None = None  # conv2d only: the max pool its output feeds

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ShapeError(f"unknown layer kind {self.kind!r}")
        if self.pool is not None and (self.kind != "conv2d" or self.pool.kind != "maxpool2d"):
            raise ShapeError(f"only a conv2d may feed a max pool: {self}")
        if self.kind == "conv2d":
            if self.kernel < 1 or self.stride < 1 or self.padding < 0:
                raise ShapeError(f"bad conv2d geometry: {self}")
            if self.in_channels < 1 or self.out_channels < 1:
                raise ShapeError(f"conv2d needs positive channel counts: {self}")
        elif self.kind == "maxpool2d":
            if self.kernel < 1 or self.stride < 1:
                raise ShapeError(f"bad maxpool2d geometry: {self}")
            if self.kernel > self.stride or self.padding != 0:
                raise ShapeError(f"a max pool must neither overlap (kernel > stride) nor pad: "
                                 f"{self}")
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
    """Index arithmetic of one conv2d layer on one input shape."""

    out_shape: tuple      # (b, oh, ow, c); with a pool: (k*k, *the pool's output shape)
    padded: tuple         # the zero-bordered input's shape (the input's own if unpadded)
    interior: tuple       # index of the input inside the padded buffer
    patches: tuple        # (shape, strides) of the view im2col copies (see _geometry)
    by_offset: tuple | None  # (shape, strides) of a first copy for transposed pooled patches
    grouping: tuple | None  # the pool's _pool_grouping of the NHWC output


def _by_window(shape: tuple, strides: tuple, k: int, s: int) -> tuple[tuple, tuple]:
    """Shape and strides of a (b, h, w, ...) strided layout seen as (k, k, b,
    oh, ow, ...) for a k x k window at stride s: element [a, bb, n, i, j, ...]
    is element [n, i*s + a, j*s + bb, ...], window positions outermost."""
    b, h, w, *rest = shape
    sn, sh, sw, *inner = strides
    oh, ow = conv_output_hw(h, w, k, s, 0)
    return (k, k, b, oh, ow, *rest), (sh, sw, sn, s * sh, s * sw, *inner)


def _pool_grouping(shape: tuple, itemsize: int, pool: LayerSpec) -> tuple:
    """(``shape``, then the shape and strides of its (k, k, b, oh, ow, c)
    window-position view) of a C-contiguous NHWC array of ``shape`` read by
    ``pool``."""
    _, h, w, c = shape
    strides = (h * w * c * itemsize, w * c * itemsize, c * itemsize, itemsize)
    return (shape, *_by_window(shape, strides, pool.kernel, pool.stride))


def _geometry(spec: LayerSpec, shape: tuple, itemsize: int) -> _Geometry:
    """The geometry of conv2d ``spec`` on an NHWC input of ``shape`` whose
    elements take ``itemsize`` bytes, worked out once.

    Element [n, i, j, a, bb, ch] of the im2col view is
    padded[n, i*s + a, j*s + bb, ch].  A conv with a pool builds its patch
    matrix from ``patches``, the im2col view with its (oh, ow) dims
    regrouped by the pool's window position (``_by_window``), so its output
    rows come as k*k contiguous slabs, one per window position; rows that no
    window covers are left out.  Without a pool ``patches`` is the im2col
    view itself.  ``grouping`` views the conv's NHWC output the same way, to
    scatter its gradient back to NHWC rows.

    Copied straight from the padded input, transposed pooled patches go one
    pooled row at a time (ow/ps elements at stride t = s*ps, for pool
    stride ps).  So they are copied in two passes: ``by_offset`` views the
    padded input as (v, u, b, oh/ps, ow/ps, c), element [v, u, n, i, j, ch]
    being padded[n, i*t + u, j*t + v, ch], for every row and column offset
    that a pooling window's patches read; ``patches`` then views that copy,
    in which the (sample, row, column) block of each patch element is
    contiguous.
    """
    b, h, w, c = shape
    k, s, p = spec.kernel, spec.stride, spec.padding
    oh, ow = conv_output_hw(h, w, k, s, p)
    hp, wp = h + 2 * p, w + 2 * p
    sw = c * itemsize
    sh = wp * sw
    view = ((b, oh, ow, k, k, c), (hp * sh, s * sh, s * sw, sh, sw, itemsize))
    out_shape = (b, oh, ow, spec.out_channels)
    patches, grouping, by_offset = view, None, None
    if spec.pool is not None:
        pk, ps = spec.pool.kernel, spec.pool.stride
        grouping = _pool_grouping(out_shape, itemsize, spec.pool)
        _, _, _, ph, pw, _ = grouping[1]
        out_shape = (pk * pk, b, ph, pw, spec.out_channels)
        patches = _by_window(*view, pk, ps)
        if _transposed_patches(spec):
            t, v = s * ps, (pk - 1) * s + k
            by_offset = ((v, v, b, ph, pw, c), (sw, sh, hp * sh, t * sh, t * sw, itemsize))
            sj = c * itemsize  # the copy's strides along j, n and u
            sn = ph * pw * sj
            su = b * sn
            patches = (patches[0], (s * su, s * v * su, sn, pw * sj, sj, su, v * su, itemsize))
    return _Geometry(
        out_shape=out_shape,
        padded=(b, hp, wp, c),
        interior=(slice(None), slice(p, p + h), slice(p, p + w)),
        patches=patches,
        by_offset=by_offset,
        grouping=grouping)


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


def _strided(a: np.ndarray, shape: tuple, strides: tuple) -> np.ndarray:
    """A view of C-contiguous ``a``; built on its buffer directly, which
    costs far less per call than numpy's as_strided."""
    return np.ndarray(shape, a.dtype, a, 0, strides)


def _windows(src: np.ndarray, geo: _Geometry, transposed: bool, offsets) -> tuple:
    """The by-offset view of ``src`` (None without ``offsets``) and the
    im2col window view of ``offsets`` or else ``src``, patch element dims
    first with ``transposed``."""
    by_offset = None if offsets is None else _strided(src, *geo.by_offset)
    win = _strided(src if offsets is None else offsets, *geo.patches)
    if transposed:
        d = win.ndim - 3
        win = win.transpose(d, d + 1, d + 2, *range(d))
    return by_offset, win


def _bind_im2col(work: dict, geo: _Geometry, transposed: bool, prefix: str = "") -> tuple:
    """_im2col's views of ``work[prefix + name]``, bound once: the interior
    of "padded" (None for an unpadded conv), the _windows over it, "offsets"
    and the 2-D patch matrix of "cols"."""
    padded, offsets, cols = (work.get(prefix + name) for name in ("padded", "offsets", "cols"))
    windows = (None, None) if padded is None else _windows(padded, geo, transposed, offsets)
    kk = math.prod(geo.patches[0][-3:])
    return (geo, transposed, None if padded is None else padded[geo.interior], *windows,
            offsets, cols, cols.reshape(kk, -1).T if transposed else cols.reshape(-1, kk))


def _im2col(x: np.ndarray, bound: tuple) -> np.ndarray:
    """The (N, k*k*c) patch matrix of x, columns in (a, bb, channel) order,
    rows in the order of ``geo.patches``: one copy of a window of x through
    the views ``bound`` by _bind_im2col.  With ``transposed`` it is the
    transpose of a C-ordered (K, N) buffer."""
    geo, transposed, interior, by_offset, window, offsets, cols, mat = bound
    if interior is None:  # an unpadded conv reads the window of its input itself
        by_offset, window = _windows(np.ascontiguousarray(x), geo, transposed, offsets)
    else:
        np.copyto(interior, x)
    if offsets is not None:
        np.copyto(offsets, by_offset)
    np.copyto(cols, window)
    return mat


class _GradConv(NamedTuple):
    """conv2d's input gradient as one stride-1 convolution (see _grad_conv)."""

    crop: tuple           # the rows and columns of the output gradient it reads
    geo: _Geometry        # its D x D patches over the zero-bordered crop
    taps: np.ndarray      # int32 (D*D*c_out, n*n*c_in) index of the flipped taps (see below)
    split: tuple          # the product as (b, rows, cols, n, n, c_in): n phases per axis
    covered: slice        # the n phases per axis that some tap reaches
    interior: tuple       # the input gradient inside the (b, rows*s, cols*s, c_in) interleave


def _grad_conv(spec: LayerSpec, padded: tuple, itemsize: int) -> _GradConv:
    """The input gradient of ``spec`` on an input whose zero-bordered shape
    is ``padded``, as a stride-1 convolution of the output gradient.

    Per axis, phase e of input row r = M*s + e - off takes kernel row
    a = e + p - off + s*(L - u) from output row M + u - L, for each row u of
    a D-row window with 0 <= a < k.  No window is shorter than D = ceil(k/s)
    rows, and D is enough when (p - off) % s is 0 or above (k - 1) % s,
    which also keeps the phases with a tap in one run.  Of those offsets
    the smallest is taken: it needs the fewest product rows.
    """
    k, s, p = spec.kernel, spec.stride, spec.padding
    b, hp, wp, c = padded
    h, w = hp - 2 * p, wp - 2 * p
    oh, ow = conv_output_hw(h, w, k, s, p)
    off = p % s if p % s <= (k - 1) % s else 0
    e = np.arange(s)
    e = e[(e + p - off) % s < k]  # the phases with a tap
    d = -(-k // s)
    top = int(k - 1 - e[0] - p + off) // s  # L, the largest j of phase e[0]
    # the kernel row of window row u and phase e; k where the phase has no tap
    a = e + p - off + s * (top - np.arange(d)[:, None])
    a = np.where((0 <= a) & (a < k), a, k)

    def axis(size, out):
        # product rows M enough to cover the input, the output-gradient rows
        # M + u - L they read, and where those sit in the zero-bordered crop
        rows = (size + off - 1) // s + 1
        lo = max(0, -top)
        hi = max(lo, min(out, rows + d - 1 - top))
        return rows, slice(lo, hi), slice(lo + top, hi + top)

    (mh, rows, inner_rows), (mw, cols, inner_cols) = axis(h, oh), axis(w, ow)
    co, n = spec.out_channels, len(e)
    inner = LayerSpec("conv2d", kernel=d, in_channels=co, out_channels=n * n * c, bias=False)
    geo = _geometry(inner, (b, mh + d - 1, mw + d - 1, co), itemsize)._replace(
        interior=(slice(None), inner_rows, inner_cols))
    return _GradConv(
        crop=(slice(None), rows, cols),
        geo=geo,
        taps=_tap_index(spec, a),
        split=(b, mh, mw, n, n, c),
        covered=slice(int(e[0]), int(e[-1]) + 1),
        interior=(slice(None), slice(off, off + h), slice(off, off + w)))


def _tap_index(spec: LayerSpec, a: np.ndarray) -> np.ndarray:
    """The phases' flipped taps side by side, C-ordered (D, D, c_out, n, n,
    c_in), as the flat index of tap (a[u, e1], a[v, e2]) in the (k, k, c_in,
    c_out) weight, or k*k*c_in*c_out, one past it (a zero), where a phase has
    no tap; ``a`` is the (D, n) kernel rows of _grad_conv."""
    k, c, co = spec.kernel, spec.in_channels, spec.out_channels
    d, n = a.shape
    ar = a[:, None, None, :, None, None]
    ac = a[None, :, None, None, :, None]
    taps = ((ar * k + ac) * c + np.arange(c)) * co + np.arange(co)[:, None, None, None]
    taps = np.where((ar < k) & (ac < k), taps, k * k * c * co).astype(np.int32)
    taps = taps.reshape(d * d * co, n * n * c)
    taps.flags.writeable = False
    return taps


def _eval_block_samples(spec: LayerSpec, rows: int, itemsize: int) -> int:
    """Fewest samples in one block of conv2d without a cache, for ``rows``
    patch rows per sample: enough to fill EVAL_BLOCK_BYTES of patch matrix
    of ``itemsize``-byte elements, and to lift the block's product above
    SMALL_GEMM_MNK multiply-adds."""
    k = spec.kernel ** 2 * spec.in_channels
    return max(EVAL_BLOCK_BYTES // (rows * k * itemsize),
               SMALL_GEMM_MNK // (rows * k * spec.out_channels) + 1)


def _add_bias(out: np.ndarray, bias: np.ndarray) -> None:
    """out += bias over the rows of an (n, c) output.  An output of at least
    BIAS_TILE_ELEMENTS takes it as rows of 64*c against the bias tiled 64
    times: the same additions, with an inner loop 64 times longer."""
    n, c = out.shape
    wide = n - n % 64 if out.size >= BIAS_TILE_ELEMENTS else 0
    if wide:
        rows = out[:wide].reshape(-1, 64 * c)
        rows += np.tile(bias, 64)
    out[wide:] += bias


class Buffer(NamedTuple):
    """One array that a layer's kernels write, and how long it lives:
    "zeros" and "ones" are filled once and keep that fill wherever the
    kernels do not write; "fwd" and "bwd" are written in the forward or the
    backward call and die with it, unless they are its result (the output
    "out", the input gradient "gx"), which lives as long as the caller reads
    it; "cache" lives from forward to backward."""

    shape: tuple
    dtype: np.dtype
    life: str


class Layout(NamedTuple):
    """What one layer's kernels use on one input shape and dtype."""

    buffers: dict  # name -> Buffer; the output is "out" and the input gradient "gx"
    consts: dict  # index data the kernels reuse: the output shape, the conv geometry, ...
    keeps_input: bool  # whether the cache holds the input until backward


@lru_cache(maxsize=256)
def layout(spec: LayerSpec, shape: tuple, dtype: np.dtype, input_grad: bool = True,
           keep_cache: bool = True) -> Layout:
    """The buffers and index data of ``spec`` on an input of ``shape`` (each
    of a residual add's two) and ``dtype``.  Without ``input_grad`` a conv
    leaves out what only its input gradient uses; without ``keep_cache`` every
    kind leaves out what forward does not write, and a conv's "block" (m
    samples and their geometry) sizes its padded input, offsets and patches."""
    dtype = np.dtype(dtype)
    b = shape[0]
    if not b:
        raise ShapeError(f"{spec.kind} needs a nonempty batch, got shape {shape}")
    buffers, consts, keeps_input = {}, {"in_shape": shape}, False

    def add(name, buf_shape, life, buf_dtype=dtype):
        if keep_cache or life in ("fwd", "cache"):
            buffers[name] = Buffer(tuple(buf_shape), np.dtype(buf_dtype), life)

    if spec.kind == "input_norm":
        flat = (b, math.prod(shape[1:]))
        add("centered", flat, "cache")
        add("sq", flat, "fwd")
        add("out", shape, "fwd")
        add("t1", flat, "bwd")
        add("t2", flat, "bwd")
        add("gx", shape, "bwd")
    elif spec.kind == "conv2d":
        geo = _geometry(spec, shape, dtype.itemsize)
        rows = math.prod(geo.out_shape[:-1])
        n = 1 if keep_cache else max(1, b // _eval_block_samples(spec, rows // b, dtype.itemsize))
        m = -(-b // n)
        block = geo if m == b else _geometry(spec, (m, *shape[1:]), dtype.itemsize)
        transposed = _transposed_patches(spec)
        consts.update(geo=geo, block=(m, block), transposed=transposed)
        k, s, c, co = spec.kernel, spec.stride, spec.in_channels, spec.out_channels
        if geo.padded != shape:
            add("padded", block.padded, "zeros" if keep_cache else "fwd")
        if geo.by_offset is not None:
            add("offsets", block.by_offset[0], "fwd")
        win = block.patches[0]
        d = len(win) - 3
        add("cols", win[d:] + win[:d] if transposed else win, "cache")
        add("out", geo.out_shape, "fwd")
        if m < b and geo.grouping is not None:  # a block's product, copied into every slab
            add("prod", block.out_shape, "fwd")
        add("gw", (co, k * k * c), "bwd")
        if spec.bias:
            add("ones", (rows,), "ones")
        if input_grad and keep_cache:
            nhwc = geo.grouping[0] if geo.grouping is not None else geo.out_shape
            if geo.grouping is not None:
                add("ungrouped", nhwc, "zeros")
            if k == 1 and spec.padding == 0:
                add("wt", (co, c), "bwd")
                add("gprod", (math.prod(nhwc[:-1]), c), "bwd")
                add("gx", shape, "zeros")
            else:
                gc = _grad_conv(spec, geo.padded, dtype.itemsize)
                consts["gc"] = gc
                crop = tuple(len(range(*sl.indices(n))) for sl, n in zip(gc.crop, nhwc))
                if gc.geo.padded != (*crop, co):
                    add("gpadded", gc.geo.padded, "zeros")
                add("gcols", gc.geo.patches[0], "bwd")
                add("wz", (k * k * c * co + 1,), "zeros")
                add("taps", gc.taps.shape, "bwd")
                _, mh, mw, n, _, _ = gc.split
                if s == 1:
                    add("gx", (b, mh, mw, c), "bwd")
                else:
                    add("gprod", (b * mh * mw, n * n * c), "bwd")
                    add("gx", (b, mh, s, mw, s, c), "zeros" if n < s else "bwd")
    elif spec.kind == "maxpool2d":
        if len(shape) == 5:  # a pooled conv's slabs
            slabs, keeps_input = shape, True
        else:
            grouping = _pool_grouping(shape, dtype.itemsize, spec)
            consts["grouping"] = grouping
            slabs = (spec.kernel ** 2, *grouping[1][2:])
            add("slabs", slabs, "cache")
        y = slabs[1:]
        add("out", y, "cache")  # backward compares the slabs with it
        add("g", y, "bwd")
        add("unrouted", y, "bwd", bool)
        add("hit", y, "bwd", bool)
        if len(shape) == 5:
            add("gx", slabs, "bwd")
        else:
            add("gslabs", slabs, "bwd")
            add("gx", shape, "zeros")
    elif spec.kind == "relu":
        add("out", shape, "fwd")
        if keep_cache:
            add("mask", shape, "cache", bool)
        add("gx", shape, "bwd")
    elif spec.kind == "fc":
        keeps_input = True
        add("out", (b, spec.out_features), "fwd")
        if spec.bias:
            add("ones", (b,), "ones")
        add("gx", shape, "bwd")
    elif spec.kind == "gap":
        add("out", (b, shape[3]), "fwd")
        add("gx", shape, "bwd")
    else:  # a residual add passes its output gradient back as both input gradients
        add("out", shape, "fwd")
    consts["out_shape"] = buffers["out"].shape
    return Layout(buffers, consts, keeps_input)


def bind(spec: LayerSpec, work: dict) -> dict:
    """``work``, the index data and buffers of ``spec``'s layout, with the
    views that its kernels read bound beside them (see the module docstring)."""
    if spec.kind == "conv2d":
        b, co = work["in_shape"][0], spec.out_channels
        geo, (m, bgeo) = work["geo"], work["block"]
        work["im2col"] = _bind_im2col(work, bgeo, work["transposed"])
        work["out2d"] = work["out"].reshape(-1, co)
        # the output's rows: one slab, or one per window position of the pool, each
        # r rows per sample; per block of m samples, its product's rows and slab copy
        slab_rows = work["out2d"].reshape(geo.out_shape[0] if spec.pool else 1, -1, co)
        r, blocks = slab_rows.shape[1] // b, []
        for s0 in (min(s0, b - m) for s0 in range(0, b, m)):  # the last overlaps the one before
            block = slab_rows[:, s0 * r:(s0 + m) * r]
            prod = work.get("prod", block)  # a pooled block spans every slab
            blocks.append((slice(s0, s0 + m), prod.reshape(-1, co),
                           None if prod is block else (block, prod.reshape(block.shape))))
        work["blocks"] = blocks
        if "gw" in work:
            work["gw_copy"] = work["grads"][0].reshape(-1, co), work["gw"].T
        if geo.grouping is not None and "gx" in work:
            work["ungroup"] = _strided(work["ungrouped"], *geo.grouping[1:])
        if "gc" in work:
            gc, gx, s = work["gc"], work["gx"], spec.stride
            work["gim2col"] = _bind_im2col(work, gc.geo, False, "g")
            work["wz_head"] = work["wz"][:-1]
            b, mh, mw, _, _, c = gc.split
            work["input_grad"] = (gx.reshape(-1, c), None, gx) if s == 1 else (
                work["gprod"], (gx[:, :, gc.covered, :, gc.covered],
                                work["gprod"].reshape(gc.split).transpose(0, 1, 3, 2, 4, 5)),
                gx.reshape(b, mh * s, mw * s, c)[gc.interior])
        elif "gx" in work:  # an unpadded 1x1 conv: every s-th row and column of gx
            view = work["gx"][:, ::spec.stride, ::spec.stride]
            work["input_grad"] = (work["gprod"], (view, work["gprod"].reshape(view.shape)),
                                  work["gx"])
    elif spec.kind == "maxpool2d":
        if "grouping" in work:  # an NHWC input, which one copy groups into slabs
            work["grouped"] = work["slabs"].reshape(work["grouping"][1])
        if "g" in work:
            gslabs = work["gslabs" if "grouping" in work else "gx"]
            bits = np.dtype(f"u{gslabs.itemsize}")
            work["g_bits"], work["slab_bits"] = work["g"].view(bits), [g.view(bits) for g in gslabs]
            if "grouping" in work:
                work["ungroup"] = _strided(work["gx"], *work["grouping"][1:])
    return work


def _fresh(spec: LayerSpec, lay: Layout) -> dict:
    """The work of a kernel call made without one: ``lay``'s index data and
    buffers and the parameter gradients ("grads"), allocated (and filled, as
    each life says) for this call alone, and bound; a buffer the call does
    not write costs no page."""
    work = dict(lay.consts)
    for name, (shape, dtype, life) in lay.buffers.items():
        work[name] = {"zeros": np.zeros, "ones": np.ones}.get(life, np.empty)(shape, dtype)
    work["grads"] = [np.empty(shape, lay.buffers["out"].dtype) for shape in param_shapes(spec)]
    return bind(spec, work)


def forward(spec: LayerSpec, params: list[np.ndarray], x, keep_cache: bool = True,
            work: dict | None = None):
    """Run the layer; returns (output, cache) with cache bound to this call,
    or (output, None) when ``keep_cache`` is false.

    ``work`` maps the names of ``layout(spec, input shape, input dtype,
    keep_cache=keep_cache)`` to its buffers and index data; the output is its
    "out" buffer and the cache holds its buffers, so the next call through
    the same work overwrites both.  Without it the call allocates its own."""
    kind = spec.kind
    if kind in ("input_norm", "gap") and x.ndim != 4:
        raise ShapeError(f"{kind} expects NHWC, got shape {x.shape}")
    if kind == "conv2d" and (x.ndim != 4 or x.shape[3] != spec.in_channels):
        raise ShapeError(f"conv2d expects NHWC with C={spec.in_channels}, got {x.shape}")
    if kind == "maxpool2d" and x.ndim != 4 and (x.ndim != 5 or x.shape[0] != spec.kernel ** 2):
        raise ShapeError(f"maxpool2d expects NHWC or its {spec.kernel ** 2} window-position "
                         f"slabs, got shape {x.shape}")
    if kind == "fc" and (x.ndim != 2 or x.shape[1] != spec.in_features):
        raise ShapeError(f"fc expects (batch, {spec.in_features}), got {x.shape}")
    inputs = x if kind == "residual_add" else (x,)
    if work is None:
        work = _fresh(spec, layout(spec, inputs[0].shape, inputs[0].dtype, False, keep_cache))
    for t in inputs:
        if t.shape != work["in_shape"]:
            raise ShapeError(f"{kind} laid out for input shape {work['in_shape']}, got {t.shape}")

    if kind == "input_norm":
        b = x.shape[0]
        flat = x.reshape(b, -1)
        n = flat.shape[1]
        # np.mean of float64 is this sum divided by the count, bit for bit
        mu = np.add.reduce(flat, axis=1, keepdims=True) / n
        centered = np.subtract(flat, mu, out=work["centered"])
        sq = np.square(centered, out=work["sq"])
        sigma = np.sqrt(np.add.reduce(sq, axis=1, keepdims=True) / n)
        y = work["out"]
        np.divide(centered, sigma + NORM_EPS, out=y.reshape(b, -1))
        cache = (spec, x.shape, centered, sigma)

    elif kind == "conv2d":
        wmat = params[0].reshape(-1, spec.out_channels)
        if not keep_cache and "padded" in work:
            work["padded"].fill(0)  # the block's border, which each block keeps
        # backward needs the whole patch matrix; without a cache it is built
        # in blocks of whole samples (see bind)
        for samples, prod, copy in work["blocks"]:
            cols = _im2col(x[samples], work["im2col"])
            np.matmul(cols, wmat, out=prod)
            if copy is not None:
                np.copyto(*copy)
        if spec.bias:
            _add_bias(work["out2d"], params[1])
        y = work["out"]
        cache = (spec, x.shape, cols, wmat)

    elif kind == "maxpool2d":
        slabs = x  # a pooled conv's output, already in slabs
        if x.ndim == 4:  # NHWC, copied once into slabs
            _, shape, strides = work["grouping"]
            np.copyto(work["grouped"], _strided(np.ascontiguousarray(x), shape, strides))
            slabs = work["slabs"]
        y = work["out"]
        np.copyto(y, slabs[0])
        for slab in slabs[1:]:
            # np.maximum returns its second operand when the two compare
            # equal, so the earlier window position keeps the signed zero
            np.maximum(slab, y, out=y)
        cache = (spec, x.shape, slabs, y)

    elif kind == "relu":
        y = np.maximum(x, 0.0, out=work["out"])
        cache = (spec, x.shape, np.greater(x, 0, out=work["mask"])) if keep_cache else None

    elif kind == "fc":
        wgt = params[0]
        y = np.matmul(x, wgt, out=work["out"])
        if spec.bias:
            y += params[1]
        cache = (spec, x.shape, x, wgt)

    elif kind == "gap":
        y = np.divide(np.add.reduce(x, axis=(1, 2)), x.shape[1] * x.shape[2], out=work["out"])
        cache = (spec, x.shape)

    else:  # a residual add (LayerSpec admits no other kind)
        a, b = x
        y = np.add(a, b, out=work["out"])
        cache = (spec, a.shape)
    return y, cache if keep_cache else None


def backward(spec: LayerSpec, cache, grad_out, input_grad: bool = True,
             work: dict | None = None):
    """Exact gradients of the forward pass: returns (grad_input, grad_params).

    For residual_add the grad_input is the (grad_a, grad_b) pair, both
    grad_out itself: no kind's backward writes to its grad_out.  Max pooling
    routes each window's gradient to the first-encountered argmax.  With
    input_grad=False, conv2d returns None as grad_input without computing
    it; the other kinds ignore the flag.  ``work`` is the forward's (see
    ``forward``); the gradients are its buffers.
    """
    if not isinstance(cache, tuple) or not cache or (cache[0] is not spec and cache[0] != spec):
        raise ShapeError("stale or mismatched cache for backward")
    kind = spec.kind
    if work is None:
        work = _fresh(spec, layout(spec, cache[1], grad_out.dtype, input_grad))
    if grad_out.shape != work["out_shape"]:
        raise ShapeError(f"grad shape {grad_out.shape} != output shape {work['out_shape']}")

    if kind == "input_norm":
        _, x_shape, centered, sigma = cache
        b = x_shape[0]
        g = grad_out.reshape(b, -1)
        n = g.shape[1]
        denom = sigma + NORM_EPS
        gc = np.subtract(g, np.add.reduce(g, axis=1, keepdims=True) / n, out=work["t1"])
        gc /= denom
        dot = np.multiply(g, centered, out=work["t2"]).sum(axis=1, keepdims=True)
        safe_sigma = np.where(sigma > 0.0, sigma, 1.0)
        scale = np.where(sigma > 0.0, dot / (denom ** 2 * n * safe_sigma), 0.0)
        gx = work["gx"]
        np.subtract(gc, np.multiply(centered, scale, out=work["t2"]), out=gx.reshape(b, -1))
        return gx, []

    if kind == "conv2d":
        _, _, cols, wmat = cache
        # with a pool, rows (of grad_out and cols alike) come in slabs
        gmat = grad_out.reshape(-1, spec.out_channels)
        # this order, unlike cols.T @ gmat, gives both patch layouts equal
        # sgemm bits; the weight gradient takes the product transposed
        np.matmul(gmat.T, cols, out=work["gw"])
        np.copyto(*work["gw_copy"])
        grads = work["grads"]
        if spec.bias:
            np.matmul(work["ones"], gmat, out=grads[1])
        if not input_grad:
            return None, grads
        if "ungroup" in work:  # back to NHWC, where no window covers it +0.0
            np.copyto(work["ungroup"], grad_out.reshape(work["ungroup"].shape))
            grad_out = work["ungrouped"]
        # one product: its target, its interleave into gx (or None) and gx
        prod, scatter, gx = work["input_grad"]
        if "gc" in work:
            gc = work["gc"]
            cols = _im2col(grad_out[gc.crop], work["gim2col"])
            # the flipped taps gathered from the flat weight and one zero after it
            np.copyto(work["wz_head"], wmat.reshape(-1))
            wgt = work["wz"].take(gc.taps, out=work["taps"], mode="clip")  # "raise" buffers out
        else:
            # an unpadded 1x1 conv: one product, written at the input
            # positions the windows read; the others keep the buffer's +0.0
            cols, wgt = grad_out.reshape(-1, spec.out_channels), work["wt"]
            np.copyto(wgt, wmat.T)
        np.matmul(cols, wgt, out=prod)
        if scatter is not None:
            np.copyto(*scatter)
        return gx, grads

    if kind == "maxpool2d":
        _, _, slabs, y = cache
        # each window's gradient goes to the first slab holding its max, with
        # + 0.0 as in a sum from +0.0.  Its bits are multiplied by the 0/1
        # hit mask, so every other element is +0.0 even where the gradient
        # is not finite
        np.add(grad_out, 0.0, out=work["g"])
        g, unrouted, hit = work["g_bits"], work["unrouted"], work["hit"]
        unrouted.fill(True)
        for slab, gslab in zip(slabs, work["slab_bits"]):
            np.equal(slab, y, out=hit)
            hit &= unrouted
            unrouted ^= hit
            np.multiply(g, hit, out=gslab)
        if "ungroup" in work:  # back to NHWC, where no window covers it +0.0
            np.copyto(work["ungroup"], work["gslabs"].reshape(work["ungroup"].shape))
        return work["gx"], []

    if kind == "relu":
        _, _, mask = cache
        return np.multiply(grad_out, mask, out=work["gx"]), []

    if kind == "fc":
        _, _, x, wgt = cache
        grads = work["grads"]
        np.matmul(x.T, grad_out, out=grads[0])
        if spec.bias:
            np.matmul(work["ones"], grad_out, out=grads[1])
        return np.matmul(grad_out, wgt.T, out=work["gx"]), grads

    if kind == "gap":
        _, (_, h, w, _) = cache
        return np.divide(grad_out[:, None, None, :], h * w, out=work["gx"]), []

    return (grad_out, grad_out), []  # a residual add (LayerSpec admits no other kind)
