import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dflsim import model as M
from dflsim import tensor as T
from fdcheck import _default_instance, grad_check


def make_conv(kernel=3, stride=1, padding=1, cin=2, cout=3, bias=True, pool=None):
    return T.LayerSpec("conv2d", kernel=kernel, stride=stride, padding=padding,
                       in_channels=cin, out_channels=cout, bias=bias, pool=pool)


def make_pool(kernel, stride, padding=0):
    return T.LayerSpec("maxpool2d", kernel=kernel, stride=stride, padding=padding)


def conv_id(geom):
    spec, h, w = geom
    pool = f"_pool{spec.pool.kernel}s{spec.pool.stride}" if spec.pool is not None else ""
    return (f"k{spec.kernel}s{spec.stride}p{spec.padding}c{spec.in_channels}"
            f"o{spec.out_channels}b{int(spec.bias)}_{h}x{w}{pool}")


EXTRA_CONV_GEOMETRIES = [
    (make_conv(kernel=3, stride=2, padding=1, cin=3, cout=2), 7, 9),
    (make_conv(kernel=3, stride=1, padding=0, cin=4, cout=5), 9, 6),
    (make_conv(kernel=3, stride=2, padding=1, cin=1, cout=4), 11, 8),
    (make_conv(kernel=3, stride=2, padding=1, cin=1, cout=16), 11, 8),
    (make_conv(kernel=2, stride=1, padding=0, cin=1, cout=3, bias=False), 5, 7),
    (make_conv(kernel=2, stride=1, padding=0, cin=1, cout=8, bias=False), 5, 7),
    (make_conv(kernel=3, stride=1, padding=1, cin=6, cout=1), 8, 5),
    (make_conv(kernel=3, stride=1, padding=2, cin=1, cout=1), 6, 6),
    (make_conv(kernel=1, stride=3, padding=0, cin=2, cout=1), 10, 7),
    # input-gradient phases: three taps on one and two on the other (k5/s2);
    # one tap on each of three, a shorter window from offset 1 (k3/s3, and
    # k4/s2); two of three, one run only from offset 1 (k2/s3); one of
    # nine, the rest +0.0 (k1/s3 above)
    (make_conv(kernel=5, stride=2, padding=2, cin=2, cout=3), 9, 10),
    (make_conv(kernel=3, stride=3, padding=1, cin=3, cout=2), 8, 7),
    (make_conv(kernel=4, stride=2, padding=1, cin=2, cout=2), 9, 8),
    (make_conv(kernel=2, stride=3, padding=1, cin=2, cout=3), 8, 10),
]


# each kind's cases: the layer, its input shape and the FADNet layer of
# that kind, if there is one
GRAD_SHAPE_CASES = {
    "input_norm": (T.LayerSpec("input_norm"), (2, 6, 6, 1), "norm"),
    "conv2d": (make_conv(stride=2), (2, 7, 6, 2), "block1.conv1"),
    "conv2d_1x1": (make_conv(kernel=1, stride=2, padding=0), (2, 7, 6, 2), "block1.shortcut"),
    "conv2d_pool": (make_conv(cin=1, cout=8, pool=make_pool(2, 2)), (2, 6, 6, 1), "stem.conv"),
    "maxpool2d_nhwc": (make_pool(2, 2), (2, 6, 6, 3), None),
    "maxpool2d_slabs": (make_pool(2, 2), (4, 2, 3, 3, 8), "stem.pool"),
    "relu": (T.LayerSpec("relu"), (2, 4, 4, 3), "block1.relu"),
    "fc": (T.LayerSpec("fc", in_features=5, out_features=3), (2, 5), "tail.fc"),
    "gap": (T.LayerSpec("gap"), (2, 3, 3, 4), "branch1.gap"),
    "residual_add": (T.LayerSpec("residual_add"), (2, 4, 4, 3), "block1.add"),
}


@pytest.fixture(scope="module")
def toy_training_forward():
    """A batch-2 toy fadnet workspace after one training forward pass, and
    the caches that pass kept."""
    work = M.Workspace("fadnet", M.TOY_CONFIG, 2)
    np.copyto(work.params, M.init_params("fadnet", M.TOY_CONFIG, 0))
    work.inputs[...] = np.random.default_rng(0).standard_normal(work.inputs.shape)
    caches = {}
    M._forward("fadnet", M.TOY_CONFIG, work, caches)
    return work, caches


class TestForwardExamples:
    def test_gap_is_spatial_mean(self):
        x = np.array([[[[1.0], [2.0]], [[3.0], [4.0]]]])
        out, _ = T.forward(T.LayerSpec("gap"), [], x)
        assert out.tolist() == [[2.5]]

    def test_relu_definition(self):
        out, _ = T.forward(T.LayerSpec("relu"), [], np.array([-1.0, 0.0, 2.0]))
        assert out.tolist() == [0.0, 0.0, 2.0]

    def test_fc_identity(self):
        spec = T.LayerSpec("fc", in_features=4, out_features=4)
        x = np.arange(8.0).reshape(2, 4)
        out, _ = T.forward(spec, [np.eye(4), np.zeros(4)], x)
        assert np.array_equal(out, x)

    def test_residual_add(self):
        a = np.ones((1, 2, 2, 1))
        b = 2 * np.ones((1, 2, 2, 1))
        out, _ = T.forward(T.LayerSpec("residual_add"), [], (a, b))
        assert np.all(out == 3.0)

    def test_maxpool_first_index_wins_ties(self):
        spec = T.LayerSpec("maxpool2d", kernel=2, stride=2)
        x = np.full((1, 2, 2, 1), 7.0)
        out, cache = T.forward(spec, [], x)
        assert out[0, 0, 0, 0] == 7.0
        gx, _ = T.backward(spec, cache, np.ones((1, 1, 1, 1)))
        # all gradient lands on the first window position
        assert gx[0, 0, 0, 0] == 1.0
        assert gx.sum() == 1.0

    def test_input_norm_standardizes(self):
        x = np.random.default_rng(0).normal(3.0, 2.0, (2, 4, 4, 1))
        out, _ = T.forward(T.LayerSpec("input_norm"), [], x)
        flat = out.reshape(2, -1)
        assert np.allclose(flat.mean(axis=1), 0.0, atol=1e-12)
        assert np.allclose(flat.std(axis=1), 1.0, atol=1e-4)


class TestBackwardExamples:
    def test_gap_backward_uniform(self):
        x = np.arange(4.0).reshape(1, 2, 2, 1)
        spec = T.LayerSpec("gap")
        _, cache = T.forward(spec, [], x)
        gx, _ = T.backward(spec, cache, np.array([[1.0]]))
        assert gx.ravel().tolist() == [0.25, 0.25, 0.25, 0.25]

    def test_relu_backward_masks(self):
        x = np.array([-2.0, 0.0, 3.0])
        spec = T.LayerSpec("relu")
        _, cache = T.forward(spec, [], x)
        gx, _ = T.backward(spec, cache, np.array([5.0, 5.0, 5.0]))
        assert gx.tolist() == [0.0, 0.0, 5.0]

    def test_stale_cache_rejected(self):
        spec_a = T.LayerSpec("fc", in_features=3, out_features=2)
        spec_b = T.LayerSpec("fc", in_features=3, out_features=2, bias=False)
        x = np.ones((1, 3))
        _, cache = T.forward(spec_a, [np.ones((3, 2)), np.zeros(2)], x)
        with pytest.raises(T.ShapeError, match="cache"):
            T.backward(spec_b, cache, np.ones((1, 2)))

    @pytest.mark.parametrize("case", sorted(GRAD_SHAPE_CASES))
    def test_grad_shape_mismatch(self, case, toy_training_forward):
        # an output gradient one channel too wide, alone and, for a layer
        # FADNet has, through that layer's buffers in a training workspace
        spec, shape, layer = GRAD_SHAPE_CASES[case]
        rng = np.random.default_rng(0)
        x = rng.standard_normal(shape)
        params = [rng.standard_normal(s) for s in T.param_shapes(spec)]
        y, cache = T.forward(spec, params, (x, x) if spec.kind == "residual_add" else x)
        with pytest.raises(T.ShapeError, match="grad shape"):
            T.backward(spec, cache, np.ones((*y.shape[:-1], y.shape[-1] + 1)))
        if layer is None:
            return
        work, caches = toy_training_forward
        spec, lay = M._plan("fadnet", M.TOY_CONFIG)["specs"][layer], work.layers[layer]
        if layer not in caches:  # the norm, which backward does not reach
            caches[layer] = T.forward(spec, [], work.inputs, work=lay)[1]
        *rest, c = lay["out_shape"]
        with pytest.raises(T.ShapeError, match="grad shape"):
            T.backward(spec, caches[layer], np.ones((*rest, c + 1), np.float32), work=lay)


class TestGradCheck:
    def test_fc(self):
        assert grad_check(T.LayerSpec("fc", in_features=6, out_features=4), seed=7) < 1e-6

    def test_conv2d(self):
        assert grad_check(make_conv(), seed=7) < 1e-4

    def test_gap(self):
        assert grad_check(T.LayerSpec("gap"), seed=7) < 1e-8

    def test_conv2d_feeding_a_pool(self):
        # the output in window-position slabs, without rows and columns 2
        # and 5 of 6, which no k2/s3 window covers
        assert grad_check(make_conv(cin=1, cout=8, pool=make_pool(2, 3)), seed=7) < 1e-4

    @pytest.mark.parametrize("geom", EXTRA_CONV_GEOMETRIES, ids=conv_id)
    def test_conv2d_geometries(self, geom):
        spec, h, w = geom
        assert grad_check(spec, seed=5, size=(h, w)) < 1e-4

    @pytest.mark.parametrize("spec", [
        T.LayerSpec("input_norm"),
        make_conv(kernel=3, stride=2, padding=1, cin=3, cout=2),
        make_conv(kernel=1, stride=2, padding=0, cin=2, cout=4),
        make_conv(kernel=3, stride=1, padding=1, cin=1, cout=2, bias=False),
        T.LayerSpec("maxpool2d", kernel=2, stride=2),
        T.LayerSpec("maxpool2d", kernel=3, stride=3),
        T.LayerSpec("relu"),
        T.LayerSpec("fc", in_features=5, out_features=2, bias=False),
        T.LayerSpec("residual_add"),
    ])
    def test_all_layer_kinds(self, spec):
        assert grad_check(spec, seed=11) < 1e-4


class TestShapeAlgebra:
    @settings(max_examples=60, deadline=None)
    @given(h=st.integers(4, 20), w=st.integers(4, 20), k=st.integers(1, 3),
           s=st.integers(1, 3), p=st.integers(0, 2), cin=st.integers(1, 3),
           cout=st.integers(1, 3))
    def test_conv_output_formula(self, h, w, k, s, p, cin, cout):
        if h + 2 * p < k or w + 2 * p < k:
            return
        spec = make_conv(kernel=k, stride=s, padding=p, cin=cin, cout=cout)
        x = np.zeros((1, h, w, cin))
        params = [np.zeros(sh) for sh in T.param_shapes(spec)]
        out, _ = T.forward(spec, params, x)
        assert out.shape == (1, (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1, cout)

    def test_empty_batch_rejected(self):
        # its layout has no blocks of whole samples to size, with or without a cache
        spec = make_conv(cin=1, cout=8, pool=make_pool(2, 2))
        params = [np.zeros(s) for s in T.param_shapes(spec)]
        for keep_cache in (True, False):
            with pytest.raises(T.ShapeError, match="nonempty batch"):
                T.forward(spec, params, np.zeros((0, 6, 6, 1)), keep_cache=keep_cache)

    def test_too_small_input_rejected(self):
        spec = make_conv(kernel=5, stride=1, padding=0, cin=1, cout=1)
        with pytest.raises(T.ShapeError):
            T.forward(spec, [np.zeros(s) for s in T.param_shapes(spec)],
                      np.zeros((1, 3, 3, 1)))

    def test_wrong_channels_rejected(self):
        spec = make_conv(cin=2, cout=1)
        with pytest.raises(T.ShapeError, match="C=2"):
            T.forward(spec, [np.zeros(s) for s in T.param_shapes(spec)],
                      np.zeros((1, 6, 6, 3)))

    @pytest.mark.parametrize("spec, shape", [
        (T.LayerSpec("input_norm"), (6, 6, 1)),
        (make_conv(), (6, 6, 2)),
        (make_pool(2, 2), (6, 6, 3)),
        (T.LayerSpec("fc", in_features=5, out_features=3), (2, 1, 5)),
        (T.LayerSpec("gap"), (3, 3, 4)),
    ], ids=lambda v: v.kind if isinstance(v, T.LayerSpec) else "x".join(map(str, v)))
    def test_input_of_the_wrong_rank_rejected(self, spec, shape):
        # checked before the call looks up its layout for that shape
        with pytest.raises(T.ShapeError, match="expects"):
            T.forward(spec, [np.zeros(s) for s in T.param_shapes(spec)], np.zeros(shape))

    @pytest.mark.parametrize("train", [True, False], ids=["train", "infer"])
    @pytest.mark.parametrize("layer", ["block1.relu", "block1.conv1", "tail.fc", "block1.add"])
    def test_input_of_another_shape_than_the_layout_rejected(self, layer, train):
        # through a toy workspace's layer dicts: an input one column (the fc:
        # one sample) larger than its layout's, which numpy would otherwise
        # broadcast into the buffers or refuse with a bare ValueError; either
        # of a residual add's two inputs
        work = M.Workspace("fadnet", M.TOY_CONFIG, 2, train=train)
        spec, lay = M._plan("fadnet", M.TOY_CONFIG)["specs"][layer], work.layers[layer]
        shape = lay["in_shape"]
        right = np.zeros(shape, np.float32)
        wrong = np.zeros((*shape[:-2], shape[-2] + 1, shape[-1]), np.float32)
        said = re.escape(f"laid out for input shape {shape}, got {wrong.shape}")
        for x in ([(wrong, right), (right, wrong)] if spec.kind == "residual_add" else [wrong]):
            with pytest.raises(T.ShapeError, match=said):
                T.forward(spec, work.param_views[layer], x, keep_cache=train, work=lay)

    def test_only_a_conv_feeds_a_pool_without_overlap(self):
        # overlapping (k3/s2) and padded (k2/s2/p1) windows, standalone and
        # as a conv's pool
        for pool in ((3, 2), (2, 2, 1)):
            with pytest.raises(T.ShapeError, match="neither overlap .* nor pad"):
                make_pool(*pool)
            with pytest.raises(T.ShapeError, match="neither overlap .* nor pad"):
                make_conv(pool=make_pool(*pool))
        with pytest.raises(T.ShapeError, match="max pool"):
            T.LayerSpec("relu", pool=make_pool(2, 2))
        spec = make_pool(2, 2)
        with pytest.raises(T.ShapeError, match="slabs"):
            T.forward(spec, [], np.zeros((2, 1, 3, 3, 1)))

    @pytest.mark.parametrize("k,s,p", [(2, 1, 0), (3, 1, 0), (4, 3, 0), (3, 2, 1), (1, 1, 1)],
                             ids=lambda v: str(v))
    def test_overlapping_or_padded_pool_rejected(self, k, s, p):
        # every window a kernel > stride pool shares, and every padded pool,
        # is refused at construction, standalone and as a conv's pool
        with pytest.raises(T.ShapeError, match="neither overlap .* nor pad"):
            make_pool(k, s, p)
        with pytest.raises(T.ShapeError, match="neither overlap .* nor pad"):
            make_conv(pool=make_pool(k, s, p))

    def test_bad_specs_rejected(self):
        with pytest.raises(T.ShapeError):
            T.LayerSpec("conv2d", kernel=0, in_channels=1, out_channels=1)
        with pytest.raises(T.ShapeError):
            T.LayerSpec("fc", in_features=0, out_features=1)
        with pytest.raises(T.ShapeError):
            T.LayerSpec("warp")


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_gap_spatial_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, 3, 4, 2))
        flat = x.reshape(2, 12, 2)
        perm = rng.permutation(12)
        x_perm = flat[:, perm, :].reshape(2, 3, 4, 2)
        out_a, _ = T.forward(T.LayerSpec("gap"), [], x)
        out_b, _ = T.forward(T.LayerSpec("gap"), [], x_perm)
        assert np.allclose(out_a, out_b, atol=1e-12)

    def test_bit_identical_determinism(self):
        rng = np.random.default_rng(3)
        spec = make_conv()
        x = rng.standard_normal((2, 6, 6, 2))
        params = [rng.standard_normal(s) for s in T.param_shapes(spec)]
        out1, cache1 = T.forward(spec, params, x)
        out2, cache2 = T.forward(spec, params, x)
        assert np.array_equal(out1, out2)
        g = rng.standard_normal(out1.shape)
        gx1, gp1 = T.backward(spec, cache1, g)
        gx2, gp2 = T.backward(spec, cache2, g)
        assert np.array_equal(gx1, gx2)
        for a, b in zip(gp1, gp2):
            assert np.array_equal(a, b)


def reference_maxpool(x, k, s):
    """Max pooling by patches and argmax: returns (y, arg) with arg the
    first window position holding the max."""
    b, h, w, c = x.shape
    oh, ow = (h - k) // s + 1, (w - k) // s + 1
    patches = np.empty((b, oh, ow, k * k, c), x.dtype)
    for a in range(k):
        for bb in range(k):
            patches[:, :, :, a * k + bb, :] = x[:, a:a + oh * s:s, bb:bb + ow * s:s, :]
    arg = np.argmax(patches, axis=3)
    y = np.take_along_axis(patches, arg[:, :, :, None, :], axis=3)[:, :, :, 0, :]
    return y, arg


def reference_maxpool_backward(x_shape, arg, k, s, grad_out):
    """Each input element sums its terms in float64, in window-position
    order, and is rounded once to the gradient's dtype."""
    oh, ow = arg.shape[1], arg.shape[2]
    gx = np.zeros(x_shape)
    for idx in range(k * k):
        a, bb = divmod(idx, k)
        gx[:, a:a + oh * s:s, bb:bb + ow * s:s, :] += grad_out * (arg == idx)
    return gx.astype(grad_out.dtype)


def strided_views(x, k, s, oh, ow):
    return [x[:, a:a + oh * s:s, bb:bb + ow * s:s, :] for a in range(k) for bb in range(k)]


def reference_routed_maxpool_backward(x, y, k, s, grad_out):
    """The max-pool backward by hit routing over strided views: each view
    routes to the first not-yet-routed position equal to y, with a strided
    += per view into a float64 sum, rounded once at the end."""
    _, oh, ow, _ = y.shape
    gx = np.zeros(x.shape)
    unrouted = np.ones(y.shape, dtype=bool)
    for view, gview in zip(strided_views(x, k, s, oh, ow), strided_views(gx, k, s, oh, ow)):
        hit = (view == y) & unrouted
        unrouted ^= hit
        gview += grad_out * hit
    return gx.astype(grad_out.dtype)


def reference_conv(spec, params, x, grad_out):
    """The np.pad + np.stack im2col, matrix-product conv, its input gradient
    as the transposed convolution reference_input_grad, and a ones-vector
    bias gradient: (y, gx, [gw, gb])."""
    k, s, p = spec.kernel, spec.stride, spec.padding
    b, h, w, c = x.shape
    oh, ow = T.conv_output_hw(h, w, k, s, p)
    xp = np.pad(x, ((0, 0), (p, p), (p, p), (0, 0))) if p else x
    cols = np.stack(strided_views(xp, k, s, oh, ow), axis=3).reshape(b * oh * ow, k * k * c)
    wmat = params[0].reshape(-1, spec.out_channels)
    out = cols @ wmat
    if spec.bias:
        out += params[1]
    gmat = grad_out.reshape(-1, spec.out_channels)
    grads = [(cols.T @ gmat).reshape(params[0].shape)]
    if spec.bias:
        grads.append(np.ones(len(gmat), gmat.dtype) @ gmat)
    gx = reference_input_grad(spec, params[0], h, w, grad_out)
    return out.reshape(b, oh, ow, spec.out_channels), gx, grads


def reference_input_grad(spec, wgt, h, w, grad_out):
    """The conv input gradient as one stride-1 convolution of the output
    gradient, written out plainly.

    Per axis, phase e of input row r = M*s + e - off takes kernel row
    a = e + p - off + s*j from output row M - j.  The offset is the
    smallest that keeps the phases with taps in one run and their j within
    D = ceil(k/s) values; window row u = L - j, L the largest j.  The
    gradient is padded so that its D x D windows at stride 1 start at
    output row M - L; their patch matrix times the phases' flipped taps,
    stacked side by side, gives every phase, which is then dilated into
    place."""
    k, s, p = spec.kernel, spec.stride, spec.padding
    b, oh, ow, co = grad_out.shape
    ci = wgt.shape[2]
    off = p % s if p % s <= (k - 1) % s else 0
    phases = [e for e in range(s) if (e + p - off) % s < k]
    d = -(-k // s)
    top = (k - 1 - phases[0] - p + off) // s
    n = len(phases)
    stacked = np.zeros((d, d, co, n, n, ci), grad_out.dtype)
    for u in range(d):
        for v in range(d):
            for i, e in enumerate(phases):
                for j, f in enumerate(phases):
                    a, bb = e + p - off + s * (top - u), f + p - off + s * (top - v)
                    if 0 <= a < k and 0 <= bb < k:
                        stacked[u, v, :, i, j, :] = wgt[a, bb].T
    mh, mw = (h + off - 1) // s + 1, (w + off - 1) // s + 1
    lead = max(top, 0)
    gp = np.pad(grad_out, ((0, 0), (lead, mh + d + p), (lead, mw + d + p), (0, 0)))
    gp = gp[:, lead - top:lead - top + mh + d - 1, lead - top:lead - top + mw + d - 1]
    cols = np.stack(strided_views(gp, d, 1, mh, mw), axis=3).reshape(b * mh * mw, -1)
    prod = (cols @ stacked.reshape(d * d * co, n * n * ci)).reshape(b, mh, mw, n, n, ci)
    dilated = np.zeros((b, mh * s, mw * s, ci), grad_out.dtype)
    for i, e in enumerate(phases):
        for j, f in enumerate(phases):
            dilated[:, e::s, f::s] = prod[:, :, :, i, j]
    return dilated[:, off:off + h, off:off + w]


def col2im_conv_grads(spec, params, x, grad_out):
    """The input gradient and (with a bias) the bias gradient by the
    view-loop col2im and gmat.sum(axis=0) that the transposed convolution
    and the ones-vector product replaced."""
    k, s, p = spec.kernel, spec.stride, spec.padding
    b, h, w, c = x.shape
    oh, ow = T.conv_output_hw(h, w, k, s, p)
    gmat = grad_out.reshape(-1, spec.out_channels)
    gxp = np.zeros((b, h + 2 * p, w + 2 * p, c), x.dtype)
    g5 = (gmat @ params[0].reshape(-1, spec.out_channels).T).reshape(b, oh, ow, k * k, c)
    for i, view in enumerate(strided_views(gxp, k, s, oh, ow)):
        view += g5[:, :, :, i, :]
    return [gxp[:, p:h + p, p:w + p, :]] + ([gmat.sum(axis=0)] if spec.bias else [])


def toy_conv_geometries():
    """(spec, height, width) of every conv2d in the TOY_CONFIG fadnet; the
    stem conv without its pool, as an NHWC conv (POOLED_CONV_GEOMETRIES
    has it with the pool)."""
    cfg = M.TOY_CONFIG
    plan = M._plan("fadnet", cfg)
    specs, dims = plan["specs"], plan["dims"]
    geoms = [(dataclasses.replace(specs["stem.conv"], pool=None), cfg.input_height,
              cfg.input_width)]
    for h in range(1, M.N_BLOCKS + 1):
        (hi, wi, _), (ho, wo, _) = dims[h - 1], dims[h]
        geoms += [(specs[f"block{h}.conv1"], hi, wi), (specs[f"block{h}.shortcut"], hi, wi),
                  (specs[f"block{h}.conv2"], ho, wo)]
    return geoms


# convs that write their output in the slabs of the max pool they feed
POOLED_CONV_GEOMETRIES = [
    # the toy stem (transposed patches) and the narrow one (plain patches)
    (M._plan("fadnet", M.TOY_CONFIG)["specs"]["stem.conv"], 32, 32),
    (make_conv(kernel=3, stride=1, padding=1, cin=1, cout=2, pool=make_pool(2, 2)), 32, 32),
    # the pool drops the last row and column
    (make_conv(kernel=3, stride=1, padding=1, cin=1, cout=8, pool=make_pool(2, 2)), 9, 11),
    (make_conv(kernel=3, stride=1, padding=1, cin=1, cout=2, pool=make_pool(2, 2)), 9, 11),
    # rows and columns between windows, nine slabs, a one-element window
    (make_conv(kernel=3, stride=2, padding=1, cin=3, cout=4, pool=make_pool(2, 3)), 13, 10),
    (make_conv(kernel=3, stride=2, padding=1, cin=1, cout=8, pool=make_pool(2, 3)), 13, 10),
    (make_conv(kernel=3, stride=1, padding=1, cin=1, cout=16, pool=make_pool(3, 3)), 10, 8),
    (make_conv(kernel=1, stride=1, padding=0, cin=2, cout=8, bias=False,
               pool=make_pool(1, 2)), 7, 9),
]


def assert_same_bits(a, b):
    assert a.shape == b.shape
    assert a.dtype == b.dtype
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def transposed_conv_input_grad(spec, grad, weight, in_shape):
    """conv2d's general input gradient, which a 1x1 conv took before it
    became one product: the output gradient, zero-bordered, as patches of a
    stride-1 convolution with the phases' flipped taps (gathered from the
    flat weight and a zero by ``_grad_conv``'s index), interleaved by phase
    into a zero array."""
    dtype = grad.dtype
    geo = T._geometry(spec, in_shape, dtype.itemsize)
    gc = T._grad_conv(spec, geo.padded, dtype.itemsize)
    work = {"padded": np.zeros(gc.geo.padded, dtype), "cols": np.empty(gc.geo.patches[0], dtype)}
    cols = T._im2col(grad[gc.crop], T._bind_im2col(work, gc.geo, False))
    gx = cols @ np.concatenate([weight.ravel(), np.zeros(1, dtype)])[gc.taps]
    b, mh, mw, _, _, c = gc.split
    s = spec.stride
    buf = np.zeros((b, mh, s, mw, s, c), dtype)
    buf[:, :, gc.covered, :, gc.covered] = gx.reshape(gc.split).transpose(0, 1, 3, 2, 4, 5)
    return buf.reshape(b, mh * s, mw * s, c)[gc.interior]


class TestKernelEquivalence:
    """The window-view im2col (both patch layouts), the slab max pool and
    the input_grad=False conv backward give exactly the bits of the kernels
    they replaced or of plain references, and the conv input and bias
    gradients those of plain references of their definitions, at float64
    here and at float32 in the subclass below."""

    dtype = np.float64

    @pytest.mark.parametrize("k,s", [(2, 2), (3, 3), (2, 3)])
    @pytest.mark.parametrize("inputs", ["random", "ties", "signed_zeros"])
    def test_maxpool_matches_reference(self, k, s, inputs):
        dtype = self.dtype
        rng = np.random.default_rng(5)
        shape = (3, 9, 11, 4)
        if inputs == "random":
            x = rng.standard_normal(shape)
        elif inputs == "ties":
            x = rng.integers(-1, 2, shape).astype(np.float64)
        else:
            x = rng.choice([-0.0, 0.0, -1.0], shape)
        x = x.astype(dtype)
        spec = T.LayerSpec("maxpool2d", kernel=k, stride=s)
        y, cache = T.forward(spec, [], x)
        y_ref, arg = reference_maxpool(x, k, s)
        assert_same_bits(y, y_ref)
        grad = (rng.standard_normal(y.shape) * rng.choice([1.0, 0.0, -0.0], y.shape)).astype(dtype)
        gx, gparams = T.backward(spec, cache, grad)
        assert gparams == []
        assert_same_bits(gx, reference_maxpool_backward(x.shape, arg, k, s, grad))
        assert_same_bits(gx, reference_routed_maxpool_backward(x, y_ref, k, s, grad))

    @pytest.mark.parametrize("batch", [1, 4, 32])
    @pytest.mark.parametrize("geom", toy_conv_geometries() + EXTRA_CONV_GEOMETRIES,
                             ids=lambda g: f"k{g[0].kernel}s{g[0].stride}p{g[0].padding}"
                                           f"c{g[0].in_channels}o{g[0].out_channels}"
                                           f"b{int(g[0].bias)}_{g[1]}x{g[2]}")
    def test_conv_matches_reference(self, geom, batch):
        spec, h, w = geom
        dtype = self.dtype
        rng = np.random.default_rng(batch * 1000 + h * 10 + w)
        x = rng.standard_normal((batch, h, w, spec.in_channels)).astype(dtype)
        params = [rng.standard_normal(shape).astype(dtype) for shape in T.param_shapes(spec)]
        y, cache = T.forward(spec, params, x)
        grad = (rng.standard_normal(y.shape)
                * rng.choice([1.0, 1.0, 0.0, -0.0], y.shape)).astype(dtype)
        y_ref, gx_ref, grads_ref = reference_conv(spec, params, x, grad)
        assert_same_bits(y, y_ref)
        gx, grads = T.backward(spec, cache, grad)
        assert_same_bits(gx, gx_ref)
        assert len(grads) == len(grads_ref)
        for g, g_ref in zip(grads, grads_ref):
            assert_same_bits(g, g_ref)
        if dtype == np.float64:
            # the same sums as the col2im it replaced, in another order
            for got, old in zip([gx] + grads[1:], col2im_conv_grads(spec, params, x, grad)):
                assert np.abs(got - old).max() <= 1e-13 * np.abs(old).max()

    @pytest.mark.parametrize(
        "geom", toy_conv_geometries() + EXTRA_CONV_GEOMETRIES + POOLED_CONV_GEOMETRIES,
        ids=conv_id)
    def test_blocked_conv_matches_cached_forward(self, geom):
        spec, h, w = geom
        dtype = self.dtype
        itemsize = np.dtype(dtype).itemsize
        # the patch rows of one sample: its output rows, in every pool slab
        rows = int(np.prod(T._geometry(spec, (1, h, w, spec.in_channels), itemsize).out_shape[:-1]))
        block = T._eval_block_samples(spec, rows, itemsize)
        rng = np.random.default_rng(h * 10 + w)
        params = [rng.standard_normal(shape).astype(dtype) for shape in T.param_shapes(spec)]
        # one block, two equal blocks, and two blocks one sample apart
        for batch in (block - 1, 2 * block, 2 * block + 1):
            x = rng.standard_normal((batch, h, w, spec.in_channels)).astype(dtype)
            y_ref, _ = T.forward(spec, params, x)
            y, cache = T.forward(spec, params, x, keep_cache=False)
            assert cache is None
            assert_same_bits(y, y_ref)

    @pytest.mark.parametrize("keep_cache", [True, False], ids=["train", "infer"])
    @pytest.mark.parametrize("batch", [1, 4, 32])
    @pytest.mark.parametrize("geom", POOLED_CONV_GEOMETRIES, ids=conv_id)
    def test_pooled_conv_matches_conv_then_pool(self, geom, batch, keep_cache):
        spec, h, w = geom
        dtype = self.dtype
        nhwc = dataclasses.replace(spec, pool=None)
        k, s = spec.pool.kernel, spec.pool.stride
        rng = np.random.default_rng(batch * 1000 + h * 10 + w)
        x = rng.standard_normal((batch, h, w, spec.in_channels)).astype(dtype)
        params = [rng.standard_normal(shape).astype(dtype) for shape in T.param_shapes(spec)]
        slabs, cache = T.forward(spec, params, x, keep_cache=keep_cache)
        y, cache_ref = T.forward(nhwc, params, x, keep_cache=keep_cache)
        # slab a*k + bb holds window position (a, bb) of every window
        views = strided_views(y, k, s, *slabs.shape[2:4])
        assert slabs.shape[0] == len(views) == k * k
        for slab, view in zip(slabs, views):
            assert_same_bits(slab, view)
        pooled, pcache = T.forward(spec.pool, [], slabs, keep_cache=keep_cache)
        pooled_ref, pcache_ref = T.forward(spec.pool, [], y, keep_cache=keep_cache)
        assert_same_bits(pooled, pooled_ref)
        if not keep_cache:
            return

        grad = (rng.standard_normal(pooled.shape)
                * rng.choice([1.0, 0.0, -0.0], pooled.shape)).astype(dtype)
        gslabs, _ = T.backward(spec.pool, pcache, grad)
        gy, _ = T.backward(spec.pool, pcache_ref, grad)
        # the NHWC gradient is the slabs' gradient, +0.0 where no window reads
        scattered = np.zeros_like(gy)
        for view, gslab in zip(strided_views(scattered, k, s, *slabs.shape[2:4]), gslabs):
            view[...] = gslab
        assert_same_bits(scattered, gy)
        gx, grads = T.backward(spec, cache, gslabs)
        gx_ref, grads_ref = T.backward(nhwc, cache_ref, gy)
        assert_same_bits(gx, gx_ref)
        # the parameter gradients sum the same nonzero terms, in slab order
        tol = 1000 * np.finfo(dtype).eps
        assert len(grads) == len(grads_ref)
        for g, g_ref in zip(grads, grads_ref):
            assert g.dtype == g_ref.dtype and g.shape == g_ref.shape
            np.testing.assert_allclose(g, g_ref, rtol=tol, atol=tol * np.abs(g_ref).max())

    def test_no_cache_kept(self):
        rng = np.random.default_rng(3)
        for spec in (T.LayerSpec("relu"), T.LayerSpec("input_norm"),
                     T.LayerSpec("maxpool2d", kernel=2, stride=2)):
            x = rng.standard_normal((2, 4, 4, 3)).astype(self.dtype)
            y_ref, _ = T.forward(spec, [], x)
            y, cache = T.forward(spec, [], x, keep_cache=False)
            assert cache is None
            assert_same_bits(y, y_ref)

    def test_transposed_patches_cover_the_stem(self):
        # the bitwise conv test above runs both patch layouts
        geoms = toy_conv_geometries() + EXTRA_CONV_GEOMETRIES
        assert T._transposed_patches(geoms[0][0])
        assert sum(T._transposed_patches(spec) for spec, _, _ in geoms) == 3
        assert any(spec.in_channels == 1 and not T._transposed_patches(spec)
                   for spec, _, _ in geoms)

    def test_conv_backward_calls_no_forward(self, monkeypatch):
        # the tracer counts calls through the module attribute, as here
        calls = []
        forward = T.forward
        monkeypatch.setattr(T, "forward", lambda *a, **kw: calls.append(1) or forward(*a, **kw))
        rng = np.random.default_rng(4)
        for spec, h, w in toy_conv_geometries() + EXTRA_CONV_GEOMETRIES + POOLED_CONV_GEOMETRIES:
            x = rng.standard_normal((2, h, w, spec.in_channels)).astype(self.dtype)
            params = [rng.standard_normal(s).astype(self.dtype) for s in T.param_shapes(spec)]
            y, cache = forward(spec, params, x)
            T.backward(spec, cache, np.ones_like(y))
        assert calls == []

    @pytest.mark.parametrize("k,s", [(2, 2), (3, 3)])
    def test_infinite_gradient_lands_on_the_routed_elements_only(self, k, s):
        # each window's max is its bottom-right element, a different one per window
        spec = make_pool(k, s)
        n = 2 * k + 1
        x = np.arange(n * n, dtype=self.dtype).reshape(1, n, n, 1)
        y, cache = T.forward(spec, [], x)
        gx, _ = T.backward(spec, cache, np.full(y.shape, np.inf, self.dtype))
        assert np.count_nonzero(gx == np.inf) == y.size
        assert np.count_nonzero(gx) == y.size and not np.signbit(gx).any()

    def test_signed_zero_tie_keeps_first(self):
        spec = T.LayerSpec("maxpool2d", kernel=2, stride=2)
        for first, second in ((-0.0, 0.0), (0.0, -0.0)):
            x = np.array([first, second, -1.0, -1.0], self.dtype).reshape(1, 2, 2, 1)
            y, cache = T.forward(spec, [], x)
            assert np.signbit(y[0, 0, 0, 0]) == np.signbit(first)
            gx, _ = T.backward(spec, cache, np.full((1, 1, 1, 1), 3.0, self.dtype))
            assert gx.ravel().tolist() == [3.0, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("spec", [
        make_conv(kernel=3, stride=1, padding=1, cin=1, cout=3),
        make_conv(kernel=3, stride=2, padding=1, cin=2, cout=3, bias=False),
    ])
    def test_skipped_input_grad(self, spec):
        rng = np.random.default_rng(9)
        x, params = _default_instance(spec, rng)
        x, params = x.astype(self.dtype), [p.astype(self.dtype) for p in params]
        out, cache = T.forward(spec, params, x)
        grad = rng.standard_normal(out.shape).astype(self.dtype)
        gx_full, gp_full = T.backward(spec, cache, grad)
        gx, gp = T.backward(spec, cache, grad, input_grad=False)
        assert gx_full is not None and gx is None
        assert len(gp) == len(gp_full)
        for a, b in zip(gp, gp_full):
            assert_same_bits(a, b)


    @pytest.mark.parametrize("batch", [1, 4, 32])
    @pytest.mark.parametrize("cin,cout", [(8, 8), (8, 16), (16, 32), (3, 5), (4, 4)])
    @pytest.mark.parametrize("stride,h,w", [(1, 4, 4), (2, 7, 9), (2, 16, 16), (3, 5, 11)])
    def test_pointwise_input_grad_matches_transposed_conv(self, batch, cin, cout, stride, h, w):
        # a 1x1 conv's input gradient is one product written into every
        # stride-th row and column; the general path convolves the output
        # gradient with the gathered taps and interleaves the phases
        spec = make_conv(kernel=1, stride=stride, padding=0, cin=cin, cout=cout)
        rng = np.random.default_rng(batch * 100 + cin + cout + h)
        x = rng.standard_normal((batch, h, w, cin)).astype(self.dtype)
        params = [rng.standard_normal(shape).astype(self.dtype) for shape in T.param_shapes(spec)]
        y, cache = T.forward(spec, params, x)
        grad = (rng.standard_normal(y.shape)
                * rng.choice([1.0, 1.0, 0.0, -0.0], y.shape)).astype(self.dtype)
        gx, _ = T.backward(spec, cache, grad)
        assert_same_bits(gx, transposed_conv_input_grad(spec, grad, params[0], x.shape))


class TestKernelEquivalenceFloat32(TestKernelEquivalence):
    """Every bitwise kernel test again, on float32 inputs and parameters."""

    dtype = np.float32


# one spec of every kind, and each conv patch layout
EVERY_KIND = [
    T.LayerSpec("input_norm"),
    make_conv(kernel=3, stride=2, padding=1, cin=3, cout=2),
    make_conv(kernel=3, stride=1, padding=1, cin=1, cout=8),
    make_conv(kernel=3, stride=1, padding=1, cin=1, cout=8, pool=make_pool(2, 2)),
    T.LayerSpec("maxpool2d", kernel=2, stride=2),
    T.LayerSpec("maxpool2d", kernel=3, stride=3),
    T.LayerSpec("relu"),
    T.LayerSpec("fc", in_features=5, out_features=2),
    T.LayerSpec("gap"),
    T.LayerSpec("residual_add"),
]


def kind_id(spec):
    return f"{spec.kind}{spec.kernel}{'-pooled' if spec.pool else ''}"


class TestDtypes:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("spec", EVERY_KIND, ids=kind_id)
    def test_every_kind_returns_its_inputs_dtype(self, spec, dtype):
        x, params = _default_instance(spec, np.random.default_rng(4))
        x = tuple(t.astype(dtype) for t in x) if isinstance(x, tuple) else x.astype(dtype)
        params = [p.astype(dtype) for p in params]
        y, _ = T.forward(spec, params, x, keep_cache=False)
        assert y.dtype == dtype
        y, cache = T.forward(spec, params, x)
        assert y.dtype == dtype
        gx, gparams = T.backward(spec, cache, np.ones_like(y))
        for g in (*(gx if isinstance(gx, tuple) else (gx,)), *gparams):
            assert g.dtype == dtype

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("spec", EVERY_KIND, ids=kind_id)
    def test_backward_leaves_grad_out_unchanged(self, spec, dtype):
        # residual_add hands its grad_out to both branches as one array,
        # which is safe only while no backward writes to its grad_out
        rng = np.random.default_rng(6)
        x, params = _default_instance(spec, rng)
        x = tuple(t.astype(dtype) for t in x) if isinstance(x, tuple) else x.astype(dtype)
        y, cache = T.forward(spec, [p.astype(dtype) for p in params], x)
        grad = rng.standard_normal(y.shape).astype(dtype)
        before = grad.tobytes()
        gx, _ = T.backward(spec, cache, grad)
        assert grad.tobytes() == before
        if spec.kind == "residual_add":
            assert gx[0] is grad and gx[1] is grad

