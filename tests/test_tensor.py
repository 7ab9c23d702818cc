import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dflsim import model as M
from dflsim import tensor as T
from fdcheck import _default_instance, grad_check


def make_conv(kernel=3, stride=1, padding=1, cin=2, cout=3, bias=True):
    return T.LayerSpec("conv2d", kernel=kernel, stride=stride, padding=padding,
                       in_channels=cin, out_channels=cout, bias=bias)


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

    def test_grad_shape_mismatch(self):
        spec = T.LayerSpec("gap")
        x = np.ones((2, 3, 3, 4))
        _, cache = T.forward(spec, [], x)
        with pytest.raises(T.ShapeError, match="grad shape"):
            T.backward(spec, cache, np.ones((2, 5)))


class TestGradCheck:
    def test_fc(self):
        assert grad_check(T.LayerSpec("fc", in_features=6, out_features=4), seed=7) < 1e-6

    def test_conv2d(self):
        assert grad_check(make_conv(), seed=7) < 1e-4

    def test_gap(self):
        assert grad_check(T.LayerSpec("gap"), seed=7) < 1e-8

    @pytest.mark.parametrize("spec", [
        T.LayerSpec("input_norm"),
        make_conv(kernel=3, stride=2, padding=1, cin=3, cout=2),
        make_conv(kernel=1, stride=2, padding=0, cin=2, cout=4),
        make_conv(kernel=3, stride=1, padding=1, cin=1, cout=2, bias=False),
        T.LayerSpec("maxpool2d", kernel=2, stride=2),
        T.LayerSpec("maxpool2d", kernel=3, stride=2),
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
    """The patches/argmax max pooling the strided-view kernel replaced:
    returns (y, arg) with arg the first window position holding the max."""
    b, h, w, c = x.shape
    oh, ow = (h - k) // s + 1, (w - k) // s + 1
    patches = np.empty((b, oh, ow, k * k, c))
    for a in range(k):
        for bb in range(k):
            patches[:, :, :, a * k + bb, :] = x[:, a:a + oh * s:s, bb:bb + ow * s:s, :]
    arg = np.argmax(patches, axis=3)
    y = np.take_along_axis(patches, arg[:, :, :, None, :], axis=3)[:, :, :, 0, :]
    return y, arg


def reference_maxpool_backward(x_shape, arg, k, s, grad_out):
    oh, ow = arg.shape[1], arg.shape[2]
    gx = np.zeros(x_shape)
    for idx in range(k * k):
        a, bb = divmod(idx, k)
        gx[:, a:a + oh * s:s, bb:bb + ow * s:s, :] += grad_out * (arg == idx)
    return gx


def strided_views(x, k, s, oh, ow):
    return [x[:, a:a + oh * s:s, bb:bb + ow * s:s, :] for a in range(k) for bb in range(k)]


def reference_routed_maxpool_backward(x, y, k, s, grad_out):
    """The hit-routing backward the bincount scatter replaced: each view
    routes to the first not-yet-routed position equal to y, with a strided
    += per view."""
    _, oh, ow, _ = y.shape
    gx = np.zeros(x.shape)
    unrouted = np.ones(y.shape, dtype=bool)
    for view, gview in zip(strided_views(x, k, s, oh, ow), strided_views(gx, k, s, oh, ow)):
        hit = (view == y) & unrouted
        unrouted ^= hit
        gview += grad_out * hit
    return gx


def reference_conv(spec, params, x, grad_out):
    """The np.pad + np.stack im2col, matrix-product conv with a view-loop
    col2im and a gmat.sum(axis=0) bias gradient: (y, gx, [gw, gb])."""
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
        grads.append(gmat.sum(axis=0))
    gxp = np.zeros(xp.shape)
    g5 = (gmat @ wmat.T).reshape(b, oh, ow, k * k, c)
    for i, view in enumerate(strided_views(gxp, k, s, oh, ow)):
        view += g5[:, :, :, i, :]
    gx = gxp[:, p:h + p, p:w + p, :]
    return out.reshape(b, oh, ow, spec.out_channels), gx, grads


def toy_conv_geometries():
    """(spec, height, width) of every conv2d in the TOY_CONFIG fadnet."""
    cfg = M.TOY_CONFIG
    specs = M._plan("fadnet", cfg)["specs"]
    dims = M._stage_dims(cfg)
    geoms = [(specs["stem.conv"], cfg.input_height, cfg.input_width)]
    for h in range(1, M.N_BLOCKS + 1):
        (hi, wi, _), (ho, wo, _) = dims[h - 1], dims[h]
        geoms += [(specs[f"block{h}.conv1"], hi, wi), (specs[f"block{h}.shortcut"], hi, wi),
                  (specs[f"block{h}.conv2"], ho, wo)]
    return geoms


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
]


def assert_same_bits(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


class TestKernelEquivalence:
    """The window-view im2col (both patch layouts), the bincount max-pool
    scatter and the input_grad=False conv backward give exactly the bits of
    the kernels they replaced."""

    @pytest.mark.parametrize("k,s", [(2, 2), (3, 2), (2, 3)])
    @pytest.mark.parametrize("inputs", ["random", "ties", "signed_zeros"])
    def test_maxpool_matches_reference(self, k, s, inputs):
        rng = np.random.default_rng(5)
        shape = (3, 9, 11, 4)
        if inputs == "random":
            x = rng.standard_normal(shape)
        elif inputs == "ties":
            x = rng.integers(-1, 2, shape).astype(np.float64)
        else:
            x = rng.choice([-0.0, 0.0, -1.0], shape)
        spec = T.LayerSpec("maxpool2d", kernel=k, stride=s)
        y, cache = T.forward(spec, [], x)
        y_ref, arg = reference_maxpool(x, k, s)
        assert_same_bits(y, y_ref)
        grad = rng.standard_normal(y.shape) * rng.choice([1.0, 0.0, -0.0], y.shape)
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
        rng = np.random.default_rng(batch * 1000 + h * 10 + w)
        x = rng.standard_normal((batch, h, w, spec.in_channels))
        params = [rng.standard_normal(shape) for shape in T.param_shapes(spec)]
        y, cache = T.forward(spec, params, x)
        grad = rng.standard_normal(y.shape) * rng.choice([1.0, 1.0, 0.0, -0.0], y.shape)
        y_ref, gx_ref, grads_ref = reference_conv(spec, params, x, grad)
        assert_same_bits(y, y_ref)
        gx, grads = T.backward(spec, cache, grad)
        assert_same_bits(gx, gx_ref)
        assert len(grads) == len(grads_ref)
        for g, g_ref in zip(grads, grads_ref):
            assert_same_bits(g, g_ref)

    def test_transposed_patches_cover_the_stem(self):
        # the bitwise conv test above runs both patch layouts
        geoms = toy_conv_geometries() + EXTRA_CONV_GEOMETRIES
        assert T._transposed_patches(geoms[0][0])
        assert sum(T._transposed_patches(spec) for spec, _, _ in geoms) == 3
        assert any(spec.in_channels == 1 and not T._transposed_patches(spec)
                   for spec, _, _ in geoms)

    def test_signed_zero_tie_keeps_first(self):
        spec = T.LayerSpec("maxpool2d", kernel=2, stride=2)
        for first, second in ((-0.0, 0.0), (0.0, -0.0)):
            x = np.array([first, second, -1.0, -1.0]).reshape(1, 2, 2, 1)
            y, cache = T.forward(spec, [], x)
            assert np.signbit(y[0, 0, 0, 0]) == np.signbit(first)
            gx, _ = T.backward(spec, cache, np.full((1, 1, 1, 1), 3.0))
            assert gx.ravel().tolist() == [3.0, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("spec", [
        make_conv(kernel=3, stride=1, padding=1, cin=1, cout=3),
        make_conv(kernel=3, stride=2, padding=1, cin=2, cout=3, bias=False),
    ])
    def test_skipped_input_grad(self, spec):
        rng = np.random.default_rng(9)
        x, params = _default_instance(spec, rng)
        out, cache = T.forward(spec, params, x)
        grad = rng.standard_normal(out.shape)
        gx_full, gp_full = T.backward(spec, cache, grad)
        gx, gp = T.backward(spec, cache, grad, input_grad=False)
        assert gx_full is not None and gx is None
        assert len(gp) == len(gp_full)
        for a, b in zip(gp, gp_full):
            assert_same_bits(a, b)
