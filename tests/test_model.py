import hashlib
import itertools
import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dflsim import model as M
from dflsim.data import Dataset
from dflsim.protocol import EVAL_BATCH
from dflsim import tensor as T
from fdcheck import find_smooth_seed, model_grad_check

SMALL_CFG = M.FADNetConfig(input_height=8, input_width=8, input_channels=1,
                           widths=(2, 3, 4), feature_dim=5)

# frozen from shape arithmetic done by hand before the layout code existed:
# stem 80; blocks 1240 + 3632 + 14432; tail fc 8256; projections 3584; blend 3
TOY_FADNET_PARAMS = 31227
TOY_BACKBONE_PARAMS = 19513

NARROW_CFG = M.FADNetConfig(widths=(2, 3, 4))

# 9x11 inputs: the 2x2 stem pool reads neither the last row nor the last
# column of the stem conv's output; the default widths take the transposed
# patch matrix, the narrow ones the plain one
ODD_CFGS = {widths: M.FADNetConfig(input_height=9, input_width=11, widths=widths)
            for widths in ((8, 16, 32), (2, 3, 4))}


# (block bytes, bytes kept throughout) of the toy step's workspace by batch
TOY_WORK_PLANS = {
    ("fadnet", "float32"): {32: (6_867_456, 2_158_080), 4: (1_206_464, 553_280)},
    ("fadnet", "float64"): {32: (13_705_856, 4_315_776), 4: (2_408_896, 1_106_112)},
    ("backbone_only", "float32"): {32: (6_770_688, 2_064_384), 4: (1_112_384, 459_584)},
    ("backbone_only", "float64"): {32: (13_512_320, 4_128_384), 4: (2_220_736, 918_720)},
}

# the same of the toy prediction's workspace, at evaluation's batch of 256
# and a last batch of 144: only the parameters are kept
TOY_INFER_PLANS = {
    ("fadnet", "float32"): {256: (10_610_688, 124_928), 144: (6_301_440, 124_928)},
    ("fadnet", "float64"): {256: (21_221_376, 249_856), 144: (12_602_880, 249_856)},
    ("backbone_only", "float32"): {256: (10_563_840, 78_080), 144: (6_254_592, 78_080)},
    ("backbone_only", "float64"): {256: (21_127_680, 156_160), 144: (12_509_184, 156_160)},
}

# sha256 (first 16 hex digits) of the listing of every training-plan slot
# (see slot_listing) at batches 1, 4 and 32, by kind, config and dtype
SLOT_DIGEST_CFGS = {"toy": M.TOY_CONFIG, "odd-2-3-4": ODD_CFGS[2, 3, 4]}
TRAIN_SLOT_DIGESTS = {
    ("fadnet", "toy", "float32"): "5aaa10d743ad7ca7",
    ("fadnet", "toy", "float64"): "45a88efb986f2d00",
    ("fadnet", "odd-2-3-4", "float32"): "0f88799d24b73d55",
    ("fadnet", "odd-2-3-4", "float64"): "1a9bf80595050758",
    ("backbone_only", "toy", "float32"): "7919b98dbc40ad03",
    ("backbone_only", "toy", "float64"): "3f8ae550c22a5ebc",
    ("backbone_only", "odd-2-3-4", "float32"): "5a4ed6bf5471a29c",
    ("backbone_only", "odd-2-3-4", "float64"): "2b81867b8bcd66e4",
}


def slot_listing(work) -> str:
    """One line per slot of a work plan, in key order: its key, byte offset,
    shape, dtype and span (None for a kept array)."""
    return "\n".join(f"{key!r} {offset} {buf.shape} {buf.dtype} {span}"
                     for key, (offset, buf, span) in sorted(work.slots.items(),
                                                            key=lambda kv: repr(kv[0])))


def assert_no_overlap(work):
    """Arrays of a work plan whose lives overlap never share memory, and each
    is aligned and inside the block."""
    placed = [(offset, offset + buf.dtype.itemsize * int(np.prod(buf.shape)), span, key)
              for key, (offset, buf, span) in work.slots.items()]
    assert all(lo % M.ALIGN == 0 and hi <= work.nbytes for lo, hi, _, _ in placed)
    for (lo, hi, span, key), (lo2, hi2, span2, key2) in itertools.combinations(placed, 2):
        # a kept array (zeroed or filled once, parameters, gradient) lives throughout
        if span is None or span2 is None or (span[0] <= span2[1] and span2[0] <= span[1]):
            assert hi <= lo2 or hi2 <= lo, (key, key2)
    return placed


def training_forward(kind, cfg, theta, inputs):
    """The predictions of a training step's forward pass, which keeps caches."""
    caches = {}
    preds = M._forward(kind, cfg, M._loaded(kind, cfg, theta, inputs, None, True), caches)
    assert caches
    return preds.copy()


def stem_block(cfg, dtype):
    """Fewest samples in one block of the stem conv run without a cache: its
    patch rows per sample are its output rows, in every pool slab."""
    spec = M._plan("fadnet", cfg)["specs"]["stem.conv"]
    itemsize = np.dtype(dtype).itemsize
    geo = T._geometry(spec, (1, cfg.input_height, cfg.input_width, cfg.input_channels), itemsize)
    return T._eval_block_samples(spec, int(np.prod(geo.out_shape[:-1])), itemsize)


def toy_batch(n=3, seed=0, cfg=M.TOY_CONFIG):
    rng = np.random.default_rng(seed)
    return Dataset(
        inputs=rng.standard_normal((n, cfg.input_height, cfg.input_width,
                                    cfg.input_channels)),
        targets=rng.uniform(-1, 1, n))


class TestAccumulation:
    def test_weighted_sum(self):
        out = M.accumulation([np.array([1.0, 2.0]), np.array([3.0, 4.0])], [1.0, 1.0])
        assert out.tolist() == [4.0, 6.0]

    def test_one_hot_selects(self):
        feats = [np.array([1.0, 1.0]), np.array([5.0, -2.0]), np.array([0.5, 0.5])]
        out = M.accumulation(feats, [0.0, 1.0, 0.0])
        assert out.tolist() == [5.0, -2.0]

    def test_zero_weights_annihilate(self):
        feats = [np.array([1.0, 2.0]), np.array([3.0, 4.0])]
        assert M.accumulation(feats, [0.0, 0.0]).tolist() == [0.0, 0.0]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            M.accumulation([np.ones(3), np.ones(4)], [1.0, 1.0])
        with pytest.raises(ValueError, match="one weight per feature"):
            M.accumulation([np.ones(3)], [1.0, 2.0])

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), scale=st.floats(-3, 3))
    def test_linear_in_weights_and_features(self, seed, scale):
        rng = np.random.default_rng(seed)
        feats = [rng.standard_normal(6) for _ in range(3)]
        w = rng.standard_normal(3)
        base = M.accumulation(feats, w)
        assert np.allclose(M.accumulation(feats, scale * w), scale * base, atol=1e-10)
        doubled = [2 * f for f in feats]
        assert np.allclose(M.accumulation(doubled, w), 2 * base, atol=1e-10)
        other = [rng.standard_normal(6) for _ in range(3)]
        superposed = M.accumulation([a + b for a, b in zip(feats, other)], w)
        assert np.allclose(superposed, base + M.accumulation(other, w), atol=1e-10)


class TestAggregation:
    def test_mean_of_products(self):
        assert M.aggregation([1.0, 2.0, 3.0], [2.0, 2.0, 2.0]) == pytest.approx(4.0)

    def test_zero_annihilates(self):
        assert M.aggregation([1.0, 2.0], [0.0, 0.0]) == 0.0

    def test_bilinear_scaling(self):
        f_s = np.array([1.0, -2.0, 0.5])
        f_c = np.array([0.3, 0.7, -1.0])
        assert M.aggregation(2 * f_s, f_c) == pytest.approx(2 * M.aggregation(f_s, f_c))

    def test_symmetric(self):
        f_s = np.array([1.0, -2.0, 0.5])
        f_c = np.array([0.3, 0.7, -1.0])
        assert M.aggregation(f_s, f_c) == M.aggregation(f_c, f_s)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            M.aggregation(np.ones(3), np.ones(4))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_bilinearity(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (rng.standard_normal(8) for _ in range(3))
        s = float(rng.standard_normal())
        assert M.aggregation(a + s * b, c) == pytest.approx(
            M.aggregation(a, c) + s * M.aggregation(b, c), abs=1e-10)


class TestForward:
    def test_zero_params_zero_predictions(self):
        batch = toy_batch()
        zeros = np.zeros(M.param_count("fadnet", M.TOY_CONFIG))
        assert M.predict("fadnet", M.TOY_CONFIG, zeros, batch.inputs).tolist() == [0.0, 0.0, 0.0]
        zeros_b = np.zeros(M.param_count("backbone_only", M.TOY_CONFIG))
        assert M.predict("backbone_only", M.TOY_CONFIG, zeros_b,
                         batch.inputs).tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_prediction_vector_length(self, n):
        batch = toy_batch(n=n)
        theta = M.init_params("fadnet", M.TOY_CONFIG, 0)
        assert M.predict("fadnet", M.TOY_CONFIG, theta, batch.inputs).shape == (n,)

    def test_toy_parameter_counts_match_hand_arithmetic(self):
        assert M.param_count("fadnet", M.TOY_CONFIG) == TOY_FADNET_PARAMS
        assert M.param_count("backbone_only", M.TOY_CONFIG) == TOY_BACKBONE_PARAMS

    def test_backbone_strictly_smaller(self):
        for cfg in (M.TOY_CONFIG, SMALL_CFG):
            assert M.param_count("backbone_only", cfg) < M.param_count("fadnet", cfg)

    def test_paper_scale_preset_constructible(self):
        assert M.PAPER_SCALE_CONFIG.feature_dim == 6272
        assert M.param_count("fadnet", M.PAPER_SCALE_CONFIG) > 10**6

    def test_batch_order_equivariance(self):
        batch = toy_batch(n=5, seed=2)
        theta = M.init_params("fadnet", M.TOY_CONFIG, 0)
        preds = M.predict("fadnet", M.TOY_CONFIG, theta, batch.inputs)
        perm = np.array([4, 2, 0, 1, 3])
        shuffled = Dataset(inputs=batch.inputs[perm], targets=batch.targets[perm])
        assert np.allclose(M.predict("fadnet", M.TOY_CONFIG, theta, shuffled.inputs),
                           preds[perm], atol=1e-12)

    def test_deterministic(self):
        batch = toy_batch(n=2, seed=5)
        theta = M.init_params("fadnet", M.TOY_CONFIG, 1)
        a = M.predict("fadnet", M.TOY_CONFIG, theta, batch.inputs)
        b = M.predict("fadnet", M.TOY_CONFIG, theta, batch.inputs)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("kind", M.MODEL_KINDS)
    def test_cache_free_forward_matches_training_forward(self, kind):
        # without caches the convolutions run in blocks of samples: batch
        # sizes on both sides of one and two stem blocks, and evaluation's
        # 256, at both precisions
        for cfg, dtype in itertools.product((M.TOY_CONFIG, NARROW_CFG),
                                            (np.float64, np.float32)):
            theta = M.init_params(kind, cfg, 2).astype(dtype)
            block = stem_block(cfg, dtype)
            for n in (1, 4, block - 1, block, block + 1, 2 * block + 1, 256):
                inputs = toy_batch(n=n, seed=n, cfg=cfg).inputs
                train_preds = training_forward(kind, cfg, theta, inputs)
                work = M._loaded(kind, cfg, theta, inputs, None, False)
                eval_preds = M._forward(kind, cfg, work)
                assert np.array_equal(train_preds, eval_preds)
                assert np.array_equal(np.signbit(train_preds), np.signbit(eval_preds))
                assert np.array_equal(M.predict(kind, cfg, theta, inputs), eval_preds)

    def test_predict_peak_memory(self):
        # a batch-256 predict holding the stem's whole (262144 x 9) patch
        # matrix peaked near 38 MB; built in blocks, the stem output (16.8 MB)
        # and its pooled copy (4.2 MB) set the peak, about 21 MB
        inputs = toy_batch(n=256, seed=8).inputs
        theta = M.init_params("fadnet", M.TOY_CONFIG, 1)
        M.predict("fadnet", M.TOY_CONFIG, theta, inputs)  # warm the plan cache
        tracemalloc.start()
        try:
            M.predict("fadnet", M.TOY_CONFIG, theta, inputs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30e6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_stem_inference_peak_memory(self, dtype):
        # besides its output, the stem conv without a cache holds one block
        # of whole samples at a time: its padded input, its copy by row and
        # column offset, its patch matrix and its product (about 1.3 MiB at
        # float32)
        spec = M._plan("fadnet", M.TOY_CONFIG)["specs"]["stem.conv"]
        rng = np.random.default_rng(8)
        x = toy_batch(n=256, seed=8).inputs.astype(dtype)
        params = [rng.standard_normal(s).astype(dtype) for s in T.param_shapes(spec)]
        T.forward(spec, params, x, keep_cache=False)  # warm the geometry cache
        tracemalloc.start()
        try:
            y, _ = T.forward(spec, params, x, keep_cache=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - y.nbytes <= T.EVAL_BLOCK_BYTES * np.dtype(dtype).itemsize

    @pytest.mark.parametrize("call, n", [("predict", EVAL_BATCH), ("loss_and_grad", 32)])
    def test_nothing_batch_sized_outlives_the_call(self, call, n):
        # a buffer kept from one call to the next (a zero-bordered conv input
        # of the stem is 296 KB at batch 32) would add to the peak RSS of
        # the evaluation that follows training
        theta = M.init_params("fadnet", M.TOY_CONFIG, 1)
        batch = toy_batch(n=n, seed=9)
        T.layout.cache_clear()  # the call fills the per-shape cache itself
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            if call == "predict":
                M.predict("fadnet", M.TOY_CONFIG, theta, batch.inputs)
            else:
                M.loss_and_grad("fadnet", M.TOY_CONFIG, theta, batch)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 256 << 10

    def test_shape_mismatch_rejected(self):
        theta = M.init_params("fadnet", M.TOY_CONFIG, 0)
        bad = Dataset(inputs=np.zeros((1, 16, 16, 1)), targets=np.zeros(1))
        with pytest.raises(ValueError, match="config input"):
            M.predict("fadnet", M.TOY_CONFIG, theta, bad.inputs)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="widths"):
            M.FADNetConfig(widths=(8, 16))
        with pytest.raises(ValueError, match="positive"):
            M.FADNetConfig(feature_dim=0)
        with pytest.raises(ValueError, match="model kind"):
            M.param_count("resnet50", M.TOY_CONFIG)


@pytest.mark.parametrize("kind", M.MODEL_KINDS)
class TestProgram:
    def test_each_layer_once_each_activation_written_before_read(self, kind):
        plan = M._plan(kind, M.TOY_CONFIG)
        assert sorted(step.layer for step in plan["program"]) == sorted(plan["specs"])
        written = {"input"}
        for step in plan["program"]:
            assert set(step.reads) <= written and step.layer not in written
            written.add(step.layer)
        assert set(plan["head"]) <= written
        # every activation is read, by a layer or the head
        assert {a for step in plan["program"] for a in step.reads} | set(plan["head"]) == written

    def test_one_training_step_makes_each_tensor_call_once(self, kind, monkeypatch):
        # every layer runs forward once and backward once, except that the
        # input norm keeps no cache and has no backward, and only the stem
        # conv skips its input gradient
        plan = M._plan(kind, M.TOY_CONFIG)
        real_forward, real_backward = T.forward, T.backward
        forwards, backwards = [], []

        def forward(spec, params, x, keep_cache=True, work=None):
            forwards.append((spec, keep_cache))
            return real_forward(spec, params, x, keep_cache=keep_cache, work=work)

        def backward(spec, cache, grad_out, input_grad=True, work=None):
            backwards.append((spec, input_grad))
            return real_backward(spec, cache, grad_out, input_grad=input_grad, work=work)

        monkeypatch.setattr(T, "forward", forward)
        monkeypatch.setattr(T, "backward", backward)
        theta = M.init_params(kind, M.TOY_CONFIG, 1).astype(np.float32)
        M.loss_and_grad(kind, M.TOY_CONFIG, theta, toy_batch(n=4, seed=2))
        assert len(forwards) == len(plan["specs"]) == {"fadnet": 25, "backbone_only": 19}[kind]
        assert len(backwards) == len(forwards) - 1
        norm, stem_conv = plan["specs"]["norm"], plan["specs"]["stem.conv"]
        assert [spec for spec, keep in forwards if not keep] == [norm]
        assert all(spec.kind != "input_norm" for spec, _ in backwards)
        assert [spec for spec, input_grad in backwards if not input_grad] == [stem_conv]


class TestLossAndGrad:
    def test_exact_fit_gives_zero_loss_and_grad(self):
        # zero parameters predict exactly 0; zero targets make the loss
        # minimum, so the head gradient and thus every gradient is zero
        cfg = SMALL_CFG
        zeros = np.zeros(M.param_count("fadnet", cfg))
        batch = Dataset(inputs=np.random.default_rng(0).standard_normal((2, 8, 8, 1)),
                        targets=np.zeros(2))
        loss, grad = M.loss_and_grad("fadnet", cfg, zeros, batch)
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_unit_residual_gives_unit_loss(self):
        # backbone with only the tail bias set: prediction is exactly 1.0
        cfg = SMALL_CFG
        theta = np.zeros(M.param_count("backbone_only", cfg))
        M.param_views("backbone_only", cfg, theta)["tail.fc.b"][:] = 1.0
        batch = Dataset(inputs=np.random.default_rng(1).standard_normal((1, 8, 8, 1)),
                        targets=np.zeros(1))
        loss, _ = M.loss_and_grad("backbone_only", cfg, theta, batch)
        assert loss == 1.0

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            Dataset(inputs=np.zeros((0, 8, 8, 1)), targets=np.zeros(0))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("kind", M.MODEL_KINDS)
    def test_no_backward_writes_to_its_grad_out(self, kind, dtype, monkeypatch):
        # each residual add passes one gradient array to both its branches
        # (and the pooled stem conv reads the pool's gradient as it is)
        real = T.backward
        calls = []

        def checked(spec, cache, grad_out, **kw):
            before = grad_out.tobytes()
            out = real(spec, cache, grad_out, **kw)
            calls.append((spec.kind, grad_out.tobytes() == before))
            return out

        monkeypatch.setattr(T, "backward", checked)
        theta = M.init_params(kind, M.TOY_CONFIG, 3).astype(dtype)
        M.loss_and_grad(kind, M.TOY_CONFIG, theta, toy_batch(n=4, seed=3))
        assert {k for k, _ in calls} >= {"conv2d", "maxpool2d", "relu", "residual_add", "fc"}
        assert all(unchanged for _, unchanged in calls)

    @pytest.mark.parametrize("kind", ["fadnet", "backbone_only"])
    def test_full_model_gradient_vs_finite_differences(self, kind):
        seed = find_smooth_seed(kind, SMALL_CFG)
        assert model_grad_check(kind, SMALL_CFG, seed) < 1e-4


@pytest.mark.parametrize("kind", M.MODEL_KINDS)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestWorkspace:
    @pytest.mark.parametrize("garbage", [0, 255])
    def test_calls_through_one_workspace_match_calls_without_one(self, kind, dtype, garbage):
        # a workspace's arrays carry over from call to call; nothing one call
        # leaves there may reach another's loss or gradient: other batches,
        # two silos' parameters in turn, a predict in between, and a short
        # probe batch through a workspace of its own.  Nor may the bytes a
        # new block starts with (NaN or 0.0, true or false)
        thetas = [M.init_params(kind, M.TOY_CONFIG, seed).astype(dtype) for seed in (1, 2)]
        batches = [toy_batch(n=4, seed=seed) for seed in (11, 12, 13)]
        work = M.Workspace(kind, M.TOY_CONFIG, 4, dtype)
        probe = M.Workspace(kind, M.TOY_CONFIG, 3, dtype)
        for ws in (work, probe):
            ws.block[M._work_plan(*ws.key).kept:] = garbage
        calls = [(work, 0, batches[0]), (work, 1, batches[1]), "predict", (probe, 0, batches[2]),
                 (work, 0, batches[2]), (probe, 1, batches[1]), (work, 1, batches[0])]
        for call in calls:
            if call == "predict":
                M.predict(kind, M.TOY_CONFIG, thetas[1], toy_batch(n=7, seed=5).inputs)
                continue
            ws, i, batch = call
            batch = batch.subset(range(ws.key[2]))
            loss, grads = M.loss_and_grad(kind, M.TOY_CONFIG, thetas[i], batch, workspace=ws)
            assert grads is ws.grads
            ref_loss, ref_grads = M.loss_and_grad(kind, M.TOY_CONFIG, thetas[i], batch)
            assert not np.shares_memory(ref_grads, ws.block)
            assert loss == ref_loss and grads.tobytes() == ref_grads.tobytes()

    @pytest.mark.parametrize("garbage", [0, 255])
    def test_predictions_on_dirty_memory_match_the_training_forward(self, kind, dtype, garbage):
        # an inference block starts with whatever bytes it is given (NaN or
        # 0.0, true or false) and shares memory between layers; each conv
        # zeroes its padded input's border itself.  Batch sizes on both sides
        # of one stem block, and evaluation's 256
        theta = M.init_params(kind, M.TOY_CONFIG, 2).astype(dtype)
        block = stem_block(M.TOY_CONFIG, dtype)
        for n in (1, 4, block - 1, block + 1, 256):
            inputs = toy_batch(n=n, seed=n).inputs
            work = M.Workspace(kind, M.TOY_CONFIG, n, dtype, train=False)
            work.block[M._work_plan(*work.key).kept:] = garbage
            work = M._loaded(kind, M.TOY_CONFIG, theta, inputs, work, False)
            preds = M._forward(kind, M.TOY_CONFIG, work)
            ref = training_forward(kind, M.TOY_CONFIG, theta, inputs)
            assert preds.dtype == dtype
            assert preds.tobytes() == ref.tobytes() == M.predict(kind, M.TOY_CONFIG, theta,
                                                                 inputs).tobytes()

    def test_workspace_of_another_step_rejected(self, kind, dtype):
        theta = M.init_params(kind, M.TOY_CONFIG, 1).astype(dtype)
        batch = toy_batch(n=4)
        work = M.Workspace(kind, M.TOY_CONFIG, 4, dtype)
        with pytest.raises(ValueError, match="batch 4"):
            M.loss_and_grad(kind, M.TOY_CONFIG, theta, toy_batch(n=3), workspace=work)
        with pytest.raises(ValueError, match="training .* cannot take prediction"):
            M._loaded(kind, M.TOY_CONFIG, theta, batch.inputs, work, False)
        infer = M.Workspace(kind, M.TOY_CONFIG, 4, dtype, train=False)
        with pytest.raises(ValueError, match="prediction .* cannot take training"):
            M.loss_and_grad(kind, M.TOY_CONFIG, theta, batch, workspace=infer)

    def test_toy_plan_is_pinned(self, kind, dtype):
        # the block's bytes and how many of them live throughout, at batch
        # 32 and 4: a change that moves where a buffer goes shows here
        for batch, sizes in TOY_WORK_PLANS[kind, np.dtype(dtype).name].items():
            work = M._work_plan(kind, M.TOY_CONFIG, batch, np.dtype(dtype))
            assert (work.nbytes, work.kept) == sizes
        # the prediction's, which keeps the parameters alone
        params = M.param_count(kind, M.TOY_CONFIG) * np.dtype(dtype).itemsize
        for batch, sizes in TOY_INFER_PLANS[kind, np.dtype(dtype).name].items():
            work = M._work_plan(kind, M.TOY_CONFIG, batch, np.dtype(dtype), False)
            assert (work.nbytes, work.kept) == sizes
            assert [key for key, (_, _, span) in work.slots.items() if span is None] == ["params"]
            assert work.kept == -(-params // M.ALIGN) * M.ALIGN

    @pytest.mark.parametrize("cfg", sorted(SLOT_DIGEST_CFGS))
    def test_every_training_slot_is_pinned(self, kind, dtype, cfg):
        # where each array of a training step sits, at batches 1, 4 and 32:
        # a refactor that moves one shows here
        listing = "\n\n".join(
            slot_listing(M._work_plan(kind, SLOT_DIGEST_CFGS[cfg], batch, np.dtype(dtype)))
            for batch in (1, 4, 32))
        digest = hashlib.sha256(listing.encode()).hexdigest()[:16]
        assert digest == TRAIN_SLOT_DIGESTS[kind, cfg, np.dtype(dtype).name]

    @pytest.mark.parametrize("train, batch", [(True, 32), (False, 256), (False, 144)],
                             ids=["train32", "infer256", "infer144"])
    def test_arrays_whose_lives_overlap_never_share_memory(self, kind, dtype, train, batch):
        work = M._work_plan(kind, M.TOY_CONFIG, batch, np.dtype(dtype), train)
        placed = assert_no_overlap(work)
        # the block is well under the arrays' total: lives that do not overlap share
        assert work.nbytes < 0.75 * sum(hi - lo for lo, hi, _, _ in placed)


@pytest.mark.parametrize("widths", sorted(ODD_CFGS), ids=lambda w: "-".join(map(str, w)))
@pytest.mark.parametrize("kind", M.MODEL_KINDS)
class TestOddInputSize:
    def test_gradient_vs_finite_differences(self, kind, widths):
        cfg = ODD_CFGS[widths]
        seed = find_smooth_seed(kind, cfg)
        assert model_grad_check(kind, cfg, seed, max_coords_per_tensor=40) < 1e-4

    def test_predict_matches_training_forward(self, kind, widths):
        cfg = ODD_CFGS[widths]
        for dtype in (np.float64, np.float32):
            theta = M.init_params(kind, cfg, 3).astype(dtype)
            # and a batch of two inference blocks and one sample
            for n in (1, 4, 32, 2 * stem_block(cfg, dtype) + 1):
                inputs = toy_batch(n=n, seed=n, cfg=cfg).inputs
                train_preds = training_forward(kind, cfg, theta, inputs)
                preds = M.predict(kind, cfg, theta, inputs)
                assert preds.dtype == dtype
                assert np.array_equal(preds, train_preds)
                assert np.array_equal(np.signbit(preds), np.signbit(train_preds))


class TestParamsAndCheckpoint:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_flatten_unflatten_roundtrip_bit_exact(self, seed):
        flat = np.random.default_rng(seed).standard_normal(
            M.param_count("fadnet", SMALL_CFG))
        views = M.param_views("fadnet", SMALL_CFG, flat)
        again = np.concatenate([v.ravel() for v in views.values()])
        assert again.tobytes() == flat.tobytes()

    def test_named_views_cover_vector(self):
        flat = np.arange(M.param_count("fadnet", SMALL_CFG), dtype=np.float64)
        views = M.param_views("fadnet", SMALL_CFG, flat)
        total = sum(v.size for v in views.values())
        assert total == flat.size
        assert all(np.shares_memory(v, flat) for v in views.values())
        assert views["head.accum.w"].shape == (3,)

    def test_plan_names_each_layers_parameters_in_storage_order(self):
        plan = M._plan("fadnet", SMALL_CFG)
        assert list(plan["params"]["block1.conv1"]) == ["block1.conv1.W", "block1.conv1.b"]
        assert list(plan["params"]["branch1.proj"]) == ["branch1.proj.W"]  # no bias
        assert list(plan["params"]["block1.relu"]) == []
        names = [n for shapes in plan["params"].values() for n in shapes]
        assert names == list(plan["layout"]) and names[-1] == "head.accum.w"
        assert "head.accum" not in M._plan("backbone_only", SMALL_CFG)["params"]

    @pytest.mark.parametrize("kind", M.MODEL_KINDS)
    def test_init_goes_by_layer_kind(self, kind):
        views = M.param_views(kind, SMALL_CFG, M.init_params(kind, SMALL_CFG, 4))
        for name, v in views.items():
            if name.endswith(".b"):
                assert np.all(v == 0.0), name
            elif name != "head.accum.w":
                assert np.all(v != 0.0), name
        if kind == "fadnet":
            assert np.all(views["head.accum.w"] == 1.0 / M.N_BLOCKS)
        # He scaling for conv kernels: std sqrt(2 / fan_in), fan_in = 3 * 3 * 3
        assert np.std(views["block2.conv2.W"]) == pytest.approx(np.sqrt(2.0 / 27), rel=0.3)

    @pytest.mark.parametrize("call", ["param_views", "predict", "loss_and_grad",
                                      "save_checkpoint"])
    @pytest.mark.parametrize("kind", M.MODEL_KINDS)
    def test_vector_one_short_rejected(self, tmp_path, kind, call):
        n = M.param_count(kind, SMALL_CFG)
        short = M.init_params(kind, SMALL_CFG, 0)[:-1]
        batch = toy_batch(n=2, cfg=SMALL_CFG)
        calls = {
            "param_views": lambda: M.param_views(kind, SMALL_CFG, short),
            "predict": lambda: M.predict(kind, SMALL_CFG, short, batch.inputs),
            "loss_and_grad": lambda: M.loss_and_grad(kind, SMALL_CFG, short, batch),
            "save_checkpoint": lambda: M.save_checkpoint(tmp_path / "m.ckpt", kind,
                                                         SMALL_CFG, short),
        }
        with pytest.raises(ValueError, match=f"expected {n} parameters"):
            calls[call]()
        assert not (tmp_path / "m.ckpt").exists()

    def test_checkpoint_roundtrip_bit_exact(self, tmp_path):
        theta = M.init_params("fadnet", SMALL_CFG, 9)
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(path, "fadnet", SMALL_CFG, theta)
        kind, cfg, loaded = M.load_checkpoint(path)
        assert kind == "fadnet"
        assert cfg == SMALL_CFG
        assert loaded.tobytes() == theta.tobytes()

    def test_checkpoint_truncation_detected(self, tmp_path):
        theta = M.init_params("backbone_only", SMALL_CFG, 9)
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(path, "backbone_only", SMALL_CFG, theta)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(ValueError, match="parameters"):
            M.load_checkpoint(path)

    @pytest.mark.parametrize("tamper,named", [
        (lambda m: m["params"][1].update(shape=[5]), "'stem.conv.b'"),
        (lambda m: m["params"][0].update(name="stem.conv.V"), "'stem.conv.W'"),
        (lambda m: m["params"].pop(), "'head.accum.w'"),
        (lambda m: m["params"].append({"name": "extra.W", "shape": [0]}), "'extra.W'"),
        (lambda m: m.pop("model_kind"), "'model_kind'"),
        (lambda m: m.pop("config"), "'config'"),
        (lambda m: m["config"].pop("feature_dim"), "'feature_dim': missing"),
    ])
    def test_checkpoint_manifest_checked_against_plan(self, tmp_path, tamper, named):
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(path, "fadnet", SMALL_CFG, M.init_params("fadnet", SMALL_CFG, 9))
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<I", raw[:4])
        manifest = json.loads(raw[4:4 + hlen])
        tamper(manifest)
        blob = json.dumps(manifest).encode()
        path.write_bytes(struct.pack("<I", len(blob)) + blob + raw[4 + hlen:])
        with pytest.raises(ValueError, match=named):
            M.load_checkpoint(path)

    @pytest.mark.parametrize("value", [8.7, True])
    def test_checkpoint_config_needs_whole_numbers(self, tmp_path, value):
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(path, "fadnet", SMALL_CFG, M.init_params("fadnet", SMALL_CFG, 9))
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<I", raw[:4])
        manifest = json.loads(raw[4:4 + hlen])
        manifest["config"]["input_height"] = value
        blob = json.dumps(manifest).encode()
        path.write_bytes(struct.pack("<I", len(blob)) + blob + raw[4 + hlen:])
        with pytest.raises(ValueError, match="'input_height': expected an integer"):
            M.load_checkpoint(path)

    def test_checkpoint_bad_header(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"\x01")
        with pytest.raises(ValueError, match="truncated"):
            M.load_checkpoint(path)


class TestRmse:
    def test_definition(self):
        assert M.rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(np.sqrt(12.5))

    def test_identity(self):
        assert M.rmse([0.3, -0.7], [0.3, -0.7]) == 0.0

    def test_constant_zero_predictor_on_uniform_targets(self):
        # E[t^2] for t ~ U[-1,1] is 1/3, so the RMSE tends to 1/sqrt(3);
        # cross-checked by this seeded Monte Carlo draw
        targets = np.random.default_rng(0).uniform(-1, 1, 200_000)
        assert M.rmse(np.zeros_like(targets), targets) == pytest.approx(
            1 / np.sqrt(3), abs=5e-3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal-length"):
            M.rmse([1.0], [1.0, 2.0])
