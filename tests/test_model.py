import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dflsim import model as M
from fdcheck import find_smooth_seed, model_grad_check

SMALL_CFG = M.FADNetConfig(input_height=8, input_width=8, input_channels=1,
                           widths=(2, 3, 4), feature_dim=5)

# frozen from shape arithmetic done by hand before the layout code existed:
# stem 80; blocks 1240 + 3632 + 14432; tail fc 8256; projections 3584; blend 3
TOY_FADNET_PARAMS = 31227
TOY_BACKBONE_PARAMS = 19513


def toy_batch(n=3, seed=0, cfg=M.TOY_CONFIG):
    rng = np.random.default_rng(seed)
    return M.Batch(
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
        shuffled = M.Batch(inputs=batch.inputs[perm], targets=batch.targets[perm])
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
        batch = toy_batch(n=4, seed=6)
        mp = M.ModelParams(kind, M.TOY_CONFIG, M.init_params(kind, M.TOY_CONFIG, 2))
        caches = {}
        train_preds = M._forward(kind, M.TOY_CONFIG, mp, batch.inputs, caches)
        eval_preds = M._forward(kind, M.TOY_CONFIG, mp, batch.inputs)
        assert caches
        assert np.array_equal(train_preds, eval_preds)
        assert np.array_equal(M.predict(kind, M.TOY_CONFIG, mp, batch.inputs), eval_preds)

    def test_shape_mismatch_rejected(self):
        theta = M.init_params("fadnet", M.TOY_CONFIG, 0)
        bad = M.Batch(inputs=np.zeros((1, 16, 16, 1)), targets=np.zeros(1))
        with pytest.raises(ValueError, match="config input"):
            M.predict("fadnet", M.TOY_CONFIG, theta, bad.inputs)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="widths"):
            M.FADNetConfig(widths=(8, 16))
        with pytest.raises(ValueError, match="positive"):
            M.FADNetConfig(feature_dim=0)
        with pytest.raises(ValueError, match="model kind"):
            M.param_count("resnet50", M.TOY_CONFIG)


class TestLossAndGrad:
    def test_exact_fit_gives_zero_loss_and_grad(self):
        # zero parameters predict exactly 0; zero targets make the loss
        # minimum, so the head gradient and thus every gradient is zero
        cfg = SMALL_CFG
        zeros = np.zeros(M.param_count("fadnet", cfg))
        batch = M.Batch(inputs=np.random.default_rng(0).standard_normal((2, 8, 8, 1)),
                        targets=np.zeros(2))
        loss, grad = M.loss_and_grad("fadnet", cfg, zeros, batch)
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_unit_residual_gives_unit_loss(self):
        # backbone with only the tail bias set: prediction is exactly 1.0
        cfg = SMALL_CFG
        theta = np.zeros(M.param_count("backbone_only", cfg))
        mp = M.ModelParams("backbone_only", cfg, theta)
        mp["tail.fc.b"][:] = 1.0
        batch = M.Batch(inputs=np.random.default_rng(1).standard_normal((1, 8, 8, 1)),
                        targets=np.zeros(1))
        loss, _ = M.loss_and_grad("backbone_only", cfg, theta, batch)
        assert loss == 1.0

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            M.Batch(inputs=np.zeros((0, 8, 8, 1)), targets=np.zeros(0))

    @pytest.mark.parametrize("kind", ["fadnet", "backbone_only"])
    def test_full_model_gradient_vs_finite_differences(self, kind):
        seed = find_smooth_seed(kind, SMALL_CFG)
        assert model_grad_check(kind, SMALL_CFG, seed) < 1e-4


class TestParamsAndCheckpoint:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_flatten_unflatten_roundtrip_bit_exact(self, seed):
        flat = np.random.default_rng(seed).standard_normal(
            M.param_count("fadnet", SMALL_CFG))
        again = M.ModelParams("fadnet", SMALL_CFG, flat).flat
        assert again.tobytes() == flat.tobytes()

    def test_named_views_cover_vector(self):
        mp = M.ModelParams("fadnet", SMALL_CFG,
                           np.arange(M.param_count("fadnet", SMALL_CFG), dtype=np.float64))
        total = sum(mp[name].size for name in mp.names)
        assert total == mp.flat.size
        assert mp["head.accum.w"].shape == (3,)

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
        (lambda ps: ps[1].update(shape=[5]), "'stem.conv.b'"),
        (lambda ps: ps[0].update(name="stem.conv.V"), "'stem.conv.W'"),
        (lambda ps: ps.pop(), "'head.accum.w'"),
        (lambda ps: ps.append({"name": "extra.W", "shape": [0]}), "'extra.W'"),
    ])
    def test_checkpoint_manifest_checked_against_plan(self, tmp_path, tamper, named):
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(path, "fadnet", SMALL_CFG, M.init_params("fadnet", SMALL_CFG, 9))
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<I", raw[:4])
        manifest = json.loads(raw[4:4 + hlen])
        tamper(manifest["params"])
        blob = json.dumps(manifest).encode()
        path.write_bytes(struct.pack("<I", len(blob)) + blob + raw[4 + hlen:])
        with pytest.raises(ValueError, match=named):
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
