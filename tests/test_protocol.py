import csv
import json
import subprocess
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import child_env
from dflsim import data as D
from dflsim import model as M
from dflsim import protocol as P
from dflsim import topology as tp

SMALL_CFG = M.FADNetConfig(input_height=8, input_width=8, input_channels=1,
                           widths=(2, 3, 4), feature_dim=5)


def tiny_shard(count=4, seed=0):
    return D.generate_linesteer(count, 8, 8, seed=seed)


def stub_silos(thetas, cfg, k=0):
    """Silos whose rows are ``thetas``, each with a tiny shard."""
    thetas = np.asarray(thetas, dtype=np.float64)
    silos = P.Silos.start(thetas[0], [tiny_shard()] * len(thetas), cfg, k=k)
    silos.theta[:] = thetas
    return silos


def const_grad(value):
    def fn(theta, batch):
        return 0.0, np.full_like(theta, value)
    return fn


def zero_grad(theta, batch):
    return 0.0, np.zeros_like(theta)


TWO_RING = tp.ConsensusMatrix(a=np.full((2, 2), 0.5))
ONE_MIX = P.matrix_mix(tp.ConsensusMatrix(a=np.ones((1, 1))))


def reference_ring_mix(a, thetas):
    """Reference mix: each silo mixes a dict of its in-neighbours' vectors
    into its own term, in ascending neighbour id."""
    mixed_all = []
    for i in range(a.order):
        row = a.a[i]
        inbox = {j: thetas[j] for j in range(a.order) if j != i and row[j] > 0.0}
        mixed = row[i] * thetas[i]
        for j in inbox:
            mixed = mixed + row[j] * inbox[j]
        mixed_all.append(mixed)
    return mixed_all


class TestDpasgdUpdate:
    def test_consensus_averages_two_silo_ring(self):
        cfg = P.TrainConfig(rounds=1, optimizer="sgd", local_steps=1)
        silos = stub_silos([[1.0], [3.0]], cfg)
        assert P.dpasgd_update(silos, P.matrix_mix(TWO_RING), zero_grad, cfg) is None
        assert silos.theta.tolist() == [[2.0], [2.0]]
        assert silos.k == 1

    def test_sgd_gradient_step(self):
        cfg = P.TrainConfig(rounds=1, optimizer="sgd", learning_rate=0.1)
        silos = stub_silos([[5.0]], cfg, k=1)  # gradient slot of the s=1 schedule
        losses = P.dpasgd_update(silos, ONE_MIX, const_grad(1.0), cfg)
        assert losses == [0.0]
        assert silos.theta.tolist() == [[pytest.approx(4.9)]]
        assert silos.k == 2

    def test_schedule_alternates(self):
        # with one local step: consensus at k=0, gradient at k=1, consensus
        # at k=2... visible as parameter decrease only on odd k
        cfg = P.TrainConfig(rounds=1, optimizer="sgd", learning_rate=1.0, local_steps=1)
        silos = stub_silos([[10.0]], cfg)
        trace = []
        for _ in range(6):
            P.dpasgd_update(silos, ONE_MIX, const_grad(1.0), cfg)
            trace.append(float(silos.theta[0, 0]))
        assert trace == [10.0, 9.0, 9.0, 8.0, 8.0, 7.0]

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_one_consensus_step_per_window(self, s):
        flags = [P.is_consensus_step(k, s) for k in range(40)]
        for start in range(40 - s):
            assert sum(flags[start:start + s + 1]) == 1

    def test_nan_gradient_aborts_with_diagnostics(self):
        cfg = P.TrainConfig(rounds=1, optimizer="sgd")
        silos = stub_silos([[1.0]], cfg, k=1)
        with pytest.raises(P.NanGradientError, match="silo 0"):
            P.dpasgd_update(silos, ONE_MIX, const_grad(np.nan), cfg)

    def test_non_finite_parameters_abort_with_diagnostics(self):
        # finite loss and gradient, but the step overflows silo 1's row
        cfg = P.TrainConfig(rounds=1, optimizer="sgd", learning_rate=1e308)
        silos = stub_silos([[0.0], [-1e308]], cfg, k=1)
        with np.errstate(over="ignore"), \
                pytest.raises(P.NanGradientError, match="silo 1, iteration k=1"):
            P.dpasgd_update(silos, P.matrix_mix(TWO_RING), const_grad(1.0), cfg)

    def test_overflowing_mix_aborts_with_diagnostics(self):
        # finite rows whose server mean overflows to inf
        cfg = P.TrainConfig(rounds=1, optimizer="sgd")
        silos = stub_silos([[1e308], [1e308]], cfg, k=2)
        with np.errstate(over="ignore"), pytest.raises(
                P.NanGradientError, match="after the mix broadcast_mean at iteration k=2"):
            P.dpasgd_update(silos, P.broadcast_mean, zero_grad, cfg)

    def test_adam_transform_applied(self):
        cfg = P.TrainConfig(rounds=1, optimizer="adam", learning_rate=0.5)
        silos = stub_silos([[0.0]], cfg, k=1)
        P.dpasgd_update(silos, ONE_MIX, const_grad(2.0), cfg)
        # first Adam step moves by ~lr regardless of gradient magnitude
        assert silos.theta[0, 0] == pytest.approx(-0.5, rel=1e-6)
        assert silos.t == 1

    def test_overflowed_second_moment_aborts_with_diagnostics(self):
        # a float32 gradient entry of 1e20 squares to inf in v, after which
        # that coordinate's update is 0 at every step: silo 1 aborts
        cfg = P.TrainConfig(rounds=1, optimizer="adam", learning_rate=0.5)
        silos = stub_silos([[0.0] * 3, [0.0] * 3], cfg, k=1)
        grads = iter([[1.0, -1.0, 1.0], [1e20, -3e19, 1.0]])

        def fn(theta, batch):
            return 0.0, np.array(next(grads), np.float32)
        with np.errstate(over="ignore"), \
                pytest.raises(P.NanGradientError, match="silo 1, iteration k=1"):
            P.dpasgd_update(silos, P.matrix_mix(TWO_RING), fn, cfg)

    def test_large_float32_gradient_still_steps(self):
        # 1e18 squares to 1e36, within float32: each step moves by about lr
        cfg = P.TrainConfig(rounds=1, optimizer="adam", learning_rate=0.5, local_steps=2)
        silos = stub_silos([[0.0, 0.0]], cfg, k=1)
        for step in (1, 2):
            P.dpasgd_update(silos, ONE_MIX, const_grad(1e18), cfg)
            assert silos.theta[0].tolist() == [pytest.approx(-0.5 * step, rel=1e-6)] * 2
        assert np.all(np.isfinite(silos.adam_v))

    @pytest.mark.parametrize("dtype, special", [
        (np.float64, [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e-300, 1e150, -1e150]),
        (np.float32, [0.0, -0.0, 1e-45, -1e-45, 1e-38, -1e-38, 1e18, -1e18])],
        ids=["float64", "float32"])
    def test_in_place_adam_matches_textbook_bitwise(self, dtype, special):
        # moments, scratch and gradient at ``dtype``, theta at float64; zeros,
        # -0.0, subnormals, tiny and huge values among the gradients
        rng = np.random.default_rng(6)
        n = 4096
        special = np.array(special, dtype)
        theta = rng.standard_normal(n)
        m, v = np.zeros(n, dtype), np.zeros(n, dtype)
        want_theta, want_m, want_v = theta.copy(), m.copy(), v.copy()
        work = np.empty((2, n), dtype)
        lr = 1e-3
        for t in range(1, 6):
            grad = (rng.standard_normal(n) * 10.0 ** rng.integers(-8, 4, n)).astype(dtype)
            grad[rng.integers(0, n, 200)] = rng.choice(special, 200)
            held = grad.copy()
            P.adam_update(theta, m, v, grad, t, lr, work)
            assert grad.tobytes() == held.tobytes()  # the gradient is only read
            want_m = P.ADAM_BETA1 * want_m + (1 - P.ADAM_BETA1) * grad
            want_v = P.ADAM_BETA2 * want_v + (1 - P.ADAM_BETA2) * grad ** 2
            m_hat = want_m / (1 - P.ADAM_BETA1 ** t)
            v_hat = want_v / (1 - P.ADAM_BETA2 ** t)
            want_theta = want_theta - lr * m_hat / (np.sqrt(v_hat) + P.ADAM_EPS)
            assert want_theta.dtype == np.float64 and want_m.dtype == want_v.dtype == dtype
            for got, want in ((theta, want_theta), (m, want_m), (v, want_v)):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), t

    @pytest.mark.parametrize("fixture_name", ["gaia11", "nws22"])
    def test_ring_mix_matches_per_silo_loop_bitwise(self, fixture_name, request):
        graph = request.getfixturevalue(fixture_name)
        overlay = tp.build_overlay_christofides(graph, tp.DelayParams(1e6, 1))
        a = tp.consensus_matrix(overlay)
        theta = np.random.default_rng(3).standard_normal((graph.n, 1000))
        mixed = P.matrix_mix(a)(theta)
        for got, want in zip(mixed, reference_ring_mix(a, theta)):
            assert got.tobytes() == want.tobytes()

    def test_broadcast_mean_matches_stacked_list_mean_bitwise(self):
        theta = np.random.default_rng(4).standard_normal((11, 1000))
        want = np.mean(np.stack([row.copy() for row in theta], axis=0), axis=0)
        out = P.broadcast_mean(theta)
        assert all(row.tobytes() == want.tobytes() for row in out)


class TestFederatedAverage:
    def test_mean(self):
        out = P.federated_average([np.array([2.0]), np.array([4.0])], [1, 1])
        assert out.tolist() == [3.0]

    def test_mask_selects(self):
        out = P.federated_average([np.array([2.0]), np.array([4.0])], [1, 0])
        assert out.tolist() == [2.0]

    def test_idempotent_on_identical(self):
        v = np.array([0.5, -1.5])
        out = P.federated_average([v.copy(), v.copy(), v.copy()])
        assert np.array_equal(out, v)

    def test_all_zero_mask_rejected(self):
        with pytest.raises(ValueError, match="no silos"):
            P.federated_average([np.ones(2)], [0])

    def test_length_mismatch_rejected(self):
        # silo parameters are rows of one (n, P) array: unequal lengths
        # cannot be stacked, and a lone vector is not a stack
        with pytest.raises(ValueError):
            P.federated_average([np.ones(2), np.ones(3)])
        with pytest.raises(ValueError, match=r"\(n, P\)"):
            P.federated_average(np.ones(3))

    def test_masked_rows_match_stacked_list_mean_bitwise(self):
        theta = np.random.default_rng(5).standard_normal((6, 500))
        mask = [1, 0, 1, 1, 0, 1]
        want = np.mean(np.stack([r for r, m in zip(theta, mask) if m], axis=0), axis=0)
        assert P.federated_average(theta, mask).tobytes() == want.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 5000), n=st.integers(1, 6))
    def test_matches_numpy_mean(self, seed, n):
        rng = np.random.default_rng(seed)
        vecs = [rng.standard_normal(4) for _ in range(n)]
        assert np.allclose(P.federated_average(vecs), np.mean(vecs, axis=0), atol=1e-15)


class TestEvaluate:
    def test_zero_params_on_uniform_targets(self):
        # zero parameters predict 0, so RMSE tends to sqrt(E[t^2]) = 1/sqrt(3)
        test = tiny_shard(count=3000, seed=5)
        theta = np.zeros(M.param_count("fadnet", SMALL_CFG))
        out = P.evaluate("fadnet", SMALL_CFG, theta, test)
        assert out == pytest.approx(1 / np.sqrt(3), abs=0.02)

    def test_memorized_single_sample(self):
        ds = D.Dataset(inputs=np.random.default_rng(0).standard_normal((1, 8, 8, 1)),
                       targets=np.zeros(1))
        theta = np.zeros(M.param_count("fadnet", SMALL_CFG))
        assert P.evaluate("fadnet", SMALL_CFG, theta, ds) == 0.0

    def test_side_effect_free(self):
        test = tiny_shard(count=30, seed=6)
        theta = M.init_params("fadnet", SMALL_CFG, 3)
        before = theta.copy()
        a = P.evaluate("fadnet", SMALL_CFG, theta, test)
        b = P.evaluate("fadnet", SMALL_CFG, theta, test)
        assert a == b
        assert np.array_equal(theta, before)


def consensus_fixture_states(graph, dim, seed, cfg):
    p = tp.DelayParams(model_size_bytes=1e6, local_steps=cfg.local_steps)
    overlay = tp.build_overlay_christofides(graph, p)
    a = tp.consensus_matrix(overlay)
    rng = np.random.default_rng(seed)
    silos = stub_silos(rng.standard_normal((graph.n, dim)), cfg)
    return overlay, a, silos


def consensus_sweep(a, silos, cfg, steps):
    """Run ``steps`` consensus exchanges (zero-gradient schedule) and return
    the per-step mean drift and dispersion trace."""
    mix = P.matrix_mix(a)
    mean0 = silos.theta.mean(axis=0)
    drifts, dispersions = [], []
    for _ in range(steps):
        P.dpasgd_update(silos, mix, zero_grad, cfg)
        silos.k += 1  # skip the gradient slot; equivalent to a zero step
        mean = silos.theta.mean(axis=0)
        drifts.append(np.abs(mean - mean0).max())
        dispersions.append(np.abs(silos.theta - mean).max())
    return drifts, dispersions


class TestConsensusDynamics:
    def test_mean_preserved_and_contracts_on_gaia(self, gaia11):
        cfg = P.TrainConfig(rounds=1, optimizer="sgd")
        _, a, silos = consensus_fixture_states(gaia11, dim=24, seed=0, cfg=cfg)
        drifts, dispersions = consensus_sweep(a, silos, cfg, steps=200)
        assert max(drifts) < 1e-10
        assert dispersions[-1] < 1e-6
        # monotone non-increasing contraction
        assert all(b <= a + 1e-15 for a, b in zip(dispersions, dispersions[1:]))

    def test_identical_init_is_fixed_point(self, gaia11):
        cfg = P.TrainConfig(rounds=1, optimizer="sgd")
        _, a, silos = consensus_fixture_states(gaia11, dim=8, seed=1, cfg=cfg)
        base = silos.theta[0].copy()
        silos.theta[:] = base
        consensus_sweep(a, silos, cfg, steps=5)
        # every ring silo runs the same float ops, so they stay bitwise equal;
        # the common value can drift only at rounding level (rows sum to
        # 1 +- 1 ulp)
        for row in silos.theta[1:]:
            assert np.array_equal(row, silos.theta[0])
        assert np.allclose(silos.theta[0], base, atol=1e-12)


class TestRunnersDegenerate:
    def test_dfl_single_silo_matches_cll_exactly(self):
        ds = tiny_shard(count=40, seed=2)
        test = tiny_shard(count=12, seed=3)
        cfg = P.TrainConfig(strategy="dfl", rounds=5, eval_interval=2, seed=11,
                            batch_size=8)
        overlay = tp.Overlay(parent=None, tour=(0,), edges=(), in_neighbors=((),),
                             paths={}, metric_weight=0.0)
        a = tp.ConsensusMatrix(a=np.ones((1, 1)))
        dfl = P.run_dfl(overlay, a, "fadnet", SMALL_CFG, [ds], test, cfg)
        cll = P.run_cll("fadnet", SMALL_CFG, ds, test, cfg)
        assert [r.train_loss for r in dfl.rows] == [r.train_loss for r in cll.rows]
        assert [r.test_rmse for r in dfl.rows] == [r.test_rmse for r in cll.rows]
        assert np.array_equal(dfl.final_params, cll.final_params)

    def test_sfl_single_silo_matches_cll_exactly(self):
        ds = tiny_shard(count=40, seed=2)
        test = tiny_shard(count=12, seed=3)
        cfg = P.TrainConfig(strategy="sfl", rounds=5, eval_interval=2, seed=11,
                            batch_size=8)
        sfl = P.run_sfl(None, "fadnet", SMALL_CFG, [ds], test, cfg)
        cll = P.run_cll("fadnet", SMALL_CFG, ds, test, cfg)
        assert [r.train_loss for r in sfl.rows] == [r.train_loss for r in cll.rows]
        assert [r.test_rmse for r in sfl.rows] == [r.test_rmse for r in cll.rows]

    def test_one_round_advances_k_by_two(self, gaia11):
        ds = tiny_shard(count=44, seed=2)
        plan = D.partition_noniid(ds, gaia11.n, 0.0, seed=0)
        cfg = P.TrainConfig(strategy="dfl", rounds=1, eval_interval=1, seed=0,
                            batch_size=2, local_steps=1)
        p = tp.DelayParams(8.0 * M.param_count("fadnet", SMALL_CFG), 1)
        overlay = tp.build_overlay_christofides(gaia11, p)
        a = tp.consensus_matrix(overlay)
        # drive one round of a dfl run by hand through the public update op
        theta0 = M.init_params("fadnet", SMALL_CFG, cfg.seed)
        silos = P.Silos.start(theta0, plan.shards(ds), cfg)
        fn = P._loss_grad_fn("fadnet", SMALL_CFG)
        mix = P.matrix_mix(a)
        assert P.dpasgd_update(silos, mix, fn, cfg) is None
        losses = P.dpasgd_update(silos, mix, fn, cfg)
        assert len(losses) == gaia11.n and all(np.isfinite(losses))
        assert silos.k == 2 and silos.t == 1


class TestRunners:
    def test_sfl_keeps_silos_synchronized(self):
        shard = tiny_shard(count=30, seed=4)
        test = tiny_shard(count=10, seed=5)
        g = tp.ConnectivityGraph(
            silos=(tp.SiloRecord(0, 0.1), tp.SiloRecord(1, 0.1), tp.SiloRecord(2, 0.1)),
            links=tuple(tp.LinkRecord(a, b, 0.01, 1e8) for a in range(3) for b in range(3) if a != b))
        cfg = P.TrainConfig(strategy="sfl", rounds=3, eval_interval=1, seed=1, batch_size=4)
        log = P.run_sfl(g, "fadnet", SMALL_CFG, [shard, shard, shard], test, cfg)
        # after the final broadcast every silo holds the aggregate exactly
        assert log.final_params is not None
        assert len(log.rows) == 4

    def test_sfl_round_slower_than_dfl_cycle_on_fixture(self, gaia11):
        # oracle arithmetic straight from the fixture file and defaults
        cfg = P.TrainConfig()
        n_params = M.param_count("fadnet", M.TOY_CONFIG)
        m_bytes = 8.0 * n_params
        raw = json.loads(tp.fixture_path("gaia11").read_text())
        per_leg = cfg.server_latency_s + m_bytes / cfg.server_bandwidth_Bps
        sfl_expected = max(
            cfg.local_steps * s["compute_time_s"] + 2 * per_leg for s in raw["silos"]
        ) + cfg.server_compute_s

        from dflsim import simnet
        star = simnet.StarSpec(
            silo_compute_s=tuple(s["compute_time_s"] for s in raw["silos"]),
            server_latency_s=cfg.server_latency_s,
            server_bandwidth_Bps=cfg.server_bandwidth_Bps,
            server_compute_s=cfg.server_compute_s)
        delay = tp.DelayParams(m_bytes, cfg.local_steps)
        sfl_dur = simnet.simulate_round(star, delay)
        assert sfl_dur == pytest.approx(sfl_expected, rel=1e-12)

        overlay = tp.build_overlay_christofides(gaia11, delay)
        assert sfl_dur >= tp.cycle_time(overlay, delay)

    def test_run_determinism_and_worker_independence(self, gaia11):
        ds = tiny_shard(count=66, seed=8)
        test = tiny_shard(count=20, seed=9)
        plan = D.partition_noniid(ds, gaia11.n, 0.5, seed=0)
        shards = plan.shards(ds)
        p = tp.DelayParams(8.0 * M.param_count("fadnet", SMALL_CFG), 1)
        overlay = tp.build_overlay_christofides(gaia11, p)
        a = tp.consensus_matrix(overlay)
        runs = {"dfl": lambda cfg: P.run_dfl(overlay, a, "fadnet", SMALL_CFG,
                                             shards, test, cfg),
                "sfl": lambda cfg: P.run_sfl(gaia11, "fadnet", SMALL_CFG,
                                             shards, test, cfg)}
        # 4 workers on fewer cores, switching threads often: a lost update to
        # a silo's row would change the metrics or the final parameters
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for strategy, run in runs.items():
                outputs = []
                for workers in (1, 1, 4):
                    cfg = P.TrainConfig(strategy=strategy, rounds=3, eval_interval=1,
                                        seed=5, batch_size=4, workers=workers)
                    log = run(cfg)
                    outputs.append((log.to_csv_string(), log.final_params.tobytes()))
                assert outputs[0] == outputs[1] == outputs[2], strategy
        finally:
            sys.setswitchinterval(switch)

    def test_eval_mask_changes_evaluated_model(self, gaia11):
        ds = tiny_shard(count=66, seed=8)
        test = tiny_shard(count=20, seed=9)
        plan = D.partition_noniid(ds, gaia11.n, 1.0, seed=0)
        shards = plan.shards(ds)
        p = tp.DelayParams(8.0 * M.param_count("fadnet", SMALL_CFG), 1)
        overlay = tp.build_overlay_christofides(gaia11, p)
        a = tp.consensus_matrix(overlay)
        mask = tuple([1] + [0] * (gaia11.n - 1))
        cfg_all = P.TrainConfig(strategy="dfl", rounds=2, eval_interval=1, seed=5, batch_size=4)
        cfg_one = P.TrainConfig(strategy="dfl", rounds=2, eval_interval=1, seed=5,
                                batch_size=4, eval_mask=mask)
        log_all = P.run_dfl(overlay, a, "fadnet", SMALL_CFG, shards, test, cfg_all)
        log_one = P.run_dfl(overlay, a, "fadnet", SMALL_CFG, shards, test, cfg_one)
        assert log_all.rows[-1].test_rmse != log_one.rows[-1].test_rmse

    def test_shard_count_mismatch_rejected(self, gaia11):
        p = tp.DelayParams(1e6, 1)
        overlay = tp.build_overlay_christofides(gaia11, p)
        a = tp.consensus_matrix(overlay)
        cfg = P.TrainConfig(strategy="dfl", rounds=1)
        with pytest.raises(ValueError, match="shards"):
            P.run_dfl(overlay, a, "fadnet", SMALL_CFG, [tiny_shard()], tiny_shard(), cfg)

    def test_cll_overfits_small_subset(self):
        # convergence oracle: 2000 full-coverage steps memorize 32 samples
        ds = D.generate_linesteer(32, 32, 32, seed=7)
        cfg = P.TrainConfig(strategy="cll", rounds=2000, eval_interval=2000, seed=0)
        log = P.run_cll("fadnet", M.TOY_CONFIG, ds, ds, cfg)
        assert log.final.train_loss < 1e-3

    @pytest.mark.parametrize("rounds", [1, 2, 3, 7, 10, 11, 30, 31])
    @pytest.mark.parametrize("eval_interval", [1, 2, 3, 10, 40])
    def test_eval_rounds_are_every_interval_and_the_last(self, rounds, eval_interval):
        cfg = P.TrainConfig(rounds=rounds, eval_interval=eval_interval)
        want = {0, rounds} | set(range(0, rounds + 1, eval_interval))
        assert {r for r in range(rounds + 1) if P.is_eval_round(r, cfg)} == want

    def test_eval_round_needs_no_enumeration(self):
        # 2**53, the most rounds a config may ask for
        cfg = P.TrainConfig(rounds=2 ** 53, eval_interval=7)
        assert P.is_eval_round(0, cfg) and P.is_eval_round(2 ** 53, cfg)
        assert P.is_eval_round(7 * 10 ** 15, cfg)
        assert not P.is_eval_round(2 ** 53 - 2, cfg)

    def test_cll_zero_free_rounds_unsupported(self):
        with pytest.raises(ValueError, match="rounds"):
            P.TrainConfig(rounds=0)


class TestMetricsLog:
    def test_csv_roundtrip(self, tmp_path):
        log = P.MetricsLog()
        log.append(P.MetricsRow(0, 0.0, 0.5, 0.6, "dfl"))
        log.append(P.MetricsRow(10, 1.25, 0.25, 0.3, "dfl"))
        path = tmp_path / "metrics.csv"
        log.to_csv(path)
        with open(path, newline="") as f:
            reader = csv.DictReader(f)
            assert tuple(reader.fieldnames) == P.METRICS_HEADER
            again = [P.MetricsRow(int(r["round"]), float(r["sim_time_s"]),
                                  float(r["train_loss"]), float(r["test_rmse"]), r["strategy"])
                     for r in reader]
        assert again == log.rows
        assert path.read_text() == log.to_csv_string()

    def test_header_schema(self):
        log = P.MetricsLog()
        log.append(P.MetricsRow(0, 0.0, 1.0, 1.0, "cll"))
        assert log.to_csv_string().splitlines()[0] == "round,sim_time_s,train_loss,test_rmse,strategy"

    def test_rounds_strictly_increasing(self):
        log = P.MetricsLog()
        log.append(P.MetricsRow(5, 1.0, 0.1, 0.1, "dfl"))
        with pytest.raises(ValueError, match="strictly increasing"):
            log.append(P.MetricsRow(5, 2.0, 0.1, 0.1, "dfl"))

    def test_wallclock_nondecreasing(self):
        log = P.MetricsLog()
        log.append(P.MetricsRow(1, 3.0, 0.1, 0.1, "dfl"))
        with pytest.raises(ValueError, match="nondecreasing"):
            log.append(P.MetricsRow(2, 2.0, 0.1, 0.1, "dfl"))


class TestPrecision:
    """The model computes at float32 and returns a float32 gradient, which
    the float32 Adam moments take as it is; the silo parameters, the
    evaluated model, the checkpoint and the transferred model size stay
    float64."""

    def test_model_at_float32_state_at_float64(self, gaia11, monkeypatch, tmp_path):
        seen = {"model": set(), "adam": set(), "model_size_bytes": []}
        real_loss_and_grad, real_predict = M.loss_and_grad, M.predict
        real_adam, real_round = P.adam_update, P.simnet.simulate_round

        def loss_and_grad(kind, cfg, params, batch, workspace=None):
            loss, grad = real_loss_and_grad(kind, cfg, params, batch, workspace=workspace)
            seen["model"].add(("loss_and_grad", params.dtype, grad.dtype))
            return loss, grad

        def predict(kind, cfg, params, inputs):
            preds = real_predict(kind, cfg, params, inputs)
            seen["model"].add(("predict", params.dtype, preds.dtype))
            return preds

        def adam_update(theta, m, v, grad, *rest):
            seen["adam"].add((theta.dtype, m.dtype, v.dtype, grad.dtype))
            return real_adam(theta, m, v, grad, *rest)

        def simulate_round(layout, delay):
            seen["model_size_bytes"].append(delay.model_size_bytes)
            return real_round(layout, delay)

        monkeypatch.setattr(M, "loss_and_grad", loss_and_grad)
        monkeypatch.setattr(M, "predict", predict)
        monkeypatch.setattr(P, "adam_update", adam_update)
        monkeypatch.setattr(P.simnet, "simulate_round", simulate_round)
        ds = tiny_shard(count=44, seed=2)
        shards = D.partition_noniid(ds, gaia11.n, 0.5, seed=0).shards(ds)
        n_params = M.param_count("fadnet", SMALL_CFG)
        overlay = tp.build_overlay_christofides(gaia11, tp.DelayParams(8.0 * n_params, 1))
        cfg = P.TrainConfig(strategy="dfl", rounds=2, eval_interval=1, seed=3, batch_size=4)
        log = P.run_dfl(overlay, tp.consensus_matrix(overlay), "fadnet", SMALL_CFG,
                        shards, tiny_shard(count=12, seed=3), cfg)

        f32, f64 = np.dtype(np.float32), np.dtype(np.float64)
        assert seen["model"] == {("loss_and_grad", f32, f32), ("predict", f32, f32)}
        assert seen["adam"] == {(f64, f32, f32, f32)}
        # the simulated transfer moves 8 bytes per parameter
        assert seen["model_size_bytes"] == [8 * n_params]
        assert log.final_params.dtype == f64
        path = tmp_path / "final.ckpt"
        M.save_checkpoint(path, "fadnet", SMALL_CFG, log.final_params.astype(np.float32))
        (hlen,) = np.frombuffer(path.read_bytes()[:4], "<u4")
        assert path.stat().st_size == 4 + hlen + 8 * n_params
        _, _, loaded = M.load_checkpoint(path)
        assert loaded.dtype == f64


# Steps of the toy fadnet at batch 32 in a fresh process, with no evaluation
# and no large free before them, then again after an evaluation; prints the
# minor page faults and ms per step of each.  glibc maps every allocation of
# 128 KiB or more afresh until a large free lifts that threshold, so steps
# that allocate their arrays fault on every page of them (about 1,500 per
# step before the workspace).
STEP_FAULTS_CHILD = """
import resource, time
import numpy as np
from dflsim import model as M, protocol as P
from dflsim.data import Dataset

rng = np.random.default_rng(0)
shard = Dataset(inputs=rng.standard_normal((256, 32, 32, 1), dtype=np.float32),
                targets=rng.uniform(-1, 1, 256))
cfg = P.TrainConfig(batch_size=32)
silos = P.Silos.start(M.init_params("fadnet", M.TOY_CONFIG, 1), [shard], cfg,
                      model=("fadnet", M.TOY_CONFIG))
fn = P._loss_grad_fn("fadnet", M.TOY_CONFIG)

def steps(n):
    f0, t0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()
    for _ in range(n):
        silos.t += 1
        P._gradient_step(silos, 0, cfg, fn)
    return ((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0) / n,
            1e3 * (time.perf_counter() - t0) / n)

steps(3)  # the workspace and the per-shape plans
fresh = steps(40)
silos.work = None
P.evaluate("fadnet", M.TOY_CONFIG, silos.theta[0], shard)
print(*fresh, *steps(40))
"""


class TestWorkspace:
    def test_steps_take_few_page_faults_without_a_warm_heap(self):
        out = subprocess.run([sys.executable, "-c", STEP_FAULTS_CHILD], env=child_env(),
                             capture_output=True, text=True, timeout=120, check=True)
        fresh_faults, fresh_ms, after_faults, after_ms = map(float, out.stdout.split())
        print(f"steps before any evaluation: {fresh_faults:.1f} faults, {fresh_ms:.2f} ms; "
              f"after one: {after_faults:.1f} faults, {after_ms:.2f} ms")
        assert fresh_faults <= 50

    def test_steps_through_the_workspace_match_steps_without_one(self):
        # silos that train a model cast their row and gather their batch into
        # the workspace; dropping it, as an evaluation does, changes nothing
        shards = [tiny_shard(count=10, seed=3), tiny_shard(count=20, seed=4)]
        cfg = P.TrainConfig(batch_size=4, local_steps=2)
        theta0 = M.init_params("fadnet", SMALL_CFG, 0)
        fn = P._loss_grad_fn("fadnet", SMALL_CFG)
        with_work = P.Silos.start(theta0, shards, cfg, model=("fadnet", SMALL_CFG))
        without = P.Silos.start(theta0, shards, cfg)
        mix = P.matrix_mix(TWO_RING)
        for k in range(7):
            assert P.dpasgd_update(with_work, mix, fn, cfg) == P.dpasgd_update(without, mix, fn, cfg)
            assert with_work.theta.tobytes() == without.theta.tobytes()
            if k == 3:
                with_work.work = None
        assert with_work.work is not None and without.work is None

    def test_no_workspace_lives_while_evaluate_runs(self, monkeypatch):
        made, alive = [], []
        real_evaluate = P.evaluate

        class Tracked(M.Workspace):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                if self.key[-1]:  # a training workspace; predict makes its own
                    made.append(weakref.ref(self))

        def evaluate(*args):
            alive.append(sum(ref() is not None for ref in made))
            return real_evaluate(*args)

        monkeypatch.setattr(M, "Workspace", Tracked)
        monkeypatch.setattr(P, "evaluate", evaluate)
        cfg = P.TrainConfig(strategy="cll", rounds=3, eval_interval=1, seed=1, batch_size=4)
        P.run_cll("fadnet", SMALL_CFG, tiny_shard(count=30, seed=4),
                  tiny_shard(count=10, seed=5), cfg)
        # the round-0 probe's throwaway and one workspace per round of steps
        assert len(made) == 1 + cfg.rounds and alive == [0] * (cfg.rounds + 1)
