"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Criterion 2 is known-red on the 22-silo fixture:
no mixing matrix over a 22-cycle can contract dispersion below 1e-6 in 200
steps (see the failure message for the spectral-gap arithmetic); the check is
asserted as stated rather than weakened.
"""
import json
import time

import numpy as np
import pytest

from dflsim import cli, data as D, model as M, protocol as P, simnet, tensor as T, topology as tp
from conftest import random_metric_graph
from fdcheck import find_smooth_seed, grad_check, model_grad_check


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


# -------------------------------------------------------------------------
# 1. gradient suite


LAYER_CASES = [
    ("input_norm", T.LayerSpec("input_norm"), 1e-4),
    ("conv3x3", T.LayerSpec("conv2d", kernel=3, stride=1, padding=1,
                            in_channels=2, out_channels=3), 1e-4),
    ("conv3x3_s2", T.LayerSpec("conv2d", kernel=3, stride=2, padding=1,
                               in_channels=3, out_channels=2), 1e-4),
    ("conv1x1_s2", T.LayerSpec("conv2d", kernel=1, stride=2, padding=0,
                               in_channels=2, out_channels=4), 1e-4),
    ("maxpool", T.LayerSpec("maxpool2d", kernel=2, stride=2), 1e-4),
    ("relu", T.LayerSpec("relu"), 1e-4),
    ("fc", T.LayerSpec("fc", in_features=6, out_features=4), 1e-6),
    ("fc_nobias", T.LayerSpec("fc", in_features=5, out_features=3, bias=False), 1e-4),
    ("gap", T.LayerSpec("gap"), 1e-8),
    ("residual_add", T.LayerSpec("residual_add"), 1e-4),
]


def test_criterion_1_gradient_suite():
    start = time.monotonic()
    worst_layer = 0.0
    for name, spec, bound in LAYER_CASES:
        err = grad_check(spec, seed=7)
        assert err < bound, f"layer {name}: grad error {err:.3e} >= {bound}"
        worst_layer = max(worst_layer, err)
    model_errs = {}
    for kind in ("fadnet", "backbone_only"):
        seed = find_smooth_seed(kind, M.TOY_CONFIG)
        model_errs[kind] = model_grad_check(kind, M.TOY_CONFIG, seed,
                                            max_coords_per_tensor=120)
    elapsed = time.monotonic() - start
    ok = all(e < 1e-4 for e in model_errs.values()) and elapsed < 60.0
    report("1 gradient-suite", ok,
           f"worst layer {worst_layer:.2e}, fadnet {model_errs['fadnet']:.2e}, "
           f"backbone {model_errs['backbone_only']:.2e}, {elapsed:.1f}s")
    for kind, err in model_errs.items():
        assert err < 1e-4, f"{kind}: full-model grad error {err:.3e} >= 1e-4"
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s (budget 60s)"


# -------------------------------------------------------------------------
# 2. consensus suite (nws22 is known-red; see module docstring)


@pytest.mark.parametrize("fixture_name", ["gaia11", "nws22"])
def test_criterion_2_consensus_suite(fixture_name, request):
    graph = request.getfixturevalue(fixture_name)
    delay = tp.DelayParams(model_size_bytes=8 * 31227, local_steps=1)
    overlay = tp.build_overlay_christofides(graph, delay)
    a = tp.consensus_matrix(overlay).a
    rng = np.random.default_rng(2024)
    thetas = [rng.standard_normal(64) for _ in range(graph.n)]
    mean0 = np.mean(thetas, axis=0)

    max_drift = 0.0
    dispersion = np.inf
    steps_to_target = None
    for step in range(1, 201):
        thetas = [sum(a[i, j] * thetas[j] for j in range(graph.n))
                  for i in range(graph.n)]
        mean = np.mean(thetas, axis=0)
        max_drift = max(max_drift, float(np.abs(mean - mean0).max()))
        dispersion = max(float(np.abs(t - mean).max()) for t in thetas)
        if steps_to_target is None and dispersion < 1e-6:
            steps_to_target = step

    slem = float(np.sort(np.abs(np.linalg.eigvals(a)))[-2])
    ok = max_drift < 1e-10 and dispersion < 1e-6
    report(f"2 consensus-suite[{fixture_name}]", ok,
           f"drift {max_drift:.2e}, dispersion@200 {dispersion:.2e}, "
           f"slem {slem:.4f}")
    assert max_drift < 1e-10, f"{fixture_name}: mean drifted {max_drift:.2e} > 1e-10"
    assert dispersion < 1e-6, (
        f"{fixture_name}: dispersion after 200 consensus steps is {dispersion:.2e} "
        f">= 1e-6. The overlay is a Hamiltonian cycle of n={graph.n} silos, whose "
        f"Metropolis-Hastings matrix has second eigenvalue 1/3 + (2/3)cos(2*pi/n) "
        f"= {slem:.5f}; the contraction after 200 steps is at best "
        f"{slem ** 200:.2e} of the initial dispersion, so the 1e-6 target is "
        f"reachable within 200 steps only for rings of about 14 silos or fewer "
        f"(this instance needs about "
        f"{int(np.ceil(np.log(1e-6) / np.log(slem)))} steps).")


def test_consensus_nws22_contracts_given_enough_steps(nws22):
    # companion to the red half of criterion 2: the dynamics are correct,
    # the 22-cycle just needs ~505 steps for 1e-6
    delay = tp.DelayParams(model_size_bytes=8 * 31227, local_steps=1)
    overlay = tp.build_overlay_christofides(nws22, delay)
    a = tp.consensus_matrix(overlay).a
    rng = np.random.default_rng(2024)
    thetas = [rng.standard_normal(64) for _ in range(nws22.n)]
    for _ in range(600):
        thetas = [sum(a[i, j] * thetas[j] for j in range(nws22.n))
                  for i in range(nws22.n)]
    mean = np.mean(thetas, axis=0)
    assert max(float(np.abs(t - mean).max()) for t in thetas) < 1e-6


# -------------------------------------------------------------------------
# 3. Christofides suite


def test_criterion_3_christofides_suite():
    start = time.monotonic()
    worst_ratio = 1.0
    checked = 0
    for k in range(50):
        n = 6 + k % 5
        g = random_metric_graph(n, seed=300 + k, sparse=(k % 2 == 0))
        p = tp.DelayParams(model_size_bytes=1e6, local_steps=1)
        approx = tp.build_overlay_christofides(g, p)
        exact = tp.brute_force_tsp(g, p)
        assert sorted(approx.tour) == list(range(n)), f"instance {k}: not Hamiltonian"
        assert len(approx.edges) == 2 * n
        assert exact.metric_weight <= approx.metric_weight + 1e-12, \
            f"instance {k}: approximation beat the exact optimum"
        ratio = approx.metric_weight / exact.metric_weight
        assert ratio <= 1.5 + 1e-12, f"instance {k}: ratio {ratio:.4f} > 1.5"
        worst_ratio = max(worst_ratio, ratio)
        checked += 1
    elapsed = time.monotonic() - start
    ok = checked == 50 and elapsed < 30.0
    report("3 christofides-suite", ok,
           f"{checked} instances, worst ratio {worst_ratio:.4f}, {elapsed:.1f}s")
    assert elapsed < 30.0, f"suite took {elapsed:.1f}s (budget 30s)"


# -------------------------------------------------------------------------
# 4. delay / cycle-time cross-check


def test_criterion_4_cycle_time_cross_check(gaia11, nws22):
    details = []
    for name, graph in (("gaia11", gaia11), ("nws22", nws22)):
        delay = tp.DelayParams(model_size_bytes=8 * 31227, local_steps=1)
        overlay = tp.build_overlay_christofides(graph, delay)
        expected = tp.cycle_time(overlay, delay)
        simulated = simnet.simulate_round(overlay, delay)
        assert simulated == expected, f"{name}: {simulated!r} != {expected!r}"

        clock = simnet.Clock()
        rounds = 137
        for _ in range(rounds):
            clock.advance(simulated)
        assert clock.now == rounds * simulated, f"{name}: clock drifted"
        details.append(f"{name} round {simulated:.6f}s")
    report("4 cycle-time-cross-check", True, "; ".join(details) + ", exact")


# -------------------------------------------------------------------------
# 5. desk-scale convergence analog


def test_criterion_5_convergence_analog(gaia11):
    start = time.monotonic()
    ds = D.generate_linesteer(5000, 32, 32, seed=0)
    train, test = D.train_test_split(ds, 0.8, seed=0)
    plan = D.partition_noniid(train, gaia11.n, skew=0.8, seed=0)
    shards = plan.shards(train)
    cfg = P.TrainConfig(strategy="dfl", rounds=500, eval_interval=100, seed=0)

    delay = tp.DelayParams(8.0 * M.param_count("fadnet", M.TOY_CONFIG),
                           cfg.local_steps)
    overlay = tp.build_overlay_christofides(gaia11, delay)
    a = tp.consensus_matrix(overlay)

    dfl = P.run_dfl(overlay, a, "fadnet", M.TOY_CONFIG, shards, test, cfg)
    cll = P.run_cll("fadnet", M.TOY_CONFIG, train, test, cfg)
    dfl_backbone = P.run_dfl(overlay, a, "backbone_only", M.TOY_CONFIG,
                             shards, test, cfg)
    elapsed = time.monotonic() - start

    rmse_0 = dfl.rows[0].test_rmse
    rmse_final = dfl.final.test_rmse
    improvement = rmse_0 / rmse_final
    ratio_to_cll = rmse_final / cll.final.test_rmse
    backbone_final = dfl_backbone.final.test_rmse

    ok_a = improvement >= 5.0
    ok_b = rmse_final <= 1.25 * cll.final.test_rmse
    ok_c = rmse_final <= backbone_final
    ok = ok_a and ok_b and ok_c and elapsed < 1800.0
    report("5 convergence-analog", ok,
           f"dfl {rmse_0:.4f}->{rmse_final:.4f} ({improvement:.1f}x), "
           f"cll {cll.final.test_rmse:.4f} (ratio {ratio_to_cll:.2f}), "
           f"backbone {backbone_final:.4f}, {elapsed:.0f}s")
    assert ok_a, f"(a) improvement {improvement:.2f}x < 5x"
    assert ok_b, f"(b) dfl {rmse_final:.4f} > 1.25 * cll {cll.final.test_rmse:.4f}"
    assert ok_c, f"(c) fadnet {rmse_final:.4f} > backbone {backbone_final:.4f}"
    assert elapsed < 1800.0, f"runs took {elapsed:.0f}s (budget 30min)"


# -------------------------------------------------------------------------
# 6. determinism


def test_criterion_6_determinism(tmp_path):
    base = {"strategy": "dfl", "seed": 13, "sample_count": 120, "rounds": 3,
            "eval_interval": 1, "batch_size": 4, "input_height": 8,
            "input_width": 8, "widths": [2, 3, 4], "feature_dim": 5}
    outputs = []
    for tag, workers in (("w1a", 1), ("w1b", 1), ("w4", 4)):
        cfg_path = tmp_path / f"{tag}.json"
        cfg_path.write_text(json.dumps({**base, "workers": workers}))
        assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / tag),
                         "--quiet"]) == 0
        outputs.append((tmp_path / tag / "metrics.csv").read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    report("6 determinism", ok,
           f"{len(outputs)} runs, {len(outputs[0])} bytes each, "
           f"workers 1/1/4 byte-identical={ok}")
    assert ok, "metrics.csv bytes differ across reruns / worker counts"


# -------------------------------------------------------------------------
# 7. equation unit identities


def test_criterion_7_equation_identities():
    # federated averaging: selection and mean, exact
    assert P.federated_average([np.array([2.0]), np.array([4.0])], [1, 1]).tolist() == [3.0]
    assert P.federated_average([np.array([2.0]), np.array([4.0])], [0, 1]).tolist() == [4.0]

    # feature blending: one-hot selection and linearity, exact
    feats = [np.array([1.0, 2.0]), np.array([-3.0, 5.0]), np.array([0.25, 8.0])]
    assert M.accumulation(feats, [0.0, 1.0, 0.0]).tolist() == [-3.0, 5.0]
    left = M.accumulation(feats, [2.0, 4.0, -6.0])
    right = 2 * M.accumulation(feats, [1.0, 2.0, -3.0])
    assert np.array_equal(left, right)

    # product head: bilinearity and zero annihilation, exact
    f_s = np.array([1.0, -2.0, 4.0, 0.5])
    f_c = np.array([2.0, 0.5, -1.0, 8.0])
    assert M.aggregation(2.0 * f_s, f_c) == 2.0 * M.aggregation(f_s, f_c)
    assert M.aggregation(f_s, np.zeros(4)) == 0.0

    # update schedule: exactly one consensus slot per window of s+1
    for s in (1, 2, 3, 5):
        flags = [P.is_consensus_step(k, s) for k in range(12 * (s + 1))]
        assert flags[0] is True
        for start in range(len(flags) - s):
            assert sum(flags[start:start + s + 1]) == 1

    report("7 equation-identities", True,
           "averaging/selection, blend one-hot/linearity, product head "
           "bilinearity/annihilation, consensus schedule: all exact")
