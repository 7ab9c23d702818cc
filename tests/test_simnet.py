import pytest

from dflsim import simnet, topology as tp
from conftest import TINY_DELAY, uniform_complete_graph


class TestClock:
    def test_total_is_exact_sum(self):
        clock = simnet.Clock()
        for _ in range(1000):
            clock.advance(0.1)
        assert clock.now == 1000 * 0.1
        assert clock.rounds == 1000

    def test_nonnegative_durations(self):
        clock = simnet.Clock()
        with pytest.raises(ValueError, match=">= 0"):
            clock.advance(-0.5)


class TestSimulateRound:
    def test_ring_constant_delays(self):
        g = uniform_complete_graph(4, latency=0.5)
        o = tp.build_overlay_christofides(g, TINY_DELAY)
        assert simnet.simulate_round(o, TINY_DELAY) == pytest.approx(0.5)

    def test_star_symmetric_legs(self):
        star = simnet.StarSpec(silo_compute_s=(0.0, 0.0, 0.0),
                               server_latency_s=0.2, server_bandwidth_Bps=1e30,
                               server_compute_s=0.0)
        assert simnet.simulate_round(star, TINY_DELAY) == pytest.approx(0.4)

    def test_star_formula(self):
        p = tp.DelayParams(model_size_bytes=1e6, local_steps=2)
        star = simnet.StarSpec(silo_compute_s=(0.1, 0.4, 0.2),
                               server_latency_s=0.05, server_bandwidth_Bps=1e7,
                               server_compute_s=0.03)
        per_leg = 1e6 / 1e7
        expected = max(2 * tc + 0.05 + per_leg + 0.05 + per_leg for tc in (0.1, 0.4, 0.2)) + 0.03
        assert simnet.simulate_round(star, p) == pytest.approx(expected)

    def test_single_node(self):
        p = tp.DelayParams(model_size_bytes=1.0, local_steps=3)
        node = simnet.SingleSpec(compute_time_s=0.2)
        assert simnet.simulate_round(node, p) == pytest.approx(0.6)

    def test_total_time_additivity(self):
        node = simnet.SingleSpec(compute_time_s=0.125)
        d = simnet.simulate_round(node, TINY_DELAY)
        clock = simnet.Clock()
        for _ in range(7):
            clock.advance(d)
        assert clock.now == 7 * d

    def test_ring_duration_matches_cycle_time(self, gaia11, nws22):
        p = tp.DelayParams(model_size_bytes=8 * 31227, local_steps=1)
        for g in (gaia11, nws22):
            o = tp.build_overlay_christofides(g, p)
            assert simnet.simulate_round(o, p) == tp.cycle_time(o, p)

    def test_unknown_layout(self):
        with pytest.raises(ValueError, match="ConnectivityGraph"):
            simnet.simulate_round(uniform_complete_graph(3), TINY_DELAY)
