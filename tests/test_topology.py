import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dflsim import topology as tp
from conftest import TINY_DELAY, random_metric_graph, uniform_complete_graph


def write_topology(tmp_path, payload, name="topo.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def simple_payload():
    return {
        "silos": [{"id": 0, "compute_time_s": 0.1}, {"id": 1, "compute_time_s": 0.2}],
        "links": [{"src": 0, "dst": 1, "latency_s": 0.05, "bandwidth_Bps": 1e7}],
        "undirected": True,
    }


class TestLoadTopology:
    def test_undirected_link_is_mirrored(self, tmp_path):
        g = tp.load_topology(write_topology(tmp_path, simple_payload()))
        assert g.n == 2
        assert len(g.links) == 2
        assert g.has_link(0, 1) and g.has_link(1, 0)

    def test_non_contiguous_ids_rejected(self, tmp_path):
        payload = simple_payload()
        payload["silos"].append({"id": 3, "compute_time_s": 0.1})
        payload["links"].append({"src": 1, "dst": 3, "latency_s": 0.1, "bandwidth_Bps": 1e7})
        with pytest.raises(tp.TopologyError, match="non-contiguous silo ids"):
            tp.load_topology(write_topology(tmp_path, payload))

    def test_bundled_gaia_has_11_silos(self, gaia11):
        assert gaia11.n == 11

    def test_bundled_nws_has_22_silos(self, nws22):
        assert nws22.n == 22

    def test_duplicate_silo_id(self, tmp_path):
        payload = simple_payload()
        payload["silos"].append({"id": 1, "compute_time_s": 0.3})
        with pytest.raises(tp.TopologyError, match="duplicate silo id"):
            tp.load_topology(write_topology(tmp_path, payload))

    def test_dangling_link_endpoint(self, tmp_path):
        payload = simple_payload()
        payload["links"].append({"src": 0, "dst": 9, "latency_s": 0.1, "bandwidth_Bps": 1e7})
        with pytest.raises(tp.TopologyError, match="9"):
            tp.load_topology(write_topology(tmp_path, payload))

    def test_nonpositive_bandwidth(self, tmp_path):
        payload = simple_payload()
        payload["links"][0]["bandwidth_Bps"] = 0.0
        with pytest.raises(tp.TopologyError, match="bandwidth"):
            tp.load_topology(write_topology(tmp_path, payload))

    def test_disconnected_graph(self, tmp_path):
        payload = {
            "silos": [{"id": i, "compute_time_s": 0.1} for i in range(4)],
            "links": [
                {"src": 0, "dst": 1, "latency_s": 0.1, "bandwidth_Bps": 1e7},
                {"src": 2, "dst": 3, "latency_s": 0.1, "bandwidth_Bps": 1e7},
            ],
            "undirected": True,
        }
        with pytest.raises(tp.TopologyError, match="disconnected"):
            tp.load_topology(write_topology(tmp_path, payload))

    def test_self_loop_rejected(self, tmp_path):
        payload = simple_payload()
        payload["links"].append({"src": 1, "dst": 1, "latency_s": 0.1, "bandwidth_Bps": 1e7})
        with pytest.raises(tp.TopologyError, match="self-loop"):
            tp.load_topology(write_topology(tmp_path, payload))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(tp.TopologyError, match="invalid JSON"):
            tp.load_topology(path)

    @pytest.mark.parametrize("payload", [5, ["silos", "links", "undirected"]])
    def test_top_level_not_an_object(self, tmp_path, payload):
        with pytest.raises(tp.TopologyError, match="top level must be a JSON object"):
            tp.load_topology(write_topology(tmp_path, payload))

    def test_missing_key(self, tmp_path):
        payload = simple_payload()
        del payload["undirected"]
        with pytest.raises(tp.TopologyError, match="undirected"):
            tp.load_topology(write_topology(tmp_path, payload))


def two_silo_graph(tc=0.0, latency=0.0, bandwidth=1e6):
    return tp.ConnectivityGraph(
        silos=(tp.SiloRecord(0, tc), tp.SiloRecord(1, 0.0)),
        links=(tp.LinkRecord(0, 1, latency, bandwidth),
               tp.LinkRecord(1, 0, latency, bandwidth)),
        undirected=False,
    )


class TestLinkDelay:
    def test_bandwidth_term_only(self):
        g = two_silo_graph()
        p = tp.DelayParams(model_size_bytes=1_000_000, local_steps=1)
        assert tp.link_delay(g, 0, 1, p) == 1.0

    def test_direct_substitution(self):
        # 4-byte params at the published full-scale parameter count
        g = two_silo_graph(tc=0.5, latency=0.1, bandwidth=1e7)
        p = tp.DelayParams(model_size_bytes=1_270_916, local_steps=1)
        assert tp.link_delay(g, 0, 1, p) == pytest.approx(0.7270916, rel=1e-12)

    def test_local_steps_scale_compute_only(self):
        g = two_silo_graph(tc=0.5, latency=0.0, bandwidth=1e30)
        p = tp.DelayParams(model_size_bytes=1.0, local_steps=2)
        assert tp.link_delay(g, 0, 1, p) == pytest.approx(1.0, abs=1e-12)

    def test_missing_link(self):
        g2 = tp.ConnectivityGraph(
            silos=(tp.SiloRecord(0, 0.0), tp.SiloRecord(1, 0.0), tp.SiloRecord(2, 0.0)),
            links=(tp.LinkRecord(0, 1, 0.1, 1e6), tp.LinkRecord(1, 0, 0.1, 1e6),
                   tp.LinkRecord(1, 2, 0.1, 1e6), tp.LinkRecord(2, 1, 0.1, 1e6)),
            undirected=False)
        with pytest.raises(tp.TopologyError, match="no link"):
            tp.link_delay(g2, 0, 2, tp.DelayParams(1.0, 1))

    @settings(max_examples=50, deadline=None)
    @given(m1=st.floats(1.0, 1e9), m2=st.floats(1.0, 1e9),
           b=st.floats(1e3, 1e9), lat=st.floats(0.0, 10.0), tc=st.floats(0.0, 5.0),
           s=st.integers(1, 5))
    def test_delay_properties(self, m1, m2, b, lat, tc, s):
        g = two_silo_graph(tc=tc, latency=lat, bandwidth=b)
        lo, hi = sorted((m1, m2))
        d_lo = tp.link_delay(g, 0, 1, tp.DelayParams(lo, s))
        d_hi = tp.link_delay(g, 0, 1, tp.DelayParams(hi, s))
        assert d_lo >= 0.0
        if hi > lo:
            assert d_hi > d_lo  # strictly increasing in payload size
        # additive in latency
        g2 = two_silo_graph(tc=tc, latency=lat + 1.0, bandwidth=b)
        assert tp.link_delay(g2, 0, 1, tp.DelayParams(lo, s)) == pytest.approx(d_lo + 1.0, rel=1e-9)
        # strictly decreasing in bandwidth
        g3 = two_silo_graph(tc=tc, latency=lat, bandwidth=b * 2)
        assert tp.link_delay(g3, 0, 1, tp.DelayParams(lo, s)) < d_lo


class TestChristofides:
    def test_uniform_complete_four_silos(self):
        g = uniform_complete_graph(4)
        o = tp.build_overlay_christofides(g, TINY_DELAY)
        assert sorted(o.tour) == [0, 1, 2, 3]
        assert o.metric_weight == pytest.approx(4.0)

    def test_triangle_is_unique_cycle(self):
        g = uniform_complete_graph(3)
        o = tp.build_overlay_christofides(g, TINY_DELAY)
        assert sorted(o.tour) == [0, 1, 2]
        assert len(o.edges) == 6

    def test_two_silos_degenerate_cycle(self):
        g = two_silo_graph(latency=0.5)
        o = tp.build_overlay_christofides(g, tp.DelayParams(1.0, 1))
        assert o.edges == ((0, 1), (1, 0))
        assert o.in_neighbors == ((1,), (0,))

    def test_seeded_instance_within_bound(self):
        g = random_metric_graph(8, seed=42)
        p = tp.DelayParams(1_000_000, 1)
        approx = tp.build_overlay_christofides(g, p)
        exact = tp.brute_force_tsp(g, p)
        assert exact.metric_weight <= approx.metric_weight + 1e-12
        assert approx.metric_weight <= 1.5 * exact.metric_weight + 1e-12

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("sparse", [False, True])
    def test_output_is_hamiltonian_cycle(self, seed, sparse):
        n = 5 + seed
        g = random_metric_graph(n, seed=seed, sparse=sparse)
        o = tp.build_overlay_christofides(g, tp.DelayParams(1e6, 1))
        assert sorted(o.tour) == list(range(n))
        assert len(o.edges) == 2 * n
        for i in range(n):
            assert len(o.in_neighbors[i]) == 2 or n == 2
            assert o.in_neighbors[i] == o.out_neighbors[i]
        # every expanded path walks real links of the parent graph
        for (a, b), path in o.paths.items():
            assert path[0] == a and path[-1] == b
            for u, v in zip(path, path[1:]):
                assert g.has_link(u, v)

    @pytest.mark.parametrize("n, matcher", [(16, "_exact_min_matching"),
                                            (18, "_greedy_matching")])
    def test_matching_limit(self, monkeypatch, n, matcher):
        # a star's spanning tree is the star: n-1 odd leaves and an odd-degree
        # centre, so n odd vertices, exactly EXACT_MATCHING_LIMIT at n = 16
        latency = np.random.default_rng(n).uniform(0.01, 0.5, n)
        links = tuple(tp.LinkRecord(a, b, float(latency[leaf]), 1e8)
                      for leaf in range(1, n) for a, b in ((0, leaf), (leaf, 0)))
        g = tp.ConnectivityGraph(silos=tuple(tp.SiloRecord(i, 0.0) for i in range(n)),
                                 links=links)
        p = tp.DelayParams(1e3, 1)
        matchings = {}
        for name in ("_exact_min_matching", "_greedy_matching"):
            def spy(odd, w, name=name, real=getattr(tp, name)):
                matchings[name] = (odd, real(odd, w))
                return matchings[name][1]
            monkeypatch.setattr(tp, name, spy)
        o = tp.build_overlay_christofides(g, p)

        assert list(matchings) == [matcher]
        odd, pairs = matchings[matcher]
        assert odd == list(range(n))
        assert sorted(o.tour) == list(range(n))
        w, _ = tp.symmetrized_weights(g, p)
        mst = sum(w[a, b] for a, b in tp._minimum_spanning_tree(w))
        matching = sum(w[a, b] for a, b in pairs)
        # shortcutting the Euler circuit never lengthens it (up to rounding)
        assert o.metric_weight <= (mst + matching) * (1 + 1e-12)

    def test_deterministic(self):
        g = random_metric_graph(9, seed=5)
        p = tp.DelayParams(1e6, 1)
        assert tp.build_overlay_christofides(g, p) == tp.build_overlay_christofides(g, p)


class TestBruteForce:
    def test_uniform_four_silos(self):
        o = tp.brute_force_tsp(uniform_complete_graph(4), TINY_DELAY)
        assert o.metric_weight == pytest.approx(4.0)

    def test_triangle_weights(self):
        silos = tuple(tp.SiloRecord(i, 0.0) for i in range(3))
        links = []
        for (a, b), lat in {(0, 1): 1.0, (1, 2): 2.0, (0, 2): 3.0}.items():
            links.append(tp.LinkRecord(a, b, lat, 1e30))
            links.append(tp.LinkRecord(b, a, lat, 1e30))
        g = tp.ConnectivityGraph(silos=silos, links=tuple(links), undirected=False)
        o = tp.brute_force_tsp(g, TINY_DELAY)
        assert o.metric_weight == pytest.approx(6.0)

    def test_too_many_silos_rejected(self):
        g = uniform_complete_graph(13)
        with pytest.raises(tp.TopologyError, match="12"):
            tp.brute_force_tsp(g, TINY_DELAY)


def manual_ring(latencies):
    """Ring of len(latencies) silos; directed delay of edge (i, i+1) and its
    reverse equals latencies[i] (compute 0, negligible transfer)."""
    n = len(latencies)
    silos = tuple(tp.SiloRecord(i, 0.0) for i in range(n))
    links = []
    for i, lat in enumerate(latencies):
        j = (i + 1) % n
        links.append(tp.LinkRecord(i, j, lat, 1e30))
        links.append(tp.LinkRecord(j, i, lat, 1e30))
    return tp.ConnectivityGraph(silos=silos, links=tuple(links), undirected=False)


class TestCycleTime:
    def test_max_edge_delay(self):
        g = manual_ring([1.0, 2.0, 3.0])
        o = tp.build_overlay_christofides(g, TINY_DELAY)
        assert tp.cycle_time(o, TINY_DELAY) == pytest.approx(3.0)

    def test_constant_edges(self):
        g = manual_ring([0.5, 0.5, 0.5, 0.5])
        o = tp.build_overlay_christofides(g, TINY_DELAY)
        assert tp.cycle_time(o, TINY_DELAY) == pytest.approx(0.5)

    def test_homogeneity(self):
        g1 = manual_ring([0.2, 0.4, 0.6])
        g2 = manual_ring([0.4, 0.8, 1.2])
        o1 = tp.build_overlay_christofides(g1, TINY_DELAY)
        o2 = tp.build_overlay_christofides(g2, TINY_DELAY)
        assert tp.cycle_time(o2, TINY_DELAY) == pytest.approx(2 * tp.cycle_time(o1, TINY_DELAY))


class TestConsensusMatrix:
    def test_three_cycle_uniform(self):
        o = tp.build_overlay_christofides(uniform_complete_graph(3), TINY_DELAY)
        a = tp.consensus_matrix(o).a
        assert np.allclose(a, np.full((3, 3), 1.0 / 3.0))

    def test_two_silo_degenerate(self):
        o = tp.build_overlay_christofides(two_silo_graph(latency=0.1), tp.DelayParams(1.0, 1))
        a = tp.consensus_matrix(o).a
        assert np.allclose(a, np.full((2, 2), 0.5))

    @pytest.mark.parametrize("fixture", ["gaia11", "nws22"])
    def test_doubly_stochastic_and_pattern(self, fixture, request):
        g = request.getfixturevalue(fixture)
        p = tp.DelayParams(1e6, 1)
        o = tp.build_overlay_christofides(g, p)
        mat = tp.consensus_matrix(o)
        a = mat.a
        assert np.all(a >= 0)
        assert np.allclose(a.sum(axis=1), 1.0, atol=1e-12)
        assert np.allclose(a.sum(axis=0), 1.0, atol=1e-12)
        assert np.allclose(a, a.T)
        assert np.all(np.diag(a) > 0)
        for i in range(g.n):
            for j in range(g.n):
                if i != j and a[i, j] > 0:
                    assert j in o.in_neighbors[i]

    @pytest.mark.parametrize("n", [3, 6, 11])
    def test_spectral_gap(self, n):
        o = tp.build_overlay_christofides(uniform_complete_graph(n), TINY_DELAY)
        a = tp.consensus_matrix(o).a
        mods = np.sort(np.abs(np.linalg.eigvals(a)))
        assert mods[-2] < 1.0

    def test_asymmetric_neighbors_rejected(self):
        bad = tp.Overlay(parent=None, tour=(0, 1, 2),
                         edges=((0, 1), (1, 2), (2, 0)),
                         in_neighbors=((2,), (0,), (1,)),
                         out_neighbors=((1,), (2,), (0,)),
                         paths={}, metric_weight=0.0)
        with pytest.raises(tp.TopologyError, match="symmetric"):
            tp.consensus_matrix(bad)
