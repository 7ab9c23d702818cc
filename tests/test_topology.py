import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
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
        assert {(l.src, l.dst) for l in g.links} == {(0, 1), (1, 0)}

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
    )


class TestLinkDelay:
    def test_bandwidth_term_only(self):
        g = two_silo_graph()
        p = tp.DelayParams(model_size_bytes=1_000_000, local_steps=1)
        assert tp.path_delay(g, (0, 1), p) == 1.0

    def test_direct_substitution(self):
        # 4-byte params at the published full-scale parameter count
        g = two_silo_graph(tc=0.5, latency=0.1, bandwidth=1e7)
        p = tp.DelayParams(model_size_bytes=1_270_916, local_steps=1)
        assert tp.path_delay(g, (0, 1), p) == pytest.approx(0.7270916, rel=1e-12)

    def test_local_steps_scale_compute_only(self):
        g = two_silo_graph(tc=0.5, latency=0.0, bandwidth=1e30)
        p = tp.DelayParams(model_size_bytes=1.0, local_steps=2)
        assert tp.path_delay(g, (0, 1), p) == pytest.approx(1.0, abs=1e-12)

    def test_missing_link(self):
        g2 = tp.ConnectivityGraph(
            silos=(tp.SiloRecord(0, 0.0), tp.SiloRecord(1, 0.0), tp.SiloRecord(2, 0.0)),
            links=(tp.LinkRecord(0, 1, 0.1, 1e6), tp.LinkRecord(1, 0, 0.1, 1e6),
                   tp.LinkRecord(1, 2, 0.1, 1e6), tp.LinkRecord(2, 1, 0.1, 1e6)))
        with pytest.raises(tp.TopologyError, match="no link"):
            tp.path_delay(g2, (0, 2), tp.DelayParams(1.0, 1))

    @settings(max_examples=50, deadline=None)
    @given(m1=st.floats(1.0, 1e9), m2=st.floats(1.0, 1e9),
           b=st.floats(1e3, 1e9), lat=st.floats(0.0, 10.0), tc=st.floats(0.0, 5.0),
           s=st.integers(1, 5))
    # payloads one ulp apart whose transfer times round to the same delay
    @example(m1=1e9, m2=999999999.9999999, b=335156669.0, lat=0.0, tc=0.0, s=1)
    def test_delay_properties(self, m1, m2, b, lat, tc, s):
        g = two_silo_graph(tc=tc, latency=lat, bandwidth=b)
        lo, hi = sorted((m1, m2))
        d_lo = tp.path_delay(g, (0, 1), tp.DelayParams(lo, s))
        d_hi = tp.path_delay(g, (0, 1), tp.DelayParams(hi, s))
        assert d_lo >= 0.0
        # increasing in payload size; strictly so once the transfer times
        # differ by more than the rounding of the sum
        assert d_hi >= d_lo
        if hi / b - lo / b > 4 * math.ulp(d_hi):
            assert d_hi > d_lo
        # additive in latency
        g2 = two_silo_graph(tc=tc, latency=lat + 1.0, bandwidth=b)
        assert tp.path_delay(g2, (0, 1), tp.DelayParams(lo, s)) == pytest.approx(d_lo + 1.0,
                                                                                 rel=1e-9)
        # strictly decreasing in bandwidth
        g3 = two_silo_graph(tc=tc, latency=lat, bandwidth=b * 2)
        assert tp.path_delay(g3, (0, 1), tp.DelayParams(lo, s)) < d_lo


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
    return tp.ConnectivityGraph(silos=silos, links=tuple(links))


def reference_symmetrized_weights(g, p):
    """The in-place triple-loop Floyd-Warshall that the whole-matrix steps
    of ``tp.symmetrized_weights`` replaced, kept as the reference; it
    returns the weights and every ordered pair's path."""
    n = g.n
    w = np.full((n, n), np.inf)
    np.fill_diagonal(w, 0.0)
    arcs = {(l.src, l.dst) for l in g.links}
    for l in g.links:
        if (l.dst, l.src) in arcs:
            sym = 0.5 * (tp.path_delay(g, (l.src, l.dst), p) + tp.path_delay(g, (l.dst, l.src), p))
        else:
            sym = tp.path_delay(g, (l.src, l.dst), p)
        w[l.src, l.dst] = min(w[l.src, l.dst], sym)
    nxt = [[j if math.isfinite(w[i][j]) and i != j else -1 for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            if w[i, k] == np.inf:
                continue
            for j in range(n):
                cand = w[i, k] + w[k, j]
                if cand < w[i, j]:
                    w[i, j] = cand
                    nxt[i][j] = nxt[i][k]
    paths = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            seq = [i]
            while seq[-1] != j:
                seq.append(nxt[seq[-1]][j])
            paths[i][j] = tuple(seq)
    return w, paths


def walked_paths(nxt):
    """Every ordered pair's path, walked from a next-hop table by ``tp._path``."""
    n = len(nxt)
    return [[tp._path(nxt, i, j) for j in range(n)] for i in range(n)]


def one_way_ring_graph(n, seed):
    """A one-way ring through the silos in random order plus n random extra
    arcs (repeats dropped); the ring keeps every silo reachable from every
    other."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n).tolist()
    arcs = {(order[k], order[(k + 1) % n]) for k in range(n)}
    for _ in range(n):
        a, b = rng.choice(n, size=2, replace=False).tolist()
        arcs.add((a, b))
    return tp.ConnectivityGraph(
        silos=tuple(tp.SiloRecord(i, float(rng.uniform(0.0, 0.3))) for i in range(n)),
        links=tuple(tp.LinkRecord(a, b, float(rng.uniform(0.01, 0.5)),
                                  float(rng.uniform(1e6, 1e8))) for a, b in sorted(arcs)))


def one_way_graph():
    """Links 0<->1 and 1->2 only: connected, but silo 2 reaches no one."""
    return tp.ConnectivityGraph(
        silos=tuple(tp.SiloRecord(i, 0.1) for i in range(3)),
        links=(tp.LinkRecord(0, 1, 0.1, 1e6), tp.LinkRecord(1, 0, 0.1, 1e6),
               tp.LinkRecord(1, 2, 0.1, 1e6)))


class TestSymmetrizedWeights:
    # sparse random graphs need 5 silos
    @pytest.mark.parametrize("n, sparse", [(n, sparse) for n in [*range(2, 13), 16, 22]
                                           for sparse in (False, True) if n >= 5 or not sparse])
    def test_matches_triple_loop_bitwise(self, n, sparse):
        p = tp.DelayParams(1e6, 1)
        for seed in range(4):
            g = random_metric_graph(n, seed=100 * n + seed, sparse=sparse)
            w, nxt = tp.symmetrized_weights(g, p)
            ref_w, ref_paths = reference_symmetrized_weights(g, p)
            assert w.tobytes() == ref_w.tobytes()
            assert walked_paths(nxt) == ref_paths

    @pytest.mark.parametrize("graph", [
        uniform_complete_graph(6), manual_ring([0.5] * 6), manual_ring([0.25, 0.5, 0.25, 0.5]),
    ], ids=["uniform6", "ring6", "ring4"])
    def test_ties_keep_the_first_path(self, graph):
        # equal-length alternatives everywhere: strict < keeps the first path
        # found, in the order of the intermediate silo k
        w, nxt = tp.symmetrized_weights(graph, TINY_DELAY)
        ref_w, ref_paths = reference_symmetrized_weights(graph, TINY_DELAY)
        assert w.tobytes() == ref_w.tobytes()
        assert walked_paths(nxt) == ref_paths

    @pytest.mark.parametrize("fixture", ["gaia11", "nws22"])
    def test_fixtures_match_triple_loop(self, fixture, request):
        g = request.getfixturevalue(fixture)
        p = tp.DelayParams(8.0 * 31227, 1)
        w, nxt = tp.symmetrized_weights(g, p)
        ref_w, ref_paths = reference_symmetrized_weights(g, p)
        assert w.tobytes() == ref_w.tobytes()
        assert walked_paths(nxt) == ref_paths

    @pytest.mark.parametrize("build", [tp.symmetrized_weights, tp.build_overlay_christofides,
                                       tp.brute_force_tsp])
    def test_unreachable_silo_named(self, build):
        with pytest.raises(tp.TopologyError, match="silo 0 cannot be reached from silo 2"):
            build(one_way_graph(), TINY_DELAY)

    @pytest.mark.parametrize("build", [tp.build_overlay_christofides, tp.brute_force_tsp])
    def test_directed_ring_gets_a_symmetric_metric(self, build):
        # links i -> i+1 only, delay 1: the shortest paths are 1 forward and
        # 3 back, so every pair weighs their mean 2 and any tour weighs 8
        # (the forward ring's 4 under the one-way delays)
        g = tp.ConnectivityGraph(silos=tuple(tp.SiloRecord(i, 0.0) for i in range(4)),
                                 links=tuple(tp.LinkRecord(i, (i + 1) % 4, 1.0, 1e30)
                                             for i in range(4)))
        w, nxt = tp.symmetrized_weights(g, TINY_DELAY)
        assert w[0, 1] == w[1, 0] == 2.0
        assert np.array_equal(w, w.T)
        assert tp._path(nxt, 0, 1) == (0, 1) and tp._path(nxt, 1, 0) == (1, 2, 3, 0)
        assert build(g, TINY_DELAY).metric_weight == 8.0

    def test_sparse_random_graph_needs_five_silos(self):
        for n in (2, 3, 4):
            with pytest.raises(ValueError, match="n\\+3"):
                random_metric_graph(n, seed=0, sparse=True)
        assert random_metric_graph(5, seed=0, sparse=True).n == 5


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

    @pytest.mark.parametrize("build", [tp.build_overlay_christofides, tp.brute_force_tsp])
    def test_two_silos_weigh_the_link_once(self, build):
        # unequal compute makes the two directions differ; the tour runs the
        # link out and back and weighs it once, at its symmetrized delay
        g = two_silo_graph(tc=0.3, latency=0.1)
        p = tp.DelayParams(1e6, 1)
        w, _ = tp.symmetrized_weights(g, p)
        o = build(g, p)
        assert o.tour == (0, 1) and o.edges == ((0, 1), (1, 0))
        assert o.metric_weight == w[0, 1] == 0.5 * (tp.path_delay(g, (0, 1), p)
                                                     + tp.path_delay(g, (1, 0), p))

    @pytest.mark.parametrize("fixture, build", [
        ("gaia11", tp.build_overlay_christofides), ("gaia11", tp.brute_force_tsp),
        ("nws22", tp.build_overlay_christofides),
    ], ids=["gaia11-christofides", "gaia11-brute-force", "nws22-christofides"])
    def test_metric_weight_is_the_tour_weight(self, fixture, build, request):
        # one formula weighs every builder's tour (nws22 is above the
        # brute-force limit)
        g = request.getfixturevalue(fixture)
        p = tp.DelayParams(8.0 * 31227, 1)
        w, _ = tp.symmetrized_weights(g, p)
        o = build(g, p)
        assert o.metric_weight == tp._tour_weight(w, list(o.tour))

    def test_seeded_instance_within_bound(self):
        g = random_metric_graph(8, seed=42)
        p = tp.DelayParams(1_000_000, 1)
        approx = tp.build_overlay_christofides(g, p)
        exact = tp.brute_force_tsp(g, p)
        assert exact.metric_weight <= approx.metric_weight + 1e-12
        assert approx.metric_weight <= 1.5 * exact.metric_weight + 1e-12

    @pytest.mark.parametrize("n", range(3, 10))
    def test_directed_graphs_within_bound(self, n):
        # Christofides' 1.5x bound holds on the symmetrized metric of
        # graphs with one-way links too, checked against the exact optimum
        p = tp.DelayParams(1e6, 1)
        for seed in range(12):
            g = one_way_ring_graph(n, seed=10 * n + seed)
            arcs = {(l.src, l.dst) for l in g.links}
            assert any((b, a) not in arcs for a, b in arcs)
            approx = tp.build_overlay_christofides(g, p)
            exact = tp.brute_force_tsp(g, p)
            assert sorted(approx.tour) == list(range(n))
            assert approx.metric_weight <= (1.5 + 1e-12) * exact.metric_weight

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
        # every expanded path walks real links of the parent graph
        arcs = {(l.src, l.dst) for l in g.links}
        for (a, b), path in o.paths.items():
            assert path[0] == a and path[-1] == b
            for u, v in zip(path, path[1:]):
                assert (u, v) in arcs

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
        g = tp.ConnectivityGraph(silos=silos, links=tuple(links))
        o = tp.brute_force_tsp(g, TINY_DELAY)
        assert o.metric_weight == pytest.approx(6.0)

    def test_too_many_silos_rejected(self):
        g = uniform_complete_graph(13)
        with pytest.raises(tp.TopologyError, match="12"):
            tp.brute_force_tsp(g, TINY_DELAY)


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
        # a one-way ring: 0 hears from 2, but 2 does not hear from 0
        bad = tp.Overlay(parent=None, tour=(0, 1, 2),
                         edges=((0, 1), (1, 2), (2, 0)),
                         in_neighbors=((2,), (0,), (1,)),
                         paths={}, metric_weight=0.0)
        with pytest.raises(tp.TopologyError, match="symmetric"):
            tp.consensus_matrix(bad)
