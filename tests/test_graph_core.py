"""Bounded-hop distance core: exact values, oracle agreement, properties."""
from __future__ import annotations

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopmetric import graph_core
from hopmetric.graph_core import (INFINITY, HopParams, WeightedGraph,
                                  finite_completion, hop_ball, hop_diameter,
                                  hop_distance, hop_distance_all,
                                  is_h_respecting, is_inf)
from hopmetric.preserve import bounded_hop_path
from oracles import edge_count_bellman_ford, random_graph, walk_enum_distance


def P4() -> WeightedGraph:
    return WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])


@pytest.mark.parametrize("call", [
    lambda G: hop_distance_all(G, 0, 2.5),
    lambda G: hop_diameter(G, 2.5),
    lambda G: bounded_hop_path(G, 0, 2, 2.5),
    lambda G: hop_distance_all(G, 0, "2"),
    lambda G: hop_distance_all(G, 0, True),
    lambda G: bounded_hop_path(G, 0, 2, True),
], ids=["fraction-row", "fraction-diameter", "fraction-path", "string-row",
        "bool-row", "bool-path"])
def test_hop_budgets_are_integers(call):
    with pytest.raises(ValueError, match="budget must be an integer"):
        call(P4())


class TestInfinity:
    def test_absorbing_addition(self):
        assert is_inf(INFINITY + 1.0)
        assert is_inf(1.0 + INFINITY)
        assert is_inf(INFINITY + INFINITY)

    def test_ordering(self):
        assert 1e300 < INFINITY
        assert not (INFINITY < 1e300)
        assert INFINITY <= INFINITY
        assert min(INFINITY, 3.0) == 3.0
        assert is_inf(max(INFINITY, 3.0))


class TestHopDistance:
    def test_p4_h3(self):
        assert hop_distance_all(P4(), 0, 3) == [0.0, 1.0, 2.0, 3.0]

    def test_p4_h2_unreachable(self):
        d = hop_distance_all(P4(), 0, 2)
        assert d[:3] == [0.0, 1.0, 2.0]
        assert is_inf(d[3])

    def test_single_pair(self):
        assert hop_distance(P4(), 0, 2, 2) == 2.0
        assert is_inf(hop_distance(P4(), 0, 3, 2))

    def test_hop_ball(self):
        assert hop_ball(P4(), 0, 1.5, 2) == {0, 1}
        assert hop_ball(P4(), 1, 1.0, 1) == {0, 1, 2}

    @pytest.mark.parametrize("r", [math.nan, math.inf, -1.0])
    def test_hop_ball_rejects_bad_radius(self, r):
        with pytest.raises(ValueError, match="r must be finite and >= 0"):
            hop_ball(P4(), 0, r, 2)

    def test_allowed_mask(self):
        d = hop_distance_all(P4(), 0, 3, allowed=[0, 1, 3])
        assert d[1] == 1.0 and is_inf(d[2]) and is_inf(d[3])

    @pytest.mark.parametrize("allowed, bad", [([0, -1], -1), ([0, 9], 9),
                                              ([0, 4], 4), ([0, -5], -5),
                                              ([0, -8], -8), ([0, -9], -9)])
    def test_allowed_ids_in_range(self, allowed, bad):
        C4 = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 5.0)])
        with pytest.raises(ValueError, match=rf"allowed vertex id {bad} out of range"):
            hop_distance_all(C4, 0, 3, allowed=allowed)

    def test_diameter(self):
        assert hop_diameter(P4(), 3) == 3.0
        assert is_inf(hop_diameter(P4(), 2))

    def test_diameter_stops_at_first_missing_pair(self, monkeypatch):
        # on a long path the first row already lacks a 2-hop pair; at h = 399
        # the scan skips the rows whose neighbour's 398-hop row bounds them
        G = WeightedGraph(400, [(v, v + 1, 1.0) for v in range(399)])
        calls = []
        real = graph_core.hop_profile
        monkeypatch.setattr(graph_core, "hop_profile",
                            lambda *a, **kw: calls.append(a[1]) or real(*a, **kw))
        assert is_inf(hop_diameter(G, 2))
        assert calls == [0]
        assert hop_diameter(G, 399) == 399.0
        assert len(calls) == 1 + 202

    def test_matches_walk_enumeration(self):
        rng = random.Random(0)
        for _ in range(15):
            n = rng.randint(2, 12)
            G = random_graph(rng, n, 0.4, 1.0, 9.0)
            for h in (1, 2, 3):
                for s in range(n):
                    ref = walk_enum_distance(G, s, h)
                    got = hop_distance_all(G, s, h)
                    for v in range(n):
                        if ref[v] == math.inf:
                            assert is_inf(got[v])
                        else:
                            assert got[v] == pytest.approx(ref[v], rel=1e-12)

    def test_unbounded_matches_bellman_ford(self):
        rng = random.Random(1)
        for _ in range(10):
            n = rng.randint(2, 14)
            G = random_graph(rng, n, 0.3, 1.0, 5.0)
            for s in range(n):
                ref = edge_count_bellman_ford(G, s)
                got = hop_distance_all(G, s, n - 1)
                for v in range(n):
                    if ref[v] == math.inf:
                        assert is_inf(got[v])
                    else:
                        assert got[v] == pytest.approx(ref[v], rel=1e-12)


class TestNormalization:
    def test_scale_recorded(self):
        G = WeightedGraph(3, [(0, 1, 2.0), (1, 2, 4.0)])
        assert G.scale == pytest.approx(2.0)
        assert G.edge_weight(0, 1) == pytest.approx(1.0)
        assert G.edge_weight(1, 2) == pytest.approx(2.0)

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            WeightedGraph(2, [(0, 0, 1.0)])
        with pytest.raises(ValueError):
            WeightedGraph(2, [(0, 1, -1.0)])
        with pytest.raises(ValueError):
            WeightedGraph(2, [(0, 1, 1.0), (1, 0, 2.0)])

    @pytest.mark.parametrize("n, edges, value", [
        (3, [(0, 1.5, 1.0)], "1.5"), (3, [(0.5, 1, 1.0)], "0.5"),
        (2.7, [(0, 1, 1.0)], "2.7"), (float("nan"), [], "nan"),
        (3, [(0, True, 1.0)], "True"), ("3", [], "'3'")])
    def test_rejects_fractional_ids_and_sizes(self, n, edges, value):
        with pytest.raises(ValueError, match=f"must be an integer, got {value}"):
            WeightedGraph(n, edges)

    @pytest.mark.parametrize("text, value", [
        ('{"n": 2.7, "edges": [[0, 1, 1.0]]}', "2.7"),
        ('{"n": 3, "edges": [[0, 1.5, 2.0]]}', "1.5"),
        ('{"n": 3, "edges": [[0, true, 1.0]]}', "True"),
        ('{"n": true, "edges": []}', "True"),
        ('{"n": "3", "edges": [[0, 1, 2.5]]}', "'3'"),
        ('{"n": 3, "edges": [["0", 1, 2.5]]}', "'0'")])
    def test_from_json_rejects_fractional_ids_and_sizes(self, text, value):
        with pytest.raises(ValueError, match=f"must be an integer, got {value}"):
            WeightedGraph.from_json(text)

    @pytest.mark.parametrize("w", ["2.5", True, None, [1.0]])
    def test_rejects_non_numeric_weights(self, w):
        with pytest.raises(ValueError, match="non-numeric weight"):
            WeightedGraph(3, [(0, 1, 1.0), (1, 2, w)])
        text = json.dumps({"n": 3, "edges": [[0, 1, w]]})
        with pytest.raises(ValueError, match="non-numeric weight"):
            WeightedGraph.from_json(text)

    def test_int_weights_are_floats(self):
        G = WeightedGraph.from_json('{"n": 3, "edges": [[0, 1, 2], [1, 2, 3.0]]}')
        assert G.edges == ((0, 1, 1.0), (1, 2, 1.5)) and G.scale == 2.0

    @pytest.mark.parametrize("u, v", [(-1, 0), (0, -1), (3, 0), (0, 3)])
    def test_edge_queries_reject_bad_vertex_ids(self, u, v):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        bad = u if not 0 <= u < 3 else v
        with pytest.raises(ValueError, match=f"vertex id {bad} out of range for n=3"):
            G.has_edge(u, v)
        with pytest.raises(ValueError, match=f"vertex id {bad} out of range for n=3"):
            G.edge_weight(u, v)

    def test_edge_queries_on_valid_ids(self):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 2.0)])
        assert G.has_edge(0, 1) and G.has_edge(2, 1) and not G.has_edge(0, 2)
        assert G.edge_weight(2, 1) == 2.0
        with pytest.raises(KeyError):
            G.edge_weight(0, 2)

    def test_weight_maps_agree_with_edges(self):
        """The per-vertex weight maps hold each edge both ways, so has_edge
        and edge_weight answer from G.edges; a non-edge is a KeyError
        naming the pair."""
        rng = random.Random(137)
        for _ in range(20):
            G = random_graph(rng, rng.randint(1, 12), 0.4, 1.0, 5.0)
            want = {}
            for u, v, w in G.edges:
                want[u, v] = want[v, u] = w
            assert G.nbr_weight == tuple(dict(row) for row in G.adj)
            for u in range(G.n):
                for v in range(G.n):
                    assert G.has_edge(u, v) == ((u, v) in want)
                    if (u, v) in want:
                        assert G.edge_weight(u, v) == want[u, v]
                    else:
                        with pytest.raises(KeyError) as exc:
                            G.edge_weight(u, v)
                        assert exc.value.args == ((u, v),)

    def test_integral_floats_are_ids(self):
        G = WeightedGraph.from_json('{"n": 3.0, "edges": [[0.0, 2, 1.0]]}')
        assert G.n == 3 and G.edges == ((0, 2, 1.0),)
        assert all(type(x) is int for x in (G.n, *G.edges[0][:2]))

    def test_json_roundtrip(self):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 3.5)])
        G2 = WeightedGraph.from_json(G.to_json())
        assert G2.n == G.n and G2.edges == G.edges


class TestFiniteCompletion:
    def test_p4_h2_k2(self):
        # D' = max finite 2-hop distance = 2, so omega = 17*2*2 = 68 and the
        # only >2-hop pair {0,3} gains an edge
        G, omega = finite_completion(P4(), 2, 2)
        assert omega == pytest.approx(68.0)
        assert len(G.edges) == 4
        assert G.edge_weight(0, 3) == pytest.approx(68.0)

    def test_makes_diameter_finite(self):
        G, _ = finite_completion(P4(), 1, 1)
        assert not is_inf(hop_diameter(G, 1))

    def test_max_finite(self):
        assert graph_core._finite_scan(P4(), 2) == (pytest.approx(2.0), True)

    @pytest.mark.parametrize("h", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_omega_is_completed_diameter(self, h, k):
        rng = random.Random(100 * h + k)
        tried = 0
        while tried < 12:
            n = rng.randint(2, 12)
            G = random_graph(rng, n, rng.choice([0.1, 0.2, 0.35]), 1.0, 8.0)
            if not is_inf(hop_diameter(G, h)):
                continue
            tried += 1
            Gw, omega = finite_completion(G, h, k)
            assert hop_diameter(Gw, h) == omega

    @pytest.mark.parametrize("G, rows", [
        (WeightedGraph(6, [(0, 1, 1.0), (1, 2, 2.0), (3, 4, 1.0)]), 6),
        # D' = 5 after the row of 0; the hub 2 reaches every vertex within
        # 3 in one hop, so the rows of 3 and 4 stay within 1 + 3 < 5
        (WeightedGraph(5, [(0, 1, 5.0), (0, 2, 3.0), (1, 2, 3.0), (2, 3, 1.0),
                           (2, 4, 1.0)]), 3)])
    def test_one_pass_over_rows(self, monkeypatch, G, rows):
        calls = []
        real = graph_core.hop_profile
        monkeypatch.setattr(graph_core, "hop_profile",
                            lambda *a, **kw: calls.append(a[1]) or real(*a, **kw))
        finite_completion(G, 2, 2)
        assert calls == sorted(set(calls)) and len(calls) == rows


class TestHRespecting:
    def test_path_respects_large_h(self):
        G = P4()
        assert is_h_respecting(G, [(0, 1), (1, 2), (2, 3)], 3)
        assert not is_h_respecting(G, [(0, 1), (1, 2), (2, 3)], 1)

    def test_rejects_non_edges(self):
        with pytest.raises(ValueError):
            is_h_respecting(P4(), [(0, 2)], 2)


class TestHopParams:
    def test_validation(self):
        HopParams(h=1, k=1, epsilon=0.5)
        with pytest.raises(ValueError):
            HopParams(h=0, k=1, epsilon=0.5)
        with pytest.raises(ValueError):
            HopParams(h=1, k=0, epsilon=0.5)
        with pytest.raises(ValueError):
            HopParams(h=1, k=1, epsilon=1.5)
        for h, k in ((True, 1), (1, True), ("2", 1), (None, 1), (1, [2])):
            with pytest.raises(ValueError, match="must be an integer"):
                HopParams(h, k)

    def test_stores_ints(self):
        p = HopParams(2.0, 2.0)
        assert type(p.h) is int and p.h == 2
        assert type(p.k) is int and p.k == 2
        assert p == HopParams(2, 2)


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    seed = draw(st.integers(min_value=0, max_value=10 ** 6))
    rng = random.Random(seed)
    return random_graph(rng, n, 0.4, 1.0, 8.0)


@given(graphs(), st.integers(min_value=1, max_value=5))
@settings(max_examples=40, deadline=None)
def test_monotone_in_h(G, h):
    for s in range(G.n):
        d1 = hop_distance_all(G, s, h)
        d2 = hop_distance_all(G, s, h + 1)
        for v in range(G.n):
            assert d2[v] <= d1[v]


@given(graphs(), st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=3))
@settings(max_examples=40, deadline=None)
def test_relaxed_triangle_inequality(G, h1, h2):
    # d^(h1+h2)(u,w) <= d^(h1)(u,v) + d^(h2)(v,w)
    d1 = [hop_distance_all(G, s, h1) for s in range(G.n)]
    d2 = [hop_distance_all(G, s, h2) for s in range(G.n)]
    d12 = [hop_distance_all(G, s, h1 + h2) for s in range(G.n)]
    for u in range(G.n):
        for v in range(G.n):
            for w in range(G.n):
                lhs = d12[u][w]
                rhs = d1[u][v] + d2[v][w]
                if not is_inf(rhs):
                    assert not is_inf(lhs) and lhs <= rhs + 1e-9
