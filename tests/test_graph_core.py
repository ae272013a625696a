"""Bounded-hop distance core: exact values, oracle agreement, properties."""
from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopmetric import graph_core
from hopmetric.graph_core import (INFINITY, HopParams, WeightedGraph, dijkstra,
                                  finite_completion, hop_ball, hop_diameter,
                                  hop_distance, hop_distance_all,
                                  is_h_respecting, is_inf,
                                  max_finite_hop_distance)
from oracles import edge_count_bellman_ford, random_graph, walk_enum_distance


def P4() -> WeightedGraph:
    return WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])


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

    def test_allowed_mask(self):
        d = hop_distance_all(P4(), 0, 3, allowed=[0, 1, 3])
        assert d[1] == 1.0 and is_inf(d[2]) and is_inf(d[3])

    def test_diameter(self):
        assert hop_diameter(P4(), 3) == 3.0
        assert is_inf(hop_diameter(P4(), 2))

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
        assert max_finite_hop_distance(P4(), 2) == pytest.approx(2.0)

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

    def test_one_pass_over_rows(self, monkeypatch):
        calls = []
        monkeypatch.setattr(graph_core, "hop_distance_all",
                            lambda *a, **kw: calls.append(a[1]) or hop_distance_all(*a, **kw))
        G = WeightedGraph(6, [(0, 1, 1.0), (1, 2, 2.0), (3, 4, 1.0)])
        finite_completion(G, 2, 2)
        assert sorted(calls) == list(range(6))


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
