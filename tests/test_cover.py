"""Randomized sparse covers: frozen replays, cover and radius guarantees,
and Monte-Carlo sparsity."""
from __future__ import annotations

import math
import random

import pytest

from hopmetric.cover import edge_costs, sparse_cover
from hopmetric.graph_core import WeightedGraph, dijkstra, is_inf
from oracles import connected_random_graph


def P8() -> WeightedGraph:
    return WeightedGraph(8, [(i, i + 1, 1.0) for i in range(7)])


class TestFrozenReplay:
    def test_path8_seed3(self):
        sc = sparse_cover(P8(), 1.0, seed=3)
        assert sc.attempts == 1
        got = [(sorted(C), c, r) for C, c, r in sc.clusters]
        assert got == [([0, 1, 2, 3, 4], 0, 4), ([4, 5, 6, 7], 4, 4)]

    def test_deterministic_in_seed(self):
        a = sparse_cover(P8(), 1.0, seed=7)
        b = sparse_cover(P8(), 1.0, seed=7)
        assert a == b
        outs = {tuple((C, c, r) for C, c, r in sparse_cover(P8(), 1.0, s).clusters)
                for s in range(12)}
        assert len(outs) > 1, "different seeds explore different covers"


class TestGuarantees:
    def test_cover_and_radius(self):
        rng = random.Random(101)
        for _ in range(12):
            n = rng.randint(2, 14)
            G = connected_random_graph(rng, n, 0.3, 1.0, 5.0)
            delta = rng.choice([1.0, 2.0, 4.0])
            sc = sparse_cover(G, delta, seed=rng.randrange(1000))
            rmax = math.log2(2 * n)
            assert all(r <= rmax for _, _, r in sc.clusters)
            # all vertices covered
            assert set().union(*(C for C, _, _ in sc.clusters)) == set(range(n))
            # centers belong to their clusters
            assert all(c in C for C, c, _ in sc.clusters)
            # delta-close pairs share a cluster
            for u in range(n):
                d = dijkstra(G.adj, u)
                for v in range(u + 1, n):
                    if not is_inf(d[v]) and d[v] <= delta + 1e-12:
                        assert any(u in C and v in C for C, _, _ in sc.clusters)

    def test_cluster_radius_within_induced_subgraph(self):
        rng = random.Random(102)
        for _ in range(8):
            n = rng.randint(3, 12)
            G = connected_random_graph(rng, n, 0.35, 1.0, 3.0)
            sc = sparse_cover(G, 2.0, seed=rng.randrange(1000))
            for C, c, r in sc.clusters:
                sub = WeightedGraph(n, [(u, v, w) for u, v, w in G.edges
                                       if u in C and v in C])
                d = dijkstra(sub.adj, c)
                for v in C:
                    assert not is_inf(d[v]) and d[v] <= r * sc.delta + 1e-9

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            sparse_cover(P8(), 0.0)
        with pytest.raises(ValueError):
            sparse_cover(P8(), float("nan"))
        with pytest.raises(ValueError, match="finite"):
            sparse_cover(P8(), math.inf)


class TestSparsity:
    def test_mean_multiplicity(self):
        # expected cluster membership per vertex is O(1); average over many
        # seeds stays small
        rng = random.Random(103)
        G = connected_random_graph(rng, 16, 0.2, 1.0, 4.0)
        total = 0.0
        trials = 40
        for s in range(trials):
            sc = sparse_cover(G, 1.5, seed=s)
            total += sum(sc.multiplicity(v) for v in range(G.n)) / G.n
        assert total / trials <= 4.0

    def test_cluster_cost(self):
        G = P8()
        mu = edge_costs(G)
        assert sum(mu.values()) == pytest.approx(7.0)
        sc = sparse_cover(G, 1.0, seed=3)
        # frozen clusters: edges 0-1..3-4 in the first, 4-5..6-7 in the second
        assert sc.cluster_cost(mu) == pytest.approx(7.0)
