"""Distance oracle, labeling, and routing layers: tree labels, coarse
estimators, auxiliary scale graphs, landmark structures, and the final
hop-bounded sandwich guarantees."""
from __future__ import annotations

import dataclasses
import math
import random

import pytest

import hopmetric
from hopmetric import datastructures, tz
from hopmetric.datastructures import (AuxiliaryGraph, CoarseBudgetExceeded,
                                      auxiliary_graph,
                                      build_coarse_labeling,
                                      build_coarse_oracle, build_hop_labeling,
                                      build_hop_oracle, build_routing_scheme,
                                      build_tree_labels, hop_oracle_query,
                                      labeling_query, route, tree_label_query,
                                      _scale_of)
from hopmetric.graph_core import WeightedGraph, hop_distance_all, is_inf
from hopmetric.ramsey import ramsey_embed
from hopmetric.ultrametric import ultra_distance
from oracles import connected_random_graph
from test_ultrametric import random_ultrametric


def P4() -> WeightedGraph:
    return WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])


class TestTreeLabels:
    def test_exhaustive_agreement(self):
        rng = random.Random(201)
        for _ in range(10):
            U = random_ultrametric(rng, rng.randint(2, 12))
            tl = build_tree_labels(U)
            for x in U.leaves():
                for y in U.leaves():
                    assert tree_label_query(tl[x], tl[y]) == \
                        pytest.approx(ultra_distance(U, x, y))

    def test_rejects_foreign_labels(self):
        la = ((0, 4.0), (1, 0.0))
        lb = ((9, 4.0), (10, 0.0))
        with pytest.raises(ValueError):
            tree_label_query(la, lb)


def _check_coarse_sandwich(G, coarse, h):
    for u in range(G.n):
        dh = hop_distance_all(G, u, h)
        dB = hop_distance_all(G, u, coarse.beta_hops * h)
        for v in range(G.n):
            if v == u:
                continue
            est = coarse.query(u, v)
            if not is_inf(dB[v]) and not is_inf(est):
                assert est >= dB[v] * (1 - 1e-9)
            if not is_inf(dh[v]):
                assert not is_inf(est)
                assert est <= coarse.t_coarse * dh[v] * (1 + 1e-9)


class TestCoarseLabeling:
    def test_p4(self):
        cl = build_coarse_labeling(P4(), 3, 1)
        _check_coarse_sandwich(P4(), cl, 3)

    def test_random(self):
        rng = random.Random(211)
        for _ in range(6):
            n = rng.randint(2, 10)
            G = connected_random_graph(rng, n, 0.3, 1.0, 6.0)
            h, k = rng.randint(1, 3), rng.randint(1, 3)
            cl = build_coarse_labeling(G, h, k)
            _check_coarse_sandwich(G, cl, h)
            assert all(0 <= r < cl.rounds() for r in cl.home)

    def test_symmetric(self):
        rng = random.Random(212)
        G = connected_random_graph(rng, 8, 0.3, 1.0, 4.0)
        cl = build_coarse_labeling(G, 2, 2)
        for u in range(8):
            for v in range(8):
                assert cl.query(u, v) == cl.query(v, u)


class TestCoarseOracle:
    def test_sandwich_and_size(self):
        rng = random.Random(221)
        for _ in range(5):
            n = rng.randint(2, 9)
            G = connected_random_graph(rng, n, 0.3, 1.0, 5.0)
            h, k = rng.randint(1, 2), rng.randint(1, 3)
            co = build_coarse_oracle(G, h, k, seed=rng.randrange(100))
            _check_coarse_sandwich(G, co, h)
            assert all(len(co.labels[v]) == co.home[v] + 1 for v in range(n))
            assert co.size_words() > 0

    def test_deterministic_in_seed(self):
        G = P4()
        a = build_coarse_oracle(G, 2, 2, seed=5)
        b = build_coarse_oracle(G, 2, 2, seed=5)
        assert a.home == b.home and a.labels == b.labels

    def test_blown_budget_raises_typed_error(self, monkeypatch):
        G = P4()
        emb = ramsey_embed(G, [1.0] * 4, set(range(4)), 2, 3, "alt")
        unpadded = dataclasses.replace(emb, M=frozenset())
        monkeypatch.setattr(datastructures, "ramsey_distribution",
                            lambda *a, **kw: [(unpadded, 0.5), (unpadded, 0.5)])
        with pytest.raises(CoarseBudgetExceeded, match="all 2 attempts"):
            build_coarse_oracle(G, 2, 2, max_attempts=2)
        assert issubclass(hopmetric.CoarseBudgetExceeded, RuntimeError)


class TestAuxiliaryGraph:
    def test_surcharge_formula(self):
        G = P4()
        Gi = auxiliary_graph(G, 3, 2, 32.0, 0.5)
        assert Gi.omega == pytest.approx((0.5 / 64.0) * 8.0)
        for u in range(G.n):
            base = dict(G.adj[u])
            for v, w in Gi.adj[u]:
                assert w == pytest.approx(base[v] + Gi.omega)
        assert Gi.weight_of_path([0, 1, 2]) == pytest.approx(2.0 + 2 * Gi.omega)

    def test_scale_selection(self):
        assert _scale_of(1.0) == 0
        assert _scale_of(2.0) == 1
        assert _scale_of(3.9) == 1
        assert _scale_of(4.0) == 2
        assert _scale_of(0.5) == 0

    def test_rejects_negative_scale(self):
        with pytest.raises(ValueError):
            auxiliary_graph(P4(), -1, 1, 16.0, 0.5)


class TestLandmarkHierarchy:
    def _graphs(self, seed, count):
        rng = random.Random(seed)
        for _ in range(count):
            n = rng.randint(2, 12)
            yield connected_random_graph(rng, n, 0.3, 1.0, 6.0), rng

    def test_oracle_stretch(self):
        for G, rng in self._graphs(231, 10):
            for k in (1, 2, 3):
                O = tz.build_oracle(G.adj, k, seed=rng.randrange(100))
                for u in range(G.n):
                    d = tz.sssp(G.adj, u)
                    for v in range(G.n):
                        got = O.query(u, v)
                        assert got >= d[v] * (1 - 1e-9)
                        assert got <= (2 * k - 1) * d[v] * (1 + 1e-9)
                        if k == 1:
                            assert got == pytest.approx(d[v])

    def test_labeling_matches_oracle(self):
        for G, rng in self._graphs(232, 6):
            s = rng.randrange(100)
            O = tz.build_oracle(G.adj, 2, seed=s)
            L = tz.build_labeling(G.adj, 2, seed=s)
            for u in range(G.n):
                for v in range(G.n):
                    assert L.labels and O.query(u, v) == pytest.approx(
                        tz.label_query(2, L.label(u), L.label(v)))

    def test_routing_delivers_with_stretch(self):
        for G, rng in self._graphs(233, 8):
            for k in (1, 2, 3):
                R = tz.build_routing(G.adj, k, seed=rng.randrange(100))
                for u in range(G.n):
                    d = tz.sssp(G.adj, u)
                    for v in range(G.n):
                        if u == v:
                            continue
                        got = tz.route(R, u, v)
                        assert got is not None
                        path, reads = got
                        assert path[0] == u and path[-1] == v
                        for a, b in zip(path, path[1:]):
                            assert G.has_edge(a, b)
                        w = sum(G.edge_weight(a, b)
                                for a, b in zip(path, path[1:]))
                        assert w <= (2 * k - 1) * d[v] * (1 + 1e-9)
                        # locality: tables consulted only along the path
                        assert set(reads) <= set(path)


def _check_final_sandwich(G, h, B, stretch, query):
    for u in range(G.n):
        dh = hop_distance_all(G, u, h)
        dB = hop_distance_all(G, u, B * h)
        for v in range(G.n):
            if v == u:
                continue
            got = query(u, v)
            if not is_inf(dB[v]) and not is_inf(got):
                assert got >= dB[v] * (1 - 1e-9)
            if not is_inf(dh[v]):
                assert not is_inf(got)
                assert got <= stretch * dh[v] * (1 + 1e-9)


class TestHopOracle:
    def test_sandwich(self):
        rng = random.Random(241)
        for _ in range(4):
            n = rng.randint(2, 9)
            G = connected_random_graph(rng, n, 0.3, 1.0, 5.0)
            h, k, eps = rng.randint(1, 2), rng.randint(1, 2), rng.choice([0.25, 0.5])
            O = build_hop_oracle(G, h, k, eps, seed=rng.randrange(100))
            assert O.stretch == pytest.approx((2 * k - 1) * (1 + eps))
            _check_final_sandwich(G, h, O.hop_budget, O.stretch,
                                  lambda u, v: hop_oracle_query(O, u, v))

    def test_identity_and_validation(self):
        O = build_hop_oracle(P4(), 2, 2, 0.5)
        assert hop_oracle_query(O, 1, 1) == 0.0
        with pytest.raises(ValueError):
            build_hop_oracle(P4(), 2, 2, 1.5)


class TestHopLabeling:
    def test_sandwich(self):
        rng = random.Random(251)
        for _ in range(4):
            n = rng.randint(2, 9)
            G = connected_random_graph(rng, n, 0.3, 1.0, 5.0)
            h, k, eps = rng.randint(1, 2), rng.randint(1, 2), rng.choice([0.25, 0.5])
            L = build_hop_labeling(G, h, k, eps)
            _check_final_sandwich(
                G, h, L.hop_budget, L.stretch,
                lambda u, v: labeling_query(L, L.label(u), L.label(v)))
            assert L.size_words() > 0


class TestRouting:
    def test_delivery_weight_and_locality(self):
        rng = random.Random(261)
        for _ in range(4):
            n = rng.randint(2, 9)
            G = connected_random_graph(rng, n, 0.3, 1.0, 5.0)
            h, k, eps = rng.randint(1, 2), rng.randint(1, 2), rng.choice([0.25, 0.5])
            S = build_routing_scheme(G, h, k, eps, seed=rng.randrange(100))
            for u in range(n):
                dh = hop_distance_all(G, u, h)
                for v in range(n):
                    res = route(S, u, v)
                    if u == v:
                        assert res.delivered and res.path == (u,)
                        continue
                    if is_inf(dh[v]):
                        continue
                    assert res.delivered
                    assert res.path[0] == u and res.path[-1] == v
                    for a, b in zip(res.path, res.path[1:]):
                        assert G.has_edge(a, b)
                    assert res.weight_aux <= S.stretch * dh[v] * (1 + 1e-9)
                    assert res.weight <= res.weight_aux + 1e-12
                    omega = S.omegas[res.scale]
                    assert len(res.path) - 1 <= res.weight_aux / omega + 1e-9
                    assert set(res.table_reads) <= set(res.path)

    def test_declines_disconnected(self):
        G = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        S = build_routing_scheme(G, 1, 2, 0.5)
        res = route(S, 0, 2)
        assert not res.delivered
