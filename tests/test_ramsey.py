"""Ramsey-type ultrametric embeddings: cluster carving, partitions,
full embeddings, and the multiplicative-weights distribution."""
from __future__ import annotations

import math
import random

import pytest

from hopmetric import ramsey
from hopmetric.graph_core import (WeightedGraph, hop_diameter, hop_distance_all,
                                  hop_profile, is_inf)
from hopmetric.ramsey import (alt_levels, create_cluster, create_cluster_alt,
                              finite_graph, mwu_measures, padded_partition,
                              ramsey_distribution, ramsey_embed)
from hopmetric.ultrametric import ultra_distance, validate_ultrametric
from oracles import connected_random_graph, random_graph, simulate_create_cluster


def _instances(seed: int, count: int):
    """Random (G, Y, M, mu, h, k, i) carving instances."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(4, 14)
        G = connected_random_graph(rng, n, 0.3, 1.0, 6.0)
        Y = set(rng.sample(range(n), rng.randint(2, n)))
        M = set(rng.sample(sorted(Y), rng.randint(1, len(Y))))
        mu = [1.0 + rng.random() * rng.choice([0.0, 1.0, 5.0]) for _ in range(n)]
        h = rng.randint(1, 2)
        k = rng.randint(1, 3)
        i = rng.randint(1, 3)
        yield G, Y, M, mu, h, k, i


class TestCreateCluster:
    def test_matches_simulation(self):
        for G, Y, M, mu, h, k, i in _instances(11, 30):
            trip = create_cluster(G, Y, M, mu, h, k, i)
            si, sm, so, sv, sj = simulate_create_cluster(G, Y, M, mu, h, k, i)
            assert trip.inner == si
            assert trip.mid == sm
            assert trip.outer == so
            assert trip.center == sv
            assert trip.index == sj

    def test_structure(self):
        for G, Y, M, mu, h, k, i in _instances(12, 20):
            trip = create_cluster(G, Y, M, mu, h, k, i)
            assert trip.inner <= trip.mid <= trip.outer <= frozenset(Y)
            assert trip.center in Y
            assert 0 <= trip.index <= 2 * (k - 1)
            # the carved cluster always captures marked measure
            assert trip.inner & (M & Y)

    def test_requires_marked(self):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        with pytest.raises(ValueError):
            create_cluster(G, {0, 1}, {2}, [1.0] * 3, 1, 2, 1)


class TestCreateClusterAlt:
    def test_levels_formula(self):
        assert alt_levels(1.0) == 1
        assert alt_levels(2.0) == 1
        assert alt_levels(4.0) == 2
        assert alt_levels(16.0) == 3
        assert alt_levels(256.0) == 4

    def test_structure(self):
        for G, Y, M, mu, h, k, i in _instances(13, 25):
            trip = create_cluster_alt(G, Y, M, mu, h, k, i)
            assert trip.inner <= trip.mid <= trip.outer <= frozenset(Y)
            assert trip.center in Y
            assert 0 <= trip.index <= 2 * (k - 1)

    def test_trivial_return_certified(self):
        # unit clique at a huge scale: the carved cluster is all of Y in one go
        G = WeightedGraph(4, [(u, v, 1.0) for u in range(4)
                              for v in range(u + 1, 4)])
        trip = create_cluster_alt(G, set(range(4)), set(range(4)),
                                  [1.0] * 4, 1, 2, 4)
        assert trip.inner == trip.mid == trip.outer == frozenset(range(4))

    def test_trivial_claim_fallback(self):
        # a marked unit clique plus a far unmarked pendant path: the smallest
        # marked ball holds more than half the marked measure, but the pendant
        # breaks the small-diameter claim, so the scale-bounded rule takes over
        G = WeightedGraph(5, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0),
                              (2, 3, 7.0), (3, 4, 7.0)])
        Y, M, mu = set(range(5)), {0, 1, 2}, [1.0] * 5
        trip = create_cluster_alt(G, Y, M, mu, 1, 2, 4)
        assert trip.outer != frozenset(Y)
        si, sm, so, sv, sj = simulate_create_cluster(G, Y, M, mu, 1, 2, 4)
        assert (trip.inner, trip.mid, trip.outer) == (si, sm, so)
        assert (trip.center, trip.index) == (sv, sj)


class TestPaddedPartition:
    @pytest.mark.parametrize("variant", ["standard", "alt"])
    def test_partition_and_nesting(self, variant):
        rng = random.Random(21)
        for _ in range(20):
            n = rng.randint(3, 12)
            G = connected_random_graph(rng, n, 0.3, 1.0, 4.0)
            X = set(rng.sample(range(n), rng.randint(2, n)))
            M = set(rng.sample(sorted(X), rng.randint(1, len(X))))
            mu = [1.0] * n
            h, k, i = rng.randint(1, 2), rng.randint(1, 3), rng.randint(1, 3)
            stats: dict = {}
            parts = padded_partition(G, X, mu, M, h, k, i, variant, stats)
            covered: set = set()
            for cluster, marked in parts:
                assert cluster, "clusters are nonempty"
                assert not (cluster & covered), "clusters are disjoint"
                covered |= cluster
                assert marked <= cluster
                assert marked <= M
            assert covered == X
            assert all(0 <= j <= 2 * (k - 1) for j in stats.get("j_values", []))

    def test_unmarked_leftover_becomes_singletons(self):
        # marked vertex 0 sits alone; the far side has no marked vertices and
        # must come back as singleton clusters with empty marked sets
        G = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 8.0), (2, 3, 8.0)])
        parts = padded_partition(G, set(range(4)), [1.0] * 4, {0}, 1, 2, 0)
        tail = [p for p in parts if not p[1]]
        assert all(len(c) == 1 for c, _ in tail)
        assert set().union(*(c for c, _ in parts)) == set(range(4))

    def test_rejects_empty(self):
        G = WeightedGraph(2, [(0, 1, 1.0)])
        with pytest.raises(ValueError):
            padded_partition(G, set(), [1.0, 1.0], {0}, 1, 1, 0)


def _check_embedding(G, emb, mu, M0):
    assert validate_ultrametric(emb.U)
    leaf = emb.leaf_of()
    assert sorted(leaf) == list(range(G.n))
    # survival
    surv = sum(mu[v] for v in emb.M)
    assert surv >= sum(mu[v] for v in M0) ** (1.0 - 1.0 / emb.k) - 1e-6
    assert emb.M <= frozenset(M0)
    # domination at beta*h hops, and t-distortion for pairs touching M
    for u in range(G.n):
        dh = hop_distance_all(G, u, emb.h)
        dB = hop_distance_all(G, u, emb.beta * emb.h)
        for v in range(G.n):
            if v == u:
                continue
            dU = ultra_distance(emb.U, leaf[u], leaf[v])
            if not is_inf(dB[v]):
                # infinite labels (after saturation) dominate trivially
                assert is_inf(dU) or dU >= dB[v] * (1 - 1e-9)
                if emb.omega is None:
                    assert not is_inf(dU)
            if (u in emb.M or v in emb.M) and not is_inf(dh[v]):
                assert not is_inf(dU) and dU <= emb.t * dh[v] * (1 + 1e-9)


class TestRamseyEmbed:
    @pytest.mark.parametrize("variant", ["standard", "alt"])
    def test_random_graphs(self, variant):
        rng = random.Random(31)
        for _ in range(12):
            n = rng.randint(2, 12)
            G = connected_random_graph(rng, n, 0.3, 1.0, 6.0)
            mu = [1.0] * n
            M0 = set(rng.sample(range(n), rng.randint(1, n)))
            h, k = rng.randint(1, 3), rng.randint(1, 3)
            emb = ramsey_embed(G, mu, M0, h, k, variant)
            assert emb.max_j <= 2 * (k - 1)
            _check_embedding(G, emb, mu, M0)

    def test_nonuniform_measure(self):
        rng = random.Random(32)
        G = connected_random_graph(rng, 10, 0.3, 1.0, 4.0)
        mu = [1.0 + 3.0 * rng.random() for _ in range(10)]
        emb = ramsey_embed(G, mu, set(range(10)), 2, 2)
        _check_embedding(G, emb, mu, set(range(10)))

    def test_wide_weight_range_alt(self):
        rng = random.Random(33)
        G = connected_random_graph(rng, 10, 0.25, 1.0, 1e6)
        emb = ramsey_embed(G, [1.0] * 10, set(range(10)), 2, 2, "alt")
        _check_embedding(G, emb, [1.0] * 10, set(range(10)))

    def test_disconnected_applies_infinity_transform(self):
        G = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        emb = ramsey_embed(G, [1.0] * 4, set(range(4)), 1, 2)
        assert emb.omega is not None
        leaf = emb.leaf_of()
        assert is_inf(ultra_distance(emb.U, leaf[0], leaf[2]))
        assert not is_inf(ultra_distance(emb.U, leaf[0], leaf[1]))

    def test_singleton(self):
        emb = ramsey_embed(WeightedGraph(1, []), [1.0], {0}, 1, 2)
        assert emb.U.leaves() == [0]
        assert emb.M == frozenset({0})

    def test_rejects_small_measure(self):
        G = WeightedGraph(2, [(0, 1, 1.0)])
        with pytest.raises(ValueError):
            ramsey_embed(G, [0.5, 1.0], {0, 1}, 1, 2)

    def test_rejects_unknown_variant(self):
        G = WeightedGraph(2, [(0, 1, 1.0)])
        with pytest.raises(ValueError):
            ramsey_embed(G, [1.0, 1.0], {0, 1}, 1, 2, "other")

    @pytest.mark.parametrize("mu", [[1.0], [1.0, 1.0, 1.0]])
    def test_rejects_measure_of_wrong_length(self, mu):
        G = WeightedGraph(2, [(0, 1, 1.0)])
        with pytest.raises(ValueError, match="measure has"):
            ramsey_embed(G, mu, {0, 1}, 1, 2)


class TestMWU:
    def test_measures_at_least_one(self):
        rng = random.Random(41)
        for _ in range(10):
            w = [math.exp(rng.uniform(-3, 3)) for _ in range(rng.randint(2, 20))]
            mu = mwu_measures(w, rng.randint(1, 4))
            assert all(m >= 1.0 - 1e-9 for m in mu)

    def test_fixed_k_distribution(self):
        rng = random.Random(42)
        G = connected_random_graph(rng, 9, 0.3, 1.0, 4.0)
        dist = ramsey_distribution(G, 2, "fixed_k", rounds=6, k=2)
        assert len(dist) == 6
        assert sum(p for _, p in dist) == pytest.approx(1.0)
        for emb, _ in dist:
            assert emb.k == 3  # embeddings run at k+1
            assert validate_ultrametric(emb.U)
        # every vertex survives in some round
        hit = set().union(*(emb.M for emb, _ in dist))
        assert hit == set(range(9))

    def test_inclusion_mode_frequency(self):
        rng = random.Random(43)
        G = connected_random_graph(rng, 8, 0.35, 1.0, 3.0)
        eps = 0.5
        dist = ramsey_distribution(G, 2, "inclusion", rounds=8, epsilon=eps)
        for v in range(8):
            freq = sum(p for emb, p in dist if v in emb.M)
            assert freq >= 1.0 - eps - 1e-9

    def test_rejects_bad_args(self):
        G = WeightedGraph(2, [(0, 1, 1.0)])
        with pytest.raises(ValueError):
            ramsey_distribution(G, 1, "fixed_k", rounds=0)
        with pytest.raises(ValueError):
            ramsey_distribution(G, 1, "other", rounds=1)


def _counting_profiles(monkeypatch) -> list:
    """Count the hop_profile calls the carving rules make."""
    calls = []
    monkeypatch.setattr(ramsey, "hop_profile",
                        lambda *a, **kw: calls.append(a[1]) or hop_profile(*a, **kw))
    return calls


def _below(row, r: float) -> list:
    return [d if d <= r + 1e-12 else math.inf for d in row]


class TestSharedRows:
    def test_served_rows_match_fresh_rows(self, monkeypatch):
        calls = _counting_profiles(monkeypatch)
        rng = random.Random(61)
        requests = 0
        for _ in range(12):
            n = rng.randint(3, 14)
            G = connected_random_graph(rng, n, 0.3, 1.0, 6.0)
            Ys = [set(range(n))]
            while len(Ys[-1]) > 1 and len(Ys) < 4:
                Ys.append(set(rng.sample(sorted(Ys[-1]), rng.randint(1, len(Ys[-1])))))
            with ramsey._shared_rows():
                for _ in range(80):
                    Y = rng.choice(Ys)
                    allowed = sorted(Y)
                    s = rng.choice(allowed)
                    budgets = sorted(rng.sample(range(6), rng.randint(1, 3)))
                    # radii rise and fall; half of them sit exactly on a distance
                    exact = [d for d in hop_distance_all(G, s, 5, allowed) if not is_inf(d)]
                    r = rng.choice(exact) if rng.random() < 0.5 else rng.uniform(0.0, 12.0)
                    prof = ramsey._profile(ramsey._rows_of(G, Y), G, s, budgets, r, allowed)
                    fresh = hop_profile(G, s, budgets, maxr=r, allowed=allowed)
                    requests += 1
                    for b in budgets:
                        assert _below(prof[b], r) == _below(fresh[b], r)
        assert requests - len(calls) > requests / 4   # served from stored rows

    def test_scope_is_reentrant_and_released(self):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert ramsey._rows_of(G, {0, 1, 2}) is None
        with ramsey._shared_rows():
            rows = ramsey._rows_of(G, {0, 1, 2})
            with ramsey._shared_rows():
                assert ramsey._rows_of(G, {0, 1, 2}) is rows
                assert finite_graph(G, 1, 2) is finite_graph(G, 1, 2)
            assert ramsey._rows_of(G, {0, 1, 2}) is rows
        assert ramsey._rows_of(G, {0, 1, 2}) is None

    def test_finite_graph_reports_completed_diameter(self):
        rng = random.Random(62)
        for _ in range(10):
            G = random_graph(rng, rng.randint(3, 10), 0.2, 1.0, 5.0)
            params = [(h, k) for h in (1, 2, 3) for k in (1, 2, 3)]
            alone = [finite_graph(G, h, k) for h, k in params]
            with ramsey._shared_rows():
                for (h, k), (Gw, omega, diam) in zip(params, alone):
                    assert diam == hop_diameter(Gw, h)
                    assert (omega is None) == (Gw is G)
                    Gs, omega_s, diam_s = finite_graph(G, h, k)
                    assert Gs.edges == Gw.edges
                    assert (omega_s, diam_s) == (omega, diam)

    @pytest.mark.parametrize("seed", [63, 64, 65])
    def test_distribution_matches_standalone_embeddings(self, seed, monkeypatch):
        calls = _counting_profiles(monkeypatch)
        rng = random.Random(seed)
        G = (connected_random_graph(rng, 16, 0.15, 1.0, 8.0) if seed != 65
             else random_graph(rng, 14, 0.15, 1.0, 8.0))
        n, rounds = G.n, 4
        dist = ramsey_distribution(G, 2, "fixed_k", rounds, variant="alt")
        shared = len(calls)
        eta = 0.5 / math.sqrt(rounds)
        weights = [1.0] * n
        for emb, _ in dist:
            alone = ramsey_embed(G, mwu_measures(weights, 2), set(range(n)), 2, 3, "alt")
            assert emb.U.to_json() == alone.U.to_json()
            assert emb.M == alone.M
            for v in range(n):
                if v not in alone.M:
                    weights[v] *= 1.0 + eta
        assert shared < len(calls) - shared
