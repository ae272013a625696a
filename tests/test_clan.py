"""Clan embeddings: carving with the one-third/two-thirds side condition,
covers, chief copies, and optimal copy assignments along paths."""
from __future__ import annotations

import math
import random

import pytest

from hopmetric.clan import (clan_cover, clan_create_cluster,
                            clan_create_cluster_alt, clan_distribution,
                            clan_embed, clan_mwu_measure, optimal_path_copies)
from hopmetric.graph_core import WeightedGraph, hop_distance_all, is_inf
from hopmetric.ultrametric import ultra_distance, validate_ultrametric
from oracles import (brute_force_path_copies, connected_random_graph,
                     random_graph, simulate_clan_create_cluster)


def _instances(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(3, 12)
        G = connected_random_graph(rng, n, 0.3, 1.0, 6.0)
        Y = set(rng.sample(range(n), rng.randint(2, n)))
        mu = [1.0 + rng.random() * rng.choice([0.0, 2.0]) for _ in range(n)]
        h = rng.randint(1, 2)
        k = rng.randint(1, 3)
        i = rng.randint(1, 3)
        yield G, Y, mu, h, k, i


class TestClanCreateCluster:
    def test_matches_simulation(self):
        for G, Y, mu, h, k, i in _instances(51, 30):
            trip = clan_create_cluster(G, Y, mu, h, k, i)
            si, sm, so, sv, sj = simulate_clan_create_cluster(G, Y, mu, h, k, i)
            assert trip.inner == si
            assert trip.mid == sm
            assert trip.outer == so
            assert trip.center == sv
            assert trip.index == sj

    def test_structure(self):
        for G, Y, mu, h, k, i in _instances(52, 20):
            trip = clan_create_cluster(G, Y, mu, h, k, i)
            assert trip.inner <= trip.mid <= trip.outer <= frozenset(Y)
            assert trip.center in trip.inner
            assert 0 <= trip.index <= 2 * k
            # side condition: small inner forces a small outer
            muY = sum(mu[u] for u in Y)
            mu_in = sum(mu[u] for u in trip.inner)
            mu_out = sum(mu[u] for u in trip.outer)
            assert mu_in > muY / 3.0 - 1e-9 or mu_out <= 2.0 * muY / 3.0 + 1e-9

    def test_alt_structure(self):
        for G, Y, mu, h, k, i in _instances(53, 20):
            trip = clan_create_cluster_alt(G, Y, mu, h, k, i)
            assert trip.inner <= trip.mid <= trip.outer <= frozenset(Y)
            assert trip.center in Y

    def test_rejects_empty(self):
        G = WeightedGraph(2, [(0, 1, 1.0)])
        with pytest.raises(ValueError):
            clan_create_cluster(G, set(), [1.0, 1.0], 1, 2, 1)


class TestClanCover:
    @pytest.mark.parametrize("variant", ["standard", "alt"])
    def test_inner_partition_outer_cover(self, variant):
        rng = random.Random(61)
        for _ in range(15):
            n = rng.randint(3, 12)
            G = connected_random_graph(rng, n, 0.3, 1.0, 5.0)
            X = set(rng.sample(range(n), rng.randint(2, n)))
            mu = [1.0] * n
            h, k, i = rng.randint(1, 2), rng.randint(1, 3), rng.randint(1, 3)
            cover = clan_cover(G, X, mu, h, k, i, variant)
            removed: set = set()
            seen_inner: set = set()
            for trip in cover:
                live = X - removed
                assert trip.inner <= live
                assert not (trip.inner & seen_inner)
                seen_inner |= trip.inner
                removed |= trip.inner
            assert seen_inner == X, "inner clusters partition X"
            assert set().union(*(t.outer for t in cover)) == X


def _check_clan(G, emb, mu):
    assert validate_ultrametric(emb.U)
    for v in range(G.n):
        assert emb.f[v], "every vertex has at least one copy"
        assert emb.chi[v] in emb.f[v]
        assert all(emb.U.payload[c] == v for c in emb.f[v])
    muV = sum(mu[v] for v in range(G.n))
    weighted = sum(mu[v] * len(emb.f[v]) for v in range(G.n))
    assert weighted <= muV ** (1.0 + 1.0 / emb.k) * (1 + 1e-9)
    for u in range(G.n):
        dh = hop_distance_all(G, u, emb.h)
        dB = hop_distance_all(G, u, emb.beta * emb.h)
        for v in range(G.n):
            if v == u:
                continue
            dmin = emb.min_copy_distance(u, v)
            if not is_inf(dB[v]):
                assert is_inf(dmin) or dmin >= dB[v] * (1 - 1e-9)
                if emb.omega is None:
                    assert not is_inf(dmin)
            if not is_inf(dh[v]):
                dc = emb.chief_distance(u, v)
                assert not is_inf(dc) and dc <= emb.t * dh[v] * (1 + 1e-9)


class TestClanEmbed:
    @pytest.mark.parametrize("variant", ["standard", "alt"])
    def test_random_graphs(self, variant):
        rng = random.Random(71)
        for _ in range(10):
            n = rng.randint(2, 10)
            G = connected_random_graph(rng, n, 0.3, 1.0, 6.0)
            mu = [1.0] * n
            h, k = rng.randint(1, 3), rng.randint(1, 3)
            emb = clan_embed(G, mu, h, k, variant)
            _check_clan(G, emb, mu)

    def test_nonuniform_measure(self):
        rng = random.Random(72)
        G = connected_random_graph(rng, 9, 0.3, 1.0, 4.0)
        mu = [1.0 + 2.0 * rng.random() for _ in range(9)]
        emb = clan_embed(G, mu, 2, 2)
        _check_clan(G, emb, mu)

    def test_singleton(self):
        emb = clan_embed(WeightedGraph(1, []), [1.0], 1, 2)
        assert emb.f[0] == (0,) and emb.chi[0] == 0

    def test_disconnected_applies_infinity_transform(self):
        G = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        emb = clan_embed(G, [1.0] * 4, 1, 2)
        assert emb.omega is not None
        assert is_inf(emb.min_copy_distance(0, 2))
        assert not is_inf(emb.min_copy_distance(0, 1))

    def test_rejects_bad_args(self):
        G = WeightedGraph(2, [(0, 1, 1.0)])
        with pytest.raises(ValueError):
            clan_embed(G, [0.5, 1.0], 1, 2)
        with pytest.raises(ValueError):
            clan_embed(G, [1.0, 1.0], 1, 2, "other")

    @pytest.mark.parametrize("mu", [[1.0], [1.0, 1.0, 1.0]])
    def test_rejects_measure_of_wrong_length(self, mu):
        G = WeightedGraph(2, [(0, 1, 1.0)])
        with pytest.raises(ValueError, match="measure has"):
            clan_embed(G, mu, 1, 2)


class TestOptimalPathCopies:
    def test_matches_brute_force(self):
        rng = random.Random(81)
        for _ in range(10):
            n = rng.randint(3, 8)
            G = connected_random_graph(rng, n, 0.4, 1.0, 5.0)
            emb = clan_embed(G, [1.0] * n, 2, 2)
            for _ in range(5):
                P = [rng.randrange(n) for _ in range(rng.randint(1, 5))]
                seq, total = optimal_path_copies(emb, P)
                assert len(seq) == len(P)
                assert all(c in emb.f[v] for c, v in zip(seq, P))
                cost = sum(ultra_distance(emb.U, a, b)
                           for a, b in zip(seq, seq[1:]))
                assert cost == pytest.approx(total)
                assert total == pytest.approx(brute_force_path_copies(emb, P))

    def test_rejects_empty_path(self):
        G = WeightedGraph(2, [(0, 1, 1.0)])
        emb = clan_embed(G, [1.0, 1.0], 1, 2)
        with pytest.raises(ValueError):
            optimal_path_copies(emb, [])


class TestClanDistribution:
    def test_measure_formula(self):
        mu = clan_mwu_measure([1.0, 3.0])
        assert mu == pytest.approx([1.0 + 2.0 * 0.25, 1.0 + 2.0 * 0.75])

    def test_fixed_k(self):
        rng = random.Random(91)
        G = connected_random_graph(rng, 8, 0.3, 1.0, 4.0)
        dist = clan_distribution(G, 2, "fixed_k", rounds=5, k=2)
        assert len(dist) == 5
        assert sum(p for _, p in dist) == pytest.approx(1.0)
        for emb, _ in dist:
            assert validate_ultrametric(emb.U)
            assert emb.clan_size() >= G.n

    def test_expected_mode_runs(self):
        rng = random.Random(92)
        G = connected_random_graph(rng, 6, 0.4, 1.0, 3.0)
        dist = clan_distribution(G, 1, "expected", rounds=3, epsilon=0.5)
        assert len(dist) == 3
        # derived k matches the expected-size calibration
        kk = max(1, math.ceil(math.log(12) / math.log(1.25)))
        assert all(emb.k == kk for emb, _ in dist)

    def test_rejects_bad_args(self):
        G = WeightedGraph(2, [(0, 1, 1.0)])
        with pytest.raises(ValueError):
            clan_distribution(G, 1, "fixed_k", rounds=0)
        with pytest.raises(ValueError):
            clan_distribution(G, 1, "other", rounds=1)

    @pytest.mark.parametrize("seed", [93, 94])
    def test_distribution_matches_standalone_embeddings(self, seed):
        rng = random.Random(seed)
        G = (connected_random_graph(rng, 14, 0.15, 1.0, 8.0) if seed == 93
             else random_graph(rng, 12, 0.15, 1.0, 8.0))
        n, rounds = G.n, 4
        dist = clan_distribution(G, 2, "fixed_k", rounds, variant="alt")
        eta = 0.5 / math.sqrt(rounds)
        weights = [1.0] * n
        for emb, _ in dist:
            alone = clan_embed(G, clan_mwu_measure(weights), 2, 2, "alt")
            assert emb.U.to_json() == alone.U.to_json()
            assert emb.f == alone.f and emb.chi == alone.chi
            for v in range(n):
                weights[v] *= (1.0 + eta) ** (len(alone.f[v]) - 1)
