"""Ramsey-type ultrametric embeddings: cluster carving, partitions,
full embeddings, and the multiplicative-weights distribution."""
from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopmetric import ramsey
from hopmetric.clan import clan_embed
from hopmetric.cli import gen_graph
from hopmetric.datastructures import build_coarse_oracle
from hopmetric.graph_core import (WeightedGraph, finite_completion, hop_diameter,
                                  hop_distance_all, hop_profile, is_inf)
from hopmetric.ramsey import (alt_levels, create_cluster, create_cluster_alt,
                              finite_graph, mwu_measures, padded_partition,
                              ramsey_distribution, ramsey_embed)
from hopmetric.ultrametric import ultra_distance, validate_ultrametric
from oracles import (connected_random_graph, domination_counts, lasso,
                     random_graph, simulate_create_cluster)
from test_golden_embeddings import _ramsey_record


def _fixed_point_graph(name: str) -> WeightedGraph:
    """random48 reaches the MWU fixed point in round 1 at h = 2, k = 2, for both
    kinds and variants; grid10 at the standard variant never does."""
    if name == "random48":
        return connected_random_graph(random.Random(3), 48, 6 / 48)
    assert name == "grid10"
    return gen_graph("grid", {"rows": 10, "cols": 10})


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

    def test_rejects_unknown_variant(self):
        G = WeightedGraph(2, [(0, 1, 1.0)])
        with pytest.raises(ValueError, match="unknown variant"):
            padded_partition(G, {0, 1}, [1.0, 1.0], {0}, 1, 2, 1, "Alt")


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
            # a pair with no (beta h)-hop path needs a saturated label
            assert dU >= dB[v] * (1 - 1e-9)
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

    @pytest.mark.parametrize("variant", ["standard", "alt"])
    def test_embed_setup_rejects_light_weights(self, variant):
        # every embedding checks its graph in ramsey._embed_setup; an
        # unnormalized graph keeps weights at least 1 only by choice
        G = WeightedGraph(6, [(i, i + 1, 0.1) for i in range(5)], normalize=False)
        mu = [1.0] * G.n
        for embed in (lambda: ramsey_embed(G, mu, set(range(G.n)), 2, 1, variant),
                      lambda: clan_embed(G, mu, 2, 1, variant)):
            with pytest.raises(ValueError, match="normalize"):
                embed()
        heavy = WeightedGraph(6, [(i, i + 1, 1.5 + i) for i in range(5)], normalize=False)
        assert heavy.w_min == 1.5
        ramsey_embed(heavy, mu, set(range(G.n)), 2, 1, variant)
        clan_embed(heavy, mu, 2, 1, variant)

    @pytest.mark.parametrize("family, variant, binding", [
        ("cycle", "alt", 600),
        ("path", "alt", 1128),
        ("path", "standard", 120),
        pytest.param("lasso", "alt", 1128, marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason="ROADMAP item 1: the alt rule falls back to the standard "
                   "rule, whose mid clusters span more than beta*h hops")),
    ])
    def test_domination_binds(self, family, variant, binding):
        """Domination at beta*h hops on 80 vertices at h = 1, k = 2, where
        beta*h (32 alt, 64 standard) is shorter than many shortest paths."""
        G = lasso(80) if family == "lasso" else gen_graph(family, {"n": 80})
        emb = ramsey_embed(G, [1.0] * G.n, set(range(G.n)), 1, 2, variant)
        assert emb.beta == {"alt": 32, "standard": 64}[variant]
        leaf = emb.leaf_of()
        assert domination_counts(
            G, emb.beta, lambda u, v: ultra_distance(emb.U, leaf[u], leaf[v])
        ) == (binding, 0)


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

    @pytest.mark.parametrize("mode", ["fixed_k", "inclusion"])
    @pytest.mark.parametrize("epsilon", [0.0, -0.5])
    def test_rejects_bad_epsilon(self, mode, epsilon):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        with pytest.raises(ValueError, match="epsilon"):
            ramsey_distribution(G, 2, mode, 1, epsilon=epsilon)

    def test_fixed_point_repeats_the_converged_round(self):
        embs = []

        def embed(weights):
            embs.append((len(embs), list(weights)))
            return embs[-1]

        # round 1 penalizes vertex 1 twice, round 2 penalizes no vertex
        dist = ramsey._mwu_rounds(3, 5, embed,
                                  lambda emb, v: 2 if emb[0] == 0 and v == 1 else 0)
        eta = 0.5 / math.sqrt(5)
        assert [w for _, w in embs] == [[1.0, 1.0, 1.0], [1.0, (1.0 + eta) ** 2, 1.0]]
        assert [p for _, p in dist] == [1.0 / 5] * 5
        assert dist[0][0] is embs[0]
        assert all(emb is embs[1] for emb, _ in dist[1:])

    def test_penalizing_every_round_embeds_every_round(self):
        seen = []
        dist = ramsey._mwu_rounds(4, 6, lambda w: seen.append(list(w)) or len(seen),
                                  lambda emb, v: v == 0)
        assert [emb for emb, _ in dist] == [1, 2, 3, 4, 5, 6]
        w0 = [1.0]
        for _ in range(5):
            w0.append(w0[-1] * (1.0 + 0.5 / math.sqrt(6)))
        assert [w[:2] for w in seen] == [[x, 1.0] for x in w0]

    @pytest.mark.parametrize("graph, variant, converges", [
        ("random48", "standard", True),
        ("random48", "alt", True),
        ("grid10", "standard", False),
    ])
    def test_distribution_matches_reference_loop(self, graph, variant, converges):
        G = _fixed_point_graph(graph)
        n, rounds = G.n, 6
        dist = ramsey_distribution(G, 2, "fixed_k", rounds, k=2, variant=variant)
        # the reference embeds every round, penalties of 0 included
        eta = 0.5 / math.sqrt(rounds)
        weights = [1.0] * n
        ref = []
        for _ in range(rounds):
            emb = ramsey_embed(G, mwu_measures(weights, 2), set(range(n)), 2, 3, variant)
            ref.append(emb)
            weights = [w * (1.0 + eta) ** (v not in emb.M) for v, w in enumerate(weights)]
        assert [p for _, p in dist] == [1.0 / rounds] * rounds
        assert [_ramsey_record(emb) for emb, _ in dist] == [_ramsey_record(e) for e in ref]
        # the cases cover both sides: one object repeated, or one per round
        assert len({id(emb) for emb, _ in dist}) == (1 if converges else rounds)

    def test_coarse_oracle_embeds_a_converged_distribution_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(ramsey, "ramsey_embed",
                            lambda *a: calls.append(a[4]) or ramsey_embed(*a))
        build_coarse_oracle(_fixed_point_graph("random48"), 2, 2)
        assert calls == [3]   # one round of the 8-round distribution, at k + 1


def _counting_profiles(monkeypatch) -> list:
    """Count the hop_profile calls the carving rules make."""
    calls = []
    monkeypatch.setattr(ramsey, "hop_profile",
                        lambda *a, **kw: calls.append(a[1]) or hop_profile(*a, **kw))
    return calls


def _below(row, r: float) -> list:
    return [d if d <= r + 1e-12 else math.inf for d in row]


class TestCarriedRows:
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
            tables = [ramsey._Balls() for _ in Ys]   # the rows of each G[Y]
            for _ in range(80):
                i = rng.randrange(len(Ys))
                allowed = sorted(Ys[i])
                s = rng.choice(allowed)
                b = rng.randint(1, 3)
                # radii rise and fall; half of them sit exactly on a distance
                exact = [d for d in hop_distance_all(G, s, 5, allowed) if not is_inf(d)]
                r = rng.choice(exact) if rng.random() < 0.5 else rng.uniform(0.0, 12.0)
                row = tables[i].row(G, s, b, r, allowed)
                fresh = hop_profile(G, s, [b], maxr=r, allowed=allowed)[b]
                requests += 1
                assert _below(row, r) == _below(fresh, r)
        assert requests - len(calls) > requests / 4   # served from stored rows

    @pytest.mark.parametrize("kind, repaired, carried, uncarried", [
        ("ramsey", 48, 326, 573), ("clan", 48, 336, 583)])
    def test_single_alt_embedding_carries_rows(self, monkeypatch, kind, repaired,
                                               carried, uncarried):
        # the scale below one that leaves Y whole asks for the same rows at
        # half the radius, the diameter check's plain rows at delta/2 serve
        # the radii below, and a row kept past a carve is repaired, not
        # relaxed again
        calls = _counting_profiles(monkeypatch)
        G = _fixed_point_graph("random48")
        V = set(range(48))

        def embed():
            if kind == "ramsey":
                return ramsey_embed(G, mwu_measures([1.0] * 48, 2), V, 2, 3, "alt")
            return clan_embed(G, [1.0] * 48, 2, 2, "alt")

        U = embed().U.to_json()
        assert len(calls) == repaired
        real = ramsey._Balls.carved
        for keep, count in ((lambda whole: whole, carried),
                            (lambda whole: False, uncarried)):
            def carved(self, G, Y, removed, unmarked, keep=keep):
                if not keep(not Y):
                    self._rows.clear()
                    self._plain.clear()
                real(self, G, Y, removed, unmarked)
            monkeypatch.setattr(ramsey._Balls, "carved", carved)
            del calls[:]
            assert embed().U.to_json() == U
            assert len(calls) == count

    def test_nested_reads_skip_rows_below_their_radius(self):
        # unit path at delta = 32, h = k = 1, every third vertex marked: L = 3
        # and the ball budget 6 binds at delta/4 = 8, so the center scan
        # stores no plain row, while the nested balls' budgets are slack; a
        # table holding every plain row at radius 0.5 must not serve them
        G = WeightedGraph(30, [(v, v + 1, 1.0) for v in range(29)])
        Y, M, mu = set(range(30)), set(range(0, 30, 3)), [1.0] * 30
        assert not ramsey._slack(6, 8.0, 30, 1.0) and alt_levels(10.0) == 3
        seeded = ramsey._Balls()
        for v in range(30):
            seeded.row(G, v, 0, 0.5, list(range(30)))
        trip = create_cluster_alt(G, Y, M, mu, 1, 1, 5, seeded)
        assert trip == create_cluster_alt(G, Y, M, mu, 1, 1, 5)
        assert trip.outer == frozenset({0, 1, 2})

    @pytest.mark.parametrize("graph", ["grid10", "random16", "random14"])
    def test_distribution_matches_standalone_embeddings(self, graph):
        # no distribution here converges at the standard variant
        if graph == "grid10":
            G = _fixed_point_graph(graph)
        elif graph == "random16":
            G = connected_random_graph(random.Random(63), 16, 0.15, 1.0, 8.0)
        else:
            G = random_graph(random.Random(65), 14, 0.15, 1.0, 8.0)
        n, rounds = G.n, 3
        dist = ramsey_distribution(G, 2, "fixed_k", rounds, variant="standard")
        assert len({id(emb) for emb, _ in dist}) == rounds   # every round embeds
        eta = 0.5 / math.sqrt(rounds)
        weights = [1.0] * n
        for emb, _ in dist:
            alone = ramsey_embed(G, mwu_measures(weights, 2), set(range(n)), 2, 3, "standard")
            assert emb.U.to_json() == alone.U.to_json()
            assert emb.M == alone.M
            for v in range(n):
                if v not in alone.M:
                    weights[v] *= 1.0 + eta


def test_finite_graph_reports_completed_diameter():
    rng = random.Random(62)
    for _ in range(10):
        G = random_graph(rng, rng.randint(3, 10), 0.2, 1.0, 5.0)
        params = [(h, k) for h in (1, 2, 3) for k in (1, 2, 3)]
        for h, k in params:
            Gf, omega, diam = finite_graph(G, h, k)
            Gw = finite_completion(G, h, k)[0]
            assert diam == hop_diameter(Gw, h)
            assert omega is None or omega == hop_diameter(Gw, h)
            assert (omega is None) == (Gw is G)
            # no omega here lies within 1e-12 above a power of two,
            # so G is carved in place of its completion
            assert Gf is G


def _certificate(G, Y, h, k, scale_i):
    """(one-row certificate, full check) for the trivial return of the alt
    rule on G[Y], every vertex marked with measure 1."""
    allowed = sorted(Y)
    mu = [1.0] * G.n
    bball = 2 * k * alt_levels(float(len(Y))) * h
    r = 2.0 ** scale_i / 4.0
    balls = ramsey._Balls()
    for v in allowed:
        balls.measure(G, v, bball, r, allowed, mu, Y)
    return (ramsey._row_certifies(G, balls, allowed, allowed, bball, r),
            ramsey._bounded_diam_at_most(G, balls, allowed, 2 * bball, 2 * r))


def _spy_full_checks(monkeypatch) -> list:
    decisions = []
    real = ramsey._bounded_diam_at_most

    def spy(*args):
        ok = real(*args)
        decisions.append(ok)
        return ok

    monkeypatch.setattr(ramsey, "_bounded_diam_at_most", spy)
    return decisions


class TestRowCertificate:
    def test_certifies_without_full_check(self, monkeypatch):
        # unit clique at a huge scale: every ball is all of Y, far within delta/4
        G = WeightedGraph(4, [(u, v, 1.0) for u in range(4) for v in range(u + 1, 4)])
        decisions = _spy_full_checks(monkeypatch)
        assert _certificate(G, set(range(4)), 1, 2, 4)[0]
        trip = create_cluster_alt(G, set(range(4)), set(range(4)), [1.0] * 4, 1, 2, 4)
        assert trip.outer == frozenset(range(4))
        assert decisions == [True]   # from _certificate alone

    def test_row_in_tolerance_band_declines(self, monkeypatch):
        # unit path 0-1-2 at delta = 4: the ball of 1 at radius delta/4 = 1 is
        # all of Y, but its row reaches exactly 1, inside the band above
        # delta/4 * (1 - 1e-9); the full check decides, and accepts
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert _certificate(G, {0, 1, 2}, 1, 2, 2) == (False, True)
        decisions = _spy_full_checks(monkeypatch)
        trip = create_cluster_alt(G, {0, 1, 2}, {0, 1, 2}, [1.0] * 3, 1, 2, 2)
        assert trip.inner == trip.outer == frozenset({0, 1, 2})
        assert decisions == [True]

    def test_no_full_ball_full_check_accepts(self, monkeypatch):
        # unit 4-cycle at delta = 4: every ball at radius 1 holds 3 of the 4
        # vertices, so none is all of Y, yet the diameter is 2 = delta/2
        G = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])
        assert _certificate(G, set(range(4)), 1, 2, 2) == (False, True)
        decisions = _spy_full_checks(monkeypatch)
        trip = create_cluster_alt(G, set(range(4)), set(range(4)), [1.0] * 4, 1, 2, 2)
        assert trip.outer == frozenset(range(4))
        assert decisions == [True]

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.integers(min_value=2, max_value=10),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=-1, max_value=6),
           st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_never_certifies_a_false_claim(self, seed, n, h, k, scale_i, connected):
        rng = random.Random(seed)
        make = connected_random_graph if connected else random_graph
        G = make(rng, n, 0.4, 1.0, rng.choice([1.0, 2.0, 8.0]))
        Y = set(rng.sample(range(n), rng.randint(1, n)))
        certified, full = _certificate(G, Y, h, k, scale_i)
        assert full or not certified
