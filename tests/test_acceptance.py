"""End-to-end acceptance gate.

Each test pins one headline guarantee with its stated tolerance and runtime
budget.  Random suites are generated from fixed seeds so runs are
reproducible; all distortion checks are exact (1 +/- 1e-9 ratio slack for
float accumulation only).
"""
from __future__ import annotations

import math
import random
import time

import pytest

from hopmetric.clan import clan_embed, optimal_path_copies
from hopmetric.cli import ExperimentConfig, gen_graph, run_experiment
from hopmetric.cover import edge_costs, sparse_cover
from hopmetric.datastructures import (build_hop_labeling, build_hop_oracle,
                                      build_routing_scheme, hop_oracle_query,
                                      labeling_query, route)
from hopmetric.graph_core import (WeightedGraph, dijkstra, hop_distance_all,
                                  is_inf)
from hopmetric.preserve import (Unreachable, bounded_hop_path,
                                build_path_tree_embedding,
                                image_of_general_subgraph,
                                image_of_respecting_subgraph, induced_path)
from hopmetric.ramsey import alt_levels, ramsey_distribution, ramsey_embed
from hopmetric.rng import substream
from hopmetric.ultrametric import ultra_distance, validate_ultrametric
from oracles import (connected_random_graph, edge_count_bellman_ford,
                     random_graph, walk_enum_distance)

RATIO = 1e-9


def _suite(seed: int, count: int, nmax: int, wmax: float):
    """Fixed random suite of connected graphs with polynomial aspect ratio."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(6, nmax)
        p = min(0.4, 3.0 / n)
        out.append(connected_random_graph(rng, n, p, 1.0, wmax))
    return out


def test_criterion_1_oracle_equivalence():
    """hop_distance agrees with exhaustive walk enumeration (h <= 3) and an
    independent edge-count relaxation (h = n-1) on 50 graphs, n <= 24."""
    start = time.monotonic()
    rng = random.Random(1001)
    for _ in range(50):
        n = rng.randint(2, 24)
        G = random_graph(rng, n, min(0.4, 3.0 / n), 1.0, 9.0)
        for s in range(n):
            for h in (1, 2, 3):
                ref = walk_enum_distance(G, s, h)
                got = hop_distance_all(G, s, h)
                for v in range(n):
                    if ref[v] == math.inf:
                        assert is_inf(got[v])
                    else:
                        assert got[v] == pytest.approx(ref[v], rel=1e-12)
            ref = edge_count_bellman_ford(G, s)
            got = hop_distance_all(G, s, n - 1)
            for v in range(n):
                if ref[v] == math.inf:
                    assert is_inf(got[v])
                else:
                    assert got[v] == pytest.approx(ref[v], rel=1e-12)
    assert time.monotonic() - start < 30.0


def _check_ramsey_suite(variant: str):
    rng = random.Random(1002)
    graphs = _suite(1002, 30, 64, 100.0)
    for G in graphs:
        n = G.n
        h, k = rng.randint(1, 3), rng.randint(1, 3)
        emb = ramsey_embed(G, [1.0] * n, set(range(n)), h, k, variant)
        assert validate_ultrametric(emb.U)
        # exact survival under the uniform measure
        assert len(emb.M) >= n ** (1.0 - 1.0 / k) - 1e-9
        # cluster index bound at every carve
        assert emb.max_j <= 2 * (k - 1)
        if variant == "standard":
            assert emb.t == pytest.approx(16.0 * k)
        leaf = emb.leaf_of()
        for u in range(n):
            dh = hop_distance_all(G, u, h)
            dB = hop_distance_all(G, u, emb.beta * h)
            for v in range(n):
                if v == u:
                    continue
                dU = ultra_distance(emb.U, leaf[u], leaf[v])
                assert dU >= dB[v] * (1 - RATIO)
                if (u in emb.M or v in emb.M) and not is_inf(dh[v]):
                    assert not is_inf(dU)
                    assert dU <= emb.t * dh[v] * (1 + RATIO)
        yield emb, G


def test_criterion_2_distributional_ramsey():
    """Survival, domination, 16k-distortion, and the per-carve index bound,
    with zero violations on 30 graphs (n <= 64)."""
    start = time.monotonic()
    for _emb, _G in _check_ramsey_suite("standard"):
        pass
    assert time.monotonic() - start < 60.0


def test_criterion_3_alt_ramsey():
    """Same suite with the log-log cluster rule; realized hop budget stays
    <= 4kL*h with L = ceil(1 + log log mu), independent of aspect ratio."""
    start = time.monotonic()
    for emb, G in _check_ramsey_suite("alt"):
        L = alt_levels(float(G.n))
        assert emb.beta <= 4 * emb.k * L
    # aspect-ratio independence: the same budget on weights 1..10^6
    rng = random.Random(1003)
    G1 = connected_random_graph(rng, 24, 0.15, 1.0, 1.0)
    Gw = WeightedGraph(24, [(u, v, rng.uniform(1.0, 1e6)) for u, v, _ in G1.edges])
    e1 = ramsey_embed(G1, [1.0] * 24, set(range(24)), 2, 2, "alt")
    ew = ramsey_embed(Gw, [1.0] * 24, set(range(24)), 2, 2, "alt")
    assert ew.beta == e1.beta == 4 * 2 * alt_levels(24.0)
    leaf = ew.leaf_of()
    for u in range(24):
        dh = hop_distance_all(Gw, u, 2)
        for v in range(24):
            if v != u and (u in ew.M or v in ew.M) and not is_inf(dh[v]):
                d = ultra_distance(ew.U, leaf[u], leaf[v])
                assert not is_inf(d) and d <= ew.t * dh[v] * (1 + RATIO)
    assert time.monotonic() - start < 60.0


def test_criterion_4_clan():
    """Exact weighted clan-size bound, chief bound at t = 16(k+1), the
    single-copy rule for a dominant-measure root, and the DP path-distortion
    bound over 100 random h-respecting paths.  Zero violations."""
    start = time.monotonic()
    rng = random.Random(1004)
    graphs = _suite(1004, 30, 64, 100.0)
    paths_checked = 0
    for G in graphs:
        n = G.n
        h, k = rng.randint(1, 3), rng.randint(1, 3)
        emb = clan_embed(G, [1.0] * n, h, k)
        assert emb.t == pytest.approx(16.0 * (k + 1))
        assert emb.clan_size() <= n ** (1.0 + 1.0 / k) * (1 + RATIO)
        for u in range(n):
            dh = hop_distance_all(G, u, h)
            for v in range(n):
                if v != u and not is_inf(dh[v]):
                    dc = emb.chief_distance(u, v)
                    assert not is_inf(dc) and dc <= emb.t * dh[v] * (1 + RATIO)
        # dominant-measure root keeps a single copy
        r = rng.randrange(n)
        mu = [1.0] * n
        mu[r] = float(n)          # mu(r) > mu(V)/2
        embr = clan_embed(G, mu, h, k)
        assert len(embr.f[r]) == 1
        # path-distortion: cost of the optimal copy assignment along
        # h-respecting paths, bound 16(k+1) * log_{3/2} mu(V) * w(P)
        bound_factor = 16.0 * (k + 1) * max(1.0, math.log(float(n)) / math.log(1.5))
        assert emb.path_t == pytest.approx(bound_factor)
        for _ in range(12):
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v:
                continue
            got = bounded_hop_path(G, u, v, h)
            if got is None:
                continue
            P, wP = got
            if wP <= 0:
                continue
            _seq, cost = optimal_path_copies(emb, P)
            assert cost <= bound_factor * wP * (1 + RATIO)
            paths_checked += 1
    assert paths_checked >= 100
    assert time.monotonic() - start < 120.0


def test_criterion_5_sparse_cover():
    """Deterministic cover/radius guarantees on 20 graphs; Monte-Carlo means
    over 200 seeds: cluster-cost ratio <= 4.5, per-vertex multiplicity <= 2.3."""
    start = time.monotonic()
    rng = random.Random(1005)
    for G in _suite(1005, 20, 64, 20.0):
        delta = rng.choice([1.0, 2.0, 5.0])
        sc = sparse_cover(G, delta, seed=rng.randrange(10 ** 6))
        rmax = math.log2(2 * G.n)
        assert all(r <= rmax for _, _, r in sc.clusters)
        apsp = [dijkstra(G.adj, u) for u in range(G.n)]
        for u in range(G.n):
            for v in range(u + 1, G.n):
                if not is_inf(apsp[u][v]) and apsp[u][v] <= delta + 1e-12:
                    assert any(u in C and v in C for C, _, _ in sc.clusters)
    # Monte-Carlo means on a fixed representative graph
    G = connected_random_graph(random.Random(55), 32, 0.12, 1.0, 8.0)
    mu = edge_costs(G)
    muG = sum(mu.values())
    cost_sum = mult_sum = 0.0
    for s in range(200):
        sc = sparse_cover(G, 2.0, seed=s)
        cost_sum += sc.cluster_cost(mu) / muG
        mult_sum += sum(sc.multiplicity(v) for v in range(G.n)) / G.n
    assert cost_sum / 200 <= 4.5
    assert mult_sum / 200 <= 2.3
    assert time.monotonic() - start < 60.0


def test_criterion_6_path_tree_embedding():
    """Unique root copy; every induced copy-pair path within the recorded hop
    bound (exhaustive, n <= 32); connected vertex-covering images of
    h-respecting subgraphs within the weight bound; general-subgraph images
    co-component every low-hop pair with zero misses."""
    start = time.monotonic()
    rng = random.Random(1006)
    sizes = [rng.randint(4, 20) for _ in range(7)] + [32]
    for n in sizes:
        G = connected_random_graph(rng, n, min(0.4, 3.0 / n), 1.0, 10.0)
        h = rng.randint(1, 3)
        r = rng.randrange(n)
        pte = build_path_tree_embedding(G, r, h)
        assert len(pte.f[r]) == 1
        copies = [c for v in range(n) for c in pte.f[v]]
        for i, a in enumerate(copies):
            for b in copies[i + 1:]:
                try:
                    p, _w = induced_path(pte, a, b)
                except Unreachable:
                    continue
                assert len(p) - 1 <= pte.hop_bound
        # connected h-respecting subgraphs from bounded-hop paths
        for _ in range(4):
            u, v = rng.randrange(n), rng.randrange(n)
            got = bounded_hop_path(G, u, v, h) if u != v else None
            if got is None or len(got[0]) < 2:
                continue
            P, _ = got
            H = list(zip(P, P[1:]))
            img = image_of_respecting_subgraph(pte, H)
            assert len(img.edges) == len(img.nodes) - 1   # connected subtree
            for x in set(P):
                assert img.has_copy_of(x, pte.T.payload)
            wH = sum(G.edge_weight(a, b) for a, b in H)
            assert img.weight <= pte.path_bound * 2.0 * wH * (1 + RATIO)
        # general subgraph: random edge subset
        edges = [(u, v) for u, v, _ in G.edges]
        Hg = rng.sample(edges, max(1, len(edges) // 2))
        pte2, gi = image_of_general_subgraph(G, Hg, h, seed=rng.randrange(100))
        H1 = WeightedGraph(n, [(min(a, b), max(a, b), 1.0)
                               for a, b in {(min(e), max(e)) for e in Hg}])
        for u in range(n):
            dh = hop_distance_all(H1, u, h)
            for v in range(u + 1, n):
                if not is_inf(dh[v]):
                    assert gi.co_component(pte2.T.payload, u, v)
    assert time.monotonic() - start < 120.0


def test_criterion_7_inclusion_probabilities():
    """Empirical per-vertex inclusion frequencies of the built distributions
    on G(32, 0.3), 64 rounds.  Monte-Carlo tolerance: fixed-k (k=2) frequency
    >= 0.9 * n^{-1/k}; inclusion mode (eps=0.25) frequency >= 1 - eps - 0.1."""
    start = time.monotonic()
    G = gen_graph("gnp", {"n": 32, "p": 0.3}, seed=7)
    n = 32
    dist = ramsey_distribution(G, 2, "fixed_k", rounds=64, k=2)
    floor_fk = 0.9 * n ** (-0.5)
    for v in range(n):
        freq = sum(p for emb, p in dist if v in emb.M)
        assert freq >= floor_fk
    dist = ramsey_distribution(G, 2, "inclusion", rounds=64, epsilon=0.25)
    for v in range(n):
        freq = sum(p for emb, p in dist if v in emb.M)
        assert freq >= 1.0 - 0.25 - 0.1
    assert time.monotonic() - start < 120.0


# (k, epsilon, h) combinations cycled round-robin across the 20 suite graphs
_COMBOS = [(k, e, h) for k in (1, 2) for e in (0.25, 0.5) for h in (2, 3)]


def _final_suite():
    graphs = _suite(1008, 20, 48, 50.0)
    return [(G, *_COMBOS[i % len(_COMBOS)]) for i, G in enumerate(graphs)]


def test_criterion_8_final_oracle_and_labeling():
    """For every h-hop-connected pair: query <= (2k-1)(1+eps)*d^(h) and
    query >= d^(B*h) at the recorded budget B.  Zero violations across
    k in {1,2}, eps in {0.25,0.5}, h in {2,3}."""
    start = time.monotonic()
    for idx, (G, k, eps, h) in enumerate(_final_suite()):
        O = build_hop_oracle(G, h, k, eps, seed=idx)
        L = build_hop_labeling(G, h, k, eps)
        for st in (O.stretch, L.stretch):
            assert st == pytest.approx((2 * k - 1) * (1 + eps))
        for u in range(G.n):
            dh = hop_distance_all(G, u, h)
            dBo = hop_distance_all(G, u, O.hop_budget * h)
            dBl = hop_distance_all(G, u, L.hop_budget * h)
            for v in range(G.n):
                if v == u:
                    continue
                qo = hop_oracle_query(O, u, v)
                ql = labeling_query(L, L.label(u), L.label(v))
                if not is_inf(dh[v]):
                    assert not is_inf(qo) and qo <= O.stretch * dh[v] * (1 + RATIO)
                    assert not is_inf(ql) and ql <= L.stretch * dh[v] * (1 + RATIO)
                assert qo >= dBo[v] * (1 - RATIO)
                assert ql >= dBl[v] * (1 - RATIO)
    assert time.monotonic() - start < 120.0


def test_criterion_9_routing():
    """500 random h-hop-connected pairs per graph: 100% delivery, delivered
    weight <= stretch * d^(h), hops <= w_i(P)/omega_i, and no table reads off
    the delivered path."""
    start = time.monotonic()
    for idx, (G, k, eps, h) in enumerate(_final_suite()):
        S = build_routing_scheme(G, h, k, eps, seed=idx)
        rng = substream(idx, "acceptance-routing-pairs")
        dh_all = {u: hop_distance_all(G, u, h) for u in range(G.n)}
        routed = 0
        trials = 0
        while routed < 500 and trials < 5000:
            trials += 1
            u, v = rng.randrange(G.n), rng.randrange(G.n)
            if u == v or is_inf(dh_all[u][v]):
                continue
            res = route(S, u, v)
            routed += 1
            assert res.delivered
            assert res.path[0] == u and res.path[-1] == v
            assert res.weight <= S.stretch * dh_all[u][v] * (1 + RATIO)
            omega = S.omegas[res.scale]
            assert len(res.path) - 1 <= res.weight_aux / omega * (1 + RATIO)
            assert set(res.table_reads) <= set(res.path)
        assert routed > 0
    assert time.monotonic() - start < 120.0


def test_criterion_10_determinism():
    """Byte-identical reports across two runs for every subcommand, and
    seed-stable randomized constructions."""
    common = dict(family="random-weighted",
                  params={"n": 10, "p": 0.35, "wmin": 1.0, "wmax": 8.0},
                  h=2, k=2, epsilon=0.5, seed=13)
    for sub in ("check", "ramsey", "clan", "cover", "preserve",
                "oracle", "labels", "route"):
        a = run_experiment(ExperimentConfig(sub, **common))
        b = run_experiment(ExperimentConfig(sub, **common))
        assert a.to_json() == b.to_json(), sub
        assert a.passed, sub
    G = gen_graph("random-weighted", {"n": 12, "p": 0.3,
                                      "wmin": 1.0, "wmax": 4.0}, seed=3)
    assert gen_graph("random-weighted", {"n": 12, "p": 0.3, "wmin": 1.0,
                                         "wmax": 4.0}, seed=3).edges == G.edges
    assert sparse_cover(G, 1.0, seed=8) == sparse_cover(G, 1.0, seed=8)
