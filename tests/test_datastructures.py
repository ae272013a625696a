"""Distance oracle, labeling, and routing layers: tree labels, coarse
estimators, auxiliary scale graphs, landmark structures, and the final
hop-bounded sandwich guarantees."""
from __future__ import annotations

import dataclasses
import functools
import math
import operator
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hopmetric
from hopmetric import datastructures, tz
from hopmetric.cli import gen_graph
from hopmetric.datastructures import (CoarseBudgetExceeded, CoarseOracle,
                                      RouteResult, auxiliary_graph,
                                      build_coarse_labeling,
                                      build_coarse_oracle, build_hop_labeling,
                                      build_hop_oracle, build_routing_scheme,
                                      build_tree_labels, hop_oracle_query,
                                      labeling_query, route, tree_label_query,
                                      _realized_scales, _scale_of)
from hopmetric.graph_core import WeightedGraph, hop_distance_all, is_inf
from hopmetric.ramsey import ramsey_embed
from hopmetric.ultrametric import ultra_distance
from oracles import (connected_random_graph, edge_count_bellman_ford, lasso,
                     per_hop_logged_route, random_graph, two_walk_estimate,
                     walk_enum_distance)
from test_golden_structures import EPS as GOLDEN_EPS, GRAPHS as GOLDEN_GRAPHS, K as GOLDEN_K
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


    @pytest.mark.parametrize("seed, rounds", [(2, 2), (0, 5)])
    def test_estimate_matches_two_walks(self, monkeypatch, seed, rounds):
        """One walk for equal homes gives the min over both home rounds,
        on every pair, cross-home pairs included."""
        G = connected_random_graph(random.Random(seed), 30, 0.12, 1.0, 10.0)
        C = build_coarse_labeling(G, 1, 1)
        assert C.rounds() == rounds
        walks = []
        real = datastructures.tree_label_query
        monkeypatch.setattr(datastructures, "tree_label_query",
                            lambda lx, ly: walks.append(1) or real(lx, ly))
        cross = 0
        for u in range(G.n):
            for v in range(G.n):
                walks.clear()
                got = C.query(u, v)
                same = C.home[u] == C.home[v]
                assert len(walks) == (1 if same else 2)
                cross += not same
                assert got == two_walk_estimate(C.labels[u], C.home[u],
                                                C.labels[v], C.home[v])
        assert cross > 0


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


def _swept_scales(coarse) -> list:
    """Reference: the scale of every pair's finite coarse estimate."""
    n = len(coarse.home)
    return sorted({_scale_of(est) for u in range(n) for v in range(u + 1, n)
                   for est in [coarse.query(u, v)] if not is_inf(est)})


def _saturated(coarse) -> bool:
    return any(is_inf(lab) for row in coarse.labels for path in row for _, lab in path)


class TestRealizedScales:
    """The walk over the stored tree labels finds exactly the scales of the
    all-pairs sweep.  Sparse graphs at small h force several home rounds and
    saturated labels; each test asserts it met both."""

    def test_labelings_match_sweep(self):
        seen = []

        @given(st.integers(min_value=16, max_value=30),
               st.integers(min_value=0, max_value=2 ** 32 - 1),
               st.integers(min_value=1, max_value=2),
               st.integers(min_value=1, max_value=3))
        @example(1, 0, 1, 1)
        @example(2, 0, 1, 1)
        @settings(max_examples=30, deadline=None, derandomize=True)
        def check(n, seed, h, k):
            cl = build_coarse_labeling(random_graph(random.Random(seed), n, 0.2, 1.0, 6.0),
                                       h, k)
            assert _realized_scales(cl) == _swept_scales(cl)
            seen.append((len(set(cl.home)), _saturated(cl)))

        check()
        assert max(r for r, _ in seen) > 1
        assert any(s for _, s in seen)

    def test_oracles_match_sweep(self):
        # sampled oracles home almost every vertex in round 0, so the homes
        # are drawn over rounds of real alt embeddings instead
        seen = []

        @given(st.integers(min_value=1, max_value=16),
               st.integers(min_value=0, max_value=2 ** 32 - 1))
        @example(1, 0)
        @example(2, 0)
        @settings(max_examples=40, deadline=None, derandomize=True)
        def check(n, seed):
            rng = random.Random(seed)
            G = random_graph(rng, n, 0.2, 1.0, 6.0)
            h, k = rng.randint(1, 2), rng.randint(1, 3)
            seq = [ramsey_embed(G, [1.0] * n, set(rng.sample(range(n), rng.randint(1, n))),
                                h, k, "alt") for _ in range(rng.randint(1, 4))]
            home = [rng.randrange(len(seq)) for _ in range(n)]
            co = CoarseOracle._from_rounds(seq, home, [r + 1 for r in home], 1)
            assert _realized_scales(co) == _swept_scales(co)
            seen.append((len(set(home)), _saturated(co)))

        check()
        assert max(r for r, _ in seen) > 1
        assert any(s for _, s in seen)

    def test_one_home_round_makes_no_label_queries(self, monkeypatch):
        G = connected_random_graph(random.Random(271), 12, 0.3, 1.0, 5.0)
        assert set(build_coarse_labeling(G, 2, 2).home) == {0}
        assert set(build_coarse_oracle(G, 2, 2).home) == {0}
        calls = []
        real = datastructures.tree_label_query
        monkeypatch.setattr(datastructures, "tree_label_query",
                            lambda a, b: calls.append(1) or real(a, b))
        build_hop_labeling(G, 2, 2, 0.5)
        build_routing_scheme(G, 2, 2, 0.5)
        O = build_hop_oracle(G, 2, 2, 0.5)
        assert calls == []
        hop_oracle_query(O, 0, 1)
        assert calls == [1]


class TestAuxiliaryGraph:
    def test_surcharge_formula(self):
        G = P4()
        Gi = auxiliary_graph(G, 3, 2, 32.0, 0.5)
        assert Gi.omega == pytest.approx((0.5 / 64.0) * 8.0)
        for u in range(G.n):
            base = dict(G.adj[u])
            for v, w in Gi.adj[u]:
                assert w == pytest.approx(base[v] + Gi.omega)
        path_weight = dict(Gi.adj[0])[1] + dict(Gi.adj[1])[2]
        assert path_weight == pytest.approx(2.0 + 2 * Gi.omega)

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
                L = tz.build_labeling(G.adj, k, seed=rng.randrange(100))
                for u in range(G.n):
                    d = tz.sssp(G.adj, u)
                    for v in range(G.n):
                        got = tz.label_query(k, L.label(u), L.label(v))
                        assert got >= d[v] * (1 - 1e-9)
                        assert got <= (2 * k - 1) * d[v] * (1 + 1e-9)
                        if k == 1:
                            assert got == pytest.approx(d[v])

    @staticmethod
    def _core_query(c: tz.TZCore, u: int, v: int) -> float:
        """The query read straight off the core's per-level tables."""
        if u == v:
            return 0.0
        x, y, i = u, v, 0
        w = c.pivots[0][x]
        while w is None or w not in c.bunch[y]:
            i += 1
            if i >= c.k:
                return math.inf
            x, y = y, x
            w = c.pivots[i][x]
        return c.pivot_dist[i][x] + c.bunch[y][w]

    def test_labeling_matches_core(self):
        for G, rng in self._graphs(232, 6):
            for k in (1, 2, 3):
                s = rng.randrange(100)
                C = tz.build_core(G.adj, k, seed=s)
                L = tz.build_labeling(G.adj, k, seed=s)
                assert len(L.labels) == G.n
                for u in range(G.n):
                    for v in range(G.n):
                        assert tz.label_query(k, L.label(u), L.label(v)) == \
                            self._core_query(C, u, v)

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

    def test_lasso_sandwich_binds(self):
        # at h = 1, k = 1, eps = 0.9 the hop budget B*h is 178, so pairs the
        # path joins only in more hops must be answered at least d^(B h)
        G = lasso(300)
        L = build_hop_labeling(G, 1, 1, 0.9)
        binding = 0
        for u in (0, 75, 150):
            d = edge_count_bellman_ford(G, u)
            dh = walk_enum_distance(G, u, 1)
            dB = walk_enum_distance(G, u, L.hop_budget)
            for v in range(G.n):
                if v == u:
                    continue
                got = labeling_query(L, L.label(u), L.label(v))
                assert got >= dB[v] * (1 - 1e-9)
                if not is_inf(dh[v]):
                    assert got <= L.stretch * dh[v] * (1 + 1e-9)
                binding += dB[v] > d[v] * (1 + 1e-9)
        assert binding > 0


def _random_schemes():
    """(G, h, S): four small connected random graphs, each with a routing
    scheme at a random h, k and epsilon."""
    rng = random.Random(261)
    for _ in range(4):
        n = rng.randint(2, 9)
        G = connected_random_graph(rng, n, 0.3, 1.0, 5.0)
        h, k, eps = rng.randint(1, 2), rng.randint(1, 2), rng.choice([0.25, 0.5])
        yield G, h, build_routing_scheme(G, h, k, eps, seed=rng.randrange(100))


def _golden_scheme(name: str):
    """(G, h, S) of one configuration of tests/test_golden_structures.py."""
    family, params, seed, h = GOLDEN_GRAPHS[name]
    G = gen_graph(family, params, seed)
    return G, h, build_routing_scheme(G, h, GOLDEN_K, GOLDEN_EPS, seed)


def _left_to_right(weights) -> float:
    """0.0 plus each weight in order: the float order of ``route``, and of
    ``sum`` up to Python 3.11 (the ``sum`` of 3.12 compensates)."""
    return functools.reduce(operator.add, weights, 0.0)


def _edge_weights(G):
    w = {}
    for a, b, x in G.edges:
        w[a, b] = w[b, a] = x
    return w


def _reference_route(S, w, u, v) -> RouteResult:
    """route(S, u, v) rebuilt from the per-hop logged route of the scale's
    scheme and the hop weights read from G.edges (``w``)."""
    if u == v:
        return RouteResult(True, (u,), None, 0.0, 0.0, (u,))
    est = S.coarse.query(u, v)
    if is_inf(est):
        return RouteResult(False, (u,), None, 0.0, 0.0, (u,))
    i = _scale_of(est)
    got = per_hop_logged_route(S.inner[i], u, v)
    if got is None:
        return RouteResult(False, (u,), i, 0.0, 0.0, (u,))
    path, reads = got
    hops = list(zip(path, path[1:]))
    weight = _left_to_right(w[a, b] for a, b in hops)
    return RouteResult(True, tuple(path), i, weight,
                       weight + S.omegas[i] * len(hops), tuple(reads))


class TestRouting:
    def test_delivery_weight_and_locality(self):
        for G, h, S in _random_schemes():
            n = G.n
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

    @pytest.mark.parametrize("golden", [None, "rw32-h2"])
    def test_matches_per_hop_reference(self, golden):
        """Every ordered pair's RouteResult equals the reference field by
        field, on the random schemes or one golden configuration, and each
        field has the reference's type: weight a float, path and
        table_reads tuples.  The reference reads the hop weights from
        G.edges rather than the graph's weight maps, adds them in path
        order, and adds the scale's surcharge once per hop."""
        schemes = _random_schemes() if golden is None else [_golden_scheme(golden)]
        delivered = 0
        for G, _, S in schemes:
            w = _edge_weights(G)
            for u in range(G.n):
                for v in range(G.n):
                    got, ref = route(S, u, v), _reference_route(S, w, u, v)
                    assert type(got) is RouteResult
                    assert got == ref
                    assert [type(x) for x in got] == [type(x) for x in ref]
                    delivered += got.delivered and u != v
        assert delivered > 0

    def test_route_result_fields(self):
        # tests/test_golden_structures.py flattens a RouteResult in this order
        assert RouteResult._fields == ("delivered", "path", "scale", "weight",
                                       "weight_aux", "table_reads")

    def test_non_edge_hop_names_the_pair(self, monkeypatch):
        # a forwarding rule that takes the packet 0 -> 1 -> 3 on the path
        # 0-1-2-3, where (1, 3) is not an edge
        S = build_routing_scheme(P4(), 2, 2, 0.5)
        monkeypatch.setattr(tz, "forward",
                            lambda table, header: {0: 1, 1: 3}[table.label.vertex])
        with pytest.raises(KeyError) as exc:
            route(S, 0, 3)
        assert exc.value.args == ((1, 3),)

    def test_declines_disconnected(self):
        G = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        S = build_routing_scheme(G, 1, 2, 0.5)
        res = route(S, 0, 2)
        assert not res.delivered


class TestVertexIds:
    """Query entry points reject ids outside range(n), negative ones
    included, and non-integer ids, naming the id, instead of wrapping to
    another vertex or failing inside the coarse record or a routing table."""

    @pytest.fixture(scope="class")
    def built(self):
        G = P4()
        return (build_hop_oracle(G, 2, 2, 0.5), build_hop_labeling(G, 2, 2, 0.5),
                build_routing_scheme(G, 2, 2, 0.5))

    @pytest.mark.parametrize("u, v, bad", [(0, -1, -1), (0, 9, 9), (-2, 1, -2),
                                           (4, 4, 4), (9, -1, 9), (0, -1.0, -1),
                                           (4.0, 0, 4)])
    def test_oracle_query(self, built, u, v, bad):
        with pytest.raises(ValueError, match=rf"vertex id {bad} out of range for n=4"):
            hop_oracle_query(built[0], u, v)

    @pytest.mark.parametrize("v", [-1, 4, -1.0, 4.0])
    def test_label(self, built, v):
        with pytest.raises(ValueError, match=rf"vertex id {int(v)} out of range for n=4"):
            built[1].label(v)

    @pytest.mark.parametrize("u, v, bad", [(0, -1, -1), (0, 7, 7), (-1, -1, -1),
                                           (7, -1, 7), (0, 4.0, 4), (-1.0, 0, -1)])
    def test_route(self, built, u, v, bad):
        with pytest.raises(ValueError, match=rf"vertex id {bad} out of range for n=4"):
            route(built[2], u, v)

    @pytest.mark.parametrize("bad", [1.5, True, "1", None, [1]])
    def test_non_integers(self, built, bad):
        O, L, S = built
        for call in (lambda: hop_oracle_query(O, 0, bad), lambda: hop_oracle_query(O, bad, 0),
                     lambda: hop_oracle_query(O, bad, 9), lambda: L.label(bad),
                     lambda: route(S, bad, 0), lambda: route(S, 0, bad),
                     lambda: route(S, bad, 9)):
            with pytest.raises(ValueError, match="vertex id must be an integer"):
                call()

    def test_integral_floats_are_ids(self, built):
        O, L, S = built
        assert hop_oracle_query(O, 0.0, 3.0) == hop_oracle_query(O, 0, 3)
        assert hop_oracle_query(O, 1, 3.0) == hop_oracle_query(O, 1, 3)
        assert L.label(2.0) is L.labels[2]
        assert route(S, 3.0, 0) == route(S, 3, 0)
        assert route(S, 0, 3.0) == route(S, 0, 3)
        assert [type(x) for x in route(S, 3.0, 0)] == [type(x) for x in route(S, 3, 0)]


class TestParameterValidation:
    """Out-of-range h, k or epsilon fail at the public boundary with a
    message that names the parameter."""

    @pytest.mark.parametrize("build", [build_hop_oracle, build_hop_labeling,
                                       build_routing_scheme])
    @pytest.mark.parametrize("h, k, eps, message", [
        (0, 2, 0.5, "h must be >= 1"),
        (-1, 2, 0.5, "h must be >= 1"),
        (2, 0, 0.5, "k must be >= 1"),
        (2, -3, 0.5, "k must be >= 1"),
        (1.5, 2, 0.5, "h must be an integer"),
        (2, 2.5, 0.5, "k must be an integer"),
        (2, 2, 0.0, "epsilon"),
        (2, 2, 1.0, "epsilon"),
        (2, 2, 1.5, "epsilon"),
    ])
    def test_rejects_out_of_range(self, build, h, k, eps, message):
        with pytest.raises(ValueError, match=message):
            build(P4(), h, k, eps)

    @pytest.mark.parametrize("build", [build_hop_oracle, build_hop_labeling,
                                       build_routing_scheme])
    def test_integral_floats_accepted(self, build):
        # h and k are stored as ints, and the structure is the int build's
        G = P4()
        got = build(G, 2.0, 2.0, 0.5)
        assert type(got.h) is int and type(got.k) is int
        assert got == build(G, 2, 2, 0.5)

    @pytest.mark.parametrize("build", [build_hop_oracle, build_hop_labeling,
                                       build_routing_scheme])
    def test_rejects_light_weights(self, build):
        # the scale recursion assumes distinct vertices at least 1 apart
        G = WeightedGraph(6, [(i, i + 1, 0.1) for i in range(5)], normalize=False)
        with pytest.raises(ValueError, match="normalize"):
            build(G, 2, 2, 0.5)
