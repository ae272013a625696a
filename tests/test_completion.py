"""Carving G in place of its finite completion: ``ramsey.finite_graph``
hands the carvers G itself unless omega lies within 1e-12 above a power of
two, and the embeddings equal those carved on the eagerly built
completion.  Also the boundary checks of the embedding entry points."""
from __future__ import annotations

import dataclasses
import math
import random
import tracemalloc

import pytest

from hopmetric import ramsey
from hopmetric.clan import (clan_cover, clan_create_cluster, clan_create_cluster_alt,
                            clan_distribution, clan_embed)
from hopmetric.cli import gen_graph
from hopmetric.graph_core import WeightedGraph, finite_completion, hop_profile
from hopmetric.cover import sparse_cover
from hopmetric.datastructures import build_hop_oracle
from hopmetric.preserve import build_path_tree_embedding
from hopmetric.ramsey import (create_cluster, create_cluster_alt, finite_graph,
                              padded_partition, ramsey_distribution, ramsey_embed)
from hopmetric.rng import substream
from oracles import connected_random_graph, random_graph
from test_ramsey import _below, _fixed_point_graph

# omega = 34 * 1.8823529411764712 = 64.00000000000003 sits 3e-14 above
# 2^6, so at phi = 7 the alt rule's diameter check at bound 2^6 reaches it
EDGE = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.8823529411764712)])
EDGE_MU = [10.0, 10.0, 1.0, 1.0]


def _completion_cases():
    """(G, h, k) with some pair not h-hop connected: disconnected random
    graphs, connected ones at short h, and the omega boundary graph."""
    rng = random.Random(81)
    for _ in range(4):
        G = random_graph(rng, rng.randint(6, 14), 0.12, 1.0, 8.0)
        yield G, rng.randint(1, 3), rng.randint(1, 3)
    for _ in range(4):
        G = connected_random_graph(rng, rng.randint(6, 14), 0.2, 1.0, 8.0)
        yield G, 1, rng.randint(1, 3)
    yield EDGE, 1, 2


def _builds(G, h, k):
    """One thunk per public embedding entry point that carves."""
    n = G.n
    mu = EDGE_MU if G is EDGE else [1.0 + (3 * v % 5) / 2.0 for v in range(n)]
    M0 = {0, 1} if G is EDGE else set(range(0, n, 2))
    return [
        lambda: ramsey_embed(G, mu, M0, h, k).U.to_json(),
        lambda: ramsey_embed(G, mu, M0, h, k, "alt").U.to_json(),
        lambda: clan_embed(G, mu, h, k).U.to_json(),
        lambda: clan_embed(G, mu, h, k, "alt").U.to_json(),
        lambda: [emb.U.to_json() for emb, _ in
                 ramsey_distribution(G, h, "fixed_k", 3, k, variant="alt")],
    ]


def test_served_rows_equal_completion_rows(monkeypatch):
    """Every row a carver is served, fresh or stored, equals the row on the
    completion at the same radius, at or below that radius; outside the
    omega edge case it is a row of G itself, at a radius below omega."""
    served = []
    completion = []   # (completed graph, omega) of the embedding being built
    real_profile, real_row = ramsey.hop_profile, ramsey._Balls.row
    real_graph = ramsey.finite_graph

    def graph_spy(G, h, k):
        completion[:] = [finite_completion(G, h, k)]
        return real_graph(G, h, k)

    def profile_spy(G, s, budgets, maxr, allowed):
        out = real_profile(G, s, budgets, maxr=maxr, allowed=allowed)
        served.append((completion[0], G, s, list(budgets), maxr, list(allowed),
                       {b: list(out[b]) for b in budgets}))
        return out

    def row_spy(balls, G, s, budget, r, allowed):
        row = real_row(balls, G, s, budget, r, allowed)
        served.append((completion[0], G, s, [budget], r, list(allowed),
                       {budget: list(row)}))
        return row

    monkeypatch.setattr(ramsey, "finite_graph", graph_spy)
    monkeypatch.setattr(ramsey, "hop_profile", profile_spy)
    monkeypatch.setattr(ramsey._Balls, "row", row_spy)
    checked = on_completion = 0
    for G, h, k in _completion_cases():
        for build in _builds(G, h, k):
            del served[:]
            build()
            for (Gw, omega), Gf, s, budgets, maxr, allowed, rows in served:
                assert Gw is not G
                if Gf is G:
                    assert maxr + 1e-12 < omega
                else:
                    assert G is EDGE and Gf.edges == Gw.edges
                    on_completion += 1
                want = hop_profile(Gw, s, budgets, maxr=maxr, allowed=allowed)
                for b in budgets:
                    assert _below(rows[b], maxr) == _below(want[b], maxr)
                checked += 1
    assert on_completion > 0 and checked - on_completion > 1000


def test_embeddings_equal_eager_completion(monkeypatch):
    """The embeddings equal those carved on the completion built up front."""
    cases = list(_completion_cases())
    lazy = [[build() for build in _builds(G, h, k)] for G, h, k in cases]

    def eager(G, h, k):
        Gw, omega = finite_completion(G, h, k)
        return Gw, omega, omega

    # both embeddings reach finite_graph through ramsey._embed_setup
    monkeypatch.setattr(ramsey, "finite_graph", eager)
    for (G, h, k), want in zip(cases, lazy):
        assert [build() for build in _builds(G, h, k)] == want


def test_omega_edge_case_carves_the_completion(monkeypatch):
    Gf, omega, diam = finite_graph(EDGE, 1, 2)
    assert omega == diam == 64.00000000000003
    assert Gf.edges == finite_completion(EDGE, 1, 2)[0].edges
    allowed = [0, 1, 2, 3]
    # the added edge (0, 2) of weight omega is within 64 + 1e-12 on the
    # completion; on the base graph 0 and 2 are not connected at all
    assert ramsey._bounded_diam_at_most(Gf, ramsey._Balls(), allowed, 32, 64.0)
    assert not ramsey._bounded_diam_at_most(EDGE, ramsey._Balls(), allowed, 32, 64.0)

    decisions = []
    real = ramsey._bounded_diam_at_most

    def spy(G, balls, allowed, budget, bound):
        ok = real(G, balls, allowed, budget, bound)
        decisions.append((len(allowed), bound, ok))
        return ok

    monkeypatch.setattr(ramsey, "_bounded_diam_at_most", spy)
    emb = ramsey_embed(EDGE, EDGE_MU, {0, 1}, 1, 2, "alt")
    assert (emb.phi, emb.omega) == (7, omega)
    assert (4, 64.0, True) in decisions


def test_grid_builds_no_completion(monkeypatch):
    """The 10x10 grid lacks 2-hop paths, and omega = 17 * 2 * 2 = 68 is well
    above 2^6: the grid is carved as it is."""
    G = gen_graph("grid", {"rows": 10, "cols": 10})

    def refuse(*args):
        raise AssertionError("finite completion built")

    monkeypatch.setattr(ramsey, "finite_completion", refuse)
    Gf, omega, diam = finite_graph(G, 2, 2)
    assert Gf is G and omega == diam == 68.0
    emb = ramsey_embed(G, [1.0] * G.n, set(range(G.n)), 2, 2, "alt")
    assert emb.omega == omega


def test_finite_graph_does_not_collect_missing_pairs():
    """At h = 1 a 400-vertex path lacks an h-hop path for 79,401 pairs;
    finite_graph needs only to know that one is missing."""
    G = gen_graph("path", {"n": 400})
    tracemalloc.start()
    try:
        Gw, omega, diam = finite_graph(G, 1, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert Gw is G and diam == omega
    # a list of the missing pairs alone takes several MB
    assert peak < 256 * 1024


def _typed(x):
    """x as nested lists of (type name, value) leaves, with a graph or an
    ultrametric as its JSON, so that results compare by value and type."""
    if hasattr(x, "to_json"):
        return x.to_json()
    if dataclasses.is_dataclass(x):
        x = [getattr(x, f.name) for f in dataclasses.fields(x)]
    elif isinstance(x, dict):
        x = sorted(x.items())
    elif isinstance(x, (set, frozenset)):
        x = sorted(x)
    if isinstance(x, (list, tuple)):
        return [_typed(y) for y in x]
    return type(x).__name__, x


P4 = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
ENTRY_POINTS = {
    "ramsey_embed": lambda h, k: ramsey_embed(P4, [1.0] * 4, {0, 1}, h, k),
    "clan_embed": lambda h, k: clan_embed(P4, [1.0] * 4, h, k),
    "ramsey_distribution": lambda h, k: ramsey_distribution(P4, h, "fixed_k", 2, k),
    "clan_distribution": lambda h, k: clan_distribution(P4, h, "fixed_k", 2, k),
    "padded_partition": lambda h, k: padded_partition(P4, {0, 1, 2, 3}, [1.0] * 4,
                                                      {0, 1}, h, k, 2),
    "clan_cover": lambda h, k: clan_cover(P4, {0, 1, 2, 3}, [1.0] * 4, h, k, 2),
    "finite_completion": lambda h, k: finite_completion(P4, h, k),
}
CARVERS = {
    "padded_partition": lambda X, M, mu: padded_partition(P4, X, mu, M, 1, 2, 2),
    "clan_cover": lambda X, M, mu: clan_cover(P4, X, mu, 1, 2, 2),
}
# a single carve called without its caller's ball table checks what a
# partition or cover would have
SINGLE_CARVES = {
    "create_cluster": lambda X, M, mu, h, k: create_cluster(P4, X, M, mu, h, k, 2),
    "create_cluster_alt": lambda X, M, mu, h, k: create_cluster_alt(P4, X, M, mu, h, k, 2),
    "clan_create_cluster": lambda X, M, mu, h, k: clan_create_cluster(P4, X, mu, h, k, 2),
    "clan_create_cluster_alt":
        lambda X, M, mu, h, k: clan_create_cluster_alt(P4, X, mu, h, k, 2),
}
for _name, _carve in SINGLE_CARVES.items():
    ENTRY_POINTS[_name] = lambda h, k, c=_carve: c({0, 1, 2, 3}, {0, 1}, [1.0] * 4, h, k)
    CARVERS[_name] = lambda X, M, mu, c=_carve: c(X, M, mu, 1, 2)


class TestBoundary:
    """Out-of-range input fails at the entry point with a message that
    names it."""

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("h, k, message", [
        (0, 2, "h must be >= 1"),
        (-1, 2, "h must be >= 1"),
        (3, 0, "k must be >= 1"),      # P4 is 3-hop connected
        (1, 0, "k must be >= 1"),
        (3, -2, "k must be >= 1"),
        (1.5, 2, "h must be an integer, got 1.5"),
        (2, 2.5, "k must be an integer, got 2.5"),
        (math.nan, 2, "h must be an integer"),
        (2, math.inf, "k must be an integer"),
    ])
    def test_rejects_out_of_range(self, entry, h, k, message):
        with pytest.raises(ValueError, match=message):
            ENTRY_POINTS[entry](h, k)

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("h, k", [(2.0, 2), (2, 2.0)])
    def test_integral_float_accepted(self, entry, h, k):
        # the same result as the int call, with every field of the same type
        assert _typed(ENTRY_POINTS[entry](h, k)) == _typed(ENTRY_POINTS[entry](2, 2))

    @pytest.mark.parametrize("carver", sorted(CARVERS))
    @pytest.mark.parametrize("X, M, mu, message", [
        ({0, 9}, {0}, [1.0] * 4, "vertex id 9 out of range for n=4"),
        ({-1}, {0}, [1.0] * 4, "vertex id -1 out of range for n=4"),
        ({0, 1}, {0}, [1.0] * 3, "measure has 3 entries for 4 vertices"),
        ({0, 1}, {0}, [1.0] * 5, "measure has 5 entries for 4 vertices")])
    def test_carvers_reject_bad_sets(self, carver, X, M, mu, message):
        with pytest.raises(ValueError, match=message):
            CARVERS[carver](X, M, mu)

    def test_partition_rejects_unknown_marks(self):
        with pytest.raises(ValueError, match="vertex id 7 out of range for n=4"):
            padded_partition(P4, {0, 1}, [1.0] * 4, {7}, 1, 2, 2)

    @pytest.mark.parametrize("distribution", [ramsey_distribution, clan_distribution])
    @pytest.mark.parametrize("rounds, message", [
        (2.5, "rounds must be an integer, got 2.5"),
        (True, "rounds must be an integer, got True"),
        (0, "rounds must be >= 1")])
    def test_rejects_bad_rounds(self, distribution, rounds, message):
        # the grid's standard distributions never converge, and random48's
        # converge in round 1
        for G in (gen_graph("grid", {"rows": 10, "cols": 10}),
                  _fixed_point_graph("random48")):
            with pytest.raises(ValueError, match=message):
                distribution(G, 2, "fixed_k", rounds)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("embed", [
        lambda mu: ramsey_embed(P4, mu, {0, 1}, 2, 2),
        lambda mu: clan_embed(P4, mu, 2, 2),
        lambda mu: clan_embed(P4, mu, 2, 2, "alt")])
    def test_rejects_non_finite_measure(self, embed, bad):
        with pytest.raises(ValueError, match="measure must be finite"):
            embed([1.0, bad, 1.0, 1.0])

    @pytest.mark.parametrize("M0", [{0, 9}, {-1}, {4}])
    def test_rejects_marked_vertex_out_of_range(self, M0):
        with pytest.raises(ValueError, match="out of range for n=4"):
            ramsey_embed(P4, [1.0] * 4, M0, 2, 2)


class TestBuildBoundaryIds:
    """Vertex ids, marked sets, seeds and measures at the build entry points
    are integers (or numbers) checked once, with a message that names the
    value, instead of a bare TypeError from deep inside a builder."""

    def test_graph_vertex_check_takes_integers(self):
        assert P4._check_vertex(2.0) == 2 and type(P4._check_vertex(2.0)) is int
        assert P4.has_edge(1.0, 2) and P4.edge_weight(3.0, 2) == 1.0
        for bad in (True, 1.5, None):
            with pytest.raises(ValueError, match=f"vertex id must be an integer, got {bad}"):
                P4.has_edge(bad, 1)

    @pytest.mark.parametrize("M0", [{0.5}, {True}, {"1"}])
    def test_marked_ids_are_integers(self, M0):
        with pytest.raises(ValueError, match="vertex id must be an integer"):
            ramsey_embed(P4, [1.0] * 4, M0, 2, 2)
        assert (ramsey_embed(P4, [1.0] * 4, {1.0, 3}, 2, 2).U.to_json()
                == ramsey_embed(P4, [1.0] * 4, {1, 3}, 2, 2).U.to_json())

    def test_path_tree_root_is_a_vertex_id(self):
        G = connected_random_graph(random.Random(9), 6, 0.4, 1.0, 3.0)
        a, b = build_path_tree_embedding(G, 1.0, 2), build_path_tree_embedding(G, 1, 2)
        assert a.root_vertex == 1 and type(a.root_vertex) is int
        assert a.f == b.f and a.assoc == b.assoc
        with pytest.raises(ValueError, match="vertex id must be an integer, got True"):
            build_path_tree_embedding(G, True, 2)

    @pytest.mark.parametrize("call", [
        lambda seed: substream(seed, "x"),
        lambda seed: sparse_cover(P4, 1.0, seed),
        lambda seed: build_hop_oracle(P4, 2, 2, 0.5, seed=seed)],
        ids=["substream", "sparse_cover", "build_hop_oracle"])
    @pytest.mark.parametrize("seed", [1.5, "s", None])
    def test_seeds_are_integers(self, call, seed):
        with pytest.raises(ValueError, match=f"seed must be an integer, got {seed!r}"):
            call(seed)

    @pytest.mark.parametrize("embed", [
        lambda mu: ramsey_embed(P4, mu, {0, 1}, 2, 2),
        lambda mu: clan_embed(P4, mu, 2, 2)])
    def test_measure_rejects_booleans(self, embed):
        with pytest.raises(ValueError, match="not booleans"):
            embed([1.0, True, 1.0, 1.0])
