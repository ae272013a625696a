"""The landmark core built from Thorup-Zwick clusters, checked against the
definitions evaluated on full shortest-path rows.

The reference runs one unrestricted ``dijkstra`` per vertex and applies the
definitions literally: the pivot of x at level i is the smallest id at the
minimum distance over A_i (scanned in id order, a later vertex winning only
by more than 1e-15), and w in A_i - A_{i+1} enters the bunch of x when
d(w,x) < d(A_{i+1},x) - 1e-15.  The cluster construction must agree with
it bit for bit.
"""
from __future__ import annotations

import math
import random

import pytest

from hopmetric import tz
from hopmetric.datastructures import auxiliary_graph
from hopmetric.graph_core import WeightedGraph, dijkstra
from oracles import connected_random_graph


def reference_core(adj, k: int, seed: int) -> tz.TZCore:
    n = len(adj)
    levels = tz._sample_levels(n, k, seed)
    rows = [dijkstra(adj, w) for w in range(n)]
    piv, pdist = [], []
    for i in range(k):
        row_p, row_d = [], []
        for x in range(n):
            best, arg = math.inf, None
            for w in sorted(levels[i]):
                if rows[w][x] < best - 1e-15:
                    best, arg = rows[w][x], w
            row_p.append(arg)
            row_d.append(best)
        piv.append(tuple(row_p))
        pdist.append(tuple(row_d))
    bunch = [dict() for _ in range(n)]
    for i in range(k):
        upper = levels[i + 1] if i + 1 < k else frozenset()
        lim = pdist[i + 1] if i + 1 < k else [math.inf] * n
        for w in sorted(levels[i] - upper):
            for x in range(n):
                if rows[w][x] < lim[x] - 1e-15:
                    bunch[x][w] = rows[w][x]
    return tz.TZCore(n, k, tuple(levels), tuple(piv), tuple(pdist), tuple(bunch))


def _grid(rows: int, cols: int) -> WeightedGraph:
    es = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                es.append((v, v + 1, 1.0))
            if r + 1 < rows:
                es.append((v, v + cols, 1.0))
    return WeightedGraph(rows * cols, es)


def _disconnected(rng: random.Random, n: int) -> WeightedGraph:
    es = [(u, v, rng.uniform(1.0, 10.0)) for u in range(n) for v in range(u + 1, n)
          if rng.random() < 1.5 / n]
    return WeightedGraph(n, es)


def _graphs():
    rng = random.Random(61)
    for t in range(4):
        n = rng.randint(8, 48)
        yield f"connected-{t}", connected_random_graph(rng, n, 4.0 / n, 1.0, 10.0).adj
    for t in range(3):
        yield f"disconnected-{t}", _disconnected(rng, rng.randint(6, 40)).adj
    G = _grid(6, 7)
    yield "grid", G.adj
    # auxiliary scale graphs: surcharged unit weights keep every tie exact
    yield "grid-aux", auxiliary_graph(G, 3, 4, 2.0, 0.5).adj
    Gr = connected_random_graph(rng, 64, 6.0 / 64, 1.0, 10.0)
    yield "random-aux", auxiliary_graph(Gr, 2, 8, 3.0, 0.5).adj


GRAPHS = dict(_graphs())


def _routing_parents(R: tz.TZRouting, key) -> dict:
    return {v: t.trees[key].parent for v, t in enumerate(R.tables) if key in t.trees}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_core_matches_full_row_reference(name, k):
    adj = GRAPHS[name]
    for seed in range(4):
        assert tz.build_core(adj, k, seed) == reference_core(adj, k, seed)


@pytest.mark.parametrize("k", [2, 3])
def test_pinned_top_level(monkeypatch, k):
    class Never:
        def random(self):
            return 1.0

    monkeypatch.setattr(tz, "substream", lambda seed, tag: Never())
    adj = connected_random_graph(random.Random(5), 5, 0.4, 1.0, 4.0).adj
    core = tz.build_core(adj, k, 0)
    assert core.levels[1:] == (frozenset({0}),) * (k - 1)
    assert core == reference_core(adj, k, 0)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_cluster_trees_match_restricted_search(name, k):
    """Each c0 routing tree is the restricted shortest-path tree over
    C_0(w) = {x : d(w,x) < d(A_1,x)} plus w, with ties to the smallest
    neighbour id."""
    adj = GRAPHS[name]
    n = len(adj)
    R = tz.build_routing(adj, k, 2)
    ref = reference_core(adj, k, 2)
    top = ref.levels[1] if k > 1 else frozenset()
    lim = ref.pivot_dist[1] if k > 1 else [math.inf] * n
    for w in range(n):
        if w in top:
            continue
        dw = dijkstra(adj, w)
        C = {x for x in range(n) if dw[x] < lim[x] - 1e-15} | {w}
        dist = dijkstra(adj, w, C)
        spt = {w: None}
        for v in sorted(C - {w}):
            spt[v] = min(u for u, wt in adj[v] if abs(dist[u] + wt - dist[v]) <= 1e-9)
        assert _routing_parents(R, ("c0", w)) == spt


@pytest.mark.parametrize("k", [1, 2, 3])
def test_full_rows_only_from_the_top_level(monkeypatch, k):
    adj = GRAPHS["random-aux"]
    calls = []
    full = tz.sssp
    monkeypatch.setattr(tz, "sssp", lambda a, s: calls.append(s) or full(a, s))
    core = tz.build_core(adj, k, 7)
    assert sorted(calls) == sorted(core.levels[k - 1])
    calls.clear()
    tz.build_routing(adj, k, 7)
    assert sorted(calls) == sorted(core.levels[min(1, k - 1)])
    if k > 1:
        assert len(core.levels[k - 1]) < len(adj) // 2


def test_sparse_thousand_vertices_against_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(1009)
    n = 1000
    G = connected_random_graph(rng, n, 3.0 / n, 1.0, 10.0)
    NG = nx.Graph()
    NG.add_nodes_from(range(n))
    NG.add_weighted_edges_from(G.edges)
    core = tz.build_core(G.adj, 2, 11)
    A1 = sorted(core.levels[1])
    near = nx.multi_source_dijkstra_path_length(NG, set(A1))
    for x in range(n):
        assert core.pivot_dist[1][x] == pytest.approx(near[x], rel=1e-12)
        assert core.pivot_dist[0][x] == 0.0 and core.pivots[0][x] == x
    # clusters of a sample of non-landmarks, from independent searches
    for w in rng.sample(sorted(set(range(n)) - set(A1)), 40):
        dw = nx.single_source_dijkstra_path_length(NG, w)
        for x, d in dw.items():
            p = core.pivot_dist[1][x]
            if abs(d - p) <= 1e-9 * p:
                continue        # too close to the boundary to call
            if d < p:
                assert core.bunch[x][w] == pytest.approx(d, rel=1e-12)
            else:
                assert w not in core.bunch[x]
    sizes = sum(len(b) for b in core.bunch)
    assert sizes < n * n // 10
