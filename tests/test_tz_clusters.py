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

import hashlib
import math
import random

import pytest

from hopmetric import tz
from hopmetric.cli import gen_graph
from hopmetric.datastructures import (_realized_scales, auxiliary_graph,
                                      build_coarse_labeling, build_routing_scheme)
from hopmetric.graph_core import WeightedGraph, dijkstra
from oracles import (connected_random_graph, done_flag_tree_entries,
                     list_state_cutoff_row, per_hop_logged_route,
                     scattered_routing_trees)
from test_golden_structures import EPS, GRAPHS as GOLDEN_GRAPHS, K


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
    """The routing tree rooted at each non-landmark w is the restricted
    shortest-path tree over C_0(w) = {x : d(w,x) < d(A_1,x)} plus w, with
    ties to the smallest neighbour id."""
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
        assert _routing_parents(R, w) == spt


# SHA-256 of ``repr`` of the all-pairs ``route`` results (path and table
# reads, or None when declined) for k = 1, 2, 3
ROUTE_GOLDEN = {
    "connected-0": (
        "5ba3dd5860d89afa16509b336fa911771295e794d94107aec6269e21da4f6d68",
        "5f13229a25503c02faaebebf8f88fa52f1eaf691ca0cb0fa331e17dcd7a6522f",
        "945b189fe0d3bbc4d67f95784a8e143103e0f8241d12e4e57bbe526a19ae2bfb",
    ),
    "connected-1": (
        "09701f2f159ed3a6c3960308c3e0d4b06e3426cefd8e6c793a01d6aa4de8344e",
        "85a34d73a220146adad8f012ec81c83309fb09d69baf653f2717caa61ce4e79d",
        "d2f21dbb54307338544e1d783770a5b4504e875b5cae0da239b3fd11484917eb",
    ),
    "connected-2": (
        "5235d155562700422f3dc8ce193ac7d555b6ec32c1eeacb5de3b2611017c80c9",
        "88d392b175a5f51203e148dfb68a43905cff57d838586018fad0ffb5e5f198b7",
        "3ecd30730cff43f76524722ab573d53b00a2137d4aae8cbac0ad32d330c631f0",
    ),
    "connected-3": (
        "3358f8d46366467e2a14b9d0b3d4fc8d17f9ac37ec589b75c950b51159957408",
        "06037feb9ef2220e53961d8667bfafad3788a001d56f3e3a5ee8a8dbcd85ee70",
        "2555f1fc51cb00ff69378647b572b4c32ced02108ae7f38457561024b3ad2a81",
    ),
    "disconnected-0": (
        "7e1959da36bbe96be6f6fae26d2be354e9efd2e3a610b417ca5da46a62ae6fc7",
        "9c9281b58fa60bde8d995331e67466aeb6d583955c689f9ac3ab0d9ae438528b",
        "52d0f8e6d291a59dd47f8f721c71afb699b07523f91d7cb8ee7113b9af13ee9c",
    ),
    "disconnected-1": (
        "c7cfbbf877903531f7d8882fd662fe17f22fa8e8c2361af5eabd6e2f3a273dc8",
        "c7cfbbf877903531f7d8882fd662fe17f22fa8e8c2361af5eabd6e2f3a273dc8",
        "c7cfbbf877903531f7d8882fd662fe17f22fa8e8c2361af5eabd6e2f3a273dc8",
    ),
    "disconnected-2": (
        "b059fab0142fc70cffa0080cc8b71c86d6d00a9f8e04e343d9bf456a560afb2e",
        "7bad7989b4a93cee84c1c8b67715051804d6f7ed443083e083dbd3bfbb8494e0",
        "7bad7989b4a93cee84c1c8b67715051804d6f7ed443083e083dbd3bfbb8494e0",
    ),
    "grid": (
        "1fe1953dfcfb6a31df17850316f608d4ba2f3d05c3297fc23872dabc7d7e25d7",
        "177f3d6d6161a919e28898c8fd59ff7c5d0151bd48e22954ded5504d6ae0fb1c",
        "9cb762f7347f316cc449682f23a5204010c47ec5f17d2903db56e8057d37b669",
    ),
    "grid-aux": (
        "1fe1953dfcfb6a31df17850316f608d4ba2f3d05c3297fc23872dabc7d7e25d7",
        "177f3d6d6161a919e28898c8fd59ff7c5d0151bd48e22954ded5504d6ae0fb1c",
        "9cb762f7347f316cc449682f23a5204010c47ec5f17d2903db56e8057d37b669",
    ),
    "random-aux": (
        "3c34c11d91be1b6ab502dfa47c2ce52cae1844141c3d6a867e48c6f44382a78a",
        "1320f765f9b240fe2327460bb21370fdd975c09ed47da0c6f3b9a96b33cad684",
        "98d89d94f8c9253746929f9f29d39d34bfe4bfba999ce7dd222fc0ec9ffa2189",
    ),
}


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_all_pairs_routes_pinned(name):
    adj = GRAPHS[name]
    n = len(adj)
    got = []
    for k in (1, 2, 3):
        R = tz.build_routing(adj, k, 2)
        routes = [tz.route(R, u, v) for u in range(n) for v in range(n)]
        got.append(hashlib.sha256(repr(routes).encode()).hexdigest())
    assert tuple(got) == ROUTE_GOLDEN[name]


def test_forward_is_one_interval_test():
    """Down to the child holding the destination's interval, up otherwise;
    a node holding it with no child holding it, or a root not holding it,
    is a broken table."""
    adj = GRAPHS["grid"]
    R = tz.build_routing(adj, 1, 2)
    w = 0
    T = {v: t.trees[w] for v, t in enumerate(R.tables)}
    for u in range(len(adj)):
        for v in range(len(adj)):
            if u == v:
                continue
            nxt = tz.forward(R.tables[u], tz.Header(w, R.rlabels[v].intervals[w]))
            lo, hi = T[u].interval
            if lo <= T[v].interval[0] < hi:
                assert T[nxt].parent == u
                assert T[nxt].interval[0] <= T[v].interval[0] < T[nxt].interval[1]
            else:
                assert nxt == T[u].parent
    with pytest.raises(AssertionError, match="no child"):
        tz.forward(R.tables[5], tz.Header(w, R.rlabels[5].intervals[w]))
    with pytest.raises(AssertionError, match="does not contain"):
        tz.forward(R.tables[w], tz.Header(w, (len(adj), len(adj) + 1)))


def _random_tree(rng: random.Random, n: int):
    """A random rooted tree whose ids are shuffled, so a pre-order walk
    does not visit them in id order, as a parent map in shuffled order."""
    ids = list(range(n))
    rng.shuffle(ids)
    parent = {ids[0]: None}
    for i in range(1, n):
        parent[ids[i]] = ids[rng.randrange(i)]
    items = list(parent.items())
    rng.shuffle(items)
    return dict(items), ids[0]


def test_tree_walk_matches_done_flag_walk():
    """On a tree graph the one tight neighbour of a vertex is its parent, so
    the walk rebuilds the tree and gives the done-flag walk's entries, with
    each interval also in the interval dicts."""
    rng = random.Random(83)
    for parent, root in (_random_tree(rng, rng.randint(1, 60)) for _ in range(200)):
        n = len(parent)
        adj = [[] for _ in range(n)]
        for v, p in parent.items():
            if p is not None:
                wt = rng.uniform(1.0, 10.0)
                adj[v].append((p, wt))
                adj[p].append((v, wt))
        d = dijkstra(adj, root)
        trees = [dict() for _ in range(n)]
        intervals = [dict() for _ in range(n)]
        tz._tree_walk([sorted(a) for a in adj], root, {v: d[v] for v in parent},
                      trees, intervals)
        assert {v: tuple(t[root]) for v, t in enumerate(trees)} == \
            done_flag_tree_entries(parent, root)
        assert intervals == [{root: t[root].interval} for t in trees]


def _unit_graphs():
    rng = random.Random(67)
    yield "unit-grid", _grid(9, 11).adj
    yield "unit-random", connected_random_graph(rng, 48, 6.0 / 48, 1.0, 1.0).adj


TIE_GRAPHS = dict(_unit_graphs())


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(GRAPHS) + sorted(TIE_GRAPHS))
def test_routing_matches_three_pass_builder(name, k):
    """Tables and routing labels equal, dict order included, those of the
    three-pass builder over the core's rows; on unit weights most vertices
    have several tight neighbours, and the smallest id must win."""
    adj = GRAPHS.get(name) or TIE_GRAPHS[name]
    for seed in (2, 5):
        R = tz.build_routing(adj, k, seed)
        c, rows = tz._core(adj, k, seed, min(1, k - 1))
        trees, intervals = scattered_routing_trees(adj, rows, len(adj))
        labels = tz._labels(c)
        assert R.tables == tuple(tz.NodeTable(l, t) for l, t in zip(labels, trees))
        assert R.rlabels == tuple(tz.RoutingLabel(l, i) for l, i in zip(labels, intervals))
        assert [list(t.trees.items()) for t in R.tables] == [list(t.items()) for t in trees]
        assert [list(r.intervals.items()) for r in R.rlabels] == \
            [list(i.items()) for i in intervals]


def test_broken_tree_is_refused():
    """A row whose vertex has no tight neighbour, or whose tight neighbours
    form a cycle away from the root, has no shortest-path tree."""
    adj = [[(1, 1.0)], [(0, 1.0)]]
    with pytest.raises(AssertionError, match="broken shortest-path tree"):
        tz._tree_walk(adj, 0, {0: 0.0, 1: 1.5}, [{}, {}], [{}, {}])
    adj = [[], [(2, 1e-10)], [(1, 1e-10)]]
    with pytest.raises(AssertionError, match="broken shortest-path tree"):
        tz._tree_walk(adj, 0, {0: 0.0, 1: 5.0, 2: 5.0}, [{}, {}, {}], [{}, {}, {}])


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_cluster_rows_match_list_state_search(name, k):
    """The dict-state cluster search gives the rows of the cut-off search
    on a full distance list, on the bounds ``tz._core`` passes it: the
    next level's distance, widened by 1e-9 above level 0 to reach ties."""
    adj = GRAPHS[name]
    for seed in range(3):
        ref = reference_core(adj, k, seed)
        for i in range(k - 1):
            lim = ref.pivot_dist[i + 1]
            bound = list(lim) if i == 0 else [d * (1.0 + 1e-9) for d in lim]
            for w in sorted(ref.levels[i] - ref.levels[i + 1]):
                got = tz._cluster(adj, w, bound)
                assert sorted(got.items()) == \
                    sorted(list_state_cutoff_row(adj, w, bound).items())


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_read_log_matches_per_hop_log(name):
    adj = GRAPHS[name]
    n = len(adj)
    for k in (1, 2, 3):
        R = tz.build_routing(adj, k, 2)
        for u in range(n):
            for v in range(n):
                assert tz.route(R, u, v) == per_hop_logged_route(R, u, v)


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


# -- trees shared across scales --------------------------------------------

def _surcharged(adj, omega: float):
    return tuple(tuple((v, w + omega) for v, w in row) for row in adj)


def _scale_graphs():
    """The scale graphs of every family above, as in a hop structure: the
    graph surcharged by omega = 2^i / 16, which moves shortest paths toward
    fewer hops as i grows, and the realized scales of each golden graph."""
    for name, adj in sorted(GRAPHS.items()) + sorted(TIE_GRAPHS.items()):
        yield name, [_surcharged(adj, 2.0 ** i / 16) for i in range(6)]
    for name, (family, params, seed, h) in sorted(GOLDEN_GRAPHS.items()):
        G = gen_graph(family, params, seed)
        coarse = build_coarse_labeling(G, h, K)
        yield f"golden-{name}", [auxiliary_graph(G, i, h, coarse.t_coarse, EPS).adj
                                 for i in _realized_scales(coarse)]


SCALE_GRAPHS = dict(_scale_graphs())


def _assert_same_routing(R: tz.TZRouting, R0: tz.TZRouting) -> None:
    assert R.tables == R0.tables and R.rlabels == R0.rlabels
    assert [list(t.trees.items()) for t in R.tables] == \
        [list(t.trees.items()) for t in R0.tables]
    assert [list(r.intervals.items()) for r in R.rlabels] == \
        [list(r.intervals.items()) for r in R0.rlabels]


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(SCALE_GRAPHS))
def test_reuse_across_scales_matches_fresh_build(name, k):
    """Each scale's scheme built from the previous scale's equals the one
    built alone, dict order included."""
    for seed in (2, 5):
        prev = None
        for adj in SCALE_GRAPHS[name]:
            R = tz.build_routing(adj, k, seed, prev)
            _assert_same_routing(R, tz.build_routing(adj, k, seed))
            prev = R


def test_unchanged_trees_are_shared():
    """On a graph of the size the serving benchmark uses, most trees keep
    their parents from one realized scale to the next, and their entries
    are the previous scale's objects; the per-vertex dicts are not."""
    G = connected_random_graph(random.Random(17), 128, 6.0 / 128, 1.0, 10.0)
    S = build_routing_scheme(G, 8, 2, 0.5, 3)
    scales = sorted(S.inner)
    shared = total = 0
    for a, b in zip(scales, scales[1:]):
        P, R = S.inner[a], S.inner[b]
        for x, (tp, tr) in enumerate(zip(P.tables, R.tables)):
            assert tr.trees is not tp.trees
            assert R.rlabels[x].intervals is not P.rlabels[x].intervals
            for w, e in tr.trees.items():
                total += 1
                if tp.trees.get(w) is e:
                    shared += 1
                    assert R.rlabels[x].intervals[w] is e.interval
    assert len(scales) > 1 and shared > total // 2


@pytest.mark.parametrize("k", [1, 2, 3])
def test_reuse_from_another_graph_or_seed(k):
    """A scheme of another graph on as many vertices, or of the same graph
    at another seed (a landmark there roots a larger tree with the same
    parents), shares nothing that differs: the tables equal a build
    without it."""
    rng = random.Random(29)
    a = connected_random_graph(rng, 40, 5.0 / 40, 1.0, 10.0).adj
    b = connected_random_graph(rng, 40, 5.0 / 40, 1.0, 10.0).adj
    for adj, other in ((a, b), (b, a)):
        for seed in range(4):
            fresh = tz.build_routing(adj, k, seed)
            for prev in (tz.build_routing(other, k, seed),
                         tz.build_routing(adj, k, seed + 1)):
                _assert_same_routing(tz.build_routing(adj, k, seed, prev), fresh)


def test_prev_of_another_size_is_refused():
    prev = tz.build_routing(_grid(3, 3).adj, 2, 0)
    with pytest.raises(ValueError, match="prev has 9 vertices, adj has 42"):
        tz.build_routing(GRAPHS["grid"], 2, 0, prev)


@pytest.mark.parametrize("build", [tz.build_core, tz.build_labeling, tz.build_routing])
@pytest.mark.parametrize("k, message", [(2.0, "k must be an int, got 2.0"),
                                        (True, "k must be an int, got True"),
                                        (0, "k must be >= 1, got 0")])
def test_landmark_builders_reject_bad_k(build, k, message):
    with pytest.raises(ValueError, match=message):
        build(GRAPHS["grid"], k, 0)


@pytest.mark.parametrize("u, v, message", [
    (-1, 3, "vertex id -1 out of range for n=9"),
    (0, 9, "vertex id 9 out of range for n=9"),
    (0, 1.5, "vertex id must be an integer, got 1.5")])
def test_route_rejects_bad_ids(u, v, message):
    R = tz.build_routing(_grid(3, 3).adj, 2, 0)
    with pytest.raises(ValueError, match=message):
        tz.route(R, u, v)
    assert tz.route(R, 3.0, 0) == tz.route(R, 3, 0)
