"""Path-tree embeddings, induced low-hop paths, and subgraph images."""
from __future__ import annotations

import dataclasses
import math
import random

import pytest

from hopmetric.graph_core import (WeightedGraph, hop_distance_all,
                                  is_h_respecting, is_inf)
from hopmetric.preserve import (Unreachable, bounded_hop_path,
                                build_path_tree_embedding,
                                image_of_general_subgraph,
                                image_of_respecting_subgraph, induced_path)
from hopmetric.cli import gen_graph
from oracles import (connected_random_graph, edgewise_induced_path,
                     logged_hop_path, random_graph, walk_enum_distance)
from test_golden_structures import _digest


def _assert_walk(G: WeightedGraph, walk, weight):
    for a, b in zip(walk, walk[1:]):
        assert G.has_edge(a, b)
    assert sum(G.edge_weight(a, b) for a, b in zip(walk, walk[1:])) == \
        pytest.approx(weight)


class TestBoundedHopPath:
    def test_matches_walk_enumeration(self):
        rng = random.Random(111)
        for _ in range(15):
            n = rng.randint(2, 10)
            G = random_graph(rng, n, 0.35, 1.0, 7.0)
            for budget in (1, 2, 3):
                for s in range(n):
                    ref = walk_enum_distance(G, s, budget)
                    for t in range(n):
                        got = bounded_hop_path(G, s, t, budget)
                        if ref[t] == math.inf:
                            assert got is None
                        else:
                            path, w = got
                            assert w == pytest.approx(ref[t])
                            assert path[0] == s and path[-1] == t
                            assert len(path) - 1 <= budget
                            _assert_walk(G, path, w)

    def test_matches_predecessor_log(self):
        # budgets run to 3n, past the n - 1 cap; unit grids and cycles tie
        # equal-weight predecessors, and small integer weights tie paths of
        # different hop counts
        rng = random.Random(112)
        graphs = [random_graph(rng, rng.randint(1, 9), 0.35, 1.0, 7.0)
                  for _ in range(12)]
        graphs += [WeightedGraph(n, [(u, v, rng.randint(1, 3)) for u in range(n)
                                     for v in range(u + 1, n) if rng.random() < 0.4])
                   for n in (5, 6, 7, 8)]
        graphs += [WeightedGraph(1, []), gen_graph("grid", {"rows": 3, "cols": 4}),
                   gen_graph("cycle", {"n": 6}), gen_graph("cycle", {"n": 7})]
        for G in graphs:
            for s in range(G.n):
                for t in range(G.n):
                    for budget in range(3 * G.n + 1):
                        assert bounded_hop_path(G, s, t, budget) == \
                            logged_hop_path(G, s, t, budget)

    def test_grid_embedding_paths_match_predecessor_log(self):
        G = gen_graph("grid", {"rows": 10, "cols": 10})
        pte = build_path_tree_embedding(G, 37, 2)
        checked = 0
        for c, p in enumerate(pte.T.parent):
            if p is None or pte.T.weight[c] == math.inf:
                continue
            u, v = pte.T.payload[c], pte.T.payload[p]
            ref = logged_hop_path(G, u, v, pte.edge_hop_budget) if u != v else ([u], 0.0)
            assert pte.assoc[(min(c, p), max(c, p))] == ref
            checked += u != v
        assert checked == 120

    @pytest.mark.parametrize("t", [-1, 4])
    def test_target_range_checked(self, t):
        G = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        with pytest.raises(ValueError, match=rf"vertex id {t} out of range for n=4"):
            bounded_hop_path(G, 0, t, 3)

    def test_zero_budget(self):
        G = WeightedGraph(2, [(0, 1, 1.0)])
        assert bounded_hop_path(G, 0, 0, 0) == ([0], 0.0)
        assert bounded_hop_path(G, 0, 1, 0) is None

    @pytest.mark.parametrize("n", [1, 3])
    def test_negative_budget(self, n):
        G = WeightedGraph(n, [(i, i + 1, 1.0) for i in range(n - 1)])
        with pytest.raises(ValueError, match="nonnegative"):
            bounded_hop_path(G, 0, n - 1, -1)


def _check_pte(G, pte):
    n = G.n
    assert len(pte.f[pte.root_vertex]) == 1
    payload = pte.T.payload
    for v in range(n):
        assert pte.f[v], "every vertex keeps at least one copy"
        assert pte.chi[v] in pte.f[v]
        assert all(payload[c] == v for c in pte.f[v])
    assert sorted(c for v in range(n) for c in pte.f[v]) == \
        list(range(pte.T.n_nodes()))
    # every finite tree edge carries a bounded-hop path of matching endpoints
    for c in range(pte.T.n_nodes()):
        p = pte.T.parent[c]
        if p is None:
            continue
        key = (min(c, p), max(c, p))
        entry = pte.assoc[key]
        if pte.T.weight[c] == math.inf:
            assert entry is None
            continue
        path, w = entry
        assert {path[0], path[-1]} == {payload[c], payload[p]}
        assert len(path) - 1 <= pte.edge_hop_budget
        assert w <= pte.T.weight[c] * (1 + 1e-9) + 1e-12
        _assert_walk(G, path, w)


class TestPathTreeEmbedding:
    def test_invariants_random(self):
        rng = random.Random(121)
        for _ in range(8):
            n = rng.randint(2, 9)
            G = connected_random_graph(rng, n, 0.35, 1.0, 5.0)
            root = rng.randrange(n)
            h = rng.randint(1, 3)
            pte = build_path_tree_embedding(G, root, h)
            _check_pte(G, pte)

    def test_alt_variant(self):
        rng = random.Random(122)
        G = connected_random_graph(rng, 8, 0.3, 1.0, 4.0)
        pte = build_path_tree_embedding(G, 0, 2, "alt")
        _check_pte(G, pte)

    def test_singleton(self):
        pte = build_path_tree_embedding(WeightedGraph(1, []), 0, 1)
        assert pte.f[0] == (0,) and pte.root_copy() == 0

    def test_singleton_variant(self):
        one = WeightedGraph(1, [])
        assert build_path_tree_embedding(one, 0, 1, "alt").clan.variant == "alt"
        with pytest.raises(ValueError, match="unknown variant"):
            build_path_tree_embedding(one, 0, 1, "bogus")

    def test_induced_paths(self):
        rng = random.Random(123)
        for _ in range(6):
            n = rng.randint(2, 8)
            G = connected_random_graph(rng, n, 0.35, 1.0, 4.0)
            pte = build_path_tree_embedding(G, 0, 2)
            copies = list(range(pte.T.n_nodes()))
            for _ in range(10):
                a, b = rng.choice(copies), rng.choice(copies)
                walk, w = induced_path(pte, a, b)
                assert walk[0] == pte.T.payload[a]
                assert walk[-1] == pte.T.payload[b]
                assert len(walk) - 1 <= pte.hop_bound
                _assert_walk(G, walk, w)

    def test_unreachable_across_components(self):
        G = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        pte = build_path_tree_embedding(G, 0, 1)
        a = pte.f[0][0]
        b = pte.f[2][0]
        with pytest.raises(Unreachable):
            induced_path(pte, a, b)

    def test_unconcatenated_assoc_rejected(self):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        pte = build_path_tree_embedding(G, 0, 2)
        key, (path, w) = next((k, e) for k, e in pte.assoc.items()
                              if e is not None and len(e[0]) > 1)
        for bad in (path[:-1] + [path[0]], path[1:]):
            assoc = dict(pte.assoc)
            assoc[key] = (bad, w)
            with pytest.raises(AssertionError, match="associated paths do not concatenate"):
                dataclasses.replace(pte, assoc=assoc)
        assert dataclasses.replace(pte, assoc=dict(pte.assoc)) == pte

    def test_copy_range_validated(self):
        pte = build_path_tree_embedding(WeightedGraph(2, [(0, 1, 1.0)]), 0, 1)
        with pytest.raises(ValueError):
            induced_path(pte, 0, pte.T.n_nodes())
        with pytest.raises(ValueError):
            induced_path(pte, -1, -1)


def _induced_or_none(pte, a, b):
    try:
        return induced_path(pte, a, b)
    except Unreachable:
        return None


def _random_pte(variant: str, i: int):
    rng = random.Random(f"induced-{variant}-{i}")
    G = connected_random_graph(rng, rng.randint(4, 12), 0.3, 1.0, 6.0)
    return build_path_tree_embedding(G, rng.randrange(G.n), rng.randint(1, 3), variant)


DIFFERENTIAL_PTES = {
    "grid": lambda: build_path_tree_embedding(
        gen_graph("grid", {"rows": 10, "cols": 10}), 37, 2),
    **{f"{variant}-{i}": (lambda variant=variant, i=i: _random_pte(variant, i))
       for variant in ("standard", "alt") for i in range(4)},
    "disconnected": lambda: build_path_tree_embedding(
        WeightedGraph(6, [(0, 1, 1.0), (1, 2, 2.5), (3, 4, 1.0), (4, 5, 1.5)]), 1, 2),
    "singleton": lambda: build_path_tree_embedding(WeightedGraph(1, []), 0, 1),
}


@pytest.mark.parametrize("name", list(DIFFERENTIAL_PTES))
def test_induced_path_matches_edgewise_walk(name):
    pte = DIFFERENTIAL_PTES[name]()
    copies = range(pte.T.n_nodes())
    separated = 0
    for a in copies:
        for b in copies:
            got, ref = _induced_or_none(pte, a, b), edgewise_induced_path(pte, a, b)
            assert got == ref, (a, b)
            if ref is None:
                separated += 1
            else:
                assert type(got) is tuple and type(got[0]) is list
    assert (separated > 0) == (name == "disconnected")


class TestRespectingImage:
    def test_path_subgraphs(self):
        rng = random.Random(131)
        for _ in range(8):
            n = rng.randint(3, 8)
            G = connected_random_graph(rng, n, 0.35, 1.0, 4.0)
            h = rng.randint(1, 2)
            pte = build_path_tree_embedding(G, 0, h)
            u, v = rng.sample(range(n), 2)
            got = bounded_hop_path(G, u, v, h)
            if got is None:
                continue
            path, _ = got
            H = list(zip(path, path[1:]))
            if not H:
                continue
            assert is_h_respecting(G, H, h)
            img = image_of_respecting_subgraph(pte, H)
            # the image is a tree containing a copy of every H vertex
            assert len(img.edges) == len(img.nodes) - 1
            for x in set(path):
                assert img.has_copy_of(x, pte.T.payload)
                assert pte.T.payload[img.witness[x]] == x
            wH = sum(G.edge_weight(a, b) for a, b in H)
            assert img.weight <= pte.path_bound * 2.0 * wH * (1 + 1e-9)
            # connectivity of the image subtree
            adj = {x: set() for x in img.nodes}
            for a, b in img.edges:
                adj[a].add(b)
                adj[b].add(a)
            seen = {next(iter(img.nodes))}
            stack = list(seen)
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            assert seen == set(img.nodes)

    def test_rejects_bad_subgraphs(self):
        G = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        pte = build_path_tree_embedding(G, 0, 2)
        with pytest.raises(ValueError):
            image_of_respecting_subgraph(pte, [])
        with pytest.raises(ValueError):
            # 3 hops in a single path exceed h = 2
            image_of_respecting_subgraph(pte, [(0, 1), (1, 2), (2, 3)])


class TestGeneralImage:
    def test_low_hop_pairs_co_componented(self):
        rng = random.Random(141)
        for _ in range(4):
            n = rng.randint(4, 8)
            G = connected_random_graph(rng, n, 0.4, 1.0, 3.0)
            h = rng.randint(1, 2)
            edges = [(u, v) for u, v, _ in G.edges]
            H = rng.sample(edges, max(1, len(edges) // 2))
            pte, gi = image_of_general_subgraph(G, H, h, seed=rng.randrange(100))
            H1 = WeightedGraph(n, [(min(u, v), max(u, v), 1.0)
                                   for u, v in set(map(lambda e: (min(e), max(e)), H))])
            for u in range(n):
                dh = hop_distance_all(H1, u, h)
                for v in range(u + 1, n):
                    if not is_inf(dh[v]):
                        assert gi.co_component(pte.T.payload, u, v)

    def test_empty_subgraph(self):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        pte, gi = image_of_general_subgraph(G, [], 1)
        assert gi.images == () and not gi.edges

    def test_rejects_non_edges(self):
        G = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        with pytest.raises(ValueError):
            image_of_general_subgraph(G, [(0, 2)], 1)



# SHA-256 of image_of_general_subgraph's output on generated graphs, with H
# every ``step``-th edge of G; pins the cluster trees taken inside the cover.
# The n = 12 graph's digest changes if tied parents go to the largest id.
GENERAL_IMAGE_GOLDEN = {
    ("random-weighted", (("n", 12), ("p", 0.3), ("wmax", 5.0)), 2, 1, 1):
        "10bce360a07a9cb07d6bc5cbefdb31722bd9e870abdf6e56f239515c795264b4",
    ("grid", (("cols", 4), ("rows", 3)), 1, 1, 2):
        "d4b636f52a0f492788a0ac42884fdcb032824e3751e1fa801efd565051b554d0",
    ("random-weighted", (("n", 10), ("p", 0.4), ("wmax", 5.0)), 3, 2, 2):
        "6765c53b4c0a69c207ef064bcd0be0be4c46b427687bd96a7451e1e6762fec7c",
}


@pytest.mark.parametrize("case", sorted(GENERAL_IMAGE_GOLDEN))
def test_general_image_golden(case):
    family, params, seed, h, step = case
    G = gen_graph(family, dict(params), seed)
    H = [(u, v) for u, v, _ in G.edges[::step]]
    _, gi = image_of_general_subgraph(G, H, h, seed=seed)
    assert _digest(gi) == GENERAL_IMAGE_GOLDEN[case]
