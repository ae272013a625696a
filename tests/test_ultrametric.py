"""Ultrametric trees, weighted trees, and Steiner point removal."""
from __future__ import annotations

import json
import math
import random
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopmetric.graph_core import is_inf
from hopmetric.ultrametric import (Ultrametric, WeightedTree, join_under_root,
                                   saturate_labels, steiner_point_removal,
                                   tree_distance, ultra_distance,
                                   ultrametric_to_tree, validate_ultrametric)
from oracles import (ancestor_set_distance, brute_force_is_ultrametric,
                     climbed_depth, search_tree_path)


def two_leaf(label: float = 8.0) -> Ultrametric:
    return join_under_root([Ultrametric.leaf("a"), Ultrametric.leaf("b")], label)


def random_ultrametric(rng: random.Random, n_leaves: int) -> Ultrametric:
    trees = [Ultrametric.leaf(i) for i in range(n_leaves)]
    label = 1.0
    while len(trees) > 1:
        take = rng.randint(2, min(3, len(trees)))
        group = [trees.pop(rng.randrange(len(trees))) for _ in range(take)]
        label *= rng.uniform(1.5, 3.0)
        trees.append(join_under_root(group, label))
    return trees[0]


def relabeled(U: Ultrametric, rng: random.Random) -> Ultrametric:
    """U with its node ids shuffled, read back by from_json, so parents need
    not come before their children."""
    new = list(range(U.n_nodes()))
    rng.shuffle(new)
    parent: List[Optional[int]] = [None] * len(new)
    label, payload = [0.0] * len(new), [None] * len(new)
    for x, p in enumerate(U.parent):
        parent[new[x]] = None if p is None else new[p]
        label[new[x]], payload[new[x]] = U.label[x], U.payload[x]
    text = json.dumps({"parent": parent, "label": label, "payload": payload})
    return Ultrametric.from_json(text)


class TestBasics:
    def test_leaf(self):
        U = Ultrametric.leaf("x")
        assert U.leaves() == [0]
        assert U.label[0] == 0.0

    def test_two_leaf_distance(self):
        U = two_leaf(8.0)
        a, b = U.leaves()
        assert ultra_distance(U, a, b) == pytest.approx(8.0)
        assert ultra_distance(U, a, a) == 0.0

    def test_join_rejects_small_label(self):
        U = two_leaf(8.0)
        with pytest.raises(ValueError):
            join_under_root([U, Ultrametric.leaf("c")], 4.0)

    def test_validate(self):
        assert validate_ultrametric(two_leaf())
        bad = Ultrametric([None, 0, 0], [1.0, 0.0, 2.0], [None, "a", "b"])
        assert not validate_ultrametric(bad)

    def test_validate_checks_every_orientation(self):
        # d(a,b) = 4 + 1.2e-9 exceeds d(a,c) = d(c,b) = 4 by more than 1e-9,
        # though each label is within 1e-9 of its parent's
        U = Ultrametric([None, 0, 1, 2, 2, 0, 1],
                        [4.0, 4.0 + 6e-10, 4.0 + 1.2e-9, 0.0, 0.0, 0.0, 0.0],
                        [None, None, None, "a", "b", "c", "d"])
        assert not validate_ultrametric(U)

    def test_validate_rejects_nan_labels(self):
        assert not validate_ultrametric(
            Ultrametric([None, 0, 0], [math.nan, 0.0, 0.0], [None, "a", "b"]))
        assert not validate_ultrametric(
            Ultrametric([None, 0, 0, 2, 2], [8.0, 0.0, math.nan, 0.0, 0.0],
                        [None, "a", None, "c", "d"]))

    def test_validate_matches_brute_force(self):
        # labels mostly stay or fall by one and drift by +-6e-10 per edge, so
        # some trees break the 1e-9 tolerance only across a chain of nodes
        rng = random.Random(5)
        verdicts = set()
        for _ in range(600):
            n = rng.randint(1, 9)
            parent = [None] + [rng.randrange(i) for i in range(1, n)]
            label = [4.0] + [0.0] * (n - 1)
            for x in range(1, n):
                step = rng.choice([0, 0, 0, 1]) if rng.random() < 0.97 else -1
                label[x] = label[parent[x]] - step + rng.choice([-6e-10, 0.0, 6e-10])
            leaves = set(range(n)) - set(parent)
            for x in leaves:
                label[x] = 0.0 if rng.random() < 0.99 else 1.0
            payload = [x if (x in leaves) is (rng.random() < 0.99) else None
                       for x in range(n)]
            U = Ultrametric(parent, label, payload)
            verdict = validate_ultrametric(U)
            assert verdict == brute_force_is_ultrametric(U), (parent, label, payload)
            verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_distance_matches_ancestor_sets(self):
        rng, shuffle_rng = random.Random(3), random.Random(31)
        not_preorder = 0
        for _ in range(10):
            U = random_ultrametric(rng, rng.randint(2, 12))
            V = relabeled(U, shuffle_rng)
            not_preorder += any(p is not None and p > c for c, p in enumerate(V.parent))
            for W in (U, V):
                leaves = W.leaves()
                for x in leaves:
                    for y in leaves:
                        got = ultra_distance(W, x, y)
                        ref = ancestor_set_distance(W, x, y)
                        assert got == pytest.approx(ref)
        assert not_preorder

    def test_strong_triangle(self):
        rng = random.Random(4)
        for _ in range(10):
            U = random_ultrametric(rng, rng.randint(3, 10))
            ls = U.leaves()
            for x in ls:
                for y in ls:
                    for z in ls:
                        dxy = ultra_distance(U, x, y)
                        m = max(ultra_distance(U, x, z), ultra_distance(U, z, y))
                        assert dxy <= m + 1e-9

    def test_json_roundtrip(self):
        U = saturate_labels(two_leaf(8.0), 5.0)
        U2 = Ultrametric.from_json(U.to_json())
        assert U2.parent == U.parent
        assert [is_inf(l) for l in U2.label] == [is_inf(l) for l in U.label]

    def test_saturate(self):
        U = saturate_labels(two_leaf(8.0), 5.0)
        a, b = U.leaves()
        assert is_inf(ultra_distance(U, a, b))


@pytest.mark.parametrize("parent", [[0, 0], [None, None, 0]],
                         ids=["no-root", "two-roots"])
@pytest.mark.parametrize("make", [
    lambda parent: Ultrametric(parent, [0.0] * len(parent), [None] * len(parent)),
    lambda parent: WeightedTree(parent, [0.0] * len(parent), [None] * len(parent)),
], ids=["ultrametric", "weighted-tree"])
def test_trees_need_exactly_one_root(make, parent):
    with pytest.raises(ValueError, match="exactly one root"):
        make(parent)


@pytest.mark.parametrize("make, match", [
    (lambda: Ultrametric([None, -1], [1.0, 0.0], [None, "a"]), "not a node"),
    (lambda: Ultrametric.from_json(json.dumps({
        "parent": [None, 0, 0, 4, 3, 3], "label": [4.0, 0.0, 2.0, 1.0, 1.0, 0.0],
        "payload": [None, "a", None, None, None, "c"]})), "no cycle"),
    (lambda: Ultrametric([None, 5], [1.0, 0.0], [None, "a"]), "not a node"),
], ids=["negative-parent", "cycle-below-root", "parent-past-the-end"])
def test_parent_arrays_must_form_a_tree(make, match):
    with pytest.raises(ValueError, match=match):
        make()


@pytest.mark.parametrize("call", [
    lambda U: ultra_distance(U, -1, 2),
    lambda U: ultrametric_to_tree(U).path(-1, 2),
    lambda U: ultra_distance(U, 9, 2),
    lambda U: steiner_point_removal(ultrametric_to_tree(U), [2, 5]),
], ids=["negative-leaf", "negative-path-end", "leaf-past-the-end", "terminal-past-the-end"])
def test_node_ids_checked_at_the_tree(call):
    U = join_under_root([two_leaf(2.0), Ultrametric.leaf("c")], 8.0)
    with pytest.raises(ValueError, match="not a node of the tree"):
        call(U)


def test_query_ids_are_checked_as_vertex_ids():
    # a bool is not a node id; an integral float is its int
    U = join_under_root([two_leaf(2.0), Ultrametric.leaf("c")], 8.0)
    with pytest.raises(ValueError, match="True is not a node of the tree"):
        ultra_distance(U, True, 4)
    for bad in (2.5, "2", None):
        with pytest.raises(ValueError, match="not a node of the tree"):
            ultra_distance(U, bad, 4)
        with pytest.raises(ValueError, match="not a node of the tree"):
            ultrametric_to_tree(U).path(bad, 4)
    assert ultra_distance(U, 2.0, 4.0) == ultra_distance(U, 2, 4) == 8.0
    assert ultrametric_to_tree(U).path(2.0, 4) == ultrametric_to_tree(U).path(2, 4)
    tree, index = steiner_point_removal(ultrametric_to_tree(U), [2.0, 4])
    assert sorted(index) == [2, 4]


def test_parent_ids_are_checked_as_vertex_ids():
    U = Ultrametric([None, 0.0], [1.0, 0.0], [None, "a"])
    assert U.parent == [None, 0] and type(U.parent[1]) is int
    assert U.to_json() == Ultrametric([None, 0], [1.0, 0.0], [None, "a"]).to_json()
    for bad in (True, 0.5, "0", [0]):
        with pytest.raises(ValueError, match=r"parent id .* of node 1 is not a node"):
            Ultrametric([None, bad], [1.0, 0.0], [None, "a"])
        with pytest.raises(ValueError, match=r"parent id .* of node 1 is not a node"):
            WeightedTree([None, bad], [0.0, 1.0], [None, None])


@pytest.mark.parametrize("label, payload", [([8.0], [None, "a"]),
                                            ([8.0, 0.0], [None])])
def test_ultrametric_rejects_unequal_array_lengths(label, payload):
    with pytest.raises(ValueError, match="array lengths differ"):
        Ultrametric([None, 0], label, payload)


@pytest.mark.parametrize("weight, payload", [([0.0], [None, None]),
                                             ([0.0, 1.0], [None])])
def test_weighted_tree_rejects_unequal_array_lengths(weight, payload):
    with pytest.raises(ValueError, match="array lengths differ"):
        WeightedTree([None, 0], weight, payload)


class TestTreeRealization:
    def test_leaf_distances_preserved(self):
        rng = random.Random(5)
        for _ in range(8):
            U = random_ultrametric(rng, rng.randint(2, 10))
            T = ultrametric_to_tree(U)
            for x in U.leaves():
                for y in U.leaves():
                    assert tree_distance(T, x, y) == \
                        pytest.approx(ultra_distance(U, x, y), abs=1e-9)

    def test_node_ids_are_kept(self):
        U = join_under_root([two_leaf(2.0), Ultrametric.leaf("c")], 8.0)
        T = ultrametric_to_tree(U)
        assert T.parent == U.parent
        assert T.payload == U.payload
        assert T.depth() == U.depth() == 2

    def test_infinite_labels_rejected_by_default(self):
        U = saturate_labels(two_leaf(8.0), 5.0)
        with pytest.raises(ValueError):
            ultrametric_to_tree(U)
        T = ultrametric_to_tree(U, allow_infinite=True)
        a, b = U.leaves()
        assert tree_distance(T, a, b) == math.inf


class TestSteinerPointRemoval:
    def test_contracts_to_terminals(self):
        rng = random.Random(6)
        for _ in range(10):
            U = random_ultrametric(rng, rng.randint(3, 12))
            T = ultrametric_to_tree(U)
            K = U.leaves()
            T2, new_id = steiner_point_removal(T, K)
            assert T2.n_nodes() == len(K)
            # non-contracting, bounded stretch
            for a in K:
                for b in K:
                    if a == b:
                        continue
                    d0 = tree_distance(T, a, b)
                    d1 = tree_distance(T2, new_id[a], new_id[b])
                    assert d1 >= d0 - 1e-9
                    assert d1 <= 8.0 * d0 + 1e-9

    def test_payloads_kept(self):
        U = two_leaf(4.0)
        T = ultrametric_to_tree(U)
        K = U.leaves()
        T2, new_id = steiner_point_removal(T, K)
        assert sorted(T2.payload) == sorted(T.payload[x] for x in K)

    def test_subset_of_terminals(self):
        # terminals on one side only: everything folds toward them
        U = join_under_root([two_leaf(2.0), Ultrametric.leaf("c")], 8.0)
        T = ultrametric_to_tree(U)
        leaves = [x for x in range(T.n_nodes()) if not T.children(x)]
        T2, _ = steiner_point_removal(T, leaves[:2])
        assert T2.n_nodes() == 2


def _quotient_spr(T: WeightedTree, K):
    """Reference Steiner point removal: the same classes, joined through a
    quotient graph that keeps the lightest parallel edge and is re-rooted
    by DFS from the root's class."""
    Kset = set(K)
    n = T.n_nodes()
    order: List[int] = [T.root]
    for x in order:
        order.extend(T.children(x))
    best: List[Optional[Tuple[float, int]]] = [None] * n
    for x in reversed(order):
        if x in Kset:
            best[x] = (0.0, x)
        for c in T.children(x):
            if best[c] is not None:
                cand = (best[c][0] + T.weight[c], best[c][1])
                if best[x] is None or cand < best[x]:
                    best[x] = cand
    assign: List[int] = [-1] * n
    for x in order:
        assign[x] = best[x][1] if best[x] is not None else assign[T.parent[x]]
    edge_w: Dict[Tuple[int, int], float] = {}
    for c in range(n):
        p = T.parent[c]
        if p is None or assign[p] == assign[c]:
            continue
        key = (min(assign[p], assign[c]), max(assign[p], assign[c]))
        w = best[p][0] + T.weight[c] + best[c][0]
        if key not in edge_w or w < edge_w[key]:
            edge_w[key] = w
    members = sorted(Kset)
    new_id = {x: i for i, x in enumerate(members)}
    adj: List[List[Tuple[int, float]]] = [[] for _ in members]
    for (a, b), w in edge_w.items():
        adj[new_id[a]].append((new_id[b], w))
        adj[new_id[b]].append((new_id[a], w))
    root_new = new_id[assign[T.root]]
    parent: List[Optional[int]] = [None] * len(members)
    weight = [0.0] * len(members)
    seen = [False] * len(members)
    seen[root_new] = True
    stack = [root_new]
    while stack:
        x = stack.pop()
        for y, w in adj[x]:
            if not seen[y]:
                seen[y] = True
                parent[y] = x
                weight[y] = w
                stack.append(y)
    assert all(seen)
    return parent, weight, [T.payload[x] for x in members], new_id


@st.composite
def weighted_trees_and_terminals(draw):
    """A weighted tree on shuffled node ids (small integer weights, so ties
    in the nearest terminal occur) and a nonempty terminal set drawn from
    all nodes, internal ones included."""
    n = draw(st.integers(min_value=1, max_value=14))
    ids = draw(st.permutations(range(n)))
    parent: List[Optional[int]] = [None] * n
    weight = [0.0] * n
    for i in range(1, n):
        parent[ids[i]] = ids[draw(st.integers(min_value=0, max_value=i - 1))]
        weight[ids[i]] = float(draw(st.integers(min_value=1, max_value=4)))
    T = WeightedTree(parent, weight, [f"v{x}" for x in range(n)])
    K = draw(st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1))
    return T, K


@given(weighted_trees_and_terminals())
@settings(max_examples=150, deadline=None)
def test_steiner_point_removal_matches_quotient_graph(tree_and_terminals):
    T, K = tree_and_terminals
    T2, new_id = steiner_point_removal(T, K)
    assert (T2.parent, T2.weight, T2.payload, new_id) == _quotient_spr(T, K)


@given(weighted_trees_and_terminals())
@settings(max_examples=100, deadline=None)
def test_paths_and_depth_on_shuffled_ids(tree_and_terminals):
    T, _ = tree_and_terminals
    for u in range(T.n_nodes()):
        for v in range(T.n_nodes()):
            assert T.path(u, v) == search_tree_path(T.parent, u, v)
    assert T.depth() == climbed_depth(T.parent)


@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=2, max_value=12))
@settings(max_examples=40, deadline=None)
def test_random_ultrametrics_validate(seed, n_leaves):
    U = random_ultrametric(random.Random(seed), n_leaves)
    assert validate_ultrametric(U)
