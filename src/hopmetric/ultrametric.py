"""Rooted labeled trees realizing ultrametrics, plus weighted trees and
Steiner point removal.

Leaf-to-leaf distance in an ultrametric is the label of the least common
ancestor; labels never increase from the root down and leaves carry label 0.
"""
from __future__ import annotations

import json
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .graph_core import INFINITY, is_inf, vertex_id

_EPS = 1e-9


def _node_id(x, n: int, what: str) -> int:
    """x as a node id of a tree on n nodes, checked as a vertex id
    (``graph_core.vertex_id``): an integral float is its int, and a bool, a
    fraction, a non-number or an id outside range(n) is an error that
    names ``what``."""
    try:
        return vertex_id(x, n)
    except ValueError:
        raise ValueError(f"{what} is not a node of the tree") from None


class _RootedTree:
    """Rooted tree in parent arrays; nodes are indices, in any order.

    parent[root] is None; payload[x] is what node x carries; ``values``
    (labels or edge weights) is only checked for its length.
    """

    __slots__ = ("parent", "payload", "_children", "_root", "_depth")

    def __init__(self, parent: List[Optional[int]], payload: List[Optional[object]],
                 values: Sequence[float]):
        if not len(parent) == len(payload) == len(values):
            raise ValueError("array lengths differ")
        parent = list(parent)
        ch: List[List[int]] = [[] for _ in parent]
        for i, p in enumerate(parent):
            if p is not None:
                if type(p) is not int or not 0 <= p < len(ch):   # ints skip the call
                    p = parent[i] = _node_id(p, len(ch), f"parent id {p!r} of node {i}")
                ch[p].append(i)
        # a walk down from the first root reaches all nodes iff no other root or cycle
        order = [parent.index(None)] if None in parent else []
        depth = [0] * len(ch)
        for x in order:
            for c in ch[x]:
                depth[c] = depth[x] + 1
            order.extend(ch[x])
        if not order or len(order) != len(ch):
            raise ValueError("tree must have exactly one root and no cycle")
        self.parent = parent
        self.payload = list(payload)
        self._root = order[0]
        self._children = ch
        self._depth = depth

    @property
    def root(self) -> int:
        return self._root

    def children(self, x: int) -> Sequence[int]:
        return self._children[x]

    def n_nodes(self) -> int:
        return len(self.parent)

    def _check_nodes(self, *xs) -> Tuple[int, ...]:
        """xs as node ids of this tree (see ``_node_id``)."""
        n = len(self.parent)
        for x in xs:
            if type(x) is not int or not 0 <= x < n:    # ints in range skip the calls
                return tuple(_node_id(x, n, repr(x)) for x in xs)
        return xs

    def lca(self, x: int, y: int) -> int:
        """Lowest common ancestor: climb the deeper side, then both."""
        parent, depth = self.parent, self._depth
        while depth[x] > depth[y]:
            x = parent[x]
        while depth[y] > depth[x]:
            y = parent[y]
        while x != y:
            x, y = parent[x], parent[y]
        return x

    def _climb(self, u: int, v: int) -> Tuple[List[int], int, List[int]]:
        """(up, z, down): z = lca(u, v), and up and down the nodes climbed
        from u and from v to reach it, z excluded, by depth as in ``lca``."""
        parent, depth = self.parent, self._depth
        up: List[int] = []
        down: List[int] = []
        while depth[u] > depth[v]:
            up.append(u)
            u = parent[u]
        while depth[v] > depth[u]:
            down.append(v)
            v = parent[v]
        while u != v:
            up.append(u)
            down.append(v)
            u, v = parent[u], parent[v]
        return up, u, down

    def path(self, u: int, v: int) -> List[int]:
        """Node sequence of the unique u-v path."""
        up, z, down = self._climb(*self._check_nodes(u, v))
        up.append(z)
        up.extend(reversed(down))
        return up

    def depth(self) -> int:
        """Number of edges on the longest root-to-node path."""
        return max(self._depth)


class Ultrametric(_RootedTree):
    """Rooted labeled tree.  payload[x] is the carried vertex/copy id for
    leaves and None for internal nodes.
    """

    __slots__ = ("label",)

    def __init__(self, parent: List[Optional[int]], label: List[float],
                 payload: List[Optional[object]]):
        super().__init__(parent, payload, label)
        self.label = list(label)

    # -- construction ----------------------------------------------------

    @classmethod
    def leaf(cls, payload: object) -> "Ultrametric":
        return cls([None], [0.0], [payload])

    def is_leaf(self, x: int) -> bool:
        return not self._children[x]

    def leaves(self) -> List[int]:
        return [i for i in range(len(self.parent)) if self.is_leaf(i)]

    def leaf_index(self) -> Dict[object, int]:
        """payload -> leaf node id (payloads must be unique)."""
        out: Dict[object, int] = {}
        for i in self.leaves():
            p = self.payload[i]
            if p in out:
                raise ValueError(f"duplicate leaf payload {p!r}")
            out[p] = i
        return out

    # -- serialization ---------------------------------------------------

    def to_json(self) -> str:
        lab = ["inf" if is_inf(l) else l for l in self.label]
        return json.dumps({"parent": self.parent, "label": lab, "payload": self.payload})

    @classmethod
    def from_json(cls, text: str) -> "Ultrametric":
        d = json.loads(text)
        return cls(d["parent"], [float(l) for l in d["label"]], d["payload"])


def ultra_distance(U: Ultrametric, x: int, y: int) -> float:
    """Label of lca(x,y); 0 when x == y.  Arguments are leaf node ids."""
    n = len(U.parent)
    if not (type(x) is type(y) is int and 0 <= x < n and 0 <= y < n):  # ints in range
        x, y = U._check_nodes(x, y)                                     # skip the call
    if not U.is_leaf(x) or not U.is_leaf(y):
        raise ValueError("ultra_distance arguments must be leaves")
    return 0.0 if x == y else U.label[U.lca(x, y)]


def validate_ultrametric(U: Ultrametric) -> bool:
    """Leaf labels 0, payloads on leaves only, and the strong triangle
    inequality over all ordered leaf triples, within 1e-9 (a NaN fails).  A
    leaf pair's distance is the label of its LCA, a branching node (two or
    more children), so one top-down pass checks every label against its
    parent's and every branching label against its strict branching ancestors'."""
    label = U.label
    cap = [math.inf] * U.n_nodes()   # least label of x's strict branching ancestors
    order = [U.root]
    for x in order:
        ch = U.children(x)
        if (not ch) is (U.payload[x] is None) or (not ch and label[x] != 0.0):
            return False
        below = cap[x]
        if len(ch) > 1:
            if not label[x] <= below + _EPS:
                return False
            below = min(below, label[x])
        for c in ch:
            if not label[c] <= label[x] + _EPS:
                return False
            cap[c] = below
        order.extend(ch)
    return True


def join_under_root(children: Sequence[Ultrametric], label: float) -> Ultrametric:
    """New root with the given label, the given ultrametrics as subtrees."""
    if not children:
        raise ValueError("need at least one child")
    for c in children:
        cl = c.label[c.root]
        if cl > label + _EPS:
            raise ValueError("root label smaller than a child root label")
    parent: List[Optional[int]] = [None]
    lab: List[float] = [label]
    payload: List[Optional[object]] = [None]
    for c in children:
        off = len(parent)
        for i in range(len(c.parent)):
            p = c.parent[i]
            parent.append(off + p if p is not None else 0)
            lab.append(c.label[i])
            payload.append(c.payload[i])
    return Ultrametric(parent, lab, payload)


def saturate_labels(U: Ultrametric, omega: float) -> Ultrametric:
    """Replace each label >= omega by INFINITY."""
    if is_inf(omega):
        return U
    lab = [INFINITY if l >= omega - _EPS else l for l in U.label]
    return Ultrametric(list(U.parent), lab, list(U.payload))


class WeightedTree(_RootedTree):
    """Rooted tree with positive edge weights; payload per node."""

    __slots__ = ("weight",)

    def __init__(self, parent: List[Optional[int]], weight: List[float],
                 payload: List[Optional[object]]):
        super().__init__(parent, payload, weight)
        self.weight = list(weight)  # weight of edge to parent; 0 at root


def tree_distance(T: WeightedTree, u: int, v: int) -> float:
    p = T.path(u, v)
    total = 0.0
    for a, b in zip(p, p[1:]):
        total += T.weight[b] if T.parent[b] == a else T.weight[a]
    return total


def steiner_point_removal(T: WeightedTree, K: Iterable[int]) -> Tuple[WeightedTree, Dict[int, int]]:
    """Contraction-only minor of T with vertex set exactly K.

    Every node is contracted into its nearest K-leaf among descendants
    (ties toward the smallest node id); subtrees containing no K node are
    folded into their parent's class.  Returns the new tree plus the map
    old node id in K -> new node id.
    """
    Kset = set(T._check_nodes(*K))
    if not Kset:
        raise ValueError("K must be nonempty")
    n = T.n_nodes()
    order: List[int] = [T.root]
    for x in order:
        order.extend(T.children(x))
    # bottom-up: nearest K descendant as (distance, node id)
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
    for x in order:  # top-down; root guaranteed to have a K descendant
        if best[x] is not None:
            assign[x] = best[x][1]
        else:
            assign[x] = assign[T.parent[x]]
    # Classes are connected subtrees, so each class but the root's meets its
    # parent class in one T edge, from its top node c to T.parent[c]; that
    # edge gets the distance between the class representatives, keeping
    # distances non-contracting.
    members = sorted(Kset)
    new_id = {x: i for i, x in enumerate(members)}
    parent: List[Optional[int]] = [None] * len(members)
    weight = [0.0] * len(members)
    for c in range(n):
        p = T.parent[c]
        if p is not None and assign[p] != assign[c]:
            parent[new_id[assign[c]]] = new_id[assign[p]]
            weight[new_id[assign[c]]] = best[p][0] + T.weight[c] + best[c][0]
    payload = [T.payload[x] for x in members]
    return WeightedTree(parent, weight, payload), new_id


def ultrametric_to_tree(U: Ultrametric, allow_infinite: bool = False) -> WeightedTree:
    """Realize U as a weighted tree with identical leaf-to-leaf distances.

    The tree keeps U's parent array and payloads, so its node ids are U's.
    Edge to parent gets weight (label(parent) - label(child))/2, so a
    leaf-to-LCA path weighs label(LCA)/2 and leaf distances match exactly.
    With allow_infinite, saturated labels become float('inf') edge weights
    (an edge between two saturated nodes weighs 0); otherwise labels must
    all be finite.
    """
    if not allow_infinite:
        for l in U.label:
            if is_inf(l):
                raise ValueError("cannot realize infinite labels as a finite tree")
    weight = [0.0] * U.n_nodes()
    for i, p in enumerate(U.parent):
        if p is not None:
            if is_inf(U.label[p]):
                weight[i] = 0.0 if is_inf(U.label[i]) else math.inf
            else:
                weight[i] = (U.label[p] - U.label[i]) / 2.0
    return WeightedTree(U.parent, weight, U.payload)
