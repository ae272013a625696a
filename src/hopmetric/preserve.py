"""Path-tree embeddings and subgraph-preserving images.

A path-tree embedding maps every vertex to a set of tree copies and every
tree edge to a bounded-hop graph path, so that tree paths project back to
low-hop graph paths.  Built from a clan embedding with a dominant-measure
root (giving a unique root copy), realized as a weighted tree, and pruned
to copies only by Steiner point removal.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .clan import ClanEmbedding, clan_embed, optimal_path_copies
from .cover import SparseCover, sparse_cover
from .graph_core import (WeightedGraph, as_integer, bellman_ford, dijkstra,
                         is_h_respecting, is_inf, shortest_path_tree)
from .ultrametric import (WeightedTree, steiner_point_removal, tree_distance,
                          ultra_distance, ultrametric_to_tree)

_EdgeKey = Tuple[int, int]


class Unreachable(Exception):
    """Two copies lie in different finite components of the tree."""


def _edge_key(a: int, b: int) -> _EdgeKey:
    return (a, b) if a < b else (b, a)


def bounded_hop_path(G: WeightedGraph, s: int, t: int,
                     budget: int) -> Optional[Tuple[List[int], float]]:
    """Minimum-weight s-t path using at most `budget` edges, or None.

    Walks the relaxation's per-round rows back from t: when round r
    improved the current vertex x, the path steps to the smallest-id
    neighbour u with row[r-1][u] + w(u, x) == row[r][x].  Capping the
    rounds at n - 1 is exact: row r holds the lightest float sum over walks
    of at most r edges, a longer walk repeats a vertex, and since weights
    are positive and float addition is monotone, cutting out the cycle
    gives no heavier sum, so no round after n - 1 improves any entry.
    """
    t = G._check_vertex(t)
    b = min(as_integer(budget, "budget"), G.n - 1)
    rows = bellman_ford(G, s, range(b + 1))
    if rows[b][t] == math.inf:
        return None
    path = [t]
    for r in range(b, 0, -1):
        x, row, prev = path[-1], rows[r], rows[r - 1]
        if row[x] < prev[x]:
            path.append(next(u for u, w in G.adj[x] if prev[u] + w == row[x]))
    path.reverse()
    if path[0] != s:
        raise AssertionError("path reconstruction failed")
    return path, rows[b][t]


@dataclass
class PathTreeEmbedding:
    G: WeightedGraph
    clan: ClanEmbedding
    T: WeightedTree                      # nodes are copies; payload = vertex id
    f: Dict[int, Tuple[int, ...]]        # vertex -> T node ids
    chi: Dict[int, int]                  # vertex -> chief T node id
    assoc: Dict[_EdgeKey, Optional[Tuple[List[int], float]]]
    edge_hop_budget: int
    hop_bound: int
    path_bound: float                    # tree-image weight distortion bound
    h: int
    root_vertex: int

    def root_copy(self) -> int:
        return self.f[self.root_vertex][0]


def build_path_tree_embedding(G: WeightedGraph, r: int, h: int,
                              variant: str = "standard") -> PathTreeEmbedding:
    """Path-tree embedding rooted at r: the root vertex gets a single copy."""
    r = G._check_vertex(r)
    n = G.n
    if n == 1:
        T = WeightedTree([None], [0.0], [0])
        return PathTreeEmbedding(G, clan_embed(G, [1.0], h, 2, variant), T,
                                 {0: (0,)}, {0: 0}, {}, h, 0, 1.0, h, r)
    mu = [1.0] * n
    mu[r] = float(n)
    emb = clan_embed(G, mu, h, 2, variant)
    if len(emb.f[r]) != 1:
        raise AssertionError("dominant-measure root must have a single copy")
    total_copies = emb.clan_size()
    if total_copies > (2 * n) ** 1.5 + 1e-9:
        raise AssertionError(f"copy count {total_copies} exceeds (2n)^1.5")
    T0 = ultrametric_to_tree(emb.U, allow_infinite=True)
    K = emb.U.leaves()
    T, new_id = steiner_point_removal(T0, K)
    # Steiner removal must not contract distances, and may stretch by <= 8.
    leaves = list(K)
    pairs: Iterable[Tuple[int, int]]
    if len(leaves) <= 40:
        pairs = [(a, b) for i, a in enumerate(leaves) for b in leaves[i + 1:]]
    else:
        from .rng import substream
        rng = substream(0, "spr-stretch-check")
        pairs = [tuple(rng.sample(leaves, 2)) for _ in range(400)]
    for a, b in pairs:
        du = ultra_distance(emb.U, a, b)
        dt = tree_distance(T, new_id[a], new_id[b])
        if is_inf(du):
            if dt != math.inf:
                raise AssertionError("saturated pair became finite after SPR")
            continue
        if dt < du * (1.0 - 1e-9) or dt > 8.0 * du * (1.0 + 1e-9):
            raise AssertionError(f"SPR stretch out of range: {du} -> {dt}")
    fmap = {v: tuple(sorted(new_id[c] for c in emb.f[v])) for v in range(n)}
    chi = {v: new_id[emb.chi[v]] for v in range(n)}
    budget = emb.beta * h
    assoc: Dict[_EdgeKey, Optional[Tuple[List[int], float]]] = {}
    for c in range(T.n_nodes()):
        p = T.parent[c]
        if p is None:
            continue
        key = _edge_key(c, p)
        if T.weight[c] == math.inf:
            assoc[key] = None
            continue
        u, v = T.payload[c], T.payload[p]
        got = bounded_hop_path(G, u, v, budget) if u != v else ([u], 0.0)
        if got is None:
            raise AssertionError("finite tree edge without a bounded-hop path")
        path, w = got
        if w > T.weight[c] * (1.0 + 1e-9) + 1e-12:
            raise AssertionError(f"associated path weight {w} exceeds tree edge "
                                 f"weight {T.weight[c]}")
        assoc[key] = (path, w)
    hop_bound = 2 * T.depth() * budget
    path_bound = 8.0 * emb.path_t
    return PathTreeEmbedding(G, emb, T, fmap, chi, assoc, budget, hop_bound,
                             path_bound, h, r)


def induced_path(PTE: PathTreeEmbedding, u_copy: int, v_copy: int) -> Tuple[List[int], float]:
    """Concatenation of associated paths along the tree path between copies.

    Returns (vertex sequence, total graph weight); the walk may be non-simple.
    """
    T = PTE.T
    nodes = T.path(u_copy, v_copy)
    out: List[int] = [T.payload[u_copy]]
    total = 0.0
    for a, b in zip(nodes, nodes[1:]):
        entry = PTE.assoc[_edge_key(a, b)]
        if entry is None:
            raise Unreachable(f"copies {u_copy} and {v_copy} are separated")
        path, w = entry
        seg = path if path[0] == T.payload[a] else list(reversed(path))
        if seg[0] != out[-1]:
            raise AssertionError("associated paths do not concatenate")
        out.extend(seg[1:])
        total += w
    return out, total


@dataclass(frozen=True)
class SubgraphImage:
    nodes: FrozenSet[int]                 # T node ids
    edges: FrozenSet[_EdgeKey]            # T edges (node-id pairs)
    weight: float
    witness: Dict[int, int] = field(hash=False, default_factory=dict)  # vertex -> a copy in the image

    def has_copy_of(self, v: int, payload: Sequence[int]) -> bool:
        return any(payload[x] == v for x in self.nodes)


def _euler_tour(vertices: Set[int], edges: List[Tuple[int, int]]) -> List[int]:
    """Closed walk traversing every multigraph edge exactly once."""
    adj: Dict[int, List[int]] = {v: [] for v in vertices}
    for i, (u, v) in enumerate(edges):
        adj[u].append(i)
        adj[v].append(i)
    used = [False] * len(edges)
    start = min(vertices)
    stack = [start]
    tour: List[int] = []
    ptr = {v: 0 for v in vertices}
    while stack:
        v = stack[-1]
        found = False
        while ptr[v] < len(adj[v]):
            i = adj[v][ptr[v]]
            ptr[v] += 1
            if used[i]:
                continue
            used[i] = True
            a, b = edges[i]
            stack.append(b if a == v else a)
            found = True
            break
        if not found:
            tour.append(stack.pop())
    tour.reverse()
    if not all(used):
        raise ValueError("subgraph is not connected")
    return tour


def _steiner_subtree(T: WeightedTree, nodes: Set[int]) -> Tuple[Set[int], Set[_EdgeKey], float]:
    """Minimal subtree of T spanning `nodes` (union of paths to one anchor)."""
    anchor = min(nodes)
    vset: Set[int] = {anchor}
    eset: Set[_EdgeKey] = set()
    for x in nodes:
        p = T.path(x, anchor)
        vset.update(p)
        for a, b in zip(p, p[1:]):
            eset.add(_edge_key(a, b))
    w = sum(T.weight[b] if T.parent[b] == a else T.weight[a] for a, b in eset)
    return vset, eset, w


def image_of_respecting_subgraph(PTE: PathTreeEmbedding,
                                 H_edges: Sequence[Tuple[int, int]]) -> SubgraphImage:
    """Connected tree image of a connected h-respecting subgraph.

    Doubles H's edges, walks an Euler tour, finds the cheapest copy
    assignment along the tour, and returns the minimal subtree of T spanning
    the witness copies.
    """
    G = PTE.G
    if not H_edges:
        raise ValueError("H must have at least one edge")
    if not is_h_respecting(G, H_edges, PTE.h):
        raise ValueError("H is not h-respecting")
    hset = {_edge_key(u, v) for u, v in H_edges}
    verts = {x for e in hset for x in e}
    doubled = [e for e in sorted(hset) for _ in range(2)]
    tour = _euler_tour(verts, doubled)
    seq, cost = optimal_path_copies(PTE.clan, tour)
    wH = sum(G.edge_weight(u, v) for u, v in hset)
    # leaf ids in the clan ultrametric -> SPR node ids
    emb = PTE.clan
    leaf_to_node: Dict[int, int] = {}
    for v in range(G.n):
        for leaf, node in zip(emb.f[v], PTE.f[v]):
            leaf_to_node[leaf] = node
    witnesses = {leaf_to_node[c] for c in seq}
    vset, eset, w = _steiner_subtree(PTE.T, witnesses)
    bound = PTE.path_bound * 2.0 * wH
    if w > bound * (1.0 + 1e-9):
        raise AssertionError(f"image weight {w} exceeds bound {bound}")
    witness = {tour[i]: leaf_to_node[seq[i]] for i in range(len(tour))}
    return SubgraphImage(frozenset(vset), frozenset(eset), w, witness)


@dataclass(frozen=True)
class GeneralImage:
    images: Tuple[SubgraphImage, ...]
    edges: FrozenSet[_EdgeKey]
    component: Dict[int, int] = field(hash=False, default_factory=dict)  # T node -> component id
    cover: Optional[SparseCover] = None

    def co_component(self, payload: Sequence[int], u: int, v: int) -> bool:
        comps_u = {self.component[x] for x in self.component if payload[x] == u}
        comps_v = {self.component[x] for x in self.component if payload[x] == v}
        return bool(comps_u & comps_v)


def image_of_general_subgraph(G: WeightedGraph, H_edges: Sequence[Tuple[int, int]],
                              h: int, variant: str = "standard", seed: int = 0,
                              root: int = 0) -> Tuple[PathTreeEmbedding, GeneralImage]:
    """Forest image of an arbitrary subgraph that keeps every low-hop pair of
    H together in some component.

    Covers the unit-weight version of H at radius h, takes hop-shortest
    cluster trees (which respect the enlarged hop parameter), and unions
    their tree images.
    """
    n = G.n
    hprime = max(h, 4 * h * max(1, math.ceil(math.log2(max(2, n)))))
    PTE = build_path_tree_embedding(G, root, hprime, variant)
    if not H_edges:
        return PTE, GeneralImage((), frozenset(), {}, None)
    hset = sorted({_edge_key(u, v) for u, v in H_edges})
    for u, v in hset:
        if not G.has_edge(u, v):
            raise ValueError(f"({u},{v}) is not an edge of G")
    H1 = WeightedGraph(n, [(u, v, 1.0) for u, v in hset])
    sc = sparse_cover(H1, float(h), seed)
    images: List[SubgraphImage] = []
    all_edges: Set[_EdgeKey] = set()
    for C, center, _r in sc.clusters:
        if len(C) < 2:
            continue
        # hop-shortest tree inside the cluster, rooted at the center
        dist = dijkstra(H1.adj, center, allowed=C)
        reached = {v: d for v, d in enumerate(dist) if not is_inf(d)}
        tree_edges = [(p, v) for v, p in
                      shortest_path_tree(H1.adj, center, reached).items()
                      if p is not None]
        if not tree_edges:
            continue
        img = image_of_respecting_subgraph(PTE, tree_edges)
        images.append(img)
        all_edges.update(img.edges)
    # component labeling of the union forest
    parent: Dict[int, int] = {}

    def find(x: int) -> int:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for img in images:
        for x in img.nodes:
            find(x)
    for a, b in all_edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    comp = {x: find(x) for x in parent}
    return PTE, GeneralImage(tuple(images), frozenset(all_edges), comp, sc)
