"""Weighted graphs and exact hop-bounded shortest-path computation.

The hop-bounded distances computed here are the ground truth that every
other module is checked against.  A distance with hop budget h is the
minimum weight of a path using at most h edges; pairs with no such path
are at distance INFINITY, which is the float ``math.inf``.
"""
from __future__ import annotations

import heapq
import itertools
import json
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

INFINITY = math.inf
is_inf = math.isinf


@dataclass(frozen=True)
class HopParams:
    """Common parameter bundle: hop budget h, distortion parameter k, epsilon."""

    h: int
    k: int = 1
    epsilon: float = 0.5

    def __post_init__(self):
        if self.h < 1:
            raise ValueError("h must be >= 1")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError("epsilon must be in (0,1)")


class WeightedGraph:
    """Undirected weighted graph with positive finite edge weights.

    Weights are normalized at construction so the minimum edge weight is 1;
    the applied scale factor is recorded in ``scale`` (original weight =
    stored weight * scale).  Instances are immutable after construction.
    """

    __slots__ = ("n", "edges", "adj", "scale")

    def __init__(self, n: int, edges: Iterable[Tuple[int, int, float]],
                 normalize: bool = True):
        if n < 1:
            raise ValueError("graph must have at least one vertex")
        seen: Set[Tuple[int, int]] = set()
        clean: List[Tuple[int, int, float]] = []
        for u, v, w in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if not (w > 0 and w != float("inf")):
                raise ValueError(f"edge ({u},{v}) has non-positive or infinite weight {w}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            clean.append((key[0], key[1], float(w)))
        clean.sort()
        scale = 1.0
        if normalize and clean:
            wmin = min(w for _, _, w in clean)
            if wmin != 1.0:
                scale = wmin
                clean = [(u, v, w / wmin) for u, v, w in clean]
        self.n = n
        self.edges = tuple(clean)
        self.scale = scale
        adj: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
        for u, v, w in clean:
            adj[u].append((v, w))
            adj[v].append((u, w))
        for lst in adj:
            lst.sort()
        self.adj = tuple(tuple(lst) for lst in adj)

    # -- serialization ---------------------------------------------------

    @classmethod
    def from_json(cls, text: str) -> "WeightedGraph":
        data = json.loads(text)
        return cls(int(data["n"]), [(int(u), int(v), float(w)) for u, v, w in data["edges"]])

    @classmethod
    def load(cls, path: str) -> "WeightedGraph":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "edges": [[u, v, w] for u, v, w in self.edges]})

    # -- helpers ---------------------------------------------------------

    def total_weight(self) -> float:
        return sum(w for _, _, w in self.edges)

    def max_weight(self) -> float:
        return max((w for _, _, w in self.edges), default=1.0)

    def has_edge(self, u: int, v: int) -> bool:
        a, b = min(u, v), max(u, v)
        return any(x == b for x, _ in self.adj[a])

    def edge_weight(self, u: int, v: int) -> float:
        for x, w in self.adj[u]:
            if x == v:
                return w
        raise KeyError((u, v))

    def induced(self, vertices: Iterable[int]) -> Tuple["WeightedGraph", Dict[int, int]]:
        """Induced subgraph plus the old-id -> new-id map (weights kept as-is)."""
        keep = sorted(set(vertices))
        idx = {v: i for i, v in enumerate(keep)}
        es = [(idx[u], idx[v], w) for u, v, w in self.edges if u in idx and v in idx]
        return WeightedGraph(len(keep), es, normalize=False), idx

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise ValueError(f"invalid vertex id {v}")


def bellman_ford(G: WeightedGraph, s: int, budgets: Sequence[int],
                 maxr: float | None = None,
                 allowed: Sequence[int] | None = None,
                 preds: Optional[List[Dict[int, int]]] = None) -> Dict[int, List[float]]:
    """Truncated Bellman-Ford distances from s, one snapshot per budget.

    Each round relaxes only the edges out of the vertices the previous round
    improved, and the search stops once a round improves nothing.  ``maxr``
    prunes distances above maxr (valid since weights are positive: every
    prefix of a shortest path is no longer than the path itself).
    ``allowed`` restricts relaxation to an induced vertex subset.  If
    ``preds`` is a list, every round appends {v: predecessor} for the
    vertices it improved; among equal candidates the smallest id wins.
    """
    G._check_vertex(s)
    want = sorted(set(int(b) for b in budgets))
    if not want or want[0] < 0:
        raise ValueError("budgets must be nonnegative")
    n, adj = G.n, G.adj
    if allowed is None:
        mask = [True] * n
    else:
        mask = [False] * n
        for v in allowed:
            mask[v] = True
        if not mask[s]:
            raise ValueError("source not in allowed set")
    lim = math.inf if maxr is None else maxr + 1e-12
    dist = [math.inf] * n
    dist[s] = 0.0
    frontier = [s]
    out: Dict[int, List[float]] = {}
    rnd = 0
    for b in want:
        while rnd < b and frontier:
            rnd += 1
            updates: Dict[int, float] = {}
            for u in frontier:
                du = dist[u]
                for v, w in adj[u]:
                    nd = du + w
                    if nd < dist[v] and nd <= lim and mask[v]:
                        cur = updates.get(v)
                        if cur is None or nd < cur:
                            updates[v] = nd
            if preds is not None:
                preds.append({v: next(u for u, w in adj[v] if dist[u] + w == nd)
                              for v, nd in updates.items()})
            for v, nd in updates.items():
                dist[v] = nd
            frontier = list(updates)
        out[b] = list(dist)
    return out


def hop_distance_all(G: WeightedGraph, s: int, h: int,
                     allowed: Sequence[int] | None = None) -> List[float]:
    """h rounds of Bellman-Ford from s; entry v = d^{(h)}(s,v).

    ``allowed`` optionally restricts relaxation to an induced vertex subset
    (so other modules can work on G[Y] without rebuilding the graph).
    """
    return bellman_ford(G, s, [h], allowed=allowed)[h]


def hop_profile(G: WeightedGraph, s: int, budgets: Sequence[int],
                maxr: float | None = None,
                allowed: Sequence[int] | None = None) -> Dict[int, List[float]]:
    """Snapshots of truncated Bellman-Ford distances from s at several
    budgets, all from one relaxation sweep, pruned to distances <= maxr."""
    return bellman_ford(G, s, budgets, maxr, allowed)


def hop_distance(G: WeightedGraph, u: int, v: int, h: int) -> float:
    G._check_vertex(u)
    G._check_vertex(v)
    if u == v:
        return 0.0
    return hop_distance_all(G, u, h)[v]


def hop_ball(G: WeightedGraph, v: int, r: float, h: int,
             allowed: Sequence[int] | None = None) -> Set[int]:
    """{ u : d^{(h)}(v,u) <= r }; always contains v."""
    if r < 0:
        raise ValueError("r must be >= 0")
    dist = hop_distance_all(G, v, h, allowed=allowed)
    return {u for u, d in enumerate(dist) if not is_inf(d) and d <= r}


def hop_diameter(G: WeightedGraph, h: int) -> float:
    best = 0.0
    for s in range(G.n):
        best = max(best, max(hop_distance_all(G, s, h)[s + 1:], default=0.0))
        if best == INFINITY:
            break
    return best


def _finite_scan(G: WeightedGraph, h: int) -> Tuple[float, List[Tuple[int, int]]]:
    """One pass over the all-pairs h-hop rows: (D', pairs u < v with no h-hop
    path)."""
    best = 0.0
    missing: List[Tuple[int, int]] = []
    for s in range(G.n):
        dist = hop_distance_all(G, s, h)
        for v in range(s + 1, G.n):
            d = dist[v]
            if is_inf(d):
                missing.append((s, v))
            elif d > best:
                best = d
    return best, missing


def max_finite_hop_distance(G: WeightedGraph, h: int) -> float:
    """D' = max over pairs with hop_G(u,v) <= h of d^{(h)}(u,v); 0 if none."""
    return _finite_scan(G, h)[0]


def finite_completion(G: WeightedGraph, h: int, k: int) -> Tuple[WeightedGraph, float]:
    """Add an edge of weight omega = 17k*D' for every pair not h-hop connected.

    When some pair is added, omega is also the completed graph's h-hop
    diameter: omega >= D' bounds every finite h-hop distance of G, every
    path through an added edge weighs at least omega, and the added pairs
    are at distance exactly omega.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    dprime, missing = _finite_scan(G, h)
    if dprime == 0.0:
        # no finite pair other than trivial ones; fall back to max edge weight
        dprime = G.max_weight()
    omega = 17.0 * k * dprime
    if not missing:
        return G, omega
    added = ((u, v, omega) for u, v in missing)
    return WeightedGraph(G.n, itertools.chain(G.edges, added), normalize=False), omega


def dijkstra(adj: Sequence[Sequence[Tuple[int, float]]], s: int,
             allowed: Optional[Set[int]] = None,
             maxd: float = math.inf) -> List[float]:
    """Dijkstra from s over an adjacency structure (no hop constraint).

    ``allowed`` restricts the search to a vertex subset containing s, and
    ``maxd`` prunes distances above maxd; unreached vertices stay at INFINITY.
    """
    dist = [math.inf] * len(adj)
    dist[s] = 0.0
    lim = maxd + 1e-12
    pq: List[Tuple[float, int]] = [(0.0, s)]
    while pq:
        d, u = heapq.heappop(pq)
        if d > dist[u]:
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < dist[v] - 1e-15 and nd <= lim and (allowed is None or v in allowed):
                dist[v] = nd
                heapq.heappush(pq, (nd, v))
    return dist


def is_h_respecting(G: WeightedGraph, H_edges: Iterable[Tuple[int, int]], h: int) -> bool:
    """True iff for all u,v in V(H): d_G^{(h)}(u,v) <= d_H(u,v)."""
    hset = set()
    for u, v in H_edges:
        if not G.has_edge(u, v):
            raise ValueError(f"({u},{v}) is not an edge of G")
        hset.add((min(u, v), max(u, v)))
    verts = sorted({x for e in hset for x in e})
    if not verts:
        return True
    idx = {v: i for i, v in enumerate(verts)}
    adj: List[List[Tuple[int, float]]] = [[] for _ in verts]
    for u, v in hset:
        w = G.edge_weight(u, v)
        adj[idx[u]].append((idx[v], w))
        adj[idx[v]].append((idx[u], w))
    for u in verts:
        dh = dijkstra(adj, idx[u])
        dg = hop_distance_all(G, u, h)
        if any(dg[v] > dh[idx[v]] + 1e-9 for v in verts):
            return False
    return True
