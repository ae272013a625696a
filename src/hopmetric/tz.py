"""Landmark-hierarchy distance structures with stretch 2k-1.

Classic sampled-level construction: nested landmark sets A_0 = V down to
A_{k-1}, per-vertex pivots (nearest landmark per level) and bunches.  Used
as the hop-free building block on each auxiliary scale graph; provides an
oracle, a distance labeling, and a simulated tree-based routing scheme.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .graph_core import dijkstra
from .rng import substream

Adjacency = Sequence[Sequence[Tuple[int, float]]]


def sssp(adj: Adjacency, s: int) -> List[float]:
    """Unrestricted single-source shortest paths."""
    return dijkstra(adj, s)


def _sample_levels(n: int, k: int, seed: int) -> List[FrozenSet[int]]:
    """Nested landmark levels A_0 superset ... superset A_{k-1}."""
    A: List[FrozenSet[int]] = [frozenset(range(n))]
    if k == 1:
        return A
    q = n ** (-1.0 / k)
    for attempt in range(50):
        rng = substream(seed, f"tz-levels-{attempt}")
        cand = [frozenset(range(n))]
        ok = True
        for _ in range(1, k):
            nxt = frozenset(v for v in sorted(cand[-1]) if rng.random() < q)
            cand.append(nxt)
        if cand[-1]:
            return cand
    # tiny graphs can keep failing the sample; pin the top level
    cand = [frozenset(range(n))] + [frozenset({0}) for _ in range(1, k)]
    return cand


@dataclass(frozen=True)
class TZCore:
    """Shared skeleton: levels, pivots, bunches (with exact distances)."""
    n: int
    k: int
    levels: Tuple[FrozenSet[int], ...]
    pivots: Tuple[Tuple[Optional[int], ...], ...]       # pivots[i][v]
    pivot_dist: Tuple[Tuple[float, ...], ...]           # pivot_dist[i][v]
    bunch: Tuple[Dict[int, float], ...]                 # bunch[v][w] = d(w, v)

    def pivots_col(self, v: int) -> Tuple[Optional[int], ...]:
        return tuple(self.pivots[i][v] for i in range(self.k))

    def pdist_col(self, v: int) -> Tuple[float, ...]:
        return tuple(self.pivot_dist[i][v] for i in range(self.k))

    def size_words(self) -> int:
        return sum(len(b) for b in self.bunch) + 2 * self.k * self.n


def build_core(adj: Adjacency, k: int, seed: int = 0) -> TZCore:
    return _core(adj, k, seed)[0]


def _core(adj: Adjacency, k: int,
          seed: int) -> Tuple[TZCore, Dict[int, List[float]]]:
    """The core and the shortest-path row of every vertex it was built from."""
    n = len(adj)
    if k < 1:
        raise ValueError("k must be >= 1")
    levels = _sample_levels(n, k, seed)
    dist_from: Dict[int, List[float]] = {w: sssp(adj, w) for w in range(n)}
    piv: List[List[Optional[int]]] = []
    pdist: List[List[float]] = []
    for i in range(k):
        row_p: List[Optional[int]] = [None] * n
        row_d: List[float] = [math.inf] * n
        level = sorted(levels[i])
        for v in range(n):
            best, arg = math.inf, None
            for w in level:
                d = dist_from[w][v]
                if d < best - 1e-15:
                    best, arg = d, w
            row_p[v], row_d[v] = arg, best
        piv.append(row_p)
        pdist.append(row_d)
    bunch: List[Dict[int, float]] = [dict() for _ in range(n)]
    for i in range(k):
        upper = levels[i + 1] if i + 1 < k else frozenset()
        for w in sorted(levels[i] - upper):
            dw = dist_from[w]
            for v in range(n):
                lim = pdist[i + 1][v] if i + 1 < k else math.inf
                if dw[v] < lim - 1e-15:
                    bunch[v][w] = dw[v]
    core = TZCore(n, k, tuple(levels), tuple(tuple(r) for r in piv),
                  tuple(tuple(r) for r in pdist), tuple(bunch))
    return core, dist_from


def _witness(k: int,
             piv_u: Sequence[Optional[int]], pd_u: Sequence[float], bunch_u: Dict[int, float],
             piv_v: Sequence[Optional[int]], pd_v: Sequence[float], bunch_v: Dict[int, float],
             ) -> Optional[Tuple[int, int, bool]]:
    """Returns (level, witness, swapped) with witness = pivot of the
    (possibly swapped) first side, contained in the other side's bunch."""
    sides = ((piv_u, pd_u, bunch_u), (piv_v, pd_v, bunch_v))
    x = 0
    i = 0
    w = sides[0][0][0]
    while w is None or w not in sides[1 - x][2]:
        i += 1
        if i >= k:
            return None
        x = 1 - x
        w = sides[x][0][i]
    return i, w, x == 1


@dataclass(frozen=True)
class TZOracle:
    core: TZCore

    def query(self, u: int, v: int) -> float:
        if u == v:
            return 0.0
        c = self.core
        got = _witness(c.k, c.pivots_col(u), c.pdist_col(u), c.bunch[u],
                       c.pivots_col(v), c.pdist_col(v), c.bunch[v])
        if got is None:
            return math.inf
        i, w, swapped = got
        x, y = (v, u) if swapped else (u, v)
        return c.pivot_dist[i][x] + c.bunch[y][w]

    def size_words(self) -> int:
        return self.core.size_words()


@dataclass(frozen=True)
class TZLabel:
    vertex: int
    pivots: Tuple[Optional[int], ...]
    pivot_dist: Tuple[float, ...]
    bunch: Dict[int, float] = field(hash=False, default_factory=dict)


@dataclass(frozen=True)
class TZLabeling:
    k: int
    labels: Tuple[TZLabel, ...]

    def label(self, v: int) -> TZLabel:
        return self.labels[v]

    def size_words(self) -> int:
        return sum(len(l.bunch) + 2 * self.k for l in self.labels)


def label_query(k: int, lu: TZLabel, lv: TZLabel) -> float:
    if lu.vertex == lv.vertex:
        return 0.0
    got = _witness(k, lu.pivots, lu.pivot_dist, lu.bunch,
                   lv.pivots, lv.pivot_dist, lv.bunch)
    if got is None:
        return math.inf
    i, w, swapped = got
    lx, ly = (lv, lu) if swapped else (lu, lv)
    return lx.pivot_dist[i] + ly.bunch[w]


def build_oracle(adj: Adjacency, k: int, seed: int = 0) -> TZOracle:
    return TZOracle(build_core(adj, k, seed))


def build_labeling(adj: Adjacency, k: int, seed: int = 0) -> TZLabeling:
    c = build_core(adj, k, seed)
    labels = tuple(TZLabel(v, c.pivots_col(v), c.pdist_col(v), c.bunch[v])
                   for v in range(c.n))
    return TZLabeling(k, labels)


# -- routing ---------------------------------------------------------------

TreeKey = Tuple[str, int]          # ("c0", w) cluster tree / ("lm", w) landmark tree
Interval = Tuple[int, int]


@dataclass(frozen=True)
class TreeEntry:
    parent: Optional[int]
    interval: Interval
    children: Tuple[Tuple[Interval, int], ...]   # (child subtree interval, next hop)


@dataclass(frozen=True)
class NodeTable:
    label: TZLabel
    trees: Dict[TreeKey, TreeEntry] = field(hash=False, default_factory=dict)

    def size_words(self) -> int:
        return (len(self.label.bunch) + 2 * len(self.label.pivots)
                + sum(3 + 3 * len(e.children) for e in self.trees.values()))


@dataclass(frozen=True)
class RoutingLabel:
    label: TZLabel
    intervals: Dict[TreeKey, Interval] = field(hash=False, default_factory=dict)


@dataclass(frozen=True)
class TZRouting:
    k: int
    tables: Tuple[NodeTable, ...]
    rlabels: Tuple[RoutingLabel, ...]

    def size_words(self) -> int:
        return sum(t.size_words() for t in self.tables)


def _spt(adj: Adjacency, root: int, allowed: Optional[FrozenSet[int]] = None,
         ) -> Dict[int, Optional[int]]:
    """Deterministic shortest-path tree: parent map over reached vertices."""
    return _tree_of(adj, root, dijkstra(adj, root, allowed))


def _tree_of(adj: Adjacency, root: int,
             dist: Sequence[float]) -> Dict[int, Optional[int]]:
    """Parent map of the shortest-path tree that ``dist`` (the distances
    from root) spans; ties go to the smallest neighbour id."""
    parent: Dict[int, Optional[int]] = {root: None}
    for v, dv in enumerate(dist):
        if v == root or dv == math.inf:
            continue
        best = min((u for u, w in adj[v] if abs(dist[u] + w - dv) <= 1e-9), default=None)
        if best is None:
            raise AssertionError("broken shortest-path tree")
        parent[v] = best
    return parent


def _tree_entries(parent: Dict[int, Optional[int]], root: int,
                  ) -> Dict[int, TreeEntry]:
    children: Dict[int, List[int]] = {v: [] for v in parent}
    for v, p in parent.items():
        if p is not None:
            children[p].append(v)
    for v in children:
        children[v].sort()
    tin: Dict[int, int] = {}
    tout: Dict[int, int] = {}
    clock = 0
    stack: List[Tuple[int, bool]] = [(root, False)]
    while stack:
        x, done = stack.pop()
        if done:
            tout[x] = clock
            continue
        tin[x] = clock
        clock += 1
        stack.append((x, True))
        for c in reversed(children[x]):
            stack.append((c, False))
    out: Dict[int, TreeEntry] = {}
    for v in parent:
        kids = tuple(((tin[c], tout[c]), c) for c in children[v])
        out[v] = TreeEntry(parent[v], (tin[v], tout[v]), kids)
    return out


def build_routing(adj: Adjacency, k: int, seed: int = 0) -> TZRouting:
    c, dist_from = _core(adj, k, seed)
    n = c.n
    trees: Dict[TreeKey, Dict[int, TreeEntry]] = {}
    top = c.levels[1] if k > 1 else frozenset()
    for w in range(n):
        dw = dist_from[w]
        if w in top:
            # landmark: full shortest-path tree over w's component
            key: TreeKey = ("lm", w)
            parent = _tree_of(adj, w, dw)
        else:
            # cluster tree over C_0(w) = {x : d(w,x) < d(A_1,x)}
            lim = c.pivot_dist[1] if k > 1 else tuple([math.inf] * n)
            C = frozenset(x for x in range(n) if dw[x] < lim[x] - 1e-15) | {w}
            key = ("c0", w)
            parent = _spt(adj, w, C)
        trees[key] = _tree_entries(parent, w)
    node_trees: List[Dict[TreeKey, TreeEntry]] = [dict() for _ in range(n)]
    intervals: List[Dict[TreeKey, Interval]] = [dict() for _ in range(n)]
    for key, entries in trees.items():
        for v, e in entries.items():
            node_trees[v][key] = e
            intervals[v][key] = e.interval
    labels = tuple(TZLabel(v, c.pivots_col(v), c.pdist_col(v), c.bunch[v])
                   for v in range(n))
    tables = tuple(NodeTable(labels[v], node_trees[v]) for v in range(n))
    rlabels = tuple(RoutingLabel(labels[v], intervals[v]) for v in range(n))
    return TZRouting(k, tables, rlabels)


@dataclass
class Header:
    """Mutable packet header: destination label plus chosen tree and phase."""
    dest: RoutingLabel
    tree: TreeKey
    phase: str                      # "up" or "down"


def prepare_header(scheme: TZRouting, table_u: NodeTable,
                   dest: RoutingLabel) -> Optional[Header]:
    """Source-side decision from the local table and destination label only."""
    lu, lv = table_u.label, dest.label
    got = _witness(scheme.k, lu.pivots, lu.pivot_dist, lu.bunch,
                   lv.pivots, lv.pivot_dist, lv.bunch)
    if got is None:
        return None
    i, w, _swapped = got
    # level >= 1 witnesses are landmarks (full trees); level 0 witnesses are
    # one of the endpoints, which may itself be a landmark
    key: TreeKey = ("lm", w) if ("lm", w) in table_u.trees else ("c0", w)
    if key not in dest.intervals or key not in table_u.trees:
        return None
    phase = "down" if table_u.trees[key].parent is None else "up"
    return Header(dest, key, phase)


def forward(table_x: NodeTable, header: Header) -> int:
    """One forwarding step using only the current node's table + header."""
    entry = table_x.trees[header.tree]
    if header.phase == "up":
        if entry.parent is None:
            header.phase = "down"
        else:
            target = header.dest.intervals[header.tree]
            lo, hi = entry.interval
            if lo <= target[0] and target[1] <= hi:
                # destination already below us; no need to reach the root
                header.phase = "down"
            else:
                return entry.parent
    target = header.dest.intervals[header.tree]
    for (lo, hi), nxt in entry.children:
        if lo <= target[0] and target[1] <= hi:
            return nxt
    raise AssertionError("no child subtree contains the destination")


def route(scheme: TZRouting, u: int, v: int, max_hops: int = 10 ** 6,
          ) -> Optional[Tuple[List[int], List[int]]]:
    """Simulate routing; returns (path, table read log) or None if declined."""
    reads = [u]
    header = prepare_header(scheme, scheme.tables[u], scheme.rlabels[v])
    if header is None:
        return None
    path = [u]
    cur = u
    while cur != v:
        if len(path) > max_hops:
            raise AssertionError("routing loop detected")
        reads.append(cur)
        cur = forward(scheme.tables[cur], header)
        path.append(cur)
    return path, reads
