"""Landmark-hierarchy distance structures with stretch 2k-1.

Classic sampled-level construction: nested landmark sets A_0 = V down to
A_{k-1}, per-vertex pivots (nearest landmark per level) and bunches.  Used
as the hop-free building block on each auxiliary scale graph; provides a
distance labeling and a simulated tree-based routing scheme.  The oracle is
the labeling: a vertex's label is its pivots, pivot distances and bunch,
and ``label_query`` answers from the labels of the two endpoints alone.

Bunches are built from clusters (Thorup and Zwick).  Only the top level
A_{k-1} gets full shortest-path rows (the routing scheme also gives them
to A_1, whose landmark trees span their component); they give the top
pivots.  Every other w in A_i - A_{i+1} grows its cluster
C(w) = {x : d(w,x) < d(A_{i+1},x)} with one Dijkstra cut off at
d(A_{i+1},x) per vertex, so it settles only its cluster, and the bunch of
x is the set of clusters that contain x.  The search keeps its distances
in a dict, so its cost follows the cluster, not n.  It finds all of
C(w) because the cluster is closed under shortest-path prefixes: if y lies
on a shortest w-x path, then d(w,y) = d(w,x) - d(y,x) < d(A_{i+1},x) - d(y,x)
<= d(A_{i+1},y) by the triangle inequality, so no prefix is cut off.  The
level-i pivots follow from the clusters, since the pivot of x is in its
level-i bunch or is its level-(i+1) pivot; because the smaller id wins a
tie, the searches above level 0 also reach the vertices x where w ties
d(A_{i+1},x).

A hop structure builds one routing scheme per scale graph, and the scale
graphs differ only in a surcharge on every edge, so most routing trees
keep their parents from one scale to the next.  ``build_routing`` takes
the previous scale's scheme and shares each such tree's entries with it
instead of walking the tree again; a tree holds no distance, so the
shared entries are exact.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import (Dict, FrozenSet, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple)

from .graph_core import dijkstra, vertex_id
from .rng import substream

Adjacency = Sequence[Sequence[Tuple[int, float]]]
Row = Dict[int, float]             # reached vertex -> distance


def sssp(adj: Adjacency, s: int) -> List[float]:
    """Unrestricted single-source shortest paths."""
    return dijkstra(adj, s)


def _reached(dist: Sequence[float]) -> Row:
    return {x: d for x, d in enumerate(dist) if d < math.inf}


def _cluster(adj: Adjacency, w: int, bound: Sequence[float]) -> Row:
    """Dijkstra from w cut off per vertex: x != w is reached only at a
    distance below bound[x] by more than the 1e-15 improvement tolerance,
    as if bound[x] were a distance already found."""
    dist = {w: 0.0}
    pq = [(0.0, w)]
    while pq:
        d, u = heapq.heappop(pq)
        if d > dist[u]:
            continue
        for v, wt in adj[u]:
            nd = d + wt
            if nd < dist.get(v, bound[v]) - 1e-15:
                dist[v] = nd
                heapq.heappush(pq, (nd, v))
    return dist


def _sample_levels(n: int, k: int, seed: int) -> List[FrozenSet[int]]:
    """Nested landmark levels A_0 superset ... superset A_{k-1}."""
    A: List[FrozenSet[int]] = [frozenset(range(n))]
    if k == 1:
        return A
    q = n ** (-1.0 / k)
    for attempt in range(50):
        rng = substream(seed, f"tz-levels-{attempt}")
        cand = [frozenset(range(n))]
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


def _check_k(k: int) -> None:
    if type(k) is not int:
        raise ValueError(f"k must be an int, got {k!r}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def build_core(adj: Adjacency, k: int, seed: int = 0) -> TZCore:
    _check_k(k)
    return _core(adj, k, seed, k - 1)[0]


def _nearest(n: int, rows: Iterable[Tuple[int, Row]],
             ) -> Tuple[List[Optional[int]], List[float]]:
    """Pivot and pivot distance of every vertex over ``rows`` in ascending
    id order: the smallest id at the minimum distance."""
    piv: List[Optional[int]] = [None] * n
    pdist = [math.inf] * n
    for w, row in rows:
        for x, d in row.items():
            if d < pdist[x] - 1e-15:
                piv[x], pdist[x] = w, d
    return piv, pdist


def _core(adj: Adjacency, k: int, seed: int,
          full_level: int) -> Tuple[TZCore, Dict[int, Row]]:
    """The core, and the search of every vertex it was built from: a full
    shortest-path row for each vertex of levels[full_level] (which contains
    the top level), a cluster search for every other vertex."""
    n = len(adj)
    levels = _sample_levels(n, k, seed) + [frozenset()]
    own = [sorted(levels[i] - levels[i + 1]) for i in range(k)]
    rows: Dict[int, Row] = {w: _reached(sssp(adj, w))
                            for w in sorted(levels[full_level])}
    piv: List[List[Optional[int]]] = [[]] * k
    pdist: List[List[float]] = [[]] * k + [[math.inf] * n]
    piv[k - 1], pdist[k - 1] = _nearest(n, ((w, rows[w]) for w in own[k - 1]))
    for i in range(k - 2, -1, -1):
        lim = pdist[i + 1]
        # a level-0 pivot is the vertex itself, which nothing ties; above
        # level 0 the search also reaches ties with d(A_{i+1}, x)
        bound = lim if i == 0 else [d * (1.0 + 1e-9) for d in lim]
        for w in own[i]:
            if w not in rows:
                rows[w] = _cluster(adj, w, bound)
        # the level-i pivot of x is in its level-i bunch or is p_{i+1}(x)
        upper: Dict[int, Row] = {}
        for x, p in enumerate(piv[i + 1]):
            if p is not None:
                upper.setdefault(p, {})[x] = lim[x]
        cands = sorted([(w, rows[w]) for w in own[i]] + list(upper.items()),
                       key=lambda wr: wr[0])
        piv[i], pdist[i] = _nearest(n, cands)
    bunch: List[Dict[int, float]] = [dict() for _ in range(n)]
    for i in range(k):
        lim = pdist[i + 1]
        for w in own[i]:
            for x, d in rows[w].items():
                if d < lim[x] - 1e-15:
                    bunch[x][w] = d
    core = TZCore(n, k, tuple(levels[:k]), tuple(tuple(r) for r in piv),
                  tuple(tuple(r) for r in pdist[:k]), tuple(bunch))
    return core, rows


def _witness(k: int, lu: TZLabel, lv: TZLabel) -> Optional[Tuple[int, int, bool]]:
    """Returns (level, witness, swapped) with witness = pivot of the
    (possibly swapped) first side, contained in the other side's bunch."""
    sides = (lu, lv)
    x = 0
    i = 0
    w = lu.pivots[0]
    while w is None or w not in sides[1 - x].bunch:
        i += 1
        if i >= k:
            return None
        x = 1 - x
        w = sides[x].pivots[i]
    return i, w, x == 1


@dataclass(frozen=True)
class TZLabel:
    vertex: int
    pivots: Tuple[Optional[int], ...]
    pivot_dist: Tuple[float, ...]
    bunch: Dict[int, float] = field(hash=False, default_factory=dict)

    def size_words(self) -> int:
        """One word per bunch entry, two per level (pivot and its distance)."""
        return len(self.bunch) + 2 * len(self.pivots)


@dataclass(frozen=True)
class TZLabeling:
    k: int
    labels: Tuple[TZLabel, ...]

    def label(self, v: int) -> TZLabel:
        return self.labels[v]

    def size_words(self) -> int:
        return sum(l.size_words() for l in self.labels)


def label_query(k: int, lu: TZLabel, lv: TZLabel) -> float:
    if lu.vertex == lv.vertex:
        return 0.0
    got = _witness(k, lu, lv)
    if got is None:
        return math.inf
    i, w, swapped = got
    lx, ly = (lv, lu) if swapped else (lu, lv)
    return lx.pivot_dist[i] + ly.bunch[w]


def _labels(c: TZCore) -> Tuple[TZLabel, ...]:
    """The core's per-level tables transposed into per-vertex labels."""
    return tuple(TZLabel(v, piv, pd, bunch) for v, (piv, pd, bunch)
                 in enumerate(zip(zip(*c.pivots), zip(*c.pivot_dist), c.bunch)))


def build_labeling(adj: Adjacency, k: int, seed: int = 0) -> TZLabeling:
    return TZLabeling(k, _labels(build_core(adj, k, seed)))


# -- routing ---------------------------------------------------------------
#
# Every vertex w roots one tree, and each vertex of that tree keeps w's
# entry in its table: its parent, its DFS interval and its children's
# intervals, the next hops.  A routing label holds its vertex's interval in
# every tree that contains it.  One walk per root (``_tree_walk``) picks
# the parents from the row its search reached and writes the entries and
# the intervals straight into the per-vertex dicts, or takes them from the
# previous scale's scheme when that scale's tree has the same parents.

Interval = Tuple[int, int]


class TreeEntry(NamedTuple):
    parent: Optional[int]
    interval: Interval
    children: Tuple[Tuple[Interval, int], ...]   # (child subtree interval, next hop)


@dataclass(frozen=True)
class NodeTable:
    label: TZLabel
    trees: Dict[int, TreeEntry] = field(hash=False, default_factory=dict)  # by root

    def size_words(self) -> int:
        return (self.label.size_words()
                + sum(3 + 3 * len(e.children) for e in self.trees.values()))


@dataclass(frozen=True)
class RoutingLabel:
    label: TZLabel
    intervals: Dict[int, Interval] = field(hash=False, default_factory=dict)  # by root


@dataclass(frozen=True)
class TZRouting:
    k: int
    tables: Tuple[NodeTable, ...]
    rlabels: Tuple[RoutingLabel, ...]

    def size_words(self) -> int:
        return sum(t.size_words() for t in self.tables)


# makes a TreeEntry without the Python-level __new__ of a NamedTuple, one
# frame less per entry
_entry = tuple.__new__


def _tree_walk(nbrs: Adjacency, root: int, dist: Row,
               trees: List[Dict[int, TreeEntry]],
               intervals: List[Dict[int, Interval]],
               prev: Optional[Sequence[Dict[int, TreeEntry]]] = None) -> None:
    """Write the entry and the interval of every vertex of the tree rooted
    at ``root`` over the vertices ``dist`` reached into ``trees[v][root]``
    and ``intervals[v][root]``.  ``nbrs[v]`` lists v's neighbours in
    ascending id order.

    The parent of v is its smallest-id neighbour u within 1e-9 of tight,
    |dist[u] + w(u, v) - dist[v]| <= 1e-9, found as the first such one in
    ``nbrs[v]``.  One always exists: the search set dist[v] to
    dist[u] + w(u, v) for the u it was last improved from, and that u's
    entry is final.  A parent is closer to the root by its edge's weight
    less 1e-9, so on weights above 1e-9 the parents form a tree; a walk
    that misses a reached vertex raises.  The parents are read off the
    finished row, not picked at each pop of the search: the searches are
    ``_core``'s, which ``build_labeling`` runs too and would pay for.

    ``prev`` holds the per-vertex tree dicts of another routing scheme on
    as many vertices, or is None.  If its tree rooted at ``root`` has as
    many vertices as ``dist`` (the root's interval ends at the tree's
    size) and gives every vertex of ``dist`` the parent picked here, the
    two trees are one tree: its entries and intervals are taken from
    ``prev`` as they are, and the walk below is skipped.

    The walk visits children in ascending id order.  A vertex with
    children opens at its first visit and closes at an exit marker once
    its subtree is done, so its interval is [its pre-order index, the
    index after its subtree), the interval of the done-flag walk; a leaf
    opens and closes at once.  A vertex's entry needs its children's
    intervals, which close first, so each entry is written at its close.
    """
    get = dist.get
    parent: Dict[int, Optional[int]] = {}     # the root joins below
    for v, dv in dist.items():
        if v == root:
            continue
        for u, w in nbrs[v]:
            if abs(get(u, math.inf) + w - dv) <= 1e-9:
                break
        else:
            raise AssertionError("broken shortest-path tree")
        parent[v] = u
    if prev is not None and prev[root][root].interval[1] == len(dist):
        for v, u in parent.items():
            e = prev[v].get(root)
            if e is None or e[0] != u:
                break
        else:
            for v in dist:
                e = trees[v][root] = prev[v][root]
                intervals[v][root] = e[1]
            return
    kids: Dict[int, List[int]] = {}
    for v, u in parent.items():
        ch = kids.get(u)
        if ch is None:
            kids[u] = [v]
        else:
            ch.append(v)
    parent[root] = None
    span: Dict[int, Interval] = {}
    opened: Dict[int, int] = {}
    clock = 0
    stack = [root]
    while stack:
        x = stack.pop()
        if x >= 0:
            ch = kids.get(x)
            if ch is not None:
                opened[x] = clock
                clock += 1
                stack.append(~x)                # the exit marker
                ch.sort()
                stack.extend(reversed(ch))
                continue
            sp = span[x] = (clock, clock + 1)
            clock += 1
            entry = _entry(TreeEntry, (parent[x], sp, ()))
        else:
            x = ~x
            ch = kids[x]
            sp = span[x] = (opened[x], clock)
            entry = _entry(TreeEntry, (parent[x], sp,
                                       tuple(zip(map(span.__getitem__, ch), ch))))
        trees[x][root] = entry
        intervals[x][root] = sp
    if clock != len(dist):
        raise AssertionError("broken shortest-path tree")


def build_routing(adj: Adjacency, k: int, seed: int = 0,
                  prev: Optional[TZRouting] = None) -> TZRouting:
    """The landmark core with one routing tree per vertex w: a landmark's
    (a vertex of A_1, or of A_0 when k = 1) is the shortest-path tree of
    its component, any other w's the tree of its cluster search over
    C_0(w).  Each tree is built by one walk (``_tree_walk``) that writes
    its entries and intervals straight into the per-vertex tables, root by
    root in ascending id order; a routing label holds its vertex's
    interval dict itself.

    ``prev``, a routing scheme on as many vertices (in a hop structure,
    the previous realized scale's), only lets the walks share its
    unchanged trees: the result equals the one built without it, dict
    order included.  A tree's entries and intervals depend only on its
    root and its parent map, since its children lists are read off the
    parent map and sorted, and the DFS is a function of those lists; the
    distances serve only to pick the parents and to size the tree.  So
    where the tree rooted at w here and the one in ``prev`` have the same
    size and every vertex of this tree has the same parent in both, the
    parent maps are equal, the tables are equal, and ``prev``'s immutable
    entry and interval tuples are taken as they are.  The per-vertex
    dicts stay this scheme's own, filled root by root in ascending order
    either way, so every digest and ``size_words`` is unchanged."""
    _check_k(k)
    n = len(adj)
    if prev is not None and len(prev.tables) != n:
        raise ValueError(f"prev has {len(prev.tables)} vertices, adj has {n}")
    c, rows = _core(adj, k, seed, min(1, k - 1))
    nbrs = [sorted(a) for a in adj]
    trees: List[Dict[int, TreeEntry]] = [dict() for _ in range(n)]
    intervals: List[Dict[int, Interval]] = [dict() for _ in range(n)]
    old = None if prev is None else [t.trees for t in prev.tables]
    for w in range(n):
        _tree_walk(nbrs, w, rows[w], trees, intervals, old)
    labels = _labels(c)
    return TZRouting(k, tuple(NodeTable(l, t) for l, t in zip(labels, trees)),
                     tuple(RoutingLabel(l, iv) for l, iv in zip(labels, intervals)))


class Header(NamedTuple):
    """Packet header, written once at the source: the root of the tree the
    packet travels in and the destination's DFS interval in that tree."""
    tree: int
    interval: Interval


def prepare_header(scheme: TZRouting, table_u: NodeTable,
                   dest: RoutingLabel) -> Optional[Header]:
    """Source-side decision from the local table and destination label only:
    route in the witness's tree if it holds both endpoints."""
    got = _witness(scheme.k, table_u.label, dest.label)
    if got is None:
        return None
    w = got[1]
    interval = dest.intervals.get(w)
    if interval is None or w not in table_u.trees:
        return None
    return Header(w, interval)


def forward(table_x: NodeTable, header: Header) -> int:
    """One forwarding step using only the current node's table + header:
    down to the child whose subtree holds the destination if this node's
    subtree holds it, else up to the parent."""
    tree, (dlo, dhi) = header
    parent, (lo, hi), children = table_x.trees[tree]
    if lo <= dlo and dhi <= hi:
        for (lo, hi), nxt in children:
            if lo <= dlo and dhi <= hi:
                return nxt
        raise AssertionError("no child subtree contains the destination")
    if parent is None:
        raise AssertionError("the tree does not contain the destination")
    return parent


def route(scheme: TZRouting, u: int, v: int,
          ) -> Optional[Tuple[List[int], List[int]]]:
    """Simulate routing; returns (path, table read log) or None if declined.
    The source reads its table to write the header and again to take the
    first hop, and every later hop reads the table of the node it leaves.
    An id that is not a vertex of the scheme is an error that names it.

    A tree route climbs at most to the root and then descends, so it takes
    fewer than 2n hops on n vertices; a longer walk is a loop."""
    tables = scheme.tables
    n = len(tables)
    if not (type(u) is type(v) is int and 0 <= u < n and 0 <= v < n):  # ints in range
        u, v = vertex_id(u, n), vertex_id(v, n)                            # skip the call
    header = prepare_header(scheme, tables[u], scheme.rlabels[v])
    if header is None:
        return None
    limit = 2 * n
    path = [u]
    cur = u
    while cur != v:
        if len(path) > limit:
            raise AssertionError("routing loop detected")
        cur = forward(tables[cur], header)
        path.append(cur)
    return path, [u] + path[:-1]
