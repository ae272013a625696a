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


def as_integer(val, name: str) -> int:
    """val as an int; a fractional value, a bool, a string or a value that
    ``float`` cannot take (None, a list) is an error that names it."""
    if not isinstance(val, (bool, str)):
        if isinstance(val, int):
            return int(val)
        try:
            if float(val).is_integer():
                return int(val)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {val!r}")


def vertex_id(v, n: int) -> int:
    """v as a vertex id of a structure on n vertices; a non-integer or an id
    outside range(n), a negative one included, is an error that names it."""
    if type(v) is not int:      # ints skip the call
        v = as_integer(v, "vertex id")
    if 0 <= v < n:
        return v
    raise ValueError(f"vertex id {v} out of range for n={n}")


@dataclass(frozen=True)
class HopParams:
    """Common parameter bundle: hop budget h, distortion parameter k, epsilon."""

    h: int
    k: int = 1
    epsilon: float = 0.5

    def __post_init__(self):
        for name, val in (("h", self.h), ("k", self.k)):
            if as_integer(val, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError("epsilon must be in (0,1)")


class WeightedGraph:
    """Undirected weighted graph with positive finite edge weights.

    Weights are normalized at construction so the minimum edge weight is 1;
    the applied scale factor is recorded in ``scale`` (original weight =
    stored weight * scale), and the least stored weight in ``w_min``
    (infinity with no edge).  Instances are immutable after construction.

    ``adj[u]`` lists u's (neighbour, weight) pairs in ascending neighbour
    id; ``nbr_weight[u]`` maps the same neighbours to the same weights, so
    ``has_edge``, ``edge_weight`` and the weights of a routed path are one
    dict lookup per edge.
    """

    __slots__ = ("n", "edges", "adj", "nbr_weight", "scale", "w_min")

    def __init__(self, n: int, edges: Iterable[Tuple[int, int, float]],
                 normalize: bool = True):
        n = as_integer(n, "n")
        if n < 1:
            raise ValueError("graph must have at least one vertex")
        seen: Set[Tuple[int, int]] = set()
        clean: List[Tuple[int, int, float]] = []
        for u, v, w in edges:
            if not type(u) is type(v) is int:   # ints skip the call
                u, v = as_integer(u, "vertex id"), as_integer(v, "vertex id")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if type(w) is not float and (isinstance(w, bool)
                                         or not isinstance(w, (int, float))):
                raise ValueError(f"edge ({u},{v}) has non-numeric weight {w!r}")
            if not (w > 0 and w != float("inf")):
                raise ValueError(f"edge ({u},{v}) has non-positive or infinite weight {w}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            clean.append((key[0], key[1], float(w)))
        clean.sort()
        scale = 1.0
        wmin = min((w for _, _, w in clean), default=math.inf)
        if normalize and clean and wmin != 1.0:
            scale, wmin = wmin, 1.0
            clean = [(u, v, w / scale) for u, v, w in clean]
        self.n = n
        self.edges = tuple(clean)
        self.scale = scale
        self.w_min = wmin
        adj: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
        for u, v, w in clean:
            adj[u].append((v, w))
            adj[v].append((u, w))
        for lst in adj:
            lst.sort()
        self.adj = tuple(tuple(lst) for lst in adj)
        self.nbr_weight = tuple(dict(lst) for lst in adj)

    # -- serialization ---------------------------------------------------

    @classmethod
    def from_json(cls, text: str) -> "WeightedGraph":
        data = json.loads(text)
        return cls(data["n"], data["edges"])

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
        u, v = self._check_vertex(u), self._check_vertex(v)
        return v in self.nbr_weight[u]

    def edge_weight(self, u: int, v: int) -> float:
        u = self._check_vertex(u)
        w = self.nbr_weight[u].get(v)
        if w is not None:
            return w
        self._check_vertex(v)
        raise KeyError((u, v))

    def _check_vertex(self, v) -> int:
        """v as a vertex id of this graph (see ``vertex_id``)."""
        return vertex_id(v, self.n)


def _relax(adj: Sequence[Sequence[Tuple[int, float]]], dist: List[float],
           gate: List[float], frontier: Iterable[int], rounds: int) -> Iterable[int]:
    """Run up to ``rounds`` rounds of the frontier relaxation on ``dist``;
    return the frontier left, empty once a round improves nothing.

    A round offers each edge (u, v) out of the frontier, the vertices the
    previous round improved, the candidate nd = dist[u] + w, and v takes the
    least candidate that passes its gate, nd < gate[v].  The caller seeds
    the gate with dist[v] where v is reached, with nextafter(maxr + 1e-12,
    inf) where it may still be reached, and with -inf where it may not
    (outside the allowed set).  Before a round, then, nd < gate[v] is
    exactly nd < dist[v] and nd <= maxr + 1e-12 and v allowed, the three
    tests of a masked kernel.  An accepted candidate is written into the
    gate at once, so later candidates of the round must beat it, and into
    ``dist`` after the round, so every candidate reads the distances of the
    previous round and round r extends walks by one edge.
    """
    for _ in range(rounds):
        if not frontier:
            break
        updates: Dict[int, float] = {}
        for u in frontier:
            du = dist[u]
            for v, w in adj[u]:
                nd = du + w
                if nd < gate[v]:
                    gate[v] = updates[v] = nd
        for v, nd in updates.items():
            dist[v] = nd
        frontier = updates
    return frontier


def _gate(n: int, allowed: Optional[Iterable[int]], top: float) -> List[float]:
    """The initial gate of ``_relax``: ``top`` on the allowed ids, -inf on
    the rest; an id outside range(n) is an error that names it.

    A negative id would index the gate from its end, so one ``min`` pass
    rejects those, and an id of n or more fails to index it.
    """
    if allowed is None:
        return [top] * n
    gate = [-math.inf] * n
    try:
        if min(allowed, default=0) < 0:
            raise IndexError
        for v in allowed:
            gate[v] = top
    except IndexError:
        v = next(v for v in allowed if not 0 <= v < n)
        raise ValueError(f"allowed vertex id {v} out of range for n={n}") from None
    return gate


def _repair(adj: Sequence[Sequence[Tuple[int, float]]], row: List[float],
            cut: Set[int], maxr: float, rounds: int) -> List[float]:
    """A plain row of G[Y] pruned at maxr, recomputed for G[Y minus cut].

    ``row`` is ``bellman_ford(G, s, [b], maxr, Y)[b]`` for a budget b slack
    at maxr (``ramsey._slack``: b >= |Y| - 1, or every walk of more than b
    edges weighs more than maxr + 1e-12), with s not in ``cut``, and
    ``rounds`` is at least |Y|.  Such a row holds the least float sum over
    all walks of G[Y], pruned at maxr, and it has converged: another round
    would change nothing.  A least float sum is reached by a simple path,
    since removing a cycle from a walk leaves each later partial sum no
    larger (weights are positive and float addition is monotone), so
    ``rounds`` relaxation rounds reach every one.  The result equals the row
    that ``bellman_ford`` relaxes on G[Y minus cut] at any budget slack at
    maxr, entry for entry.

    Call x a tight neighbour of u when row[x] + w(x, u) == row[u] in floats.
    In a converged row every reached u != s has one, and following tight
    neighbours, each at a smaller distance or set at an earlier round,
    leads back to s.  An entry is kept when it is valid, that is, when a
    walk in G[Y minus cut] has that float sum.  Removing vertices cannot
    shorten a distance, so a valid entry is the new distance.  The walks
    are found outward from the cut, in increasing old distance:

    - a vertex none of whose tight neighbours is cut or invalid is valid:
      its chain of tight neighbours back to s avoids both, by induction;
    - any other vertex u is valid when some tight neighbour x with
      row[x] < row[u], decided before u, is valid, extending x's walk by
      the edge (x, u), and invalid otherwise.

    Invalid entries are relaxed again from their valid neighbours, whose
    gates are -inf since no walk of G[Y minus cut] reaches them with a
    smaller sum (as are the cut's and the unreached vertices', which stay
    above maxr).  Every walk from s into the invalid region leaves a valid
    vertex last, where its partial sum is at least that vertex's entry;
    float addition is monotone, so relaxing from those seeds gives the
    least float sum of every invalid entry, pruned at maxr as before.
    """
    inf = math.inf
    heap: List[Tuple[float, int]] = []
    for c in cut:
        dc = row[c]
        if dc != inf:
            heap.extend((row[y], y) for y, w in adj[c]
                        if dc + w == row[y] and y not in cut)
    heapq.heapify(heap)
    seen: Set[int] = set()
    bad: Set[int] = set()
    while heap:
        du, u = heapq.heappop(heap)
        if u in seen:
            continue
        seen.add(u)
        for x, w in adj[u]:
            dx = row[x]
            if dx < du and dx + w == du and x not in bad and x not in cut:
                break
        else:
            bad.add(u)
            for y, w in adj[u]:
                if du + w == row[y] and y not in seen and y not in cut:
                    heapq.heappush(heap, (row[y], y))
    dist = list(row)
    for c in cut:
        dist[c] = inf
    if not bad:
        return dist
    gate = [-inf] * len(row)
    top = math.nextafter(maxr + 1e-12, inf)
    for u in bad:
        dist[u] = inf
        gate[u] = top
    seeds = {x for u in bad for x, _ in adj[u] if dist[x] != inf}
    _relax(adj, dist, gate, seeds, rounds)
    return dist


def bellman_ford(G: WeightedGraph, s: int, budgets: Sequence[int],
                 maxr: float | None = None,
                 allowed: Sequence[int] | None = None) -> Dict[int, List[float]]:
    """Truncated Bellman-Ford distances from s, one snapshot per budget.

    Each round relaxes only the edges out of the vertices the previous round
    improved, and the search stops once a round improves nothing
    (``_relax``).  ``maxr`` prunes distances above maxr + 1e-12 (valid since
    weights are positive: every prefix of a shortest path is no longer than
    the path itself).  ``allowed`` restricts relaxation to an induced vertex
    subset; an id in it outside range(n) is an error.  Budgets are integers;
    a fractional value, a bool or a string is an error.

    The snapshot at budget b holds, for every v, the least left-to-right
    float sum over walks of at most b edges from s to v in G[allowed], or
    infinity when that sum exceeds maxr + 1e-12.
    """
    n = G.n
    if type(s) is not int or not 0 <= s < n:    # ints in range skip the call
        s = vertex_id(s, n)
    want = sorted({b if type(b) is int else as_integer(b, "budget") for b in budgets})
    if not want or want[0] < 0:
        raise ValueError("budgets must be nonnegative")
    lim = math.inf if maxr is None else maxr + 1e-12
    gate = _gate(n, allowed, math.nextafter(lim, math.inf))
    if gate[s] == -math.inf:
        raise ValueError("source not in allowed set")
    dist = [math.inf] * n
    dist[s] = gate[s] = 0.0
    frontier: Iterable[int] = [s]
    out: Dict[int, List[float]] = {}
    done = 0
    for b in want:
        frontier = _relax(G.adj, dist, gate, frontier, b - done)
        done = b
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
    u, v = G._check_vertex(u), G._check_vertex(v)
    if u == v:
        return 0.0
    return hop_distance_all(G, u, h)[v]


def hop_ball(G: WeightedGraph, v: int, r: float, h: int,
             allowed: Sequence[int] | None = None) -> Set[int]:
    """{ u : d^{(h)}(v,u) <= r }; always contains v."""
    if not 0 <= r < math.inf:
        raise ValueError("r must be finite and >= 0")
    dist = hop_distance_all(G, v, h, allowed=allowed)
    return {u for u, d in enumerate(dist) if not is_inf(d) and d <= r}


def hop_diameter(G: WeightedGraph, h: int) -> float:
    """Largest h-hop distance over vertex pairs, INFINITY when some pair has
    no h-hop path: the scan of ``_finite_scan``, which skips the rows that
    cannot raise the maximum, stopped at the first such pair."""
    best, lacking = _finite_scan(G, h, stop=True)
    return INFINITY if lacking else best


def _finite_scan(G: WeightedGraph, h: int,
                 missing: Optional[List[Tuple[int, int]]] = None,
                 stop: bool = False) -> Tuple[float, bool]:
    """One pass over the all-pairs h-hop rows: (D', whether some pair u < v
    has no h-hop path).  The pairs themselves are appended to ``missing``
    when it is given; only the reference builder needs them.  With ``stop``
    the pass ends at the first such pair, and D' is that of the rows before.

    For 1 < h < 10^6 the row of s is skipped when a neighbour x already
    scanned has (w(s, x) + m_x) * (1 + 1e-9) < D'_s, where m_x is the
    largest entry of x's row at budget h - 1 (one ``hop_profile`` call
    gives a scanned row at h - 1 and h) and D'_s the running maximum.  For
    every v, the walk s -> x followed by x's (h - 1)-edge walk to v has at
    most h edges, so the entry (s, v) is at most its left-to-right float
    sum, which exceeds the real weight w + d by a relative h * 2^-53 at
    most, where d <= m_x is x's float entry, itself within (h - 1) * 2^-53
    of its walk's real weight (the error argument of
    ``ramsey._row_certifies``).  Below 10^6 hops that is under 2.3e-10, so
    every entry of the row is finite and below D'_s: the row can neither
    raise D' nor add a missing pair, and skipping it changes no output.
    """
    n, adj = G.n, G.adj
    skip = type(h) is int and 1 < h < 10 ** 6
    budgets = [h - 1, h] if skip else [h]
    reach = [math.inf] * n      # m_x of every scanned row x
    best = 0.0
    lacking = False
    for s in range(n):
        if skip and any((w + reach[x]) * (1.0 + 1e-9) < best for x, w in adj[s]):
            continue
        rows = hop_profile(G, s, budgets)
        dist = rows[h]
        if skip:
            reach[s] = max(rows[h - 1])
        for v in range(s + 1, n):
            d = dist[v]
            if is_inf(d):
                if stop:
                    return best, True
                lacking = True
                if missing is not None:
                    missing.append((s, v))
            elif d > best:
                best = d
    return best, lacking


def completion_weight(G: WeightedGraph, k: int, dprime: float) -> float:
    """omega = 17k*D'; with no h-hop connected pair of distinct vertices
    (D' = 0), D' is taken to be the largest edge weight."""
    return 17.0 * k * (dprime if dprime != 0.0 else G.max_weight())


def finite_completion(G: WeightedGraph, h: int, k: int) -> Tuple[WeightedGraph, float]:
    """Add an edge of weight omega = 17k*D' for every pair not h-hop connected.

    When some pair is added, omega is also the completed graph's h-hop
    diameter: omega >= D' bounds every finite h-hop distance of G, every
    path through an added edge weighs at least omega, and the added pairs
    are at distance exactly omega.

    This is the reference builder, and the edge-case builder: the carvers
    relax G itself, since no carving radius reaches omega, and
    ``ramsey.finite_graph`` calls this function only when omega lies
    within 1e-12 above a power of two, where one does.
    """
    HopParams(h, k)
    missing: List[Tuple[int, int]] = []
    dprime, _ = _finite_scan(G, h, missing)
    omega = completion_weight(G, k, dprime)
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


def shortest_path_tree(adj: Sequence[Sequence[Tuple[int, float]]], root: int,
                       dist: Dict[int, float]) -> Dict[int, Optional[int]]:
    """Parent map of the shortest-path tree over the vertices ``dist``
    reached from root; ties go to the smallest neighbour id."""
    parent: Dict[int, Optional[int]] = {root: None}
    for v, dv in dist.items():
        if v == root:
            continue
        best = None
        for u, w in adj[v]:
            if (best is None or u < best) and abs(dist.get(u, math.inf) + w - dv) <= 1e-9:
                best = u
        if best is None:
            raise AssertionError("broken shortest-path tree")
        parent[v] = best
    return parent


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
