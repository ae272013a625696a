"""Independent reference implementations used to freeze expected values.

Deliberately written with different algorithmic structure than the library:
depth-limited walk enumeration instead of round-synchronous relaxation,
edge-count Bellman-Ford instead of Dijkstra, ancestor-set intersection
instead of the library's LCA walk, and a literal transcription of the
cluster-carving rules driven by plain ball queries.  The serving layer is
checked against literal transcriptions of earlier forms of its steps: the
two-visit DFS interval walk, the three-pass routing tree builder, the
cut-off Dijkstra on a full distance list, the two-walk coarse estimate and
the per-hop read log.  The relaxation
layer is checked the same way: the masked Bellman-Ford kernel with its
min/max range check, the all-rows diameter scan, the single profile
the carving rules relaxed for their nested balls, and the carving rules
that built every nested ball up front and relaxed the diameter check's
rows outside the ball table.
"""
from __future__ import annotations

import heapq
import math
import random
from typing import Dict, List, Optional, Sequence, Set, Tuple

from hopmetric import ramsey
from hopmetric.datastructures import tree_label_query
from hopmetric.graph_core import WeightedGraph, hop_distance_all, is_inf
from hopmetric.tz import prepare_header, forward
from hopmetric.ultrametric import Ultrametric


def walk_enum_distance(G: WeightedGraph, s: int, h: int) -> List[float]:
    """Min weight over all walks of <= h edges, by depth-first enumeration
    with dominance pruning on (vertex, hops-used)."""
    n = G.n
    best = [[math.inf] * (h + 1) for _ in range(n)]
    best[s][0] = 0.0

    def go(v: int, used: int, w: float) -> None:
        if used == h:
            return
        for u, wu in G.adj[v]:
            nw = w + wu
            if any(best[u][r] <= nw + 1e-15 for r in range(used + 2)):
                continue
            best[u][used + 1] = nw
            go(u, used + 1, nw)

    go(s, 0, 0.0)
    return [min(row) for row in best]


def edge_count_bellman_ford(G: WeightedGraph, s: int) -> List[float]:
    """Unbounded shortest paths by |V|-1 rounds of edge relaxation."""
    dist = [math.inf] * G.n
    dist[s] = 0.0
    for _ in range(max(0, G.n - 1)):
        for u, v, w in G.edges:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
            if dist[v] + w < dist[u]:
                dist[u] = dist[v] + w
    return dist


def masked_bellman_ford(G: WeightedGraph, s: int, budgets: Sequence[int],
                        maxr: Optional[float] = None,
                        allowed: Optional[Sequence[int]] = None) -> Dict[int, List[float]]:
    """Literal transcription of the masked frontier kernel: a boolean mask
    for ``allowed`` behind a min/max range check, and three tests per edge
    (improves, within maxr + 1e-12, allowed) with a per-round dict of the
    least candidates."""
    n, adj = G.n, G.adj
    if allowed is None:
        mask = [True] * n
    else:
        lo, hi = min(allowed, default=0), max(allowed, default=0)
        if lo < 0 or hi >= n:
            raise ValueError(f"allowed vertex id {lo if lo < 0 else hi} "
                             f"out of range for n={n}")
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
    for b in sorted(set(budgets)):
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
            for v, nd in updates.items():
                dist[v] = nd
            frontier = list(updates)
        out[b] = list(dist)
    return out


def all_rows_scan(G: WeightedGraph, h: int) -> Tuple[float, bool, List[Tuple[int, int]]]:
    """(D', whether a pair lacks an h-hop path, the pairs u < v that do)
    from every row of the all-pairs h-hop scan, none skipped."""
    best, lacking, missing = 0.0, False, []
    for s in range(G.n):
        dist = masked_bellman_ford(G, s, [h])[h]
        for v in range(s + 1, G.n):
            if is_inf(dist[v]):
                lacking = True
                missing.append((s, v))
            elif dist[v] > best:
                best = dist[v]
    return best, lacking, missing


def _profile_balls(G: WeightedGraph, v: int, allowed: Sequence[int],
                   wants: List[Tuple[int, float]],
                   maxr: float) -> Dict[Tuple[int, float], frozenset]:
    prof = masked_bellman_ford(G, v, [b for b, _ in wants], maxr, allowed)
    return {(b, r): frozenset(u for u in allowed if prof[b][u] <= r + 1e-12)
            for b, r in wants}


def profiled_standard_balls(G: WeightedGraph, v: int, allowed: Sequence[int],
                            h: int, k_geom: int, scale_i: int):
    """The standard rule's 2 k_geom + 1 nested balls around v as the rule
    once computed them, from one profile over all their budgets pruned at
    the largest radius; keyed by (budget, radius)."""
    r0 = 2.0 ** (scale_i - 3)
    rho = 2.0 ** scale_i / (16.0 * k_geom)
    b0 = scale_i * 2 * k_geom * h if scale_i > 0 else 0
    nb = 2 * k_geom
    wants = [(b0 + j * h, r0 + j * rho) for j in range(nb + 1)]
    return _profile_balls(G, v, allowed, wants, r0 + nb * rho)


def profiled_alt_balls(G: WeightedGraph, v: int, allowed: Sequence[int],
                       h: int, k: int, L: int, scale_i: int):
    """The alt rule's nested balls A(a, j), a <= L and j <= 2k, around v as
    the rule once computed them, from one profile over every budget
    (2ka + j)h pruned at delta/4 + 1e-12; keyed by (budget, radius)."""
    delta = 2.0 ** scale_i
    wants = [((2 * k * a + j) * h, (a + j / (2.0 * k)) * delta / (4.0 * L))
             for a in range(L + 1) for j in range(2 * k + 1)]
    return _profile_balls(G, v, allowed, wants, delta / 4.0 + 1e-12)


def _eager_nested_rows(G: WeightedGraph, balls, v: int, wants, allowed):
    """Literal transcription of the removed ``ramsey._nested_rows``, which
    the eager rules called for every want up front and which the on-demand
    reader ``ramsey._Balls.nested`` replaced: the slack wants read v's plain
    row at their largest radius, the binding ones share one profile, and
    budget 0 binds to a zero row."""
    size, w_min = len(allowed), G.w_min
    slack = {w: ramsey._slack(*w, size, w_min) for w in wants}
    rows = {}
    plain = [w for w in wants if slack[w]]
    if plain:
        row = balls.row(G, v, *max(plain, key=lambda w: w[1]), allowed)
        rows.update(dict.fromkeys(plain, row))
    bound = [w for w in wants if not slack[w]]
    hops = [w for w in bound if w[0]]
    if hops:
        prof = ramsey.hop_profile(G, v, [b for b, _ in hops],
                                  maxr=max(r for _, r in hops), allowed=allowed)
        rows.update((w, prof[w[0]]) for w in hops)
    if len(hops) < len(bound):
        zero = [math.inf] * G.n
        zero[v] = 0.0
        rows.update((w, zero) for w in bound if not w[0])
    return rows


def eager_standard_rule(G: WeightedGraph, Y: Set[int], MY: Set[int], mu, h: int,
                        k: int, k_geom: int, scale_i: int, split: bool, balls):
    """Literal transcription of ``ramsey.standard_rule`` as it built all
    2 k_geom + 1 nested balls and their marked measures before testing j."""
    r0 = 2.0 ** (scale_i - 3)
    rho = 2.0 ** scale_i / (16.0 * k_geom)
    b0 = scale_i * 2 * k_geom * h if scale_i > 0 else 0
    allowed = sorted(Y)
    best_v, best_m = -1, -1.0
    for v in allowed:
        m = balls.measure(G, v, b0, r0, allowed, mu, MY)
        if m > best_m + 1e-12:
            best_v, best_m = v, m
    v = best_v
    nb = 2 * k_geom
    wants = [(b0 + j * h, r0 + j * rho) for j in range(nb + 1)]
    rows = _eager_nested_rows(G, balls, v, wants, allowed)
    A = [ramsey._ball(rows[b, r], allowed, r) for b, r in wants]
    muA = [ramsey._marked_measure(mu, A[j], MY) for j in range(nb + 1)]
    muM = ramsey.measure_of(mu, MY)
    target = (muA[nb] / muA[0]) ** (1.0 / k)
    for j in range(nb - 1):
        ratio_ok = muA[j + 2] <= muA[j] * target * (1.0 + 1e-9)
        split_ok = (not split or muA[j] > muM / 3.0 + 1e-12
                    or muA[j + 2] <= 2.0 * muM / 3.0 + 1e-12)
        if ratio_ok and split_ok:
            return ramsey.ClusterTriple(A[j], A[j + 1], A[j + 2], v, j)
    raise AssertionError(f"no admissible cluster index j <= {nb - 2}")


def eager_alt_rule(G: WeightedGraph, Y: Set[int], MY: Set[int], mu, h: int,
                   k: int, scale_i: int, balls, fallback):
    """Literal transcription of ``ramsey.alt_rule`` as it asked for the rows
    of every ball it might read (a < L, j <= 2k, and (L, 0)) before reading
    any, and ran the full diameter check outside the ball table."""
    muM = ramsey.measure_of(mu, MY)
    L = ramsey.alt_levels(muM)
    delta = 2.0 ** scale_i
    allowed = sorted(Y)
    bball = 2 * k * L * h
    candidates = sorted(MY)
    table = balls.table(bball, delta / 4.0)
    best_v, best_m = -1, math.inf
    for v in candidates:
        entry = table.get(v)
        m = None if entry is None else entry[1]
        if m is None:
            m = balls.measure(G, v, bball, delta / 4.0, allowed, mu, MY)
        if m < best_m - 1e-12:
            best_v, best_m = v, m
    v = best_v
    if best_m > 0.5 * muM + 1e-12:
        if (ramsey._row_certifies(G, balls, candidates, allowed, bball, delta / 4.0)
                or _eager_diam_at_most(G, allowed, 2 * bball, delta / 2.0)):
            X = frozenset(Y)
            return ramsey.ClusterTriple(X, X, X, v, 0)
        return fallback()

    def want(a: int, j: int):
        return (2 * k * a + j) * h, (a + j / (2.0 * k)) * delta / (4.0 * L)

    rows = _eager_nested_rows(G, balls, v, [want(a, j) for a in range(L)
                                            for j in range(2 * k + 1)] + [want(L, 0)],
                              allowed)
    nested = {}

    def ball_and_measure(a: int, j: int):
        if (a, j) not in nested:
            b, r = want(a, j)
            ball = ramsey._ball(rows[b, r], allowed, r)
            nested[a, j] = (ball, ramsey._marked_measure(mu, ball, MY))
        return nested[a, j]

    def A(a: int, j: int):
        return ball_and_measure(a, j)[0]

    def muA(a: int, j: int):
        return ball_and_measure(a, j)[1]

    a_sel = -1
    for a in range(L):
        if muA(a, 0) >= muA(a + 1, 0) ** 2 / muM * (1.0 - 1e-9):
            a_sel = a
            break
    if a_sel < 0:
        raise AssertionError("no admissible level index a")
    a = a_sel
    target = (muA(a + 1, 0) / muA(a, 0)) ** (1.0 / k)
    for j in range(2 * (k - 1) + 1):
        if muA(a, j + 2) <= muA(a, j) * target * (1.0 + 1e-9):
            return ramsey.ClusterTriple(A(a, j), A(a, j + 1), A(a, j + 2), v, j)
    raise AssertionError("no admissible cluster index j <= 2(k-1)")


def _eager_diam_at_most(G: WeightedGraph, allowed, budget: int, bound: float) -> bool:
    """Literal transcription of the full diameter check as it relaxed one
    row per vertex with ``hop_profile``, outside the ball table."""
    for s in allowed:
        d = ramsey.hop_profile(G, s, [budget], maxr=bound, allowed=allowed)[budget]
        if any(d[u] > bound + 1e-12 for u in allowed):
            return False
    return True


def logged_hop_path(G: WeightedGraph, s: int, t: int, budget: int):
    """Literal transcription of the predecessor-log path walk: relax
    ``budget`` rounds from s, log {v: smallest-id predecessor} for the
    vertices each round improves, and walk the logs back from t."""
    dist = [math.inf] * G.n
    dist[s] = 0.0
    frontier = [s]
    preds: List[Dict[int, int]] = []
    for _ in range(budget):
        if not frontier:
            break
        updates: Dict[int, float] = {}
        for u in frontier:
            for v, w in G.adj[u]:
                nd = dist[u] + w
                if nd < dist[v] and (v not in updates or nd < updates[v]):
                    updates[v] = nd
        preds.append({v: next(u for u, w in G.adj[v] if dist[u] + w == nd)
                      for v, nd in updates.items()})
        for v, nd in updates.items():
            dist[v] = nd
        frontier = list(updates)
    if dist[t] == math.inf:
        return None
    path = [t]
    for layer in reversed(preds):
        if path[-1] in layer:
            path.append(layer[path[-1]])
    return path[::-1], dist[t]


def done_flag_tree_entries(parent: Dict[int, Optional[int]], root: int):
    """Literal transcription of the two-visit DFS interval walk: a node's
    interval opens at its first visit and closes at its second, once its
    subtree (children in ascending id order) is done.  Returns
    {v: (parent, interval, ((child interval, child), ...))}."""
    children: Dict[int, List[int]] = {v: [] for v in parent}
    for v, p in parent.items():
        if p is not None:
            children[p].append(v)
    for v in children:
        children[v].sort()
    tin: Dict[int, int] = {}
    span: Dict[int, Tuple[int, int]] = {}
    clock = 0
    stack: List[Tuple[int, bool]] = [(root, False)]
    while stack:
        x, done = stack.pop()
        if done:
            span[x] = (tin[x], clock)
            continue
        tin[x] = clock
        clock += 1
        stack.append((x, True))
        for c in reversed(children[x]):
            stack.append((c, False))
    return {v: (p, span[v], tuple((span[c], c) for c in children[v]))
            for v, p in parent.items()}


def scattered_routing_trees(adj, rows: Dict[int, Dict[int, float]], n: int):
    """Literal transcription of the three-pass tree builder: per root w in
    ascending id order, the parent map of the shortest-path tree over the
    vertices rows[w] reached (a full rescan of each vertex's neighbours,
    ties to the smallest id), each vertex's entry over a pre-order walk with
    subtree sizes, scattered into per-vertex dicts by root, and the
    intervals copied back out of them.  Returns (trees, intervals), the
    per-vertex dicts of ``NodeTable.trees`` and ``RoutingLabel.intervals``."""
    trees: List[Dict[int, tuple]] = [dict() for _ in range(n)]
    for w in range(n):
        dist = rows[w]
        parent: Dict[int, Optional[int]] = {w: None}
        for v, dv in dist.items():
            if v == w:
                continue
            best = None
            for u, wt in adj[v]:
                if (best is None or u < best) and abs(dist.get(u, math.inf) + wt - dv) <= 1e-9:
                    best = u
            if best is None:
                raise AssertionError("broken shortest-path tree")
            parent[v] = best
        children: Dict[int, List[int]] = {v: [] for v in parent}
        for v, p in parent.items():
            if p is not None:
                children[p].append(v)
        order: List[int] = []
        stack = [w]
        while stack:
            x = stack.pop()
            order.append(x)
            kids = children[x]
            kids.sort()
            stack.extend(reversed(kids))
        size = dict.fromkeys(order, 1)
        for x in reversed(order):
            p = parent[x]
            if p is not None:
                size[p] += size[x]
        span = {x: (t, t + size[x]) for t, x in enumerate(order)}
        for v, p in parent.items():
            trees[v][w] = (p, span[v], tuple((span[c], c) for c in children[v]))
    intervals = [{w: e[1] for w, e in t.items()} for t in trees]
    return trees, intervals


def list_state_cutoff_row(adj, s: int, bound: Sequence[float]) -> Dict[int, float]:
    """Literal transcription of the cut-off Dijkstra on a distance list that
    starts at ``bound``: a vertex is reached only below its bound by more
    than 1e-15, then entries still at their bound are dropped."""
    dist = list(bound)
    dist[s] = 0.0
    pq: List[Tuple[float, int]] = [(0.0, s)]
    while pq:
        d, u = heapq.heappop(pq)
        if d > dist[u]:
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < dist[v] - 1e-15:
                dist[v] = nd
                heapq.heappush(pq, (nd, v))
    dist = [d if d < b else math.inf for d, b in zip(dist, bound)]
    dist[s] = 0.0
    return {x: d for x, d in enumerate(dist) if d < math.inf}


def two_walk_estimate(rows_u, home_u: int, rows_v, home_v: int) -> float:
    """The coarse estimate as the min of one tree-label walk per home
    round, both walks taken even when the homes are equal."""
    return min(tree_label_query(rows_u[home_u], rows_v[home_u]),
               tree_label_query(rows_u[home_v], rows_v[home_v]))


def per_hop_logged_route(scheme, u: int, v: int):
    """Tree routing that appends to the read log as it goes: the source's
    table once for the header, then the table of every node before it
    forwards.  Returns (path, reads), or None when the source declines."""
    reads = [u]
    header = prepare_header(scheme, scheme.tables[u], scheme.rlabels[v])
    if header is None:
        return None
    path = [u]
    cur = u
    while cur != v:
        reads.append(cur)
        cur = forward(scheme.tables[cur], header)
        path.append(cur)
    return path, reads


def ancestor_set_distance(U: Ultrametric, x: int, y: int):
    """Ultrametric leaf distance via explicit ancestor-list intersection."""
    if x == y:
        return 0.0

    def ancestors(z: int) -> List[int]:
        out = [z]
        while U.parent[out[-1]] is not None:
            out.append(U.parent[out[-1]])
        return out

    ax, ay = ancestors(x), set(ancestors(y))
    for z in ax:
        if z in ay:
            return U.label[z]
    raise AssertionError("leaves share no ancestor")


def brute_force_is_ultrametric(U: Ultrametric) -> bool:
    """Leaf labels 0, monotone labels, and d(a,b) <= max(d(a,c), d(c,b))
    within 1e-9 over every ordered leaf triple, by ancestor sets."""
    lvs = [x for x in range(U.n_nodes()) if not U.children(x)]
    if any(U.label[x] != 0.0 or U.payload[x] is None for x in lvs):
        return False
    if any(U.payload[x] is not None for x in range(U.n_nodes()) if U.children(x)):
        return False
    if any(p is not None and U.label[x] > U.label[p] + 1e-9
           for x, p in enumerate(U.parent)):
        return False
    d = {(a, b): ancestor_set_distance(U, a, b) for a in lvs for b in lvs}
    return all(d[a, b] <= max(d[a, c], d[c, b]) + 1e-9
               for a in lvs for b in lvs for c in lvs)


def search_tree_path(parent: Sequence, u: int, v: int) -> List[int]:
    """The u-v node sequence of a tree in parent arrays, by breadth-first
    search over its undirected edges (no depths, no ancestors)."""
    adj: List[List[int]] = [[] for _ in parent]
    for c, p in enumerate(parent):
        if p is not None:
            adj[c].append(p)
            adj[p].append(c)
    prev = {u: u}
    queue = [u]
    for x in queue:
        for y in adj[x]:
            if y not in prev:
                prev[y] = x
                queue.append(y)
    out = [v]
    while out[-1] != u:
        out.append(prev[out[-1]])
    return out[::-1]


def climbed_depth(parent: Sequence) -> int:
    """Edges on the longest root path, climbing from every node."""
    best = 0
    for x in range(len(parent)):
        d = 0
        while parent[x] is not None:
            x, d = parent[x], d + 1
        best = max(best, d)
    return best


def _ball(G: WeightedGraph, v: int, hops: int, radius: float,
          allowed: Set[int]) -> Set[int]:
    sub = sorted(allowed)
    dist = hop_distance_all(G, v, hops, allowed=sub) if hops > 0 else None
    out = set()
    for u in sub:
        if hops == 0:
            if u == v:
                out.add(u)
            continue
        d = dist[u]
        if not is_inf(d) and d <= radius + 1e-12:
            out.add(u)
    return out


def simulate_create_cluster(G: WeightedGraph, Y: Set[int], M: Set[int],
                            mu: Sequence[float], h: int, k: int, i: int):
    """Literal transcription of the marked-ball carving rule."""
    hprime = 2 * k * h
    rho = 2.0 ** i / (16.0 * k)
    MY = M & Y
    # center: vertex of Y with max marked-measure ball
    best_v, best_m = None, -1.0
    for v in sorted(Y):
        ball = _ball(G, v, i * hprime, 2.0 ** (i - 3), Y)
        m = sum(mu[u] for u in ball & MY)
        if m > best_m + 1e-12:
            best_v, best_m = v, m
    v = best_v
    A = [_ball(G, v, i * hprime + j * h, 2.0 ** (i - 3) + j * rho, Y)
         for j in range(2 * k + 1)]
    muA = [sum(mu[u] for u in a & MY) for a in A]
    target = (muA[2 * k] / muA[0]) ** (1.0 / k)
    for j in range(2 * (k - 1) + 1):
        if muA[j + 2] <= muA[j] * target * (1 + 1e-9):
            return A[j], A[j + 1], A[j + 2], v, j
    raise AssertionError("no admissible j in simulation")


def simulate_clan_create_cluster(G: WeightedGraph, Y: Set[int],
                                 mu: Sequence[float], h: int, k: int, i: int):
    """Literal transcription of the full-measure carving rule with the
    one-third/two-thirds side condition."""
    hprime = 2 * (k + 1) * h
    rho = 2.0 ** i / (16.0 * (k + 1))
    muY = sum(mu[u] for u in Y)
    best_v, best_m = None, -1.0
    for v in sorted(Y):
        ball = _ball(G, v, i * hprime, 2.0 ** (i - 3), Y)
        m = sum(mu[u] for u in ball)
        if m > best_m + 1e-12:
            best_v, best_m = v, m
    v = best_v
    nb = 2 * (k + 1)
    A = [_ball(G, v, i * hprime + j * h, 2.0 ** (i - 3) + j * rho, Y)
         for j in range(nb + 1)]
    muA = [sum(mu[u] for u in a) for a in A]
    target = (muA[nb] / muA[0]) ** (1.0 / k)
    for j in range(2 * k + 1):
        if muA[j + 2] <= muA[j] * target * (1 + 1e-9):
            if muA[j] > muY / 3.0 + 1e-12 or muA[j + 2] <= 2.0 * muY / 3.0 + 1e-12:
                return A[j], A[j + 1], A[j + 2], v, j
    raise AssertionError("no admissible j in simulation")


def brute_force_path_copies(emb, P: Sequence[int]) -> float:
    """Minimum copy-assignment cost by full cartesian enumeration."""
    import itertools

    from hopmetric.ultrametric import ultra_distance

    best = math.inf
    for combo in itertools.product(*(emb.f[v] for v in P)):
        cost = 0.0
        for a, b in zip(combo, combo[1:]):
            d = ultra_distance(emb.U, a, b)
            if is_inf(d):
                cost = math.inf
                break
            cost += d
        best = min(best, cost)
    return best


def random_graph(rng: random.Random, n: int, p: float,
                 wmin: float = 1.0, wmax: float = 1.0) -> WeightedGraph:
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                w = wmin if wmin == wmax else rng.uniform(wmin, wmax)
                edges.append((u, v, w))
    if not edges and n > 1:
        edges = [(0, 1, 1.0)]
    return WeightedGraph(n, edges)


def connected_random_graph(rng: random.Random, n: int, p: float,
                           wmin: float = 1.0, wmax: float = 1.0) -> WeightedGraph:
    """Random graph plus a random spanning chain, so it is connected."""
    edges: Dict[Tuple[int, int], float] = {}
    perm = list(range(n))
    rng.shuffle(perm)
    for a, b in zip(perm, perm[1:]):
        w = wmin if wmin == wmax else rng.uniform(wmin, wmax)
        edges[(min(a, b), max(a, b))] = w
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < p:
                w = wmin if wmin == wmax else rng.uniform(wmin, wmax)
                edges[(u, v)] = w
    return WeightedGraph(n, [(u, v, w) for (u, v), w in edges.items()])


def lasso(n: int) -> WeightedGraph:
    """Unit path 0..n-1 closed by one edge of weight 1,000."""
    return WeightedGraph(n, [(i, i + 1, 1.0) for i in range(n - 1)] + [(n - 1, 0, 1000.0)])


def domination_counts(G: WeightedGraph, budget: int, answer) -> Tuple[int, int]:
    """(binding, violations) over pairs u < v.  A pair binds when its
    budget-hop distance exceeds its distance; answer(u, v) violates when it
    lies below the budget-hop distance, a finite answer against an infinite
    one included."""
    binding = bad = 0
    for u in range(G.n):
        d = edge_count_bellman_ford(G, u)
        dB = walk_enum_distance(G, u, budget)
        for v in range(u + 1, G.n):
            binding += dB[v] > d[v] * (1 + 1e-9)
            bad += answer(u, v) < dB[v] * (1 - 1e-9)
    return binding, bad
