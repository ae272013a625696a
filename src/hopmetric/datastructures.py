"""Hop-constrained distance oracle, distance labeling, and compact routing.

Layered design: a coarse structure built from iterated/sampled Ramsey
embeddings gives a crude estimate of the hop-bounded distance; the estimate
selects a scale; a per-scale auxiliary graph (base weights plus an additive
surcharge that converts hop budgets into weight budgets) carries a classic
stretch-(2k-1) landmark structure that answers the query.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from . import tz
from .graph_core import INFINITY, WeightedGraph, is_inf
from .ramsey import (RamseyEmbedding, _shared_rows, ramsey_distribution,
                     ramsey_embed)
from .rng import substream
from .ultrametric import Ultrametric

# -- tree labels -----------------------------------------------------------

TreeLabel = Tuple[Tuple[int, float], ...]   # (ancestor id, label) root -> leaf


def build_tree_labels(U: Ultrametric) -> Dict[int, TreeLabel]:
    """Per-leaf root-path labels; distance queries reduce to a prefix walk."""
    out: Dict[int, TreeLabel] = {}
    for leaf in U.leaves():
        path = list(reversed(U.path_to_root(leaf)))
        out[leaf] = tuple((x, U.label[x]) for x in path)
    return out


def tree_label_query(lx: TreeLabel, ly: TreeLabel) -> float:
    """Distance between the two leaves: label of the deepest common ancestor."""
    if lx[-1][0] == ly[-1][0]:
        return 0.0
    if lx[0][0] != ly[0][0]:
        raise ValueError("labels come from different ultrametrics")
    p = 0
    for (a, _), (b, _) in zip(lx, ly):
        if a != b:
            break
        p += 1
    return lx[p - 1][1]


def _coarse_estimate(rows_u: Sequence[TreeLabel], home_u: int,
                    rows_v: Sequence[TreeLabel], home_v: int) -> float:
    """min over both home rounds; each side is individually sandwiched."""
    return min(tree_label_query(rows_u[home_u], rows_v[home_u]),
               tree_label_query(rows_u[home_v], rows_v[home_v]))


# -- coarse structures -----------------------------------------------------

@dataclass(frozen=True)
class CoarseLabeling:
    """Asymmetric labeling: iterated alt-Ramsey rounds with uniform measure.

    Long label: tree labels in every round's ultrametric; short label: the
    home round where the vertex was padded.
    """
    n: int
    h: int
    k: int
    home: Tuple[int, ...]
    labels: Tuple[Tuple[TreeLabel, ...], ...]   # labels[v][round]
    t_coarse: float
    beta_hops: int

    def rounds(self) -> int:
        return len(self.labels[0]) if self.n else 0

    def query(self, u: int, v: int) -> float:
        return _coarse_estimate(self.labels[u], self.home[u],
                                self.labels[v], self.home[v])

    def size_words(self) -> int:
        return sum(2 * len(l) for row in self.labels for l in row)


def build_coarse_labeling(G: WeightedGraph, h: int, k: int) -> CoarseLabeling:
    n = G.n
    ones = [1.0] * n
    remaining: Set[int] = set(range(n))
    home = [-1] * n
    per_round: List[Dict[int, TreeLabel]] = []
    t_coarse, beta_hops = 1.0, 1
    rnd = 0
    while remaining:
        emb = ramsey_embed(G, ones, set(remaining), h, k, "alt")
        t_coarse = max(t_coarse, emb.t)
        beta_hops = max(beta_hops, emb.beta)
        leaf_of = emb.leaf_of()
        tl = build_tree_labels(emb.U)
        per_round.append({v: tl[leaf_of[v]] for v in range(n)})
        for v in emb.M & remaining:
            home[v] = rnd
        remaining -= emb.M
        rnd += 1
    labels = tuple(tuple(per_round[r][v] for r in range(rnd)) for v in range(n))
    return CoarseLabeling(n, h, k, tuple(home), labels, t_coarse, beta_hops)


@dataclass(frozen=True)
class CoarseOracle:
    """Sampled-embedding oracle; each vertex stores labels only up to the
    first sample in which it was padded."""
    n: int
    h: int
    k: int
    home: Tuple[int, ...]
    labels: Tuple[Tuple[TreeLabel, ...], ...]   # labels[v][0..home[v]]
    t_coarse: float
    beta_hops: int
    attempts: int

    def query(self, u: int, v: int) -> float:
        i = min(self.home[u], self.home[v])
        return tree_label_query(self.labels[u][i], self.labels[v][i])

    def size_words(self) -> int:
        return sum(2 * len(l) for row in self.labels for l in row)


class CoarseBudgetExceeded(RuntimeError):
    """Every attempt at a coarse oracle stored more labels than its budget."""


@_shared_rows()
def build_coarse_oracle(G: WeightedGraph, h: int, k: int, seed: int = 0,
                        rounds: int = 8, max_attempts: int = 30) -> CoarseOracle:
    """Sample rounds of an alt-Ramsey distribution until every vertex is
    padded; the distribution and the straggler embeddings share rows.

    Raises CoarseBudgetExceeded when all ``max_attempts`` exceed the size
    budget.
    """
    n = G.n
    dist = ramsey_distribution(G, h, "fixed_k", rounds, k=k, variant="alt")
    incl = [sum(1 for emb, _ in dist if v in emb.M) / len(dist) for v in range(n)]
    # expected stored rounds per vertex is 1/p(v); restart while 4x over budget
    budget = 4.0 * sum(1.0 / p for p in incl if p > 0) + 4.0 * n
    ones = [1.0] * n
    best: Optional[Tuple[List[RamseyEmbedding], List[int]]] = None
    attempt = 0
    for attempt in range(1, max_attempts + 1):
        rng = substream(seed, f"coarse-oracle-{attempt}")
        seq: List[RamseyEmbedding] = []
        home = [-1] * n
        unhomed = set(range(n))
        while unhomed and len(seq) < 8 * rounds * max(1, math.ceil(n ** (1.0 / k))):
            emb = dist[rng.randrange(len(dist))][0]
            seq.append(emb)
            for v in list(unhomed):
                if v in emb.M:
                    home[v] = len(seq) - 1
                    unhomed.discard(v)
        for v in sorted(unhomed):
            # stragglers the sampled distribution never pads: target them
            emb = ramsey_embed(G, ones, {v}, h, k, "alt")
            seq.append(emb)
            home[v] = len(seq) - 1
        stored = sum(home[v] + 1 for v in range(n))
        if stored <= budget:
            best = (seq, home)
            break
    if best is None:
        raise CoarseBudgetExceeded(
            f"coarse oracle size budget exceeded in all {max_attempts} attempts")
    seq, home = best
    t_coarse = max(emb.t for emb in seq)
    beta_hops = max(emb.beta for emb in seq)
    labels: List[Tuple[TreeLabel, ...]] = []
    cache: Dict[int, Dict[int, TreeLabel]] = {}

    def round_labels(i: int) -> Dict[int, TreeLabel]:
        if i not in cache:
            emb = seq[i]
            leaf_of = emb.leaf_of()
            tl = build_tree_labels(emb.U)
            cache[i] = {v: tl[leaf_of[v]] for v in range(n)}
        return cache[i]

    for v in range(n):
        labels.append(tuple(round_labels(i)[v] for i in range(home[v] + 1)))
    return CoarseOracle(n, h, k, tuple(home), tuple(labels), t_coarse,
                        beta_hops, attempt)


# -- auxiliary scale graphs ------------------------------------------------

@dataclass(frozen=True)
class AuxiliaryGraph:
    n: int
    scale_i: int
    omega: float
    adj: Tuple[Tuple[Tuple[int, float], ...], ...]

    def weight_of_path(self, path: Sequence[int]) -> float:
        total = 0.0
        for a, b in zip(path, path[1:]):
            total += next(w for x, w in self.adj[a] if x == b)
        return total


def auxiliary_graph(G: WeightedGraph, i: int, h: int, t_coarse: float,
                    epsilon: float) -> AuxiliaryGraph:
    """Base graph with every edge surcharged by omega_i = (eps/(t*h)) * 2^i."""
    if i < 0:
        raise ValueError("scale index must be >= 0")
    omega = (epsilon / (t_coarse * h)) * 2.0 ** i
    adj = tuple(tuple((v, w + omega) for v, w in row) for row in G.adj)
    return AuxiliaryGraph(G.n, i, omega, adj)


def inner_metric_structure(Gi: AuxiliaryGraph, k: int, mode: str, seed: int = 0):
    """Classic hop-free structure on the scale graph (stretch 2k-1)."""
    if mode == "oracle":
        return tz.build_oracle(Gi.adj, k, seed)
    if mode == "labels":
        return tz.build_labeling(Gi.adj, k, seed)
    if mode == "routing":
        return tz.build_routing(Gi.adj, k, seed)
    raise ValueError(f"unknown mode {mode!r}")


def _scale_of(est: float) -> int:
    return max(0, math.floor(math.log2(est)))


def _realized_scales(coarse, n: int) -> List[int]:
    scales: Set[int] = set()
    for u in range(n):
        for v in range(u + 1, n):
            est = coarse.query(u, v)
            if not is_inf(est) and est > 0:
                scales.add(_scale_of(est))
    return sorted(scales)


def _scale_structures(G: WeightedGraph, coarse, h: int, k: int, epsilon: float,
                      mode: str, seed: int) -> Tuple[Dict[int, object], Dict[int, float]]:
    """One inner structure per realized scale, with the scale's surcharge."""
    inner: Dict[int, object] = {}
    omegas: Dict[int, float] = {}
    for i in _realized_scales(coarse, G.n):
        Gi = auxiliary_graph(G, i, h, coarse.t_coarse, epsilon)
        inner[i] = inner_metric_structure(Gi, k, mode, seed)
        omegas[i] = Gi.omega
    return inner, omegas


# -- final oracle ----------------------------------------------------------

@dataclass(frozen=True)
class HopOracle:
    G: WeightedGraph
    h: int
    k: int
    epsilon: float
    coarse: CoarseOracle
    inner: Dict[int, tz.TZOracle] = field(hash=False, default_factory=dict)
    omegas: Dict[int, float] = field(hash=False, default_factory=dict)
    hop_budget: int = 1                      # lower-side hop budget B
    stretch: float = 1.0                     # upper-side factor over d^{(h)}

    def size_words(self) -> int:
        return self.coarse.size_words() + sum(o.size_words()
                                              for o in self.inner.values())


def _final_constants(t_coarse: float, beta_hops: int, k: int,
                     epsilon: float) -> Tuple[int, float]:
    B = max(math.ceil(2.0 * t_coarse / epsilon), beta_hops)
    stretch = (2 * k - 1) * (1.0 + epsilon)
    return B, stretch


def build_hop_oracle(G: WeightedGraph, h: int, k: int, epsilon: float,
                     seed: int = 0) -> HopOracle:
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must be in (0,1)")
    coarse = build_coarse_oracle(G, h, k, seed)
    inner, omegas = _scale_structures(G, coarse, h, k, epsilon, "oracle", seed)
    B, stretch = _final_constants(coarse.t_coarse, coarse.beta_hops, k, epsilon)
    return HopOracle(G, h, k, epsilon, coarse, inner, omegas, B, stretch)


def hop_oracle_query(O: HopOracle, u: int, v: int) -> float:
    if u == v:
        return 0.0
    est = O.coarse.query(u, v)
    if is_inf(est):
        return INFINITY
    return O.inner[_scale_of(est)].query(u, v)


# -- final labeling --------------------------------------------------------

@dataclass(frozen=True)
class HopVertexLabel:
    vertex: int
    home: int
    coarse: Tuple[TreeLabel, ...]
    inner: Dict[int, tz.TZLabel] = field(hash=False, default_factory=dict)


@dataclass(frozen=True)
class HopLabeling:
    h: int
    k: int
    epsilon: float
    labels: Tuple[HopVertexLabel, ...]
    omegas: Dict[int, float] = field(hash=False, default_factory=dict)
    t_coarse: float = 1.0
    beta_hops: int = 1
    hop_budget: int = 1
    stretch: float = 1.0

    def label(self, v: int) -> HopVertexLabel:
        return self.labels[v]

    def size_words(self) -> int:
        return sum(sum(2 * len(t) for t in l.coarse)
                   + sum(len(t.bunch) + 2 * self.k for t in l.inner.values())
                   for l in self.labels)


def build_hop_labeling(G: WeightedGraph, h: int, k: int,
                       epsilon: float) -> HopLabeling:
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must be in (0,1)")
    coarse = build_coarse_labeling(G, h, k)
    scale_labels, omegas = _scale_structures(G, coarse, h, k, epsilon, "labels", 0)
    labels = tuple(
        HopVertexLabel(v, coarse.home[v], coarse.labels[v],
                       {i: sl.label(v) for i, sl in scale_labels.items()})
        for v in range(G.n))
    B, stretch = _final_constants(coarse.t_coarse, coarse.beta_hops, k, epsilon)
    return HopLabeling(h, k, epsilon, labels, omegas, coarse.t_coarse,
                       coarse.beta_hops, B, stretch)


def labeling_query(L: HopLabeling, lu: HopVertexLabel,
                   lv: HopVertexLabel) -> float:
    if lu.vertex == lv.vertex:
        return 0.0
    est = _coarse_estimate(lu.coarse, lu.home, lv.coarse, lv.home)
    if is_inf(est):
        return INFINITY
    i = _scale_of(est)
    return tz.label_query(L.k, lu.inner[i], lv.inner[i])


# -- routing ---------------------------------------------------------------

@dataclass(frozen=True)
class RoutingScheme:
    G: WeightedGraph
    h: int
    k: int
    epsilon: float
    coarse: CoarseLabeling
    inner: Dict[int, tz.TZRouting] = field(hash=False, default_factory=dict)
    omegas: Dict[int, float] = field(hash=False, default_factory=dict)
    hop_budget: int = 1
    stretch: float = 1.0

    def size_words(self) -> int:
        return self.coarse.size_words() + sum(r.size_words()
                                              for r in self.inner.values())


@dataclass(frozen=True)
class RouteResult:
    delivered: bool
    path: Tuple[int, ...]
    scale: Optional[int]
    weight: float                  # base-graph weight of the delivered path
    weight_aux: float              # weight in the scale graph
    table_reads: Tuple[int, ...]   # node ids whose tables were consulted


def build_routing_scheme(G: WeightedGraph, h: int, k: int, epsilon: float,
                         seed: int = 0) -> RoutingScheme:
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must be in (0,1)")
    coarse = build_coarse_labeling(G, h, k)
    inner, omegas = _scale_structures(G, coarse, h, k, epsilon, "routing", seed)
    B, stretch = _final_constants(coarse.t_coarse, coarse.beta_hops, k, epsilon)
    return RoutingScheme(G, h, k, epsilon, coarse, inner, omegas, B, stretch)


def route(S: RoutingScheme, u: int, v: int) -> RouteResult:
    """Simulated delivery: the source picks the scale from coarse labels,
    attaches it to the header, and per-hop forwarding uses only the current
    node's scale table plus the header."""
    if u == v:
        return RouteResult(True, (u,), None, 0.0, 0.0, (u,))
    est = S.coarse.query(u, v)
    if is_inf(est):
        return RouteResult(False, (u,), None, 0.0, 0.0, (u,))
    i = _scale_of(est)
    got = tz.route(S.inner[i], u, v)
    if got is None:
        return RouteResult(False, (u,), i, 0.0, 0.0, (u,))
    path, reads = got
    w_base = sum(S.G.edge_weight(a, b) for a, b in zip(path, path[1:]))
    w_aux = w_base + S.omegas[i] * (len(path) - 1)
    return RouteResult(True, tuple(path), i, w_base, w_aux, tuple(reads))
