"""Hop-constrained distance oracle, distance labeling, and compact routing.

Layered design: a coarse structure built from iterated/sampled Ramsey
embeddings gives a crude estimate of the hop-bounded distance; the estimate
selects a scale; a per-scale auxiliary graph (base weights plus an additive
surcharge that converts hop budgets into weight budgets) carries a classic
stretch-(2k-1) landmark structure that answers the query.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from . import tz
from .graph_core import INFINITY, HopParams, WeightedGraph, is_inf, vertex_id
from .ramsey import (RamseyEmbedding, _check_weights, ramsey_distribution,
                     ramsey_embed)
from .rng import substream
from .ultrametric import Ultrametric

# -- tree labels -----------------------------------------------------------

TreeLabel = Tuple[Tuple[int, float], ...]   # (ancestor id, label) root -> leaf


def build_tree_labels(U: Ultrametric) -> Dict[int, TreeLabel]:
    """Per-leaf root-path labels; distance queries reduce to a prefix walk."""
    out: Dict[int, TreeLabel] = {}
    for leaf in U.leaves():
        out[leaf] = tuple((x, U.label[x]) for x in U.path(U.root, leaf))
    return out


def tree_label_query(lx: TreeLabel, ly: TreeLabel) -> float:
    """Distance between the two leaves: label of the deepest common ancestor.

    Both labels must come from one ultrametric.  Pairing them is the
    caller's job, and every caller in this module reads both from the same
    round of one coarse record.  The check here rejects only labels whose
    root ids differ: every round is built with root 0, so labels from two
    rounds of one record pass it.
    """
    if lx[-1][0] == ly[-1][0]:
        return 0.0
    if lx[0][0] != ly[0][0]:
        raise ValueError(f"labels have different root ids ({lx[0][0]} and "
                         f"{ly[0][0]}), so they come from different ultrametrics")
    p = 0
    for (a, _), (b, _) in zip(lx, ly):
        if a != b:
            break
        p += 1
    return lx[p - 1][1]


def _coarse_estimate(rows_u: Sequence[TreeLabel], home_u: int,
                    rows_v: Sequence[TreeLabel], home_v: int) -> float:
    """min over both home rounds; each side is individually sandwiched.
    Equal homes name one round, walked once."""
    if home_u == home_v:
        return tree_label_query(rows_u[home_u], rows_v[home_u])
    return min(tree_label_query(rows_u[home_u], rows_v[home_u]),
               tree_label_query(rows_u[home_v], rows_v[home_v]))


# -- coarse structures -----------------------------------------------------

@dataclass(frozen=True)
class _CoarseRecord:
    """Tree labels over a sequence of alt-Ramsey rounds: vertex v stores its
    labels in a prefix of the rounds that ends at or after its home round,
    the first round that padded it.  The estimate lies between d^(beta h)
    and t times d^(h)."""
    home: Tuple[int, ...]
    labels: Tuple[Tuple[TreeLabel, ...], ...]   # labels[v][round]
    t_coarse: float
    beta_hops: int

    @classmethod
    def _from_rounds(cls, seq: Sequence[RamseyEmbedding], home: Sequence[int],
                     stored: Sequence[int], *extra):
        """Vertex v keeps its tree labels in the first stored[v] rounds."""
        rounds = [(emb.leaf_of(), build_tree_labels(emb.U)) for emb in seq]
        labels = tuple(tuple(tl[leaf_of[v]] for leaf_of, tl in rounds[:stored[v]])
                       for v in range(len(home)))
        return cls(tuple(home), labels, max(emb.t for emb in seq),
                   max(emb.beta for emb in seq), *extra)

    def size_words(self) -> int:
        return sum(2 * len(l) for row in self.labels for l in row)


@dataclass(frozen=True)
class CoarseLabeling(_CoarseRecord):
    """Asymmetric labeling: iterated alt-Ramsey rounds with uniform measure.

    Long label: tree labels in every round's ultrametric; short label: the
    home round.
    """

    def rounds(self) -> int:
        return len(self.labels[0])

    def query(self, u: int, v: int) -> float:
        return _coarse_estimate(self.labels[u], self.home[u],
                                self.labels[v], self.home[v])


def build_coarse_labeling(G: WeightedGraph, h: int, k: int) -> CoarseLabeling:
    n = G.n
    ones = [1.0] * n
    remaining: Set[int] = set(range(n))
    home = [-1] * n
    seq: List[RamseyEmbedding] = []
    while remaining:
        emb = ramsey_embed(G, ones, set(remaining), h, k, "alt")
        for v in emb.M & remaining:
            home[v] = len(seq)
        remaining -= emb.M
        seq.append(emb)
    return CoarseLabeling._from_rounds(seq, home, [len(seq)] * n)


@dataclass(frozen=True)
class CoarseOracle(_CoarseRecord):
    """Sampled-embedding oracle; each vertex stores labels only up to the
    first sample in which it was padded."""
    attempts: int

    def query(self, u: int, v: int) -> float:
        i = min(self.home[u], self.home[v])
        return tree_label_query(self.labels[u][i], self.labels[v][i])


class CoarseBudgetExceeded(RuntimeError):
    """Every attempt at a coarse oracle stored more labels than its budget."""


_COARSE_ROUNDS = 8   # embeddings in the distribution the coarse oracle samples


def build_coarse_oracle(G: WeightedGraph, h: int, k: int, seed: int = 0,
                        max_attempts: int = 30) -> CoarseOracle:
    """Sample rounds of an alt-Ramsey distribution until every vertex is
    padded.

    Raises CoarseBudgetExceeded when all ``max_attempts`` exceed the size
    budget.
    """
    n = G.n
    dist = ramsey_distribution(G, h, "fixed_k", _COARSE_ROUNDS, k=k, variant="alt")
    incl = [sum(1 for emb, _ in dist if v in emb.M) / len(dist) for v in range(n)]
    # expected stored rounds per vertex is 1/p(v); restart while 4x over budget
    budget = 4.0 * sum(1.0 / p for p in incl if p > 0) + 4.0 * n
    ones = [1.0] * n
    for attempt in range(1, max_attempts + 1):
        rng = substream(seed, f"coarse-oracle-{attempt}")
        seq: List[RamseyEmbedding] = []
        home = [-1] * n
        unhomed = set(range(n))
        while unhomed and len(seq) < 8 * _COARSE_ROUNDS * max(1, math.ceil(n ** (1.0 / k))):
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
        if sum(home[v] + 1 for v in range(n)) <= budget:
            return CoarseOracle._from_rounds(seq, home, [i + 1 for i in home], attempt)
    raise CoarseBudgetExceeded(
        f"coarse oracle size budget exceeded in all {max_attempts} attempts")


# -- auxiliary scale graphs ------------------------------------------------

@dataclass(frozen=True)
class AuxiliaryGraph:
    omega: float
    adj: Tuple[Tuple[Tuple[int, float], ...], ...]


def auxiliary_graph(G: WeightedGraph, i: int, h: int, t_coarse: float,
                    epsilon: float) -> AuxiliaryGraph:
    """Base graph with every edge surcharged by omega_i = (eps/(t*h)) * 2^i."""
    if i < 0:
        raise ValueError("scale index must be >= 0")
    omega = (epsilon / (t_coarse * h)) * 2.0 ** i
    adj = tuple(tuple((v, w + omega) for v, w in row) for row in G.adj)
    return AuxiliaryGraph(omega, adj)


def inner_metric_structure(Gi: AuxiliaryGraph, k: int, mode: str, seed: int = 0,
                           prev=None):
    """Classic hop-free structure on the scale graph (stretch 2k-1); the
    labels serve as the hop oracle's per-scale structure too.  ``prev``,
    the structure of the previous realized scale, lets a routing scheme
    share that scale's unchanged trees (``tz.build_routing``); the result
    is the same without it, and labels ignore it."""
    if mode == "labels":
        return tz.build_labeling(Gi.adj, k, seed)
    if mode == "routing":
        return tz.build_routing(Gi.adj, k, seed, prev)
    raise ValueError(f"unknown mode {mode!r}")


def _scale_of(est: float) -> int:
    return max(0, math.floor(math.log2(est)))


def _split_labels(labels: Sequence[Sequence[TreeLabel]], r: int,
                  H: Set[int], S: Set[int]) -> Set[float]:
    """Labels of the nodes of round r's ultrametric at which some vertex of
    H and some vertex of S pass through different children; H is a subset
    of S, and every vertex of S stores round r."""
    kids: Dict[int, Set[int]] = {}    # node -> children an S-vertex passes
    hit: Dict[int, float] = {}        # internal node an H-vertex passes -> label
    for v in S:
        path = labels[v][r]
        for (x, _), (c, _) in zip(path, path[1:]):
            kids.setdefault(x, set()).add(c)
        if v in H:
            hit.update(path[:-1])
    return {lab for x, lab in hit.items() if len(kids[x]) >= 2}


def _realized_scales(coarse: _CoarseRecord) -> List[int]:
    """The scales _scale_of(coarse.query(u, v)) over all pairs u != v with
    a finite estimate, read off the stored tree labels.

    Round r's tree is built by ``ramsey._scale_tree``: each internal node
    has at least two child subtrees and a label 2^i with i >= 0, or infinity
    once saturated, so every finite internal label is a power of two >= 1
    and _scale_of maps it to its exponent exactly.  A pair answered in round
    r gets the label of its LCA there, so the labels realized in round r are
    those of the nodes x where one vertex of H, the vertices homed at r,
    and one of S, the other vertices answered in round r, pass through
    different children.  With A_x the children H-vertices pass and B_x those
    S-vertices pass, A_x lies within B_x, so that holds iff A_x is nonempty
    and B_x has two children: pick a in A_x and b != a in B_x.

    The oracle answers (u, v) in round min(home u, home v), so S is the
    vertices homed at r or later, and the walk is the whole answer.  The
    labeling takes the least of the LCA labels in both home rounds: a pair
    with one home r gets round r's label (S = H), but a cross-home pair may
    get either round's, so only those pairs are swept, until every scale of
    a finite internal label has been seen."""
    home = coarse.home
    oracle = isinstance(coarse, CoarseOracle)
    labels: Set[float] = set()
    for r in set(home):
        H = {v for v, hv in enumerate(home) if hv == r}
        S = {v for v, hv in enumerate(home) if hv >= r} if oracle else H
        labels |= _split_labels(coarse.labels, r, H, S)
    scales = {_scale_of(lab) for lab in labels if not is_inf(lab)}
    if not oracle:
        candidates = {_scale_of(lab) for row in coarse.labels for path in row
                      for _, lab in path[:-1] if not is_inf(lab)}
        for u, v in itertools.combinations(range(len(home)), 2):
            if scales >= candidates:
                break
            if home[u] != home[v]:
                est = coarse.query(u, v)
                if not is_inf(est):
                    scales.add(_scale_of(est))
    return sorted(scales)


# -- one record for the oracle, labeling and routing scheme ---------------

@dataclass(frozen=True)
class _HopRecord:
    """The hop oracle, labeling and routing scheme: a coarse record picks
    the scale of a query, and the scale's inner structure on the graph
    surcharged by omegas[scale] answers it.  Answers are at least
    d^(hop_budget h) and at most stretch times d^(h)."""
    h: int
    k: int
    epsilon: float
    coarse: _CoarseRecord
    inner: Dict[int, object] = field(hash=False)   # tz.TZLabeling or tz.TZRouting
    omegas: Dict[int, float] = field(hash=False)
    hop_budget: int
    stretch: float

    def size_words(self) -> int:
        return self.coarse.size_words() + sum(s.size_words()
                                              for s in self.inner.values())


def _scale_step(cls, G: WeightedGraph, coarse: _CoarseRecord, h: int, k: int,
                epsilon: float, mode: str, seed: int, *extra):
    """One inner structure per realized scale with the scale's surcharge,
    built in ascending scale order, each from the one before (see
    ``inner_metric_structure``); then the lower-side hop budget B and the
    upper-side stretch."""
    inner: Dict[int, object] = {}
    omegas: Dict[int, float] = {}
    prev = None
    for i in _realized_scales(coarse):
        Gi = auxiliary_graph(G, i, h, coarse.t_coarse, epsilon)
        inner[i] = prev = inner_metric_structure(Gi, k, mode, seed, prev)
        omegas[i] = Gi.omega
    B = max(math.ceil(2.0 * coarse.t_coarse / epsilon), coarse.beta_hops)
    return cls(h, k, epsilon, coarse, inner, omegas, B,
               (2 * k - 1) * (1.0 + epsilon), *extra)


# -- final oracle ----------------------------------------------------------

class HopOracle(_HopRecord):
    """Sampled coarse oracle; a scale's TZ labels answer its queries."""


def build_hop_oracle(G: WeightedGraph, h: int, k: int, epsilon: float,
                     seed: int = 0) -> HopOracle:
    p = HopParams(h, k, epsilon)
    h, k = p.h, p.k
    _check_weights(G)
    return _scale_step(HopOracle, G, build_coarse_oracle(G, h, k, seed), h, k,
                       epsilon, "labels", seed)


def hop_oracle_query(O: HopOracle, u: int, v: int) -> float:
    n = len(O.coarse.home)
    if not (type(u) is type(v) is int and 0 <= u < n and 0 <= v < n):  # ints in range
        u, v = vertex_id(u, n), vertex_id(v, n)                            # skip the call
    if u == v:
        return 0.0
    est = O.coarse.query(u, v)
    if is_inf(est):
        return INFINITY
    L = O.inner[_scale_of(est)]
    return tz.label_query(O.k, L.labels[u], L.labels[v])


# -- final labeling --------------------------------------------------------

@dataclass(frozen=True)
class HopVertexLabel:
    vertex: int
    home: int
    coarse: Tuple[TreeLabel, ...]
    inner: Dict[int, tz.TZLabel] = field(hash=False)


@dataclass(frozen=True)
class HopLabeling(_HopRecord):
    """Coarse labeling plus per-scale TZ labels, split into one label per
    vertex at construction."""
    labels: Tuple[HopVertexLabel, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(
            HopVertexLabel(v, home, self.coarse.labels[v],
                           {i: sl.label(v) for i, sl in self.inner.items()})
            for v, home in enumerate(self.coarse.home)))

    def label(self, v: int) -> HopVertexLabel:
        labels = self.labels
        if not (type(v) is int and 0 <= v < len(labels)):  # ints in range
            v = vertex_id(v, len(labels))                     # skip the call
        return labels[v]


def build_hop_labeling(G: WeightedGraph, h: int, k: int,
                       epsilon: float) -> HopLabeling:
    p = HopParams(h, k, epsilon)
    h, k = p.h, p.k
    _check_weights(G)
    return _scale_step(HopLabeling, G, build_coarse_labeling(G, h, k), h, k,
                       epsilon, "labels", 0)


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
class RoutingScheme(_HopRecord):
    G: WeightedGraph


class RouteResult(NamedTuple):
    delivered: bool
    path: Tuple[int, ...]
    scale: Optional[int]
    weight: float                  # base-graph weight of the delivered path
    weight_aux: float              # weight in the scale graph
    table_reads: Tuple[int, ...]   # node ids whose tables were consulted


def build_routing_scheme(G: WeightedGraph, h: int, k: int, epsilon: float,
                         seed: int = 0) -> RoutingScheme:
    p = HopParams(h, k, epsilon)
    h, k = p.h, p.k
    _check_weights(G)
    return _scale_step(RoutingScheme, G, build_coarse_labeling(G, h, k), h, k,
                       epsilon, "routing", seed, G)


# makes a RouteResult without the Python-level __new__ of a NamedTuple
_new = tuple.__new__


def route(S: RoutingScheme, u: int, v: int) -> RouteResult:
    """Simulated delivery: the source picks the scale from coarse labels,
    attaches it to the header, and per-hop forwarding uses only the current
    node's scale table plus the header.

    The packet is delivered in one pass over its hops (``tz._walk``), which
    adds each hop's base weight from ``G.nbr_weight`` as it goes: ``weight``
    is 0.0 plus the hop weights in path order.  That is the order in which
    ``sum`` adds floats up to Python 3.11, so there ``weight`` equals
    ``sum`` over the path's hop weights bit for bit (the ``sum`` of 3.12
    compensates).  A hop that is not an edge of G raises
    ``KeyError((a, b))`` for the first such pair."""
    n = S.G.n
    if not (type(u) is type(v) is int and 0 <= u < n and 0 <= v < n):  # ints in range
        u, v = vertex_id(u, n), vertex_id(v, n)                            # skip the call
    if u == v:
        return _new(RouteResult, (True, (u,), None, 0.0, 0.0, (u,)))
    est = S.coarse.query(u, v)
    if is_inf(est):
        return _new(RouteResult, (False, (u,), None, 0.0, 0.0, (u,)))
    i = _scale_of(est)
    got = tz._walk(S.inner[i], u, v, S.G.nbr_weight)
    if got is None:
        return _new(RouteResult, (False, (u,), i, 0.0, 0.0, (u,)))
    path, w_base = got
    path = tuple(path)
    return _new(RouteResult, (True, path, i, w_base,
                              w_base + S.omegas[i] * (len(path) - 1),
                              (u,) + path[:-1]))
