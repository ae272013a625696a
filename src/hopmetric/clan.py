"""Hop-constrained clan embeddings: one-to-many embeddings into ultrametrics
with a designated chief copy per vertex.

Built from scale-descending covers whose inner clusters partition the
current set while outer clusters overlap; boundary vertices get duplicated
instead of unmarked.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .graph_core import INFINITY, HopParams, WeightedGraph, is_inf, vertex_id
from .ramsey import (ClusterTriple, Measure, _Balls, _checked_carve_set,
                     _constants, _embed_setup, _mwu_rounds, _scale_tree,
                     alt_rule, measure_of, standard_rule)
from .ultrametric import Ultrametric, ultra_distance


@dataclass(frozen=True)
class ClanEmbedding:
    U: Ultrametric
    f: Dict[int, Tuple[int, ...]]    # vertex -> leaf node ids (the clan)
    chi: Dict[int, int]              # vertex -> chief leaf node id
    t: float
    beta: int                        # min-over-copies domination at budget beta*h
    h: int
    k: int
    variant: str
    phi: int
    omega: Optional[float]
    path_t: float                    # asserted hop-path-distortion bound

    def clan_size(self) -> int:
        return sum(len(c) for c in self.f.values())

    def min_copy_distance(self, u: int, v: int) -> float:
        best = INFINITY
        for a in self.f[u]:
            for b in self.f[v]:
                d = ultra_distance(self.U, a, b)
                if d < best:
                    best = d
        return best

    def chief_distance(self, u: int, v: int) -> float:
        """min over v' in f(v) of d_U(v', chi(u))."""
        cu = self.chi[u]
        best = INFINITY
        for b in self.f[v]:
            d = ultra_distance(self.U, b, cu)
            if d < best:
                best = d
        return best


def clan_create_cluster(G: WeightedGraph, Y: Set[int], mu: Measure,
                        h: int, k: int, scale_i: int,
                        balls: Optional[_Balls] = None) -> ClusterTriple:
    """Carve a cluster triple from G[Y]; the measure condition guarantees the
    path-distortion recursion can always charge a 1/3-2/3 split.

    ``balls`` is the table of the calling cover, which checked the
    arguments once; a standalone call checks them and starts a fresh one.
    """
    if balls is None:
        (Y, h, k), balls = _checked_carve_set(G, Y, mu, h, k, "standard"), _Balls()
    # every vertex is marked
    return standard_rule(G, Y, Y, mu, h, k, k + 1, scale_i, True,
                         balls)


def clan_create_cluster_alt(G: WeightedGraph, Y: Set[int], mu: Measure,
                            h: int, k: int, scale_i: int,
                            balls: Optional[_Balls] = None) -> ClusterTriple:
    """Alternative rule; non-trivial outer clusters hold at most half of mu(Y).
    A standalone call checks its arguments, as ``clan_create_cluster`` does."""
    if balls is None:
        (Y, h, k), balls = _checked_carve_set(G, Y, mu, h, k, "alt"), _Balls()
    return alt_rule(G, Y, Y, mu, h, k, scale_i, balls,
                    lambda: clan_create_cluster(G, Y, mu, h, k, scale_i, balls))


def clan_cover(G: WeightedGraph, X: Set[int], mu: Measure, h: int, k: int,
               scale_i: int, variant: str = "standard",
               balls: Optional[_Balls] = None) -> List[ClusterTriple]:
    """Iteratively carve triples; only inner clusters are removed, so outer
    clusters cover X (with overlaps) while inner clusters partition it.
    The carvings share one ball table (see ``ramsey._Balls``): ``balls``,
    which may hold rows of G[X], or a fresh one."""
    Y, h, k = _checked_carve_set(G, X, mu, h, k, variant)
    carve = clan_create_cluster if variant == "standard" else clan_create_cluster_alt
    balls = balls or _Balls()
    out: List[ClusterTriple] = []
    while Y:
        trip = carve(G, Y, mu, h, k, scale_i, balls)
        out.append(trip)
        if not trip.inner:
            raise AssertionError("empty inner cluster would not make progress")
        Y -= trip.inner
        # every vertex of Y is marked, so only removed vertices lose a mark;
        # an inner cluster of all of Y makes outer = Y the last cluster, and
        # the rows of G[Y] carry to its next scale
        balls.carved(G, Y, trip.inner, frozenset())
    return out


def clan_embed(G: WeightedGraph, mu: Measure, h: int, k: int,
               variant: str = "standard") -> ClanEmbedding:
    """Build the clan embedding of G; leaves are vertex copies."""
    h, k, Gw, omega, phi = _embed_setup(G, mu, h, k, variant)
    copies: Dict[int, List[int]] = {v: [] for v in range(G.n)}
    chi: Dict[int, int] = {}

    def split(X, chiefs, i, balls):
        """Outer clusters; each chief goes to the first mid cluster holding it."""
        cover = clan_cover(Gw, X, mu, h, k, i, variant, balls)
        if len(cover) == 1:
            return [(set(cover[0].outer), chiefs)]
        owned: List[Set[int]] = [set() for _ in cover]
        for z in chiefs:   # a chief in no mid cluster fails the chief check
            for own, trip in zip(owned, cover):
                if z in trip.mid:
                    own.add(z)
                    break
        return [(set(trip.outer), own) for trip, own in zip(cover, owned)]

    def at_leaf(leaf, v, chiefs):   # leaf ids ascend
        copies[v].append(leaf)
        if v in chiefs:
            chi[v] = leaf

    U = _scale_tree(G.n, phi, omega, set(range(G.n)), split, at_leaf)
    f = {v: tuple(c) for v, c in copies.items()}
    for v in range(G.n):
        if chi.get(v) not in f[v]:
            raise AssertionError("chief must be one of the vertex's copies")
    muV = measure_of(mu, range(G.n))
    t, beta, path_t = _constants("clan", variant, G.n, k, phi, muV)
    # weighted clan-size guarantee, asserted on every run
    weighted = sum(mu[v] * len(f[v]) for v in range(G.n))
    bound = muV ** (1.0 + 1.0 / k)
    if weighted > bound * (1.0 + 1e-9):
        raise AssertionError(f"clan size bound violated: {weighted} > {bound}")
    return ClanEmbedding(U, f, chi, t, beta, h, k, variant, phi, omega, path_t)


def optimal_path_copies(emb: ClanEmbedding, P: Sequence[int]) -> Tuple[List[int], float]:
    """Minimum-cost copy assignment along a vertex path, by layered DP.

    Returns (copy sequence as leaf node ids, total ultrametric cost).
    """
    if not P:
        raise ValueError("path must be nonempty")
    layers = [list(emb.f[vertex_id(v, len(emb.f))]) for v in P]
    cost: List[Dict[int, float]] = [{c: 0.0 for c in layers[0]}]
    back: List[Dict[int, int]] = [{}]
    for idx in range(1, len(layers)):
        cur: Dict[int, float] = {}
        bk: Dict[int, int] = {}
        for c in layers[idx]:
            best, arg = None, None
            for p in layers[idx - 1]:
                base = cost[idx - 1][p]
                if base == math.inf:
                    continue
                d = ultra_distance(emb.U, p, c)
                if is_inf(d):
                    continue
                val = base + d
                if best is None or val < best:
                    best, arg = val, p
            cur[c] = best if best is not None else math.inf
            if arg is not None:
                bk[c] = arg
        cost.append(cur)
        back.append(bk)
    last = min(cost[-1], key=lambda c: cost[-1][c])
    total = cost[-1][last]
    if total == math.inf:
        raise ValueError("no finite copy assignment exists for this path")
    seq = [last]
    for idx in range(len(layers) - 1, 0, -1):
        seq.append(back[idx][seq[-1]])
    seq.reverse()
    return seq, total


def clan_mwu_measure(weights: Sequence[float]) -> List[float]:
    """(>=1)-measure from MWU weights: 2n * (1/(2n) + mu(x)/2)."""
    n = len(weights)
    total = sum(weights)
    return [1.0 + n * (w / total) for w in weights]


def clan_distribution(G: WeightedGraph, h: int, mode: str, rounds: int,
                      k: int = 2, epsilon: float = 0.5,
                      variant: str = "standard") -> List[Tuple[ClanEmbedding, float]]:
    """Multiplicative-weights distribution over clan embeddings.

    mode "fixed_k": expected clan size O(n^{1/k}) per vertex;
    mode "expected": expected clan size <= 1+epsilon per vertex.
    Once a round gives every vertex a single copy the weights cannot move,
    so that embedding fills the remaining rounds as one repeated object
    (see ``ramsey._mwu_rounds``).
    """
    p = HopParams(h, k, epsilon)
    h, k = p.h, p.k
    n = G.n
    if mode == "fixed_k":
        kk = k
    elif mode == "expected":
        kk = max(1, math.ceil(math.log(2 * n) / math.log(1.0 + epsilon / 2.0)))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return _mwu_rounds(n, rounds,
                       lambda w: clan_embed(G, clan_mwu_measure(w), h, kk, variant),
                       lambda emb, v: len(emb.f[v]) - 1)
