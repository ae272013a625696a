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

from .graph_core import INFINITY, WeightedGraph, is_inf
from .ramsey import (ClusterTriple, Measure, _check_measure, _shared_rows,
                     alt_levels, alt_rule, finite_graph, measure_of, standard_rule)
from .ultrametric import Ultrametric, saturate_labels, ultra_distance


@dataclass
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
                        h: int, k: int, scale_i: int) -> ClusterTriple:
    """Carve a cluster triple from G[Y]; the measure condition guarantees the
    path-distortion recursion can always charge a 1/3-2/3 split."""
    if not Y:
        raise ValueError("Y must be nonempty")
    # every vertex is marked; Y itself, not a copy, keeps the order in which
    # mu(Y) is summed, and that float sum feeds tolerance comparisons
    return standard_rule(G, Y, Y, mu, h, k, k + 1, scale_i, True)


def clan_create_cluster_alt(G: WeightedGraph, Y: Set[int], mu: Measure,
                            h: int, k: int, scale_i: int) -> ClusterTriple:
    """Alternative rule; non-trivial outer clusters hold at most half of mu(Y)."""
    if not Y:
        raise ValueError("Y must be nonempty")
    return alt_rule(G, Y, Y, mu, h, k, scale_i,
                    lambda: clan_create_cluster(G, Y, mu, h, k, scale_i))


def clan_cover(G: WeightedGraph, X: Set[int], mu: Measure, h: int, k: int,
               scale_i: int, variant: str = "standard") -> List[ClusterTriple]:
    """Iteratively carve triples; only inner clusters are removed, so outer
    clusters cover X (with overlaps) while inner clusters partition it."""
    if not X:
        raise ValueError("X must be nonempty")
    carve = clan_create_cluster if variant == "standard" else clan_create_cluster_alt
    Y = set(X)
    out: List[ClusterTriple] = []
    while Y:
        trip = carve(G, Y, mu, h, k, scale_i)
        out.append(trip)
        if not trip.inner:
            raise AssertionError("empty inner cluster would not make progress")
        Y -= trip.inner
    return out


def _join_with_maps(children: List[Tuple[Ultrametric, Dict[int, int]]],
                    label: float) -> Tuple[Ultrametric, List[Dict[int, int]]]:
    """join_under_root that also remaps per-child node-id dictionaries."""
    from .ultrametric import join_under_root

    U = join_under_root([c for c, _ in children], label)
    offsets = []
    off = 1
    for c, _ in children:
        offsets.append(off)
        off += len(c.parent)
    remapped = [{key: offsets[idx] + node for key, node in mp.items()}
                for idx, (_, mp) in enumerate(children)]
    return U, remapped


def clan_embed(G: WeightedGraph, mu: Measure, h: int, k: int,
               variant: str = "standard") -> ClanEmbedding:
    """Build the clan embedding of G; leaves are vertex copies."""
    if variant not in ("standard", "alt"):
        raise ValueError(f"unknown variant {variant!r}")
    _check_measure(mu, G.n)
    Gw, omega, diam = finite_graph(G, h, k)
    if G.n == 1:
        U = Ultrametric.leaf(0)
        return ClanEmbedding(U, {0: (0,)}, {0: 0}, 16.0 * (k + 1), 1, h, k,
                             variant, 0, omega, 16.0 * (k + 1))
    phi = max(0, math.ceil(math.log2(diam)))

    def recurse(X: Set[int], i: int) -> Tuple[Ultrametric, Dict[int, int]]:
        """Returns (U, chi) where chi maps vertex -> chief leaf node id."""
        if len(X) == 1:
            v = next(iter(X))
            return Ultrametric.leaf(v), {v: 0}
        if i < 0:
            raise AssertionError("scale exhausted with a non-singleton cluster")
        cover = clan_cover(Gw, X, mu, h, k, i, variant)
        if len(cover) == 1:
            return recurse(set(cover[0].outer), i - 1)
        subs = [recurse(set(trip.outer), i - 1) for trip in cover]
        U, chis = _join_with_maps(list(subs), 2.0 ** i)
        chi: Dict[int, int] = {}
        for z in X:
            for q, trip in enumerate(cover):
                if z in trip.mid:
                    chi[z] = chis[q][z]
                    break
            else:
                raise AssertionError(f"vertex {z} not in any mid cluster")
        return U, chi

    U, chi = recurse(set(range(G.n)), phi)
    if omega is not None:
        U = saturate_labels(U, omega)
    f: Dict[int, List[int]] = {v: [] for v in range(G.n)}
    for leaf in U.leaves():
        f[U.payload[leaf]].append(leaf)
    fmap = {v: tuple(sorted(c)) for v, c in f.items()}
    for v in range(G.n):
        if not fmap[v] or chi[v] not in fmap[v]:
            raise AssertionError("chief must be one of the vertex's copies")
    muV = measure_of(mu, range(G.n))
    if variant == "standard":
        t = 16.0 * (k + 1)
        beta = 2 * (phi + 1) * 2 * (k + 1)
        path_t = 2.0 * 8.0 * (k + 1) * max(1.0, math.log(muV) / math.log(1.5))
    else:
        L_top = alt_levels(muV)
        t = 16.0 * (k + 1) * L_top
        beta = 4 * k * L_top
        path_t = 2.0 * 8.0 * (k + 1) * L_top * max(1.0, math.log(muV) / math.log(1.5))
    # weighted clan-size guarantee, asserted on every run
    weighted = sum(mu[v] * len(fmap[v]) for v in range(G.n))
    bound = muV ** (1.0 + 1.0 / k)
    if weighted > bound * (1.0 + 1e-9):
        raise AssertionError(f"clan size bound violated: {weighted} > {bound}")
    return ClanEmbedding(U, fmap, chi, t, beta, h, k, variant, phi, omega, path_t)


def optimal_path_copies(emb: ClanEmbedding, P: Sequence[int]) -> Tuple[List[int], float]:
    """Minimum-cost copy assignment along a vertex path, by layered DP.

    Returns (copy sequence as leaf node ids, total ultrametric cost).
    """
    if not P:
        raise ValueError("path must be nonempty")
    layers = [list(emb.f[v]) for v in P]
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


@_shared_rows()
def clan_distribution(G: WeightedGraph, h: int, mode: str, rounds: int,
                      k: int = 2, epsilon: float = 0.5,
                      variant: str = "standard") -> List[Tuple[ClanEmbedding, float]]:
    """Multiplicative-weights distribution over clan embeddings.

    mode "fixed_k": expected clan size O(n^{1/k}) per vertex;
    mode "expected": expected clan size <= 1+epsilon per vertex.
    The rounds share bounded-hop rows (see ``ramsey._shared_rows``).
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    n = G.n
    if mode == "fixed_k":
        kk = k
    elif mode == "expected":
        kk = max(1, math.ceil(math.log(2 * n) / math.log(1.0 + epsilon / 2.0)))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    eta = 0.5 / math.sqrt(rounds)
    weights = [1.0] * n
    out: List[Tuple[ClanEmbedding, float]] = []
    for _ in range(rounds):
        mu = clan_mwu_measure(weights)
        emb = clan_embed(G, mu, h, kk, variant)
        out.append((emb, 1.0 / rounds))
        for v in range(n):
            weights[v] *= (1.0 + eta) ** (len(emb.f[v]) - 1)
    return out
