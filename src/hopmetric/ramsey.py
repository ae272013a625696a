"""Hop-constrained Ramsey-type embeddings into ultrametrics.

Implements the recursive embedding (scale-descending padded partitions with
cluster carving), the log-log alternative cluster rule, and the
multiplicative-weights builder for distributions with per-vertex inclusion
guarantees.  The clan embedding carves with the same two rules.
"""
from __future__ import annotations

import math
from array import array
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import (Callable, Dict, FrozenSet, Iterator, List, Optional,
                    Sequence, Set, Tuple)

from .graph_core import (WeightedGraph, finite_completion, hop_diameter,
                         hop_profile, is_inf)
from .ultrametric import Ultrametric, join_under_root, saturate_labels

_REL_TOL = 1e-12

Measure = Sequence[float]


def measure_of(mu: Measure, S) -> float:
    return sum(mu[v] for v in S)


@dataclass(frozen=True)
class ClusterTriple:
    inner: FrozenSet[int]
    mid: FrozenSet[int]
    outer: FrozenSet[int]
    center: int
    index: int

    def __post_init__(self):
        if not (self.inner <= self.mid <= self.outer):
            raise ValueError("cluster triple must be nested")


@dataclass
class RamseyEmbedding:
    U: Ultrametric
    M: FrozenSet[int]
    t: float
    beta: int          # domination holds at hop budget beta*h
    h: int
    k: int
    variant: str
    phi: int
    omega: Optional[float]   # infinity-transform edge weight, if applied
    max_j: int               # largest cluster index observed

    def leaf_of(self) -> Dict[int, int]:
        return self.U.leaf_index()


def _check_measure(mu: Measure, n: int) -> None:
    if len(mu) != n:
        raise ValueError(f"measure has {len(mu)} entries for {n} vertices")
    if any(m < 1.0 - 1e-12 for m in mu):
        raise ValueError("measure must be >= 1 on every vertex")


# -- rows shared by the embeddings of one build -----------------------------

_Rows = Dict[Tuple[int, int], Tuple[float, array]]   # (budget, source) -> (R, row)


class _BuildMemo:
    """Finite completions by (G, h, k) and row tables by (graph, Y)."""
    __slots__ = ("graphs", "rows")

    def __init__(self) -> None:
        self.graphs: Dict[Tuple[WeightedGraph, int, int], tuple] = {}
        self.rows: Dict[Tuple[WeightedGraph, FrozenSet[int]], _Rows] = {}


_MEMO: ContextVar[Optional[_BuildMemo]] = ContextVar("hopmetric_build_memo",
                                                     default=None)


@contextmanager
def _shared_rows() -> Iterator[None]:
    """Share finite completions and bounded-hop rows across the embeddings
    of one multi-embedding build; re-entrant, released when the outermost
    scope exits.

    The rounds of a distribution embed the same graph again and again, and
    only the choice of centers depends on the measure, so most carvings ask
    for rows an earlier round already computed.  A row is keyed by (finite
    graph, vertex set Y, budget b, source s) and kept with the radius R it
    was pruned at; a request with maxr = r <= R is served from it.  This is
    exact: weights are positive and float addition is monotone, so no prefix
    of a walk weighs more than the walk, and pruning at R only turns the
    entries above R + 1e-12 into infinity.  Hence the row pruned at R equals
    the row pruned at r on every entry <= r + 1e-12.  Every reader compares
    entries only against a radius no larger than the maxr it asked for
    (``_ball`` in both rules, ``_bounded_diam_at_most``), so it cannot tell
    a served row from a fresh one.

    Single ``ramsey_embed`` and ``clan_embed`` calls open no scope: the
    carvings of one embedding rarely repeat a request, so there the rows
    would only cost memory.
    """
    if _MEMO.get() is not None:
        yield
        return
    token = _MEMO.set(_BuildMemo())
    try:
        yield
    finally:
        _MEMO.reset(token)


def _rows_of(G: WeightedGraph, Y: Set[int]) -> Optional[_Rows]:
    """The shared rows of G[Y], or None outside a build scope."""
    memo = _MEMO.get()
    if memo is None:
        return None
    return memo.rows.setdefault((G, frozenset(Y)), {})


def _profile(rows: Optional[_Rows], G: WeightedGraph, s: int,
             budgets: Sequence[int], maxr: float,
             allowed: List[int]) -> Dict[int, Sequence[float]]:
    """hop_profile(G, s, budgets, maxr, allowed), served from ``rows`` where
    a stored row was pruned at a radius >= maxr (see ``_shared_rows``)."""
    if rows is None:
        return hop_profile(G, s, budgets, maxr=maxr, allowed=allowed)
    out: Dict[int, Sequence[float]] = {}
    missing = []
    for b in budgets:
        hit = rows.get((b, s))
        if hit is not None and maxr <= hit[0]:
            out[b] = hit[1]
        else:
            missing.append(b)
    if missing:
        for b, row in hop_profile(G, s, missing, maxr=maxr, allowed=allowed).items():
            rows[(b, s)] = (maxr, array("d", row))
            out[b] = row
    return out


def _ball(dist: Sequence[float], allowed: List[int], r: float) -> FrozenSet[int]:
    return frozenset(u for u in allowed if dist[u] <= r + _REL_TOL)


def _marked_measure(mu: Measure, B: FrozenSet[int], MY: Set[int]) -> float:
    return sum(mu[u] for u in B if u in MY)


def _live_marks(Y: Set[int], M: Set[int]) -> Set[int]:
    MY = M & Y
    if not MY:
        raise ValueError("marked set must intersect Y")
    return MY


def standard_rule(G: WeightedGraph, Y: Set[int], MY: Set[int], mu: Measure,
                  h: int, k: int, k_geom: int, scale_i: int,
                  split: bool) -> ClusterTriple:
    """Carve a cluster triple from G[Y] around a max-marked-ball center.

    Balls count the measure of the marked set MY, a subset of Y.  ``k_geom``
    (k for Ramsey, k+1 for clan) sets the geometry: 2*k_geom+1 nested balls
    whose radii step by 2^i/(16*k_geom) and whose hop budgets step by h from
    i*2*k_geom*h.  The ratio exponent stays 1/k.  With ``split`` the triple
    must also allow a 1/3-2/3 split of mu(MY).
    """
    r0 = 2.0 ** (scale_i - 3)
    rho = 2.0 ** scale_i / (16.0 * k_geom)
    b0 = scale_i * 2 * k_geom * h if scale_i > 0 else 0
    allowed = sorted(Y)
    rows = _rows_of(G, Y)
    best_v, best_m = -1, -1.0
    for v in allowed:
        prof = _profile(rows, G, v, [b0], r0, allowed)
        m = _marked_measure(mu, _ball(prof[b0], allowed, r0), MY)
        if m > best_m + _REL_TOL:
            best_v, best_m = v, m
    v = best_v
    nb = 2 * k_geom
    prof = _profile(rows, G, v, [b0 + j * h for j in range(nb + 1)],
                    r0 + nb * rho, allowed)
    A = [_ball(prof[b0 + j * h], allowed, r0 + j * rho) for j in range(nb + 1)]
    muA = [_marked_measure(mu, A[j], MY) for j in range(nb + 1)]
    muM = measure_of(mu, MY)
    target = (muA[nb] / muA[0]) ** (1.0 / k)
    for j in range(nb - 1):
        ratio_ok = muA[j + 2] <= muA[j] * target * (1.0 + 1e-9)
        split_ok = (not split or muA[j] > muM / 3.0 + _REL_TOL
                    or muA[j + 2] <= 2.0 * muM / 3.0 + _REL_TOL)
        if ratio_ok and split_ok:
            return ClusterTriple(A[j], A[j + 1], A[j + 2], v, j)
    raise AssertionError(f"no admissible cluster index j <= {nb - 2}")


def alt_rule(G: WeightedGraph, Y: Set[int], MY: Set[int], mu: Measure,
             h: int, k: int, scale_i: int,
             fallback: Callable[[], ClusterTriple]) -> ClusterTriple:
    """Alternative cluster rule: hop budget independent of the scale count.

    ``fallback`` runs the caller's standard rule when the trivial return
    cannot be certified.
    """
    muM = measure_of(mu, MY)
    L = alt_levels(muM)
    delta = 2.0 ** scale_i
    allowed = sorted(Y)
    rows = _rows_of(G, Y)
    bball = 2 * k * L * h
    best_v, best_m = -1, math.inf
    for v in sorted(MY):
        prof = _profile(rows, G, v, [bball], delta / 4.0, allowed)
        m = _marked_measure(mu, _ball(prof[bball], allowed, delta / 4.0), MY)
        if m < best_m - _REL_TOL:
            best_v, best_m = v, m
    v = best_v
    if best_m > 0.5 * muM + _REL_TOL:
        # trivial return claims diam^{(4kLh)}(G[Y]) <= delta/2; certify it,
        # since far-away unmarked vertices can break the claim, in which
        # case the scale-bounded rule still guarantees progress
        if _bounded_diam_at_most(rows, G, allowed, 2 * bball, delta / 2.0):
            X = frozenset(Y)
            return ClusterTriple(X, X, X, v, 0)
        return fallback()

    def budget(a: int, j: int) -> int:
        return (2 * k * a + j) * h

    budgets = sorted({budget(a, j) for a in range(L + 1) for j in range(2 * k + 1)})
    prof = _profile(rows, G, v, budgets, delta / 4.0 + _REL_TOL, allowed)

    def A(a: int, j: int) -> FrozenSet[int]:
        return _ball(prof[budget(a, j)], allowed, (a + j / (2.0 * k)) * delta / (4.0 * L))

    def muA(a: int, j: int) -> float:
        return _marked_measure(mu, A(a, j), MY)

    a_sel = -1
    for a in range(L):
        if muA(a, 0) >= muA(a + 1, 0) ** 2 / muM * (1.0 - 1e-9):
            a_sel = a
            break
    if a_sel < 0:
        raise AssertionError("no admissible level index a")  # impossible: the
        # trivial-return branch would have fired first
    a = a_sel
    target = (muA(a + 1, 0) / muA(a, 0)) ** (1.0 / k)
    for j in range(2 * (k - 1) + 1):
        if muA(a, j + 2) <= muA(a, j) * target * (1.0 + 1e-9):
            return ClusterTriple(A(a, j), A(a, j + 1), A(a, j + 2), v, j)
    raise AssertionError("no admissible cluster index j <= 2(k-1)")


def create_cluster(G: WeightedGraph, Y: Set[int], M: Set[int], mu: Measure,
                   h: int, k: int, scale_i: int) -> ClusterTriple:
    """Carve a cluster triple from G[Y] around a max-marked-ball center."""
    return standard_rule(G, Y, _live_marks(Y, M), mu, h, k, k, scale_i, False)


def create_cluster_alt(G: WeightedGraph, Y: Set[int], M: Set[int], mu: Measure,
                       h: int, k: int, scale_i: int) -> ClusterTriple:
    """Alternative cluster rule: hop budget independent of the scale count."""
    return alt_rule(G, Y, _live_marks(Y, M), mu, h, k, scale_i,
                    lambda: create_cluster(G, Y, M, mu, h, k, scale_i))


def _bounded_diam_at_most(rows: Optional[_Rows], G: WeightedGraph,
                          allowed: List[int], budget: int, bound: float) -> bool:
    for s in allowed:
        prof = _profile(rows, G, s, [budget], bound, allowed)
        d = prof[budget]
        if any(d[u] > bound + _REL_TOL for u in allowed):
            return False
    return True


def finite_graph(G: WeightedGraph, h: int,
                 k: int) -> Tuple[WeightedGraph, Optional[float], float]:
    """(graph, omega, h-hop diameter): G itself with omega None, or its finite
    completion when some pair has no h-hop path, whose h-hop diameter is
    omega (see ``finite_completion``).  Memoized inside a build scope, so
    every round of a distribution carves the same graph object."""
    memo = _MEMO.get()
    if memo is not None and (G, h, k) in memo.graphs:
        return memo.graphs[(G, h, k)]
    diam = hop_diameter(G, h)
    if not is_inf(diam):
        out = G, None, diam
    else:
        Gw, omega = finite_completion(G, h, k)
        out = Gw, omega, omega
    if memo is not None:
        memo.graphs[(G, h, k)] = out
    return out


def alt_levels(mu_total: float) -> int:
    """L = ceil(1 + log2 log2 mu), floored at 1."""
    if mu_total <= 2.0:
        return 1
    return max(1, math.ceil(1.0 + math.log2(math.log2(mu_total))))


def padded_partition(G: WeightedGraph, X: Set[int], mu: Measure, M: Set[int],
                     h: int, k: int, scale_i: int,
                     variant: str = "standard",
                     stats: Optional[dict] = None) -> List[Tuple[FrozenSet[int], FrozenSet[int]]]:
    """Partition X into clusters with nested marked subsets.

    Returns [(cluster, marked-subset)] in creation order; once the live
    marked set empties, the remaining vertices become singleton clusters.
    """
    if not X:
        raise ValueError("X must be nonempty")
    carve = create_cluster if variant == "standard" else create_cluster_alt
    Y = set(X)
    MY = set(M) & Y
    out: List[Tuple[FrozenSet[int], FrozenSet[int]]] = []
    while Y:
        if not MY:
            for v in sorted(Y):
                out.append((frozenset([v]), frozenset()))
            break
        trip = carve(G, Y, MY, mu, h, k, scale_i)
        if stats is not None:
            stats.setdefault("j_values", []).append(trip.index)
        cluster = trip.mid & Y
        out.append((frozenset(cluster), frozenset(MY & trip.inner)))
        Y -= cluster
        MY -= trip.outer
        MY &= Y
    return out


def ramsey_embed(G: WeightedGraph, mu: Measure, M0: Set[int], h: int, k: int,
                 variant: str = "standard") -> RamseyEmbedding:
    """Build the full Ramsey-type embedding of G (all vertices as leaves)."""
    if variant not in ("standard", "alt"):
        raise ValueError(f"unknown variant {variant!r}")
    _check_measure(mu, G.n)
    M0 = set(M0)
    Gw, omega, diam = finite_graph(G, h, k)
    if G.n == 1 or diam == 0.0:
        U = Ultrametric.leaf(0) if G.n == 1 else None
        if U is None:
            raise AssertionError("distinct vertices at distance 0")
        return RamseyEmbedding(U, frozenset(M0), 16.0 * k, 1, h, k, variant,
                               0, omega, 0)
    phi = max(0, math.ceil(math.log2(diam)))
    stats: dict = {}

    def recurse(X: Set[int], M: Set[int], i: int) -> Tuple[Ultrametric, Set[int]]:
        if len(X) == 1:
            v = next(iter(X))
            return Ultrametric.leaf(v), set(M) & X
        if i < 0:
            raise AssertionError("scale exhausted with a non-singleton cluster")
        parts = padded_partition(Gw, X, mu, M, h, k, i, variant, stats=stats)
        subs: List[Ultrametric] = []
        survivors: Set[int] = set()
        for cluster, marked in parts:
            Uq, Sq = recurse(set(cluster), set(marked), i - 1)
            subs.append(Uq)
            survivors |= Sq
        if len(subs) == 1:
            return subs[0], survivors
        return join_under_root(subs, 2.0 ** i), survivors

    U, M = recurse(set(range(G.n)), M0, phi)
    if omega is not None:
        U = saturate_labels(U, omega)
    if variant == "standard":
        t = 16.0 * k
        beta = 2 * (phi + 2) * 2 * k
    else:
        L_top = alt_levels(measure_of(mu, M0) if M0 else measure_of(mu, range(G.n)))
        t = 16.0 * k * L_top
        beta = 4 * k * L_top
    max_j = max(stats.get("j_values", [0]))
    emb = RamseyEmbedding(U, frozenset(M), t, beta, h, k, variant, phi, omega, max_j)
    # measure survival guarantee, asserted on every run
    if M0:
        surv = measure_of(mu, M)
        need = measure_of(mu, M0) ** (1.0 - 1.0 / k)
        if surv < need - 1e-6:
            raise AssertionError(f"measure survival violated: {surv} < {need}")
    return emb


def mwu_measures(weights: Sequence[float], k: int) -> List[float]:
    """Scale MWU weights to the mixed (>=1)-measure used each round."""
    n = len(weights)
    total = sum(weights)
    delta = (k + 1) ** (-(k + 1) / k)
    s = n ** (1.0 / k) / delta
    return [s * n * (1.0 / (s * n) + (s - 1.0) / s * (w / total)) for w in weights]


@_shared_rows()
def ramsey_distribution(G: WeightedGraph, h: int, mode: str, rounds: int,
                        k: int = 2, epsilon: float = 0.25,
                        variant: str = "standard") -> List[Tuple[RamseyEmbedding, float]]:
    """Multiplicative-weights distribution over Ramsey embeddings.

    mode "fixed_k": per-vertex inclusion probability Omega(n^{-1/k});
    mode "inclusion": k is derived from epsilon and inclusion >= 1-epsilon.
    The rounds share bounded-hop rows (see ``_shared_rows``).
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    n = G.n
    if mode == "fixed_k":
        kk = k
    elif mode == "inclusion":
        kk = max(1, math.ceil(4.0 * math.log(n) / epsilon)) if n > 1 else 1
    else:
        raise ValueError(f"unknown mode {mode!r}")
    eta = 0.5 / math.sqrt(rounds)
    weights = [1.0] * n
    out: List[Tuple[RamseyEmbedding, float]] = []
    for _ in range(rounds):
        mu = mwu_measures(weights, kk)
        emb = ramsey_embed(G, mu, set(range(n)), h, kk + 1, variant)
        out.append((emb, 1.0 / rounds))
        for v in range(n):
            if v not in emb.M:
                weights[v] *= 1.0 + eta
    return out
