"""Randomized sparse covers by geometric-radius ball growing.

Clusters are balls of geometric random radius grown in the remaining induced
subgraph; only the interior (radius one step smaller) is removed, so nearby
pairs always end up co-clustered while each vertex joins O(1) clusters in
expectation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

from .graph_core import WeightedGraph, dijkstra
from .rng import substream


@dataclass(frozen=True)
class SparseCover:
    clusters: Tuple[Tuple[FrozenSet[int], int, int], ...]  # (vertices, center, radius)
    attempts: int
    delta: float

    def multiplicity(self, v: int) -> int:
        return sum(1 for C, _, _ in self.clusters if v in C)

    def cluster_cost(self, mu_edge: Dict[Tuple[int, int], float]) -> float:
        """Sum over clusters of the cost of edges internal to the cluster."""
        total = 0.0
        for C, _, _ in self.clusters:
            for (u, v), c in mu_edge.items():
                if u in C and v in C:
                    total += c
        return total


def edge_costs(G: WeightedGraph) -> Dict[Tuple[int, int], float]:
    """Default per-edge cost map: the edge weights themselves."""
    return {(u, v): w for u, v, w in G.edges}


def _geometric(rng) -> int:
    """Value i >= 1 with probability 2^{-i}, by inverse CDF."""
    u = rng.random()
    return max(1, math.ceil(-math.log2(1.0 - u)))


def sparse_cover(G: WeightedGraph, delta: float, seed: int = 0) -> SparseCover:
    """Cover of G such that every pair with d_G(u, v) <= delta shares a
    cluster, and every cluster has radius <= delta * log2(2n) from its center
    in its own induced subgraph.  Restarts with a fresh stream until all drawn
    radii are at most log2(2n)."""
    if not 0 < delta < math.inf:
        raise ValueError("delta must be positive and finite")
    n = G.n
    rmax = math.log2(2 * n)
    attempt = 0
    while True:
        attempt += 1
        rng = substream(seed, f"sparse-cover-{attempt}")
        Y = set(range(n))
        clusters: List[Tuple[FrozenSet[int], int, int]] = []
        psi = True
        while Y:
            x = min(Y)
            r = _geometric(rng)
            if r > rmax:
                psi = False
            dist = dijkstra(G.adj, x, Y, r * delta)
            C = frozenset(u for u, d in enumerate(dist) if d <= r * delta + 1e-12)
            interior = {u for u, d in enumerate(dist) if d <= (r - 1) * delta + 1e-12}
            clusters.append((C, x, r))
            Y -= interior
        if psi:
            return SparseCover(tuple(clusters), attempt, delta)
