"""Frozen input generators and the reference distances the checks use.

Graphs are produced here from the benchmark's seed, independently of the
library's own generators, so a change to the library cannot shift the
inputs.  They reach the library only as JSON text.  The reference
relaxation is a plain synchronous Bellman-Ford, written separately from the
library's frontier relaxation.
"""
from __future__ import annotations

import json
import math
import random
import sys
from array import array
from typing import List, Sequence, Tuple

Adjacency = List[List[Tuple[int, float]]]


def random_weighted_json(n: int, p: float, wmin: float, wmax: float,
                         rng: random.Random) -> str:
    """G(n, p) conditioned on being connected, with weights drawn uniformly
    from [wmin, wmax].  Disconnected draws (an isolated vertex, mostly) are
    redrawn: they take the finite-completion path and cost two to three times
    as much to build, which would make a pool's cost hinge on a coin flip."""
    while True:
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    edges.append([u, v, rng.uniform(wmin, wmax)])
        if _connected(n, edges):
            return json.dumps({"n": n, "edges": edges})


def _connected(n: int, edges) -> bool:
    adj: List[List[int]] = [[] for _ in range(n)]
    for u, v, _ in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, stack = {0}, [0]
    while stack:
        for v in adj[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


def grid_json(rows: int, cols: int) -> str:
    """rows x cols grid with unit weights."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            x = r * cols + c
            if c + 1 < cols:
                edges.append([x, x + 1, 1.0])
            if r + 1 < rows:
                edges.append([x, x + cols, 1.0])
    return json.dumps({"n": rows * cols, "edges": edges})


def reference_adjacency(text: str) -> Adjacency:
    """Adjacency lists with weights scaled so the lightest edge weighs 1,
    the units the library reports distances in."""
    data = json.loads(text)
    n = int(data["n"])
    edges = [(int(u), int(v), float(w)) for u, v, w in data["edges"]]
    wmin = min((w for _, _, w in edges), default=1.0)
    adj: Adjacency = [[] for _ in range(n)]
    for u, v, w in edges:
        w = w / wmin if wmin != 1.0 else w
        adj[u].append((v, w))
        adj[v].append((u, w))
    return adj


def reference_hop_distances(adj: Adjacency, s: int, h: int) -> array:
    """Exact d^(h)(s, .): h synchronous Bellman-Ford rounds, stopping early
    once a round changes nothing.  Unreachable entries are math.inf."""
    n = len(adj)
    dist = array("d", [math.inf]) * n
    dist[s] = 0.0
    for _ in range(h):
        nxt = array("d", dist)
        changed = False
        for u in range(n):
            du = dist[u]
            if du == math.inf:
                continue
            for v, w in adj[u]:
                if du + w < nxt[v]:
                    nxt[v] = du + w
                    changed = True
        dist = nxt
        if not changed:
            break
    return dist


class ReferenceDistances:
    """Lazily computed exact d^(budget) rows for one graph."""

    def __init__(self, adj: Adjacency) -> None:
        self.adj = adj
        self._rows = {}

    def row(self, s: int, budget: int) -> array:
        key = (s, budget)
        got = self._rows.get(key)
        if got is None:
            got = self._rows[key] = reference_hop_distances(self.adj, s, budget)
        return got

    def d(self, u: int, v: int, budget: int) -> float:
        return self.row(u, budget)[v]


def query_pairs(ref: ReferenceDistances, h: int, count: int,
                rng: random.Random) -> List[Tuple[int, int, str]]:
    """``count`` ordered pairs u != v: even slots uniform, odd slots h-hop
    near (finite d^(h)).  Each pair is tagged "uniform" or "near"."""
    n = len(ref.adj)
    near = [[v for v in range(n) if v != u and ref.d(u, v, h) < math.inf]
            for u in range(n)]
    sources = [u for u in range(n) if near[u]]
    out: List[Tuple[int, int, str]] = []
    for i in range(count):
        if i % 2 == 0 or not sources:
            u = rng.randrange(n)
            v = rng.randrange(n - 1)
            v += v >= u
            out.append((u, v, "uniform"))
        else:
            u = rng.choice(sources)
            out.append((u, rng.choice(near[u]), "near"))
    return out


def is_infinite(x) -> bool:
    """True for the library's infinite distance, whatever its representation
    (it compares above every finite float)."""
    return x > sys.float_info.max


def as_float(x) -> float:
    return math.inf if is_infinite(x) else float(x)


def sandwich_ok(answer, lower: float, upper_base: float, stretch: float) -> bool:
    """lower <= answer <= stretch * upper_base, where lower = d^(B h) and
    upper_base = d^(h); an answer must be finite when d^(h) is."""
    a = as_float(answer)
    if a < lower * (1.0 - 1e-9):
        return False
    if upper_base < math.inf and a > stretch * upper_base * (1.0 + 1e-9):
        return False
    return True


def walk_weight(adj: Adjacency, walk: Sequence[int]) -> float:
    """Weight of a walk in the reference graph; inf if a step is no edge."""
    total = 0.0
    for a, b in zip(walk, walk[1:]):
        w = next((w for x, w in adj[a] if x == b), None)
        if w is None:
            return math.inf
        total += w
    return total
