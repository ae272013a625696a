"""The relaxation layer against transcriptions of its earlier forms: the
gated frontier kernel, the repaired carving rows and the diameter scan
that skips rows."""
from __future__ import annotations

import math
import random

import pytest

from hopmetric import graph_core, ramsey
from hopmetric.graph_core import (WeightedGraph, _finite_scan, bellman_ford,
                                  hop_profile)
from oracles import (all_rows_scan, connected_random_graph, lasso,
                     masked_bellman_ford, random_graph)
from test_ramsey import _below


def _grid(rows: int, cols: int) -> WeightedGraph:
    """Unit grid: many equal distances, so many tight neighbours."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1, 1.0))
            if r + 1 < rows:
                edges.append((v, v + cols, 1.0))
    return WeightedGraph(rows * cols, edges)


def _wide(rng: random.Random, n: int) -> WeightedGraph:
    """Weights 1 and 1e17 side by side: 1e17 + 1 == 1e17 in floats, so an
    edge can be tight between equal distances."""
    G = connected_random_graph(rng, n, 0.2, 1.0, 2.0)
    return WeightedGraph(n, [(u, v, 1e17 if rng.random() < 0.4 else w)
                             for u, v, w in G.edges])


def _family(name: str, rng: random.Random) -> WeightedGraph:
    if name == "connected":
        return connected_random_graph(rng, rng.randint(6, 24), 0.2, 1.0, 9.0)
    if name == "disconnected":
        return random_graph(rng, rng.randint(6, 24), 0.12, 1.0, 9.0)
    if name == "grid":
        return _grid(rng.randint(2, 5), rng.randint(3, 6))
    if name == "lasso":
        return lasso(rng.randint(5, 30))
    return _wide(rng, rng.randint(6, 20))


FAMILIES = ["connected", "disconnected", "grid", "lasso", "wide"]


class TestGatedKernel:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_masked_kernel(self, family):
        rng = random.Random(FAMILIES.index(family))
        for _ in range(12):
            G = _family(family, rng)
            n = G.n
            for _ in range(6):
                s = rng.randrange(n)
                allowed = None
                if rng.random() < 0.5:
                    allowed = sorted({s} | set(rng.sample(range(n), rng.randint(0, n - 1))))
                budgets = rng.sample(range(n + 2), rng.randint(1, 3))
                full = masked_bellman_ford(G, s, [n], allowed=allowed)[n]
                entries = [d for d in full if 0.0 < d < math.inf] or [1.0]
                d = rng.choice(entries)
                # maxr + 1e-12 on the entry and one ulp to either side
                at = d - 1e-12
                while at + 1e-12 > d:
                    at = math.nextafter(at, -math.inf)
                while at + 1e-12 < d:
                    at = math.nextafter(at, math.inf)
                radii = [None, d, at, math.nextafter(at, math.inf),
                         math.nextafter(at, -math.inf), math.nextafter(d, -math.inf),
                         math.nextafter(d, math.inf), rng.uniform(0.0, 2.0 * d)]
                for maxr in radii:
                    assert (bellman_ford(G, s, budgets, maxr, allowed)
                            == masked_bellman_ford(G, s, budgets, maxr, allowed))

    @pytest.mark.parametrize("bad", [-1, -8, -14, -15, -70, 7, 14, 70])
    def test_allowed_ids_out_of_range(self, bad):
        # ids -1, -n-1, -2n, -2n-1 and -10n, then n, 2n and 10n, on n = 7
        G = connected_random_graph(random.Random(5), 7, 0.3, 1.0, 4.0)
        for kernel in (bellman_ford, masked_bellman_ford):
            with pytest.raises(ValueError, match=rf"allowed vertex id {bad} out of range for n=7"):
                kernel(G, 0, [3], None, [0, 2, bad, 4])

    def test_source_outside_allowed(self):
        G = _grid(2, 3)
        for kernel in (bellman_ford, masked_bellman_ford):
            with pytest.raises(ValueError, match="source not in allowed set"):
                kernel(G, 0, [3], None, [1, 2])


class TestRowRepair:
    """Rows kept by a carve and repaired on request equal fresh rows of
    G[Y] for the Y left, entry for entry."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_repaired_rows_match_fresh_rows(self, family, monkeypatch):
        repairs = []
        real = ramsey._repair
        monkeypatch.setattr(ramsey, "_repair",
                            lambda adj, row, cut, *a: repairs.append(
                                (row, len(cut))) or real(adj, row, cut, *a))
        rng = random.Random(100 + FAMILIES.index(family))
        changed = 0
        for _ in range(10):
            G = _family(family, rng)
            Y = set(range(G.n))
            b = G.n - 1 + rng.randint(0, 2)      # a budget that cannot bind
            table = ramsey._Balls()
            while len(Y) > 2:
                allowed = sorted(Y)
                for v in rng.sample(allowed, min(len(allowed), 5)):
                    exact = [d for d in hop_profile(G, v, [b], allowed=allowed)[b]
                             if d < math.inf]
                    R = rng.choice(exact) + rng.choice([0.0, 3.0, 50.0])
                    table.row(G, v, b, R, allowed)
                # one to three carves before the next request
                for _ in range(rng.randint(1, 3)):
                    if len(Y) <= 2:
                        break
                    C = set(rng.sample(sorted(Y), rng.randint(1, max(1, len(Y) // 4))))
                    Y -= C
                    table.carved(C, set(), False)
                allowed = sorted(Y)
                for (budget, v), (R, old, _, cut) in list(table._rows.items()):
                    assert v in Y and budget == b
                    r = rng.choice([R, R / 2.0, rng.uniform(0.0, R)])
                    row = table.row(G, v, b, r, allowed)
                    fresh = hop_profile(G, v, [b], maxr=R, allowed=allowed)[b]
                    assert row == fresh
                    assert _below(row, r) == _below(
                        hop_profile(G, v, [b], maxr=r, allowed=allowed)[b], r)
                    changed += cut is not None and row != [
                        math.inf if u in cut else d for u, d in enumerate(old)]
        assert len(repairs) > 20
        assert any(k > 1 for _, k in repairs)      # removals accumulated
        if family != "grid":
            assert changed > 0                     # entries relaxed again

    def test_drops_hop_bounded_rows_and_removed_sources(self):
        G = _grid(3, 4)
        table = ramsey._Balls()
        allowed = list(range(12))
        for v in (0, 5, 11):
            table.row(G, v, 11, 20.0, allowed)      # plain
            table.row(G, v, 2, 20.0, allowed)       # hop-bounded
        table.carved({5, 6}, set(), False)
        assert sorted(table._rows) == [(11, 0), (11, 11)]
        assert all(hit[3] == {5, 6} for hit in table._rows.values())

    def test_whole_carve_keeps_rows_unmarked(self):
        G = _grid(2, 3)
        table = ramsey._Balls()
        for v in range(6):
            table.row(G, v, 1, 5.0, list(range(6)))
        table.carved(set(range(6)), set(), True)
        assert len(table._rows) == 6
        assert all(hit[3] is None for hit in table._rows.values())

    def test_reach_avoiding_the_carve_is_kept_unmarked(self):
        G = WeightedGraph(5, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)])
        table = ramsey._Balls()
        row = table.row(G, 0, 4, 1.5, list(range(5)))
        table.carved({3}, set(), False)
        hit = table._rows[(4, 0)]
        assert hit[1] is row and hit[3] is None


class TestFiniteScan:
    @pytest.mark.parametrize("h", [1, 2, 3, 5])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_all_rows_scan(self, family, h, monkeypatch):
        calls = []
        real = graph_core.hop_profile
        monkeypatch.setattr(graph_core, "hop_profile",
                            lambda *a, **kw: calls.append(a[1]) or real(*a, **kw))
        rng = random.Random(200 + 10 * FAMILIES.index(family) + h)
        rows = 0
        for _ in range(10):
            G = _family(family, rng)
            missing = []
            start = len(calls)
            got = _finite_scan(G, h, missing)
            assert (*got, missing) == all_rows_scan(G, h)
            assert len(set(calls[start:])) == len(calls) - start   # one row per source
            rows += G.n
        if h == 1:
            assert len(calls) == rows
        elif h == 5 and family in ("connected", "grid"):
            assert len(calls) < rows               # rows were skipped

    def test_skips_at_h_2_on_dense_graphs(self, monkeypatch):
        # a skip needs a neighbour whose (h - 1)-hop row reaches every vertex
        calls = []
        real = graph_core.hop_profile
        monkeypatch.setattr(graph_core, "hop_profile",
                            lambda *a, **kw: calls.append(a[1]) or real(*a, **kw))
        rng = random.Random(7)
        rows = 0
        for _ in range(10):
            G = connected_random_graph(rng, rng.randint(4, 12), 0.8, 1.0, 3.0)
            missing = []
            assert (*_finite_scan(G, 2, missing), missing) == all_rows_scan(G, 2)
            rows += G.n
        assert len(calls) < rows

    def test_no_skip_past_the_float_bound(self, monkeypatch):
        calls = []
        real = graph_core.hop_profile
        monkeypatch.setattr(graph_core, "hop_profile",
                            lambda *a, **kw: calls.append(a[1]) or real(*a, **kw))
        G = _grid(3, 3)
        assert _finite_scan(G, 10 ** 6) == (4.0, False)
        assert len(calls) == 9
