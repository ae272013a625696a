"""The relaxation layer against transcriptions of its earlier forms: the
gated frontier kernel, the repaired carving rows, the plain rows of slack
budgets, the nested balls served from them and the diameter scan that
skips rows."""
from __future__ import annotations

import math
import random

import pytest

from hopmetric import clan, graph_core, ramsey
from hopmetric.graph_core import (WeightedGraph, _finite_scan, bellman_ford,
                                  hop_diameter, hop_profile)
from hopmetric.ramsey import _slack
from oracles import (all_rows_scan, connected_random_graph, eager_alt_rule,
                     eager_standard_rule, lasso, masked_bellman_ford,
                     profiled_alt_balls, profiled_standard_balls, random_graph)
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


def _w037(rng: random.Random) -> WeightedGraph:
    """An unnormalized grid with least weight 0.37 on most edges: sums of
    several 0.37 steps round, so (b + 1) * w_min and a (b + 1)-edge walk's
    float sum need not agree."""
    G = _grid(rng.randint(2, 5), rng.randint(3, 6))
    return WeightedGraph(G.n, [(u, v, 0.37 if rng.random() < 0.7 else 0.37 * rng.uniform(1.0, 3.0))
                               for u, v, _ in G.edges], normalize=False)


def _family(name: str, rng: random.Random) -> WeightedGraph:
    if name == "w037":
        return _w037(rng)
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
SLACK_FAMILIES = FAMILIES + ["w037"]


def _around(x: float) -> list:
    """x and one ulp to either side."""
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


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
                    table.carved(G, Y, C, set())
                allowed = sorted(Y)
                assert not table._rows                 # every row is plain
                for v, (R, old, cut) in list(table._plain.items()):
                    assert v in Y
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
        assert sorted(table._rows) == [(2, 0), (2, 5), (2, 11)]
        table.carved(G, set(allowed) - {5, 6}, {5, 6}, set())
        assert sorted(table._plain) == [0, 11]
        assert not table._rows
        assert all(hit[2] == {5, 6} for hit in table._plain.values())

    def test_whole_carve_keeps_rows_unmarked(self):
        G = _grid(2, 3)
        table = ramsey._Balls()
        for v in range(6):
            table.row(G, v, 1, 5.0, list(range(6)))     # hop-bounded
            table.row(G, v, 5, 5.0, list(range(6)))     # plain
        table.carved(G, set(), set(range(6)), set())
        assert len(table._rows) == 6 and len(table._plain) == 6
        assert all(hit[2] is None for hit in table._plain.values())

    def test_reach_avoiding_the_carve_is_kept_unmarked(self):
        G = WeightedGraph(5, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)])
        table = ramsey._Balls()
        row = table.row(G, 0, 4, 1.5, list(range(5)))
        table.carved(G, {0, 1, 2, 4}, {3}, set())
        hit = table._plain[0]
        assert hit[1] is row and hit[2] is None

    def test_leaf_carve_blanks_in_place(self):
        # a leaf of the row's tree has no tight successor, so the row is
        # blanked in place; an interior vertex leaves its subtree to repair
        G = WeightedGraph(6, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (3, 4, 4.0),
                              (1, 5, 2.5)])
        table = ramsey._Balls()
        row = table.row(G, 0, 5, 20.0, list(range(6)))
        assert row == [0.0, 1.0, 3.0, 6.0, 10.0, 3.5]
        table.carved(G, {0, 1, 2, 3}, {4, 5}, set())
        hit = table._plain[0]
        assert hit[1] is row and hit[2] is None
        assert row == [0.0, 1.0, 3.0, 6.0, math.inf, math.inf]
        table.carved(G, {0, 1, 3}, {2}, set())
        assert hit[1] is row and hit[2] == {2}
        assert table.row(G, 0, 5, 20.0, [0, 1, 3]) == [0.0, 1.0] + [math.inf] * 4


class TestSlackRows:
    """A budget slack at a radius (``ramsey._slack``) gives the row of the
    budget n - 1 there, and ``_Balls`` serves it from one plain row per
    source."""

    @pytest.mark.parametrize("family", SLACK_FAMILIES)
    def test_slack_row_equals_unbounded_row(self, family):
        rng = random.Random(300 + SLACK_FAMILIES.index(family))
        slack = bound = 0
        for _ in range(8):
            G = _family(family, rng)
            n, w = G.n, G.w_min
            for _ in range(4):
                s = rng.randrange(n)
                allowed = None
                if rng.random() < 0.5:
                    allowed = sorted({s} | set(rng.sample(range(n), rng.randint(0, n - 1))))
                size = n if allowed is None else len(allowed)
                for b in range(min(size, 7)):
                    # where (b + 1) edges of w_min reach r + 1e-12, and where
                    # the 1e-9 margin of the rule puts its edge
                    edge = (b + 1) * w / (1.0 + 1e-9) - 1e-12
                    radii = _around((b + 1) * w - 1e-12) + _around(edge) + [
                        rng.uniform(0.0, (b + 1) * w), rng.uniform(0.0, 3.0 * (b + 1) * w)]
                    for r in radii:
                        row = bellman_ford(G, s, [b], r, allowed)[b]
                        if _slack(b, r, size, w):
                            slack += 1
                            assert row == bellman_ford(G, s, [n - 1], r, allowed)[n - 1]
                        else:
                            bound += 1
        assert slack > 50 and bound > 50

    def test_slack_edge(self):
        big = 10 ** 9                                # no budget reaches |Y| - 1
        for w in (1.0, 0.37, 3.0):
            for b in (0, 1, 5, 40):
                # half an edge past b edges of w: no walk of b + 1 edges fits
                assert _slack(b, (b + 0.5) * w, big, w)
                assert not _slack(b, (b + 1) * w - 1e-12, big, w)
                assert not _slack(b, (b + 1) * w, big, w)
            assert _slack(3, 1e9, 4, w)              # budget >= |Y| - 1
        assert not _slack(10 ** 6, 0.5, big, 1.0)   # past the float bound
        assert _slack(0, 0.0, big, 1e-6) and not _slack(0, 0.0, big, 1e-12)

    def test_one_plain_row_per_source(self, monkeypatch):
        calls = []
        monkeypatch.setattr(ramsey, "hop_profile",
                            lambda *a, **kw: calls.append(a[2]) or hop_profile(*a, **kw))
        G = _grid(4, 5)
        allowed = list(range(20))
        table = ramsey._Balls()
        row = table.row(G, 7, 6, 6.5, allowed)        # slack by its radius
        for b, r in ((2, 2.5), (0, 0.5), (19, 6.5), (5, 3.0)):
            assert table.row(G, 7, b, r, allowed) is row
        assert table.row(G, 7, 2, 6.5, allowed) is not row   # binds at 6.5
        assert list(table._plain) == [7] and list(table._rows) == [(2, 7)]
        assert calls == [[6], [2]]

    @pytest.mark.parametrize("family", SLACK_FAMILIES)
    def test_small_budget_repairs_for_every_radius(self, family):
        # a repair asked for by a small budget at a small radius serves a
        # later request of the whole row, at the radius the row was pruned at
        rng = random.Random(400 + SLACK_FAMILIES.index(family))
        checked = 0
        for _ in range(8):
            G = _family(family, rng)
            w = G.w_min
            Y = set(range(G.n))
            table = ramsey._Balls()
            while len(Y) > 2:
                allowed = sorted(Y)
                for v in rng.sample(allowed, min(len(allowed), 5)):
                    exact = [d for d in hop_profile(G, v, [G.n], allowed=allowed)[G.n]
                             if d < math.inf]
                    table.row(G, v, len(allowed) - 1, max(exact), allowed)
                C = set(rng.sample(allowed, rng.randint(1, max(1, len(Y) // 4))))
                Y -= C
                table.carved(G, Y, C, set())
                allowed = sorted(Y)
                for v, (R, _, _) in list(table._plain.items()):
                    b = rng.randint(0, 2)
                    r = rng.uniform(0.0, (b + 0.5) * w)
                    assert _slack(b, r, len(allowed), w)
                    small = table.row(G, v, b, r, allowed)
                    assert _below(small, r) == _below(
                        hop_profile(G, v, [b], maxr=r, allowed=allowed)[b], r)
                    whole = table.row(G, v, len(allowed) - 1, R, allowed)
                    assert whole is small
                    assert whole == hop_profile(G, v, [len(allowed) - 1], maxr=R,
                                                allowed=allowed)[len(allowed) - 1]
                    checked += 1
        assert checked > 30


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

    @pytest.mark.parametrize("family", FAMILIES)
    def test_diameter_matches_all_rows_scan(self, family):
        rng = random.Random(250 + FAMILIES.index(family))
        for _ in range(6):
            G = _family(family, rng)
            for h in (1, 2, 3, 5):
                best, lacking, _ = all_rows_scan(G, h)
                assert hop_diameter(G, h) == (math.inf if lacking else best)

    def test_no_skip_past_the_float_bound(self, monkeypatch):
        calls = []
        real = graph_core.hop_profile
        monkeypatch.setattr(graph_core, "hop_profile",
                            lambda *a, **kw: calls.append(a[1]) or real(*a, **kw))
        G = _grid(3, 3)
        assert _finite_scan(G, 10 ** 6) == (4.0, False)
        assert len(calls) == 9


def _nested_counts(monkeypatch, builds) -> dict:
    """Run the embeddings ``builds`` makes, checking every nested ball a
    rule reads against the single profile; count the rules and balls.

    A nested ball is a ``_ball`` a rule builds outside ``_Balls.measure``
    (the center scan).  Its source, the winner, is known when the rule
    returns; within one rule each nested radius names one (budget, radius).
    """
    running = []              # [kind, parameters, Y, nested reads] per rule
    counts = {"standard": 0, "alt": 0, "slack": 0, "bound": 0}
    real_ball, real_measure = ramsey._ball, ramsey._Balls.measure
    scanning = []

    def ball(dist, among, r):
        out = real_ball(dist, among, r)
        if running and not scanning:
            running[-1][3].append((r, out))
        return out

    def measure(self, *args):
        scanning.append(True)
        try:
            return real_measure(self, *args)
        finally:
            scanning.pop()

    def traced(kind, rule, params):
        def run(G, Y, *args):
            frame = [kind, params(G, Y, *args), Y, []]
            running.append(frame)
            try:
                trip = rule(G, Y, *args)
            finally:
                running.pop()
            reads = frame[3]
            if reads:
                allowed = sorted(Y)
                ref = (profiled_standard_balls if kind == "standard"
                       else profiled_alt_balls)(G, trip.center, allowed, *frame[1])
                by_radius = {r: (b, r) for b, r in ref}
                counts[kind] += 1
                for r, got in reads:
                    b, r = by_radius[r]
                    assert got == ref[b, r]
                    counts["slack" if _slack(b, r, len(allowed), G.w_min) else "bound"] += 1
            return trip
        return run

    standard = traced("standard", ramsey.standard_rule,
                      lambda G, Y, MY, mu, h, k, k_geom, i, *_: (h, k_geom, i))
    alt = traced("alt", ramsey.alt_rule,
                 lambda G, Y, MY, mu, h, k, i, *_: (
                     h, k, ramsey.alt_levels(ramsey.measure_of(mu, MY)), i))
    monkeypatch.setattr(ramsey, "_ball", ball)
    monkeypatch.setattr(ramsey._Balls, "measure", measure)
    for module in (ramsey, clan):
        monkeypatch.setattr(module, "standard_rule", standard)
        monkeypatch.setattr(module, "alt_rule", alt)
    for G, mu, h, k in builds:
        for variant in ("standard", "alt"):
            ramsey.ramsey_embed(G, mu, set(range(G.n)), h, k, variant)
            clan.clan_embed(G, mu, h, k, variant)
    return counts


class TestNestedBalls:
    """The nested balls each rule reads around its winner, from the plain
    row and one profile of the binding budgets, equal those of the single
    profile the rules once relaxed (``oracles.profiled_*_balls``)."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_served_balls_match_profile(self, family, monkeypatch):
        rng = random.Random(500 + FAMILIES.index(family))
        builds = []
        for _ in range(3):
            G = _family(family, rng)
            mu = [rng.choice([1.0, 1.0, 3.0]) for _ in range(G.n)]
            builds += [(G, mu, 1, 2), (G, mu, 2, 1)]
        counts = _nested_counts(monkeypatch, builds)
        assert counts["standard"] > 10 and counts["alt"] > 10 and counts["slack"] > 100

    @staticmethod
    def _check_nested(G, v, wants, balls, mu):
        """Read every want of a fresh ``_Balls.nested`` reader around v and
        check each ball and its marked measure against masked_bellman_ford."""
        allowed, marked = list(range(G.n)), set(range(0, G.n, 2))
        read = balls.nested(G, v, allowed, mu, marked, lambda i: wants[i],
                            [(i,) for i in range(len(wants))])
        for i, (b, r) in enumerate(wants):
            row = masked_bellman_ford(G, v, [b], r, allowed)[b]
            ball = {u for u in allowed if row[u] <= r + 1e-12}
            assert read(i) == (ball, math.fsum(mu[u] for u in ball & marked))
            assert read(i) is read(i)       # built once

    def test_nested_rows_of_each_kind(self, monkeypatch):
        # least weight 0.1: budget 0 binds at radius 0.5, budget 2 is slack
        # at 0.25 and budget 3 binds at 5
        calls = []
        monkeypatch.setattr(ramsey, "hop_profile",
                            lambda *a, **kw: calls.append(a[2]) or hop_profile(*a, **kw))
        G = WeightedGraph(6, [(u, u + 1, 0.1 * (u + 1)) for u in range(5)], normalize=False)
        wants = [(0, 0.5), (2, 0.25), (3, 5.0), (1, 0.05)]
        assert [_slack(b, r, 6, G.w_min) for b, r in wants] == [False, True, False, True]
        self._check_nested(G, 1, wants, ramsey._Balls(), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        assert calls == [[2], [3]]     # the plain row at 0.25, then budget 3 alone

    def test_binding_ball_skips_plain_row(self, monkeypatch):
        # on the unit path 0-1-2-3, budget 1 binds at radius 2.5: the 1-hop
        # ball of 0 is {0, 1}, and its plain ball, stored at 3, is {0, 1, 2}
        calls = []
        monkeypatch.setattr(ramsey, "hop_profile",
                            lambda *a, **kw: calls.append(a[2]) or hop_profile(*a, **kw))
        G = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        balls = ramsey._Balls()
        allowed = list(range(4))
        assert balls.row(G, 0, 3, 3.0, allowed)[:3] == [0.0, 1.0, 2.0]
        assert not _slack(1, 2.5, 4, G.w_min)
        self._check_nested(G, 0, [(1, 2.5)], balls, [1.0] * 4)
        assert calls == [[3], [1]]

    def test_binding_budgets_match_profile(self, monkeypatch):
        # on a long path, budgets bind at the larger radii
        G = lasso(80)
        counts = _nested_counts(monkeypatch, [(G, [1.0] * G.n, 1, 2), (G, [1.0] * G.n, 2, 3)])
        assert counts["standard"] > 10 and counts["alt"] > 10
        assert counts["slack"] > 100 and counts["bound"] > 100


def _carve_log(G, mu, h: int, k: int, kind: str, variant: str, eager: bool):
    """(every triple a rule returned, ``hop_profile`` calls, ultrametric) of
    one embedding, carved by the library's rules or, with ``eager``, by
    their eager transcriptions."""
    triples, calls = [], []
    rules = {"standard_rule": eager_standard_rule if eager else ramsey.standard_rule,
             "alt_rule": eager_alt_rule if eager else ramsey.alt_rule}
    real = ramsey.hop_profile
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ramsey, "hop_profile",
                   lambda *a, **kw: calls.append(a[1]) or real(*a, **kw))
        for name, rule in rules.items():
            def logged(*args, rule=rule):
                trip = rule(*args)
                triples.append(trip)
                return trip
            for module in (ramsey, clan):
                mp.setattr(module, name, logged)
        if kind == "ramsey":
            emb = ramsey.ramsey_embed(G, mu, set(range(G.n)), h, k, variant)
        else:
            emb = clan.clan_embed(G, mu, h, k, variant)
    return triples, len(calls), emb.U.to_json()


class TestOnDemandRules:
    """The rules that build a nested ball on its first read and serve the
    diameter check from the ball table carve every triple the eager rules
    carved (``oracles.eager_*_rule``), with no more ``hop_profile`` calls."""

    @pytest.mark.parametrize("family", FAMILIES + ["lasso80"])
    def test_rules_match_eager_transcription(self, family):
        if family == "lasso80":     # budgets bind at the top scales
            graphs = [lasso(80)]
        else:
            rng = random.Random(700 + FAMILIES.index(family))
            graphs = [_family(family, rng) for _ in range(2)]
        carves = fewer = 0
        for G in graphs:
            mu = [1.0 + (v % 3 == 0) * 2.0 for v in range(G.n)]
            for h, k in ((1, 2), (2, 1)):
                for kind in ("ramsey", "clan"):
                    for variant in ("standard", "alt"):
                        lazy = _carve_log(G, mu, h, k, kind, variant, eager=False)
                        eager = _carve_log(G, mu, h, k, kind, variant, eager=True)
                        assert lazy[0] == eager[0] and lazy[2] == eager[2]
                        assert lazy[1] <= eager[1]
                        carves += len(lazy[0])
                        fewer += lazy[1] < eager[1]
        assert carves > 50 and fewer > 0
