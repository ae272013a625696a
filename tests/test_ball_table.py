"""The ball table that one partition call keeps across its carvings
(``ramsey._Balls``): ``padded_partition`` and ``clan_cover`` must carve the
same triples, in the same order, as a loop that carves every cluster with a
standalone rule call on a fresh table, and must relax less doing it.  After
every carve the table must hold only fresh rows, balls and sums, or balls
marked stale."""
from __future__ import annotations

import math
import random
from collections import Counter

import pytest

from hopmetric import clan, ramsey
from hopmetric.cli import gen_graph
from hopmetric.graph_core import WeightedGraph, hop_diameter, hop_profile, is_inf
from hopmetric.ramsey import finite_graph
from oracles import connected_random_graph, lasso, random_graph
from test_ramsey import _counting_profiles

RAMSEY_RULES = ("create_cluster", "create_cluster_alt")
CLAN_RULES = ("clan_create_cluster", "clan_create_cluster_alt")


def _record(monkeypatch, module, names) -> list:
    """Log (rule, triple) for every carving made through ``module``'s rules,
    fallbacks to the standard rule included."""
    log = []
    for name in names:
        def rule(*args, _fn=getattr(module, name), _name=name, **kwargs):
            trip = _fn(*args, **kwargs)
            log.append((_name, trip))
            return trip
        monkeypatch.setattr(module, name, rule)
    return log


def _reference_partition(G, X, mu, M, h, k, i, variant):
    """``padded_partition`` with a standalone rule call per carving."""
    carve = ramsey.create_cluster if variant == "standard" else ramsey.create_cluster_alt
    Y = set(X)
    MY = set(M) & Y
    out = []
    while Y:
        if not MY:
            out += [(frozenset([v]), frozenset()) for v in sorted(Y)]
            break
        trip = carve(G, Y, MY, mu, h, k, i)
        cluster = trip.mid & Y
        out.append((frozenset(cluster), frozenset(MY & trip.inner)))
        Y -= cluster
        MY -= trip.outer
        MY &= Y
    return out


def _reference_cover(G, X, mu, h, k, i, variant):
    """``clan_cover`` with a standalone rule call per carving."""
    carve = clan.clan_create_cluster if variant == "standard" else clan.clan_create_cluster_alt
    Y = set(X)
    out = []
    while Y:
        trip = carve(G, Y, mu, h, k, i)
        out.append(trip)
        Y -= trip.inner
    return out


def _cases(kind: str):
    """(carved graph, X, M with M a proper subset of X, mu, h, k, scales)."""
    if kind == "connected":
        # a marked unit clique plus a far unmarked pendant path: the alt
        # rule's trivial return cannot be certified, so the first carving
        # falls back to the standard rule
        G = WeightedGraph(5, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0),
                              (2, 3, 7.0), (3, 4, 7.0)])
        yield G, set(range(5)), {0, 1, 2}, [1.0] * 5, 1, 2, [4]
    if kind == "grid":
        G, _, _ = finite_graph(gen_graph("grid", {"rows": 10, "cols": 10}), 2, 2)
        rng = random.Random(70)
        mu = [1.0 + rng.random() * 3.0 for _ in range(G.n)]
        X = set(range(G.n))
        yield G, X, set(rng.sample(sorted(X), 60)), mu, 2, 2, [6, 5, 4, 3, 2, 1]
        return
    if kind == "lasso":
        # a unit path closed by one heavy edge: at the top scales, where the
        # radius dwarfs the hop budget, the ball budgets bind
        rng = random.Random(73)
        for n, h in ((24, 1), (40, 1), (40, 2)):
            G, _, diam = finite_graph(lasso(n), h, 2)
            mu = [1.0 + rng.random() * 2.0 for _ in range(n)]
            X = set(rng.sample(range(n), n - 2))
            M = set(rng.sample(sorted(X), len(X) // 2))
            yield G, X, M, mu, h, 2, list(range(math.ceil(math.log2(diam)), -1, -1))
        return
    rng = random.Random({"connected": 71, "disconnected": 72}[kind])
    for _ in range(6):
        n = rng.randint(8, 20)
        h, k = rng.randint(1, 3), rng.randint(2, 3)
        if kind == "connected":
            G = connected_random_graph(rng, n, 0.15, 1.0, 8.0)
        else:
            G = random_graph(rng, n, 0.1, 1.0, 8.0)
            assert is_inf(hop_diameter(G, n))
        Gw, omega, diam = finite_graph(G, h, k)
        assert kind == "connected" or omega is not None   # finite completion
        X = set(rng.sample(range(n), rng.randint(n // 2, n)))
        M = set(rng.sample(sorted(X), rng.randint(1, len(X) - 1)))
        mu = [1.0 + rng.random() * rng.choice([0.0, 1.0, 5.0]) for _ in range(n)]
        phi = max(0, math.ceil(math.log2(diam)))
        yield Gw, X, M, mu, h, k, list(range(phi, -1, -1))


KINDS = ["connected", "disconnected", "grid", "lasso"]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("variant", ["standard", "alt"])
def test_partition_matches_fresh_tables(kind, variant, monkeypatch):
    log = _record(monkeypatch, ramsey, RAMSEY_RULES)
    calls = _counting_profiles(monkeypatch)
    swept = fresh = fallbacks = 0
    for G, X, M, mu, h, k, scales in _cases(kind):
        assert M < X
        for i in scales:
            del log[:]
            before = len(calls)
            parts = ramsey.padded_partition(G, X, mu, M, h, k, i, variant)
            got, mid = list(log), len(calls)
            del log[:]
            want = _reference_partition(G, X, mu, M, h, k, i, variant)
            assert parts == want
            assert got == log
            swept += mid - before
            fresh += len(calls) - mid
            fallbacks += sum(1 for name, _ in got if name == "create_cluster")
    assert swept < fresh
    if variant == "alt":
        assert fallbacks > 0


# The clan rules mark every vertex, so two balls that each hold more than
# half of mu(Y) share a vertex, and the alt rule's trivial return certifies
# but for a tie at the 1e-12 tolerance: no input here makes a clan rule fall
# back, and the Ramsey fallback graph is one more input.
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("variant", ["standard", "alt"])
def test_cover_matches_fresh_tables(kind, variant, monkeypatch):
    log = _record(monkeypatch, clan, CLAN_RULES)
    calls = _counting_profiles(monkeypatch)
    swept = fresh = 0
    for G, X, _, mu, h, k, scales in _cases(kind):
        for i in scales:
            del log[:]
            before = len(calls)
            cover = clan.clan_cover(G, X, mu, h, k, i, variant)
            got, mid = list(log), len(calls)
            del log[:]
            assert cover == _reference_cover(G, X, mu, h, k, i, variant)
            assert got == log
            swept += mid - before
            fresh += len(calls) - mid
    assert swept < fresh


def _check_table(balls, G, Y, removed, MY, mu) -> None:
    """What ``balls`` holds after a carve took ``removed`` and left Y, with
    marked set MY, is what a fresh sweep of G[Y] computes: each plain row
    with no removal pending is the fresh row at its radius, each ball that
    is not stale is the fresh ball and each sum is the fresh ball's.  A
    carve of all of Y keeps the rows of G[removed] for the next scale."""
    allowed = sorted(Y or removed)
    for v, (R, row, cut) in balls._plain.items():
        if cut is None:
            assert row == hop_profile(G, v, [G.n], maxr=R, allowed=allowed)[G.n]
    for (b, r), table in balls._tables.items():
        for v, (ball, m, stale) in table.items():
            assert v in Y
            if stale:
                assert m is None
                continue
            fresh = ramsey._ball(hop_profile(G, v, [b], maxr=r, allowed=allowed)[b],
                                 allowed, r)
            assert ball == fresh
            assert m is None or m == ramsey._marked_measure(mu, fresh, MY)


def _spy_carves(monkeypatch, live: dict) -> Counter:
    """Check the table after every carve (``_check_table``) against the
    measure live["mu"] and the live marked set live["MY"], updated as
    ``padded_partition`` updates it; count the rows blanked in place and
    the balls left stale."""
    seen = Counter()
    real = ramsey._Balls.carved

    def carved(self, G, Y, removed, unmarked):
        reaching = {v: hit[1] for v, hit in self._plain.items() if hit[2] is None
                    and any(hit[1][c] != math.inf for c in removed)}
        real(self, G, Y, removed, unmarked)
        MY = live["MY"]
        MY -= unmarked
        MY &= Y
        _check_table(self, G, Y, removed, MY, live["mu"])
        seen["blanked"] += sum(1 for v, row in reaching.items() if v in self._plain
                               and self._plain[v][1] is row and self._plain[v][2] is None)
        seen["stale"] += sum(e[2] for t in self._tables.values() for e in t.values())
        seen["carves"] += 1

    monkeypatch.setattr(ramsey._Balls, "carved", carved)
    return seen


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("variant", ["standard", "alt"])
@pytest.mark.parametrize("caller", ["partition", "cover"])
def test_table_is_fresh_after_every_carve(kind, variant, caller, monkeypatch):
    live: dict = {}
    seen = _spy_carves(monkeypatch, live)
    for G, X, M, mu, h, k, scales in _cases(kind):
        for i in scales:
            if caller == "partition":
                live.update(mu=mu, MY=M & X)
                ramsey.padded_partition(G, X, mu, M, h, k, i, variant)
            else:
                live.update(mu=mu, MY=set(X))       # a cover marks every vertex
                clan.clan_cover(G, X, mu, h, k, i, variant)
    assert seen["carves"] > 100 and seen["blanked"] > 0
    if kind == "grid":
        assert seen["stale"] > 0    # ties give cut vertices tight successors
