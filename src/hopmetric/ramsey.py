"""Hop-constrained Ramsey-type embeddings into ultrametrics.

Implements the recursive embedding (scale-descending padded partitions with
cluster carving), the log-log alternative cluster rule, and the
multiplicative-weights builder for distributions with per-vertex inclusion
guarantees.  The clan embedding carves with the same two rules.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (Callable, Dict, FrozenSet, Iterable, List, Optional,
                    Sequence, Set, Tuple)

from .graph_core import (HopParams, WeightedGraph, _finite_scan, _repair,
                         as_integer, completion_weight, finite_completion,
                         hop_profile, vertex_id)
from .ultrametric import Ultrametric, saturate_labels

_REL_TOL = 1e-12

Measure = Sequence[float]


def measure_of(mu: Measure, S) -> float:
    """mu(S), correctly rounded: the same float in any iteration order."""
    return math.fsum(mu[v] for v in S)


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


@dataclass(frozen=True)
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


def _check_measure_length(mu: Measure, n: int) -> None:
    if len(mu) != n:
        raise ValueError(f"measure has {len(mu)} entries for {n} vertices")


def _check_measure(mu: Measure, n: int) -> None:
    _check_measure_length(mu, n)
    if any(isinstance(m, bool) for m in mu):
        raise ValueError("measure entries must be numbers, not booleans")
    if not all(1.0 - 1e-12 <= m < math.inf for m in mu):
        raise ValueError("measure must be finite and >= 1 on every vertex")


def _check_weights(G: WeightedGraph) -> None:
    """Refuse a least edge weight below 1: the scale recursion stops at
    scale 0, so it assumes that distinct vertices lie at least 1 apart."""
    if G.w_min < 1.0:
        raise ValueError(f"least edge weight {G.w_min} is below 1; build the "
                         "graph with normalize=True")


def _check_variant(variant: str) -> None:
    if variant not in ("standard", "alt"):
        raise ValueError(f"unknown variant {variant!r}")


def _checked_carve_set(G: WeightedGraph, X: Iterable[int], mu: Measure, h: int,
                       k: int, variant: str) -> Tuple[Set[int], int, int]:
    """(X as a set of vertex ids of G, h, k as ints), once h, k, the
    measure's length and the variant are checked: the arguments of one
    partition or cover.  Each check is O(1) or one pass over X."""
    p = HopParams(h, k)
    _check_variant(variant)
    _check_measure_length(mu, G.n)
    Y = {vertex_id(v, G.n) for v in X}
    if not Y:
        raise ValueError("X must be nonempty")
    return Y, p.h, p.k


def _ball(dist: Sequence[float], among: Iterable[int], r: float) -> FrozenSet[int]:
    lim = r + _REL_TOL
    return frozenset([u for u in among if dist[u] <= lim])


def _marked_measure(mu: Measure, B: FrozenSet[int], MY: Set[int]) -> float:
    return math.fsum([mu[u] for u in B if u in MY])


def _slack(budget: int, r: float, size: int, w_min: float) -> bool:
    """Whether hop budget ``budget`` cannot bind in a row of G[Y] pruned at
    radius r, with |Y| = ``size`` and least edge weight ``w_min``.

    It cannot when budget >= |Y| - 1, since removing a cycle from a walk
    leaves each later partial sum no larger (weights are positive and float
    addition is monotone), so the least float sum over all walks is reached
    by a simple path.  Nor can it when budget < 10^6 and (budget + 1) *
    w_min > (r + 1e-12) * (1 + 1e-9): every walk of more than ``budget``
    edges has a prefix of budget + 1 edges, each weighing at least w_min,
    whose float sum, and so the walk's, exceeds r + 1e-12.  With w_min = 1.0
    the partial sums of m edges are >= m exactly; for any other w_min they
    are within a relative m * 2^-53 of their real weight (the error argument
    of ``_row_certifies``), far inside the 1e-9 margin below 10^6 hops.  The
    row pruned at r then holds, entry for entry, the least float sum over
    all walks in G[Y], whatever the budget: it is the plain row of its
    source.
    """
    return budget >= size - 1 or (budget < 10 ** 6 and
                                  (budget + 1) * w_min > (r + _REL_TOL) * (1.0 + 1e-9))


class _Balls:
    """The center-choice balls, their marked measures and their rows for
    the current Y of one ``padded_partition`` or ``clan_cover`` call, kept
    across its carvings.

    A carving of G[Y] picks its center by the marked measure of the ball
    B(v) = {u in Y : d^{(b)}_{G[Y]}(v, u) <= r} of every candidate v.  A ball
    depends on the rule only through (b, r), so there is one table per
    (b, r): the standard rule, its runs as the alt rule's fallback included,
    and each alt level L read their own.  After a carve removes C from Y and
    unmarks U (``carved``), every ball the table holds is either exactly
    what a fresh sweep of G[Y minus C] would compute or marked stale:

    - B(v) avoids C: kept.  The distance to u is the least left-to-right
      float sum over walks of at most b edges from v.  Weights are positive
      and float addition is monotone, so no prefix of a walk weighs more
      than the walk, and every vertex of a walk reaching u within the
      radius is itself in B(v).  Those walks avoid C and survive in
      G[Y minus C], where other distances can only grow; so the ball and
      its distances are unchanged.
    - B(v) meets C, b is slack at r in Y (below) and v's plain row,
      pruned at a radius >= r, was blanked in place by this carve (below):
      B(v) minus C.  The ball is then the one that row gives, and the
      blanked row is the fresh one, with every entry off C unchanged.
    - Any other B(v) that meets C: kept and marked stale.  Distances in
      G[Y minus C] only grow, so the fresh ball is a subset of B(v) minus
      C, and ``measure`` refreshes it by keeping the vertices of B(v) whose
      entry in v's served row, fresh or repaired, is within r.  No other
      vertex needs a look.
    - B(v) meets U but not C: its marked measure is summed again.  A ball
      meeting neither keeps its sum, which has the same terms.  A ball
      changed by the carve is summed again too.

    The sums are correctly rounded (``_marked_measure``), so equal terms
    give equal floats and every rule picks the same center.  The nested
    balls around the center a rule picks are read through ``nested``, from
    the rows below, and are kept only for that carve.

    A ball missing here is built from its row in G[Y], kept with the radius
    R it was pruned at; ``row`` serves it at any radius r <= R.  This is
    exact: by the prefix argument above, pruning at R only turns the
    entries above R + 1e-12 into infinity, so the row pruned at R equals
    the row pruned at r on every entry <= r + 1e-12.  Every reader compares
    entries only against a radius no larger than the one it asked for
    (``_ball``, ``_row_certifies``), so it cannot tell a served row from a
    fresh one.  A served row is valid only until the next carve, which may
    blank it in place; no caller holds one across a carve.

    A row whose budget is slack at its radius (``_slack``: no walk it
    leaves out weighs r + 1e-12 or less) is its source's plain row, the
    least float sums over all walks of G[Y] pruned at R.  There is one per
    source, and it serves every request (b, r <= R) whose budget b is slack
    at r, since the b-hop row pruned at r is then that plain row pruned at
    r.  A row whose budget binds is kept under (budget, source).  A budget
    slack at r in Y stays slack in every smaller Y.

    The alt rule's full diameter check (``_bounded_diam_at_most``) reads
    its rows here too, at budget 4kLh and radius delta/2: a slack one is
    the plain row of its source at delta/2, which serves every later
    request of that source at a slack budget and a radius <= delta/2.

    A carve that takes all of Y keeps every row, and the table goes with
    that cluster to the next scale (``_scale_tree``), whose partition
    carves the same set: below a scale where the alt rule returned Y whole,
    the same ball budget 2kLh is asked for at half the radius, and the
    diameter check's rows at delta/2 serve both its balls and its own
    check, at the new delta/4 and delta/2.  Any other
    carve drops the rows whose budget binds and the rows whose source it
    removed.  A plain row whose reach avoids C is kept as it is, by the
    prefix argument.  One whose reach meets C, with no removals pending, is
    blanked in place when no reached c in C has a tight successor y outside
    C (row[c] + w(c, y) == row[y] in floats).  Every reached vertex off C
    then has a chain of tight neighbours back to the source that avoids C,
    since a chain entering C leaves it through such a y; so every entry off
    C is valid, and the row with C's entries set to infinity is the fresh
    row.  ``graph_core._repair`` would find the same, from an empty heap.
    Any other row whose reach meets C is marked with C, and removals
    accumulate over carves until ``row`` next serves it, repaired in
    G[Y minus C] (``_repair``, which gives the fresh row).  A carve costs
    O(|C|) per plain row, plus the adjacency of the reached part of C.  A
    single alt Ramsey embedding of the n = 48 random graph at h = 2, k = 3
    makes 48 ``hop_profile`` calls, 326 when only a carve of all of Y
    keeps the rows and 573 when every carve drops them.
    """
    __slots__ = ("_tables", "_plain", "_rows")

    def __init__(self) -> None:
        # (budget, radius) -> candidate -> [ball, marked measure or None,
        # stale]; a stale ball's measure is None
        self._tables: Dict[Tuple[int, float], Dict[int, list]] = {}
        # source -> [radius R, plain row pruned at R, removed vertices its
        # entries have not yet left, or None]
        self._plain: Dict[int, list] = {}
        # (budget, source) -> [radius R, row pruned at R], the budget binding
        self._rows: Dict[Tuple[int, int], list] = {}

    def row(self, G: WeightedGraph, v: int, budget: int, r: float,
            allowed: List[int]) -> List[float]:
        """hop_profile(G, v, [budget], r, allowed)[budget] on every entry
        <= r + 1e-12, served from a stored row pruned at a radius >= r: the
        plain row of v, repaired if a carve marked it, when the budget is
        slack at r, and the row of (budget, v) otherwise."""
        if not _slack(budget, r, len(allowed), G.w_min):
            hit = self._rows.get((budget, v))
            if hit is None or r > hit[0]:
                row = hop_profile(G, v, [budget], maxr=r, allowed=allowed)[budget]
                hit = self._rows[budget, v] = [r, row]
            return hit[1]
        row = self.plain(G, v, r, allowed)
        if row is None:
            row = hop_profile(G, v, [budget], maxr=r, allowed=allowed)[budget]
            self._plain[v] = [r, row, None]
        return row

    def plain(self, G: WeightedGraph, v: int, r: float,
              allowed: List[int]) -> Optional[List[float]]:
        """The plain row of v, repaired if a carve marked it, when it is
        stored at a radius >= r; None otherwise.  It serves every budget
        slack at r."""
        hit = self._plain.get(v)
        if hit is None or r > hit[0]:
            return None
        if hit[2] is not None:
            hit[1] = _repair(G.adj, hit[1], hit[2], hit[0], len(allowed))
            hit[2] = None
        return hit[1]

    def table(self, budget: int, r: float) -> Dict[int, list]:
        """The entries [ball, marked measure or None, stale] at (budget, r)."""
        return self._tables.setdefault((budget, r), {})

    def measure(self, G: WeightedGraph, v: int, budget: int, r: float,
                allowed: List[int], mu: Measure, MY: Set[int]) -> float:
        """mu(B(v) & MY) in G[allowed], for ball budget and radius r."""
        table = self.table(budget, r)
        entry = table.get(v)
        if entry is None:
            ball = _ball(self.row(G, v, budget, r, allowed), allowed, r)
            entry = table[v] = [ball, None, False]
        elif entry[2]:
            entry[0] = _ball(self.row(G, v, budget, r, allowed), entry[0], r)
            entry[2] = False
        if entry[1] is None:
            entry[1] = _marked_measure(mu, entry[0], MY)
        return entry[1]

    def ball(self, budget: int, r: float, v: int) -> FrozenSet[int]:
        """The ball of v at (budget, r), which ``measure`` has read."""
        return self._tables[(budget, r)][v][0]

    def nested(self, G: WeightedGraph, v: int, allowed: List[int], mu: Measure,
               MY: Set[int], want: Callable[..., Tuple[int, float]],
               keys: Sequence[Tuple[int, ...]]
               ) -> Callable[..., Tuple[FrozenSet[int], float]]:
        """A reader of the nested balls around a rule's center v in
        G[allowed]: ``read(*key)`` is (ball, mu(ball & MY)) at budget b and
        radius r, where (b, r) = ``want(*key)``, for a key of ``keys``, the
        balls the rule may read.  A ball is built on its first read.

        Slackness is checked per ball, at the ball's own radius
        (``_slack``).  A slack ball reads v's plain row (``plain``) when it
        is stored at a radius >= r.  Otherwise the ball's whole kind is
        asked for at once.  The slack balls ask for v's plain row at the
        largest of their radii (``row``), which then serves every slack
        read.  The binding balls share one ``hop_profile`` call over their
        budgets, pruned at the largest of their radii; budget 0 needs none,
        since its row is 0 at v and infinity elsewhere.  A key's (b, r) is
        computed only on its read and on a fill of its kind.

        Each ball is the one a fresh row at (b, r) gives: a row pruned at
        any radius R >= r equals the row pruned at r on every entry <=
        r + 1e-12 (see ``_Balls``), and ``_ball`` reads no other entry.  So
        the radius a row is asked at decides only which later reads it
        serves, and a rule carves the same whichever of its balls it reads,
        and in whatever order.
        """
        size, w_min = len(allowed), G.w_min
        got: Dict[Tuple[int, ...], Tuple[FrozenSet[int], float]] = {}
        bound: Dict[int, List[float]] = {}   # budget -> row, the binding kind

        def kind(slack: bool) -> List[Tuple[int, float]]:
            return [w for w in (want(*key) for key in keys)
                    if _slack(*w, size, w_min) == slack]

        def read(*key: int) -> Tuple[FrozenSet[int], float]:
            hit = got.get(key)
            if hit is None:
                b, r = want(*key)
                if _slack(b, r, size, w_min):
                    row = self.plain(G, v, r, allowed)
                    if row is None:
                        row = self.row(G, v, *max(kind(True), key=lambda w: w[1]),
                                       allowed)
                elif not b:
                    row = [math.inf] * G.n
                    row[v] = 0.0
                else:
                    if not bound:
                        hops = [w for w in kind(False) if w[0]]
                        bound.update(hop_profile(G, v, [w[0] for w in hops],
                                                 maxr=max(w[1] for w in hops),
                                                 allowed=allowed))
                    row = bound[b]
                ball = _ball(row, allowed, r)
                hit = got[key] = (ball, _marked_measure(mu, ball, MY))
            return hit
        return read

    def carved(self, G: WeightedGraph, Y: Set[int], removed: Set[int],
               unmarked: Set[int]) -> None:
        """Refresh the tables after a carve of G took ``removed`` out of Y,
        leaving ``Y``, and ``unmarked`` out of the marked set; every row
        stays when the carve took all of Y."""
        if not Y:
            self._tables.clear()     # every ball holds its own center
            return
        self._rows.clear()
        plain = self._plain
        for c in removed:
            plain.pop(c, None)
        adj, inf = G.adj, math.inf
        blanked: Dict[int, float] = {}   # source -> R, of rows blanked in place
        for v, hit in plain.items():
            row = hit[1]
            for c in removed:       # most rows miss the cut: test in this frame
                if row[c] != inf:
                    break
            else:
                continue
            reached = [c for c in removed if row[c] != inf]
            if hit[2] is None and not any(row[c] + w == row[y] and y not in removed
                                          for c in reached for y, w in adj[c]):
                for c in reached:
                    row[c] = inf
                blanked[v] = hit[0]
            else:
                hit[2] = removed if hit[2] is None else hit[2] | removed
        size = len(Y) + len(removed)
        for (budget, r), table in self._tables.items():
            for c in removed:
                table.pop(c, None)
            slack = _slack(budget, r, size, G.w_min)
            for v, entry in table.items():
                ball = entry[0]
                if ball.isdisjoint(removed):
                    if not ball.isdisjoint(unmarked):
                        entry[1] = None
                elif slack and not entry[2] and blanked.get(v, -inf) >= r:
                    entry[0], entry[1] = ball - removed, None
                else:
                    entry[1], entry[2] = None, True


def _live_marks(Y: Set[int], M: Set[int]) -> Set[int]:
    MY = M & Y
    if not MY:
        raise ValueError("marked set must intersect Y")
    return MY


def standard_rule(G: WeightedGraph, Y: Set[int], MY: Set[int], mu: Measure,
                  h: int, k: int, k_geom: int, scale_i: int,
                  split: bool, balls: _Balls) -> ClusterTriple:
    """Carve a cluster triple from G[Y] around a max-marked-ball center.

    Balls count the measure of the marked set MY, a subset of Y.  ``k_geom``
    (k for Ramsey, k+1 for clan) sets the geometry: 2*k_geom+1 nested balls
    whose radii step by 2^i/(16*k_geom) and whose hop budgets step by h from
    i*2*k_geom*h.  The ratio exponent stays 1/k.  With ``split`` the triple
    must also allow a 1/3-2/3 split of mu(MY).  Ball measures are read
    through ``balls``: the center scan's from its table, and the nested
    ball A(j) and its marked measure from a ``_Balls.nested`` reader, which
    builds them only for the j the rule tests: 0, 2 k_geom, and j..j+2 up
    to the first admissible j.
    """
    r0 = 2.0 ** (scale_i - 3)
    rho = 2.0 ** scale_i / (16.0 * k_geom)
    b0 = scale_i * 2 * k_geom * h if scale_i > 0 else 0
    allowed = sorted(Y)
    best_v, best_m = -1, -1.0
    for v in allowed:
        m = balls.measure(G, v, b0, r0, allowed, mu, MY)
        if m > best_m + _REL_TOL:
            best_v, best_m = v, m
    v = best_v
    nb = 2 * k_geom
    A = balls.nested(G, v, allowed, mu, MY, lambda j: (b0 + j * h, r0 + j * rho),
                     [(j,) for j in range(nb + 1)])
    muM = measure_of(mu, MY) if split else 0.0
    target = (A(nb)[1] / A(0)[1]) ** (1.0 / k)
    for j in range(nb - 1):
        ratio_ok = A(j + 2)[1] <= A(j)[1] * target * (1.0 + 1e-9)
        split_ok = (not split or A(j)[1] > muM / 3.0 + _REL_TOL
                    or A(j + 2)[1] <= 2.0 * muM / 3.0 + _REL_TOL)
        if ratio_ok and split_ok:
            return ClusterTriple(A(j)[0], A(j + 1)[0], A(j + 2)[0], v, j)
    raise AssertionError(f"no admissible cluster index j <= {nb - 2}")


def alt_rule(G: WeightedGraph, Y: Set[int], MY: Set[int], mu: Measure,
             h: int, k: int, scale_i: int, balls: _Balls,
             fallback: Callable[[], ClusterTriple]) -> ClusterTriple:
    """Alternative cluster rule: hop budget independent of the scale count.

    Ball measures are read through ``balls``.  ``fallback`` runs the
    caller's standard rule when the trivial return cannot be certified.

    The trivial return claims diam^{(2 bball)}(G[Y]) <= delta/2, where
    bball = 2kLh, and the claim is checked: ``_bounded_diam_at_most``
    accepts when every entry of every row is <= delta/2 + 1e-12.  One row
    can decide it first (``_row_certifies``).  Let c be a candidate whose
    ball at (bball, delta/4) is all of Y, and let every entry of c's row be
    <= delta/4 * (1 - 1e-9).  For u, w in Y, each entry is the float sum of
    a walk of at most bball edges in G[Y], within a relative bball * 2^-53
    of its real weight; joining the walks u -> c -> w gives a walk of at
    most 2 bball edges whose float sum is at most delta/2 * (1 - 1e-9) *
    (1 + 3 bball * 2^-53), which is below delta/2 when bball < 10^6 (a
    larger budget is left to the full check).  The relaxation's entry for
    (u, w) is at most that float sum (float addition is monotone), so the
    full check would accept.  When no ball is all of Y, or the row's
    largest entry lies in the band above delta/4 * (1 - 1e-9), the full
    check runs as before, so the decision is the same either way.

    The nested balls A(a, j) around the winner v have budget (2ka + j)h and
    radius (a + j/(2k)) * delta/(4L), and the rule may read them only for
    a < L, j <= 2k and for (L, 0).  Each of those radii is <= delta/4 in
    floats: a + j/(2k) rounds to at most a + 1 <= L, the product with delta,
    a power of two, is exact, and the quotient by 4L rounds to at most
    L * delta/(4L) = delta/4.  So none is clipped: the single profile that
    gave them once, pruned at delta/4 + 1e-12, cut off none of them.

    The rule reads A(a, j) and its marked measure through one
    ``_Balls.nested`` reader, which builds each on the a/j loops' first
    read.  A slack ball mostly reads v's plain row, which the center scan
    stored at a radius >= delta/4 whenever bball was slack there.  Reading
    the unread top level (L, j > 0) too would carve the same (see
    ``_Balls.nested``).
    """
    muM = measure_of(mu, MY)
    L = alt_levels(muM)
    delta = 2.0 ** scale_i
    allowed = sorted(Y)
    bball = 2 * k * L * h
    candidates = sorted(MY)
    table = balls.table(bball, delta / 4.0)
    best_v, best_m = -1, math.inf
    for v in candidates:
        entry = table.get(v)
        m = None if entry is None else entry[1]
        if m is None:
            m = balls.measure(G, v, bball, delta / 4.0, allowed, mu, MY)
        if m < best_m - _REL_TOL:
            best_v, best_m = v, m
    v = best_v
    if best_m > 0.5 * muM + _REL_TOL:
        # trivial return claims diam^{(4kLh)}(G[Y]) <= delta/2; certify it,
        # since far-away unmarked vertices can break the claim, in which
        # case the scale-bounded rule still guarantees progress
        if (_row_certifies(G, balls, candidates, allowed, bball, delta / 4.0)
                or _bounded_diam_at_most(G, balls, allowed, 2 * bball, delta / 2.0)):
            X = frozenset(Y)
            return ClusterTriple(X, X, X, v, 0)
        return fallback()

    A = balls.nested(G, v, allowed, mu, MY,
                     lambda a, j: ((2 * k * a + j) * h, (a + j / (2.0 * k)) * delta / (4.0 * L)),
                     [(a, j) for a in range(L) for j in range(2 * k + 1)] + [(L, 0)])
    for a in range(L):
        if A(a, 0)[1] >= A(a + 1, 0)[1] ** 2 / muM * (1.0 - 1e-9):
            break
    else:       # impossible: the trivial-return branch would have fired first
        raise AssertionError("no admissible level index a")
    target = (A(a + 1, 0)[1] / A(a, 0)[1]) ** (1.0 / k)
    for j in range(2 * (k - 1) + 1):
        if A(a, j + 2)[1] <= A(a, j)[1] * target * (1.0 + 1e-9):
            return ClusterTriple(A(a, j)[0], A(a, j + 1)[0], A(a, j + 2)[0], v, j)
    raise AssertionError("no admissible cluster index j <= 2(k-1)")


def create_cluster(G: WeightedGraph, Y: Set[int], M: Set[int], mu: Measure,
                   h: int, k: int, scale_i: int,
                   balls: Optional[_Balls] = None) -> ClusterTriple:
    """Carve a cluster triple from G[Y] around a max-marked-ball center.

    ``balls`` is the table of the calling partition, which checked the
    arguments once; a standalone call checks them and starts a fresh one.
    """
    if balls is None:
        (Y, h, k), balls = _checked_carve_set(G, Y, mu, h, k, "standard"), _Balls()
    return standard_rule(G, Y, _live_marks(Y, M), mu, h, k, k, scale_i, False, balls)


def create_cluster_alt(G: WeightedGraph, Y: Set[int], M: Set[int], mu: Measure,
                       h: int, k: int, scale_i: int,
                       balls: Optional[_Balls] = None) -> ClusterTriple:
    """Alternative cluster rule: hop budget independent of the scale count.
    A standalone call checks its arguments, as ``create_cluster`` does."""
    if balls is None:
        (Y, h, k), balls = _checked_carve_set(G, Y, mu, h, k, "alt"), _Balls()
    return alt_rule(G, Y, _live_marks(Y, M), mu, h, k, scale_i, balls,
                    lambda: create_cluster(G, Y, M, mu, h, k, scale_i, balls))


def _row_certifies(G: WeightedGraph, balls: _Balls, candidates: List[int],
                   allowed: List[int], budget: int, r: float) -> bool:
    """Whether the first candidate whose ball at (budget, r) is all of
    ``allowed`` has a row within r * (1 - 1e-9); if so, every pair of
    ``allowed`` is within 2r at budget 2 * budget (see ``alt_rule``)."""
    if budget >= 10 ** 6:   # float error could reach the 1e-9 margin
        return False
    for c in candidates:
        if len(balls.ball(budget, r, c)) == len(allowed):
            d = balls.row(G, c, budget, r, allowed)
            return max(d[u] for u in allowed) <= r * (1.0 - 1e-9)
    return False


def _bounded_diam_at_most(G: WeightedGraph, balls: _Balls, allowed: List[int],
                          budget: int, bound: float) -> bool:
    """Whether every pair of ``allowed`` is within ``bound`` at ``budget``
    hops in G[allowed]; the rows are read through ``balls``, where a plain
    row at ``bound`` stays to serve the smaller radii asked for later."""
    for s in allowed:
        d = balls.row(G, s, budget, bound, allowed)
        if any(d[u] > bound + _REL_TOL for u in allowed):
            return False
    return True


def finite_graph(G: WeightedGraph, h: int,
                 k: int) -> Tuple[WeightedGraph, Optional[float], float]:
    """(graph to carve, omega, h-hop diameter) from one all-pairs h-hop scan.

    When every pair has an h-hop path this is (G, None, D'), where D', the
    largest h-hop distance, is the h-hop diameter.  Otherwise omega = 17k*D'
    is the h-hop diameter of the finite completion (see
    ``graph_core.finite_completion``), and this is (graph, omega, omega),
    where the graph is G itself unless a carving could reach omega.

    Carving G in place of the completion is exact.  A relaxation pruned at
    maxr accepts a candidate nd only when nd <= maxr + 1e-12.  Every
    distance du is >= 0, so a step over an added edge offers du + omega >=
    omega; when maxr + 1e-12 < omega no such step is ever accepted, and the
    row on the completion is the row on G, entry for entry: each round takes
    the least of its candidates, whatever the order of the adjacency lists.
    The largest radius any carving relaxes at is the alt rule's diameter
    check at 2^(phi-1), with phi = ceil(log2 omega) the top scale, and
    2^(phi-1) < omega.  Only a float edge case, omega within 1e-12 above a
    power of two, reaches it; then the completion, with its O(n^2) edges,
    is built here."""
    dprime, lacking = _finite_scan(G, h)
    if not lacking:
        return G, None, dprime
    omega = completion_weight(G, k, dprime)
    if 2.0 ** (math.ceil(math.log2(omega)) - 1) + _REL_TOL < omega:
        return G, omega, omega
    return finite_completion(G, h, k)[0], omega, omega


def alt_levels(mu_total: float) -> int:
    """L = ceil(1 + log2 log2 mu), floored at 1."""
    if mu_total <= 2.0:
        return 1
    return max(1, math.ceil(1.0 + math.log2(math.log2(mu_total))))


def padded_partition(G: WeightedGraph, X: Set[int], mu: Measure, M: Set[int],
                     h: int, k: int, scale_i: int,
                     variant: str = "standard",
                     stats: Optional[dict] = None,
                     balls: Optional[_Balls] = None) -> List[Tuple[FrozenSet[int], FrozenSet[int]]]:
    """Partition X into clusters with nested marked subsets.

    Returns [(cluster, marked-subset)] in creation order; once the live
    marked set empties, the remaining vertices become singleton clusters.
    The carvings share one ball table (see ``_Balls``): ``balls``, which
    may hold rows of G[X], or a fresh one.
    """
    Y, h, k = _checked_carve_set(G, X, mu, h, k, variant)
    MY = {vertex_id(v, G.n) for v in M} & Y
    carve = create_cluster if variant == "standard" else create_cluster_alt
    balls = balls or _Balls()
    out: List[Tuple[FrozenSet[int], FrozenSet[int]]] = []
    while Y:
        if not MY:
            for v in sorted(Y):
                out.append((frozenset([v]), frozenset()))
            break
        trip = carve(G, Y, MY, mu, h, k, scale_i, balls)
        if stats is not None:
            stats.setdefault("j_values", []).append(trip.index)
        cluster = trip.mid & Y
        out.append((frozenset(cluster), frozenset(MY & trip.inner)))
        unmarked = MY & trip.outer
        Y -= cluster
        MY -= trip.outer
        MY &= Y
        balls.carved(G, Y, cluster, unmarked)
    return out


def _embed_setup(G: WeightedGraph, mu: Measure, h: int, k: int, variant: str
                 ) -> Tuple[int, int, WeightedGraph, Optional[float], int]:
    """Check an embedding's arguments; (h, k as ints, graph to carve, omega,
    top scale phi)."""
    p = HopParams(h, k)
    _check_variant(variant)
    _check_measure(mu, G.n)
    _check_weights(G)
    h, k = p.h, p.k
    Gw, omega, diam = finite_graph(G, h, k)
    return h, k, Gw, omega, math.ceil(math.log2(max(diam, 1.0)))


def _scale_tree(n: int, phi: int, omega: Optional[float], state: object,
                split: Callable[[Set[int], object, int, _Balls], List[Tuple[Set[int], object]]],
                at_leaf: Callable[[int, int, object], None]) -> Ultrametric:
    """The ultrametric of the scale recursion, built top-down in pre-order.

    ``split(X, state, i, balls)`` carves X at scale 2^i with the ball table
    ``balls`` into [(cluster, state)]; a split into several clusters gets a
    node labeled 2^i, and a singleton {v} becomes a leaf, reported as
    ``at_leaf(leaf id, v, state)``.  The last cluster inherits the table,
    which holds that cluster's rows when its carve took all that was left
    (see ``_Balls``); the others start a fresh one.  Labels at least omega,
    when given, saturate to infinity.
    """
    parent: List[Optional[int]] = []
    label: List[float] = []
    payload: List[Optional[int]] = []

    def grow(X: Set[int], state: object, i: int, up: Optional[int],
             balls: _Balls) -> None:
        if len(X) > 1 and i < 0:
            raise AssertionError("scale exhausted with a non-singleton cluster")
        parts = split(X, state, i, balls) if len(X) > 1 else ()
        if len(parts) == 1:
            return grow(*parts[0], i - 1, up, balls)
        lab = 2.0 ** i if parts else 0.0
        if up is not None and lab > label[up]:
            raise ValueError("root label smaller than a child root label")
        node = len(parent)
        parent.append(up)
        label.append(lab)
        payload.append(None if parts else next(iter(X)))
        if not parts:
            at_leaf(node, payload[node], state)
        for j, (Y, sub) in enumerate(parts):
            grow(Y, sub, i - 1, node, balls if j == len(parts) - 1 else _Balls())

    grow(set(range(n)), state, phi, None, _Balls())
    U = Ultrametric(parent, label, payload)
    return U if omega is None else saturate_labels(U, omega)


def _constants(kind: str, variant: str, n: int, k: int, phi: int,
               mass: float) -> Tuple[float, int, float]:
    """(t, beta, path_t) of a "ramsey" or "clan" embedding; the alt rule's
    top level L is taken from ``mass``.  path_t is the clan path bound."""
    kg = k if kind == "ramsey" else k + 1
    if n == 1:
        return 16.0 * kg, 1, 16.0 * kg
    if variant == "standard":
        L = 1
        beta = 2 * (phi + (2 if kind == "ramsey" else 1)) * 2 * kg
    else:
        L = alt_levels(mass)
        beta = 4 * k * L
    path_t = 2.0 * 8.0 * kg * L * max(1.0, math.log(mass) / math.log(1.5))
    return 16.0 * kg * L, beta, path_t


def ramsey_embed(G: WeightedGraph, mu: Measure, M0: Set[int], h: int, k: int,
                 variant: str = "standard") -> RamseyEmbedding:
    """Build the full Ramsey-type embedding of G (all vertices as leaves)."""
    M0 = {vertex_id(v, G.n) for v in M0}
    h, k, Gw, omega, phi = _embed_setup(G, mu, h, k, variant)
    stats: dict = {}
    survivors: Set[int] = set()

    def split(X, M, i, balls):
        return [(set(cluster), set(marked)) for cluster, marked in
                padded_partition(Gw, X, mu, M, h, k, i, variant, stats, balls)]

    def at_leaf(leaf, v, M):
        if v in M:
            survivors.add(v)

    U = _scale_tree(G.n, phi, omega, M0, split, at_leaf)
    t, beta, _ = _constants("ramsey", variant, G.n, k, phi,
                            measure_of(mu, M0 or range(G.n)))
    # measure survival guarantee, asserted on every run
    if M0:
        surv = measure_of(mu, survivors)
        need = measure_of(mu, M0) ** (1.0 - 1.0 / k)
        if surv < need - 1e-6:
            raise AssertionError(f"measure survival violated: {surv} < {need}")
    return RamseyEmbedding(U, frozenset(survivors), t, beta, h, k, variant, phi,
                           omega, max(stats.get("j_values", [0])))


def mwu_measures(weights: Sequence[float], k: int) -> List[float]:
    """Scale MWU weights to the mixed (>=1)-measure used each round."""
    n = len(weights)
    total = sum(weights)
    delta = (k + 1) ** (-(k + 1) / k)
    s = n ** (1.0 / k) / delta
    return [s * n * (1.0 / (s * n) + (s - 1.0) / s * (w / total)) for w in weights]


def _mwu_rounds(n: int, rounds: int, embed: Callable[[List[float]], object],
                penalty: Callable[[object, int], int]) -> list:
    """[(embed(weights), 1/rounds)] per round; after each round w[v] is
    multiplied by (1 + eta)^penalty(embedding, v).

    A round that penalizes no vertex is a fixed point: it fills every
    remaining round.  This is exact.  Penalties are nonnegative integers
    (an unpadded vertex for Ramsey, |f(v)| - 1 for clan), so with all of
    them 0 every weight is multiplied by (1 + eta)**0 == 1.0 and stays the
    same float.  ``ramsey_embed`` and ``clan_embed`` are deterministic in
    (G, measure, h, k, variant), so every later round would return an
    equal embedding; the one object is repeated instead."""
    rounds = as_integer(rounds, "rounds")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    eta = 0.5 / math.sqrt(rounds)
    weights = [1.0] * n
    out = []
    while len(out) < rounds:
        emb = embed(weights)
        pen = [penalty(emb, v) for v in range(n)]
        if not any(pen):
            return out + [(emb, 1.0 / rounds)] * (rounds - len(out))
        out.append((emb, 1.0 / rounds))
        weights = [w * (1.0 + eta) ** p for w, p in zip(weights, pen)]
    return out


def ramsey_distribution(G: WeightedGraph, h: int, mode: str, rounds: int,
                        k: int = 2, epsilon: float = 0.25,
                        variant: str = "standard") -> List[Tuple[RamseyEmbedding, float]]:
    """Multiplicative-weights distribution over Ramsey embeddings.

    mode "fixed_k": per-vertex inclusion probability Omega(n^{-1/k});
    mode "inclusion": k is derived from epsilon and inclusion >= 1-epsilon.
    Once a round pads every vertex the weights cannot move, so that
    embedding fills the remaining rounds as one repeated object (see
    ``_mwu_rounds``).
    """
    p = HopParams(h, k, epsilon)
    h, k = p.h, p.k
    n = G.n
    if mode == "fixed_k":
        kk = k
    elif mode == "inclusion":
        kk = max(1, math.ceil(4.0 * math.log(n) / epsilon)) if n > 1 else 1
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return _mwu_rounds(
        n, rounds,
        lambda w: ramsey_embed(G, mwu_measures(w, kk), set(range(n)), h, kk + 1, variant),
        lambda emb, v: v not in emb.M)
