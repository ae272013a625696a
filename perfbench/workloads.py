"""The benchmark's workloads: inputs, timed builds, query operations and the
checks of every output.

Each workload builds a pool of graphs from the seed.  A round builds every
structure of every pool graph; the query stream then runs over the last
round's structures.  Every workload has a primary query (``query``) and a
secondary one (``query2``).
"""
from __future__ import annotations

import math
import random
from typing import Callable, Dict, List, Tuple

import inputs


class Checks:
    """Counts checked operations and the ones that failed."""

    def __init__(self) -> None:
        self.checked = 0
        self.failed = 0
        self.messages: List[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.checked += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


class Workload:
    name = ""
    h = 1
    pairs_per_graph = 0

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")
        self.jsons = self.make_graphs()
        self.refs = [inputs.ReferenceDistances(inputs.reference_adjacency(t))
                     for t in self.jsons]
        self.pairs = [inputs.query_pairs(ref, self.h, self.pairs_per_graph, self.rng)
                      for ref in self.refs]

    def truncate(self, count: int) -> None:
        """Keep only the first ``count`` graphs of the pool."""
        del self.jsons[count:], self.refs[count:], self.pairs[count:]

    def make_graphs(self) -> List[str]:
        raise NotImplementedError

    def builds(self, lib, gi: int, G) -> List[Tuple[str, Callable[[], object]]]:
        """The timed builds for pool graph ``gi``, as (label, thunk)."""
        raise NotImplementedError

    def fingerprint(self, built: Dict[str, object]) -> list:
        """Deterministic figures of one graph's structures."""
        raise NotImplementedError

    def size_words(self, built: Dict[str, object]) -> int:
        raise NotImplementedError

    def layer_counts(self, built: Dict[str, object]) -> Dict[str, int]:
        """Per-layer counts the structures themselves record."""
        return {}

    def check_build(self, gi: int, built: Dict[str, object], chk: Checks) -> None:
        """Check the guarantees a build asserts about itself."""

    def prepare_checks(self, gi: int, built: Dict[str, object]) -> None:
        """Outside any timed region: compute the reference rows the query
        checks read, and add to ``built`` any lookup the queries need."""

    def query_fn(self, op: str, lib, built: Dict[str, object]) -> Callable[[int, int], object]:
        raise NotImplementedError

    def check_query(self, op: str, gi: int, built: Dict[str, object],
                    u: int, v: int, result, chk: Checks) -> None:
        raise NotImplementedError

    def infinite_coarse(self, lib, built: Dict[str, object], u: int, v: int) -> bool:
        """Whether the pair's coarse estimate is infinite (query mix record)."""
        raise NotImplementedError

    def answered(self, op: str, result) -> bool:
        """Whether a query returned a finite distance or a delivered path."""
        return not inputs.is_infinite(result)


def _sandwich(chk: Checks, ref, u: int, v: int, h: int, B: int, stretch: float,
              answer, what: str) -> None:
    ok = inputs.sandwich_ok(answer, ref.d(u, v, B * h), ref.d(u, v, h), stretch)
    chk.expect(ok, "" if ok else f"{what}({u},{v}) = {answer} outside [d^(B h), stretch d^(h)]")


class OracleRW(Workload):
    """build_hop_oracle + hop_oracle_query on random-weighted graphs."""

    name = "oracle-rw"
    n, h, k, epsilon = 48, 2, 2, 0.5
    graphs = 12
    pairs_per_graph = 2000

    def make_graphs(self) -> List[str]:
        self.build_seeds = [self.rng.randrange(1 << 30) for _ in range(self.graphs)]
        return [inputs.random_weighted_json(self.n, 6.0 / self.n, 1.0, 10.0, self.rng)
                for _ in range(self.graphs)]

    def builds(self, lib, gi, G):
        ds = lib.datastructures
        return [("oracle", lambda: ds.build_hop_oracle(G, self.h, self.k, self.epsilon,
                                                       self.build_seeds[gi]))]

    def fingerprint(self, built):
        O = built["oracle"]
        return [O.size_words(), len(O.inner), O.coarse.attempts, O.hop_budget]

    def size_words(self, built):
        return built["oracle"].size_words()

    def layer_counts(self, built):
        O = built["oracle"]
        return {"datastructures.coarse_attempts": O.coarse.attempts,
                "datastructures.realized_scales": len(O.inner)}

    def prepare_checks(self, gi, built):
        O = built["oracle"]
        for u in {u for u, _, _ in self.pairs[gi]}:
            self.refs[gi].row(u, O.hop_budget * self.h)
            self.refs[gi].row(u, O.coarse.beta_hops * self.h)

    def query_fn(self, op, lib, built):
        O = built["oracle"]
        if op == "query":
            q = lib.datastructures.hop_oracle_query
            return lambda u, v: q(O, u, v)
        return O.coarse.query

    def check_query(self, op, gi, built, u, v, result, chk):
        O = built["oracle"]
        if op == "query":
            _sandwich(chk, self.refs[gi], u, v, self.h, O.hop_budget, O.stretch,
                      result, "hop_oracle_query")
        else:
            _sandwich(chk, self.refs[gi], u, v, self.h, O.coarse.beta_hops,
                      O.coarse.t_coarse, result, "coarse estimate")

    def infinite_coarse(self, lib, built, u, v):
        return inputs.is_infinite(built["oracle"].coarse.query(u, v))


class ServeRW(Workload):
    """build_hop_labeling + build_routing_scheme, then labeling_query and
    route, on random-weighted graphs."""

    name = "serve-rw"
    n, h, k, epsilon = 128, 8, 2, 0.5
    graphs = 12
    pairs_per_graph = 1000

    def make_graphs(self) -> List[str]:
        self.build_seeds = [self.rng.randrange(1 << 30) for _ in range(self.graphs)]
        return [inputs.random_weighted_json(self.n, 6.0 / self.n, 1.0, 10.0, self.rng)
                for _ in range(self.graphs)]

    def builds(self, lib, gi, G):
        ds = lib.datastructures
        return [("labeling", lambda: ds.build_hop_labeling(G, self.h, self.k, self.epsilon)),
                ("routing", lambda: ds.build_routing_scheme(G, self.h, self.k, self.epsilon,
                                                            self.build_seeds[gi]))]

    def fingerprint(self, built):
        L, S = built["labeling"], built["routing"]
        return [L.size_words(), S.size_words(), len(L.omegas), len(S.inner),
                len(L.labels[0].coarse), S.coarse.rounds(), L.hop_budget]

    def size_words(self, built):
        return built["labeling"].size_words() + built["routing"].size_words()

    def layer_counts(self, built):
        L, S = built["labeling"], built["routing"]
        return {"datastructures.coarse_rounds": len(L.labels[0].coarse) + S.coarse.rounds(),
                "datastructures.realized_scales": len(L.omegas) + len(S.inner)}

    def prepare_checks(self, gi, built):
        L = built["labeling"]
        for u in {u for u, _, _ in self.pairs[gi]}:
            self.refs[gi].row(u, L.hop_budget * self.h)

    def query_fn(self, op, lib, built):
        ds = lib.datastructures
        if op == "query":
            L = built["labeling"]
            q, label = ds.labeling_query, L.label
            return lambda u, v: q(L, label(u), label(v))
        S = built["routing"]
        r = ds.route
        return lambda u, v: r(S, u, v)

    def check_query(self, op, gi, built, u, v, result, chk):
        ref = self.refs[gi]
        if op == "query":
            L = built["labeling"]
            _sandwich(chk, ref, u, v, self.h, L.hop_budget, L.stretch, result,
                      "labeling_query")
            return
        S = built["routing"]
        dh = ref.d(u, v, self.h)
        if not result.delivered:
            chk.expect(dh == math.inf, f"route({u},{v}) not delivered, d^(h) = {dh}")
            return
        path = result.path
        w = inputs.walk_weight(ref.adj, path)
        hops_ok = len(path) - 1 <= result.weight_aux / S.omegas[result.scale] * (1 + 1e-9)
        chk.expect(path[0] == u and path[-1] == v and w < math.inf and hops_ok
                   and abs(w - result.weight) <= 1e-9 * max(1.0, w)
                   and (dh == math.inf or result.weight <= S.stretch * dh * (1 + 1e-9)),
                   f"route({u},{v}) delivered a bad path {path} of weight {result.weight}")

    def infinite_coarse(self, lib, built, u, v):
        return inputs.is_infinite(built["routing"].coarse.query(u, v))

    def answered(self, op, result):
        return result.delivered if op == "query2" else not inputs.is_infinite(result)


class EmbedGrid(Workload):
    """Ramsey (standard and alt), clan, sparse-cover and path-tree
    embeddings of a unit grid; distance and induced-path queries."""

    name = "embed-grid"
    rows = cols = 10
    h, k = 2, 2
    pairs_per_graph = 8000

    def make_graphs(self) -> List[str]:
        n = self.rows * self.cols
        self.root = self.rng.randrange(n)
        self.cover_seed = self.rng.randrange(1 << 30)
        self.cover_delta = float(self.h)
        return [inputs.grid_json(self.rows, self.cols)]

    def builds(self, lib, gi, G):
        hm, h, k, n = lib.hopmetric, self.h, self.k, G.n
        ones = [1.0] * n
        return [
            ("ramsey", lambda: hm.ramsey_embed(G, ones, set(range(n)), h, k)),
            ("ramsey_alt", lambda: hm.ramsey_embed(G, ones, set(range(n)), h, k, "alt")),
            ("clan", lambda: hm.clan_embed(G, ones, h, k)),
            ("cover", lambda: hm.sparse_cover(G, self.cover_delta, self.cover_seed)),
            ("pte", lambda: hm.build_path_tree_embedding(G, self.root, h)),
        ]

    def fingerprint(self, built):
        R, A, C = built["ramsey"], built["ramsey_alt"], built["clan"]
        SC, P = built["cover"], built["pte"]
        return [len(R.U.parent), len(R.M), R.beta, len(A.U.parent), len(A.M), A.beta,
                len(C.U.parent), C.clan_size(), len(SC.clusters), SC.attempts,
                P.T.n_nodes(), P.hop_bound]

    def size_words(self, built):
        """2 per ultrametric node, 1 per clan or tree copy, 1 per cover
        membership."""
        R, A, C = built["ramsey"], built["ramsey_alt"], built["clan"]
        return (2 * (len(R.U.parent) + len(A.U.parent) + len(C.U.parent))
                + C.clan_size() + sum(len(c) for c, _, _ in built["cover"].clusters)
                + built["pte"].T.n_nodes())

    def layer_counts(self, built):
        return {"cover.attempts": built["cover"].attempts}

    def check_build(self, gi, built, chk):
        ref, n, k = self.refs[gi], len(self.refs[gi].adj), self.k
        for key in ("ramsey", "ramsey_alt"):
            M = built[key].M
            chk.expect(len(M) >= n ** (1.0 - 1.0 / k) - 1e-9,
                       f"{key}: survival |M| = {len(M)} < n^(1-1/k)")
        C = built["clan"]
        chk.expect(C.clan_size() <= n ** (1.0 + 1.0 / k) + 1e-9,
                   f"clan size {C.clan_size()} > n^(1+1/k)")
        P = built["pte"]
        mu = [float(n) if v == self.root else 1.0 for v in range(n)]
        weighted = sum(mu[v] * len(P.clan.f[v]) for v in range(n))
        chk.expect(len(P.f[self.root]) == 1 and weighted <= sum(mu) ** 1.5 * (1 + 1e-9),
                   "path-tree root copy or clan size bound violated")
        SC = built["cover"]
        rmax = math.log2(2 * n)
        chk.expect(all(r <= rmax for _, _, r in SC.clusters), "cover radius bound violated")
        member = [set() for _ in range(n)]
        for ci, (c, _, _) in enumerate(SC.clusters):
            for x in c:
                member[x].add(ci)
        missed = sum(1 for u in range(n) for v in range(u + 1, n)
                     if ref.d(u, v, n) <= self.cover_delta + 1e-12
                     and not member[u] & member[v])
        chk.expect(missed == 0, f"cover misses {missed} delta-close pairs")

    def prepare_checks(self, gi, built):
        ref = self.refs[gi]
        budgets = {self.h, built["ramsey"].beta * self.h, built["ramsey_alt"].beta * self.h,
                   built["clan"].beta * self.h}
        for u in {u for u, _, _ in self.pairs[gi]}:
            for b in budgets:
                ref.row(u, b)
        built["leaves"] = (built["ramsey"].leaf_of(), built["ramsey_alt"].leaf_of())
        # copies of T joined by finite edges, found independently of the library
        T = built["pte"].T
        comp = list(range(T.n_nodes()))

        def find(x):
            while comp[x] != x:
                comp[x] = comp[comp[x]]
                x = comp[x]
            return x
        for c, p in enumerate(T.parent):
            if p is not None and T.weight[c] < math.inf:
                comp[find(c)] = find(p)
        built["component"] = [find(x) for x in range(T.n_nodes())]

    def query_fn(self, op, lib, built):
        R, A, C = built["ramsey"], built["ramsey_alt"], built["clan"]
        if op == "query":
            ud = lib.ultrametric.ultra_distance
            UR, UA = R.U, A.U
            lr, la = built["leaves"]
            chief = C.chief_distance
            return lambda u, v: (ud(UR, lr[u], lr[v]), ud(UA, la[u], la[v]), chief(u, v))
        P = built["pte"]
        induced, unreachable, chi = lib.preserve.induced_path, lib.preserve.Unreachable, P.chi

        def path(u, v):
            try:
                return induced(P, chi[u], chi[v])
            except unreachable:
                return None
        return path

    def check_query(self, op, gi, built, u, v, result, chk):
        ref, h = self.refs[gi], self.h
        if op == "query":
            R, A, C = built["ramsey"], built["ramsey_alt"], built["clan"]
            dh = ref.d(u, v, h)
            for name, emb, d in (("ramsey", R, result[0]), ("ramsey_alt", A, result[1])):
                marked = u in emb.M or v in emb.M
                _sandwich(chk, ref, u, v, h, emb.beta, emb.t if marked else math.inf,
                          d, name + " ultra_distance")
            _sandwich(chk, ref, u, v, h, C.beta, C.t, result[2], "chief_distance")
            return
        P = built["pte"]
        a, b = P.chi[u], P.chi[v]
        joined = built["component"][a] == built["component"][b]
        if result is None:
            chk.expect(not joined, f"induced_path({a},{b}) reported separated copies")
            return
        walk, total = result
        w = inputs.walk_weight(ref.adj, walk)
        chk.expect(joined and walk[0] == u and walk[-1] == v
                   and abs(w - total) <= 1e-9 * max(1.0, w)
                   and len(walk) - 1 <= P.hop_bound,
                   f"induced_path({a},{b}) returned a bad walk of weight {total}")

    def infinite_coarse(self, lib, built, u, v):
        """The grid has no coarse layer: the standard Ramsey distance stands in."""
        lr, _ = built["leaves"]
        return inputs.is_infinite(
            lib.ultrametric.ultra_distance(built["ramsey"].U, lr[u], lr[v]))

    def answered(self, op, result):
        """query: the chief distance is finite; query2: the copies are joined."""
        return result is not None if op == "query2" else not inputs.is_infinite(result[2])


WORKLOADS = {w.name: w for w in (OracleRW, ServeRW, EmbedGrid)}
