"""Command-line entry point: graph generators, constructions, and the
invariant-report harness.

Every subcommand builds one structure and then replays the module's
invariants against the exact bounded-hop oracle, emitting a machine-readable
JSON report.  Reports are byte-identical for identical (config, seed).
"""
from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Tuple

import click

from . import datastructures as ds
from .clan import clan_embed
from .cover import edge_costs, sparse_cover
from .graph_core import (WeightedGraph, as_integer, dijkstra, hop_diameter,
                         hop_distance_all, is_inf)
from .preserve import (Unreachable, build_path_tree_embedding,
                       image_of_general_subgraph, induced_path)
from .ramsey import ramsey_embed
from .rng import substream
from .ultrametric import ultra_distance, validate_ultrametric

SEED_ENV = "HOPMETRIC_SEED"


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV, "0")
    try:
        return int(raw)
    except ValueError:
        raise click.UsageError(
            f"${SEED_ENV} must be an integer seed, got {raw!r}") from None


# -- graph generation ------------------------------------------------------

def gen_graph(family: str, params: Dict[str, float], seed: int = 0) -> WeightedGraph:
    """Deterministic graph families: path, cycle, grid, gnp, random-weighted."""
    rng = substream(seed, f"gen-{family}")
    if family == "path":
        n = as_integer(params["n"], "n")
        return WeightedGraph(n, [(i, i + 1, 1.0) for i in range(n - 1)])
    if family == "cycle":
        n = as_integer(params["n"], "n")
        if n < 3:
            raise ValueError("cycle needs n >= 3")
        return WeightedGraph(n, [(i, (i + 1) % n, 1.0) for i in range(n)])
    if family == "grid":
        rows, cols = as_integer(params["rows"], "rows"), as_integer(params["cols"], "cols")
        idx = lambda r, c: r * cols + c
        edges = []
        for r in range(rows):
            for c in range(cols):
                if c + 1 < cols:
                    edges.append((idx(r, c), idx(r, c + 1), 1.0))
                if r + 1 < rows:
                    edges.append((idx(r, c), idx(r + 1, c), 1.0))
        return WeightedGraph(rows * cols, edges)
    if family in ("gnp", "random-weighted"):
        n, p = as_integer(params["n"], "n"), float(params["p"])
        wmin = float(params.get("wmin", 1.0))
        wmax = float(params.get("wmax", 1.0))
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    w = 1.0 if family == "gnp" else rng.uniform(wmin, wmax)
                    edges.append((u, v, w))
        if not edges:
            edges = [(0, min(1, n - 1), 1.0)] if n > 1 else []
        return WeightedGraph(n, edges)
    raise ValueError(f"unknown family {family!r}")


# -- invariant reports -----------------------------------------------------

@dataclass
class ExperimentConfig:
    subcommand: str
    graph: Optional[str] = None          # path to a graph JSON file
    family: Optional[str] = None
    params: Optional[Dict[str, float]] = None
    h: int = 2
    k: int = 2
    epsilon: float = 0.5
    seed: int = 0
    delta: float = 1.0
    root: int = 0
    variant: str = "standard"
    subgraph: Optional[str] = None
    pairs: int = 200


def _fmt(x: float) -> float:
    return float(f"{x:.12g}")


class Report:
    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.invariants: List[Dict[str, object]] = []
        self.constants: Dict[str, object] = {}

    def check(self, name: str, passed: bool, detail: Optional[str] = None) -> None:
        entry: Dict[str, object] = {"name": name, "passed": bool(passed)}
        if detail is not None:
            entry["counterexample" if not passed else "detail"] = detail
        self.invariants.append(entry)

    def to_json(self) -> str:
        payload = {
            "config": {k: v for k, v in asdict(self.cfg).items() if v is not None},
            "constants": self.constants,
            "invariants": self.invariants,
            "passed": self.passed,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @property
    def passed(self) -> bool:
        return all(e["passed"] for e in self.invariants)


# what reading or parsing a malformed JSON input file raises
_BAD_FILE = (OSError, ValueError, KeyError, TypeError)


def _load_graph(cfg: ExperimentConfig) -> WeightedGraph:
    if cfg.graph:
        try:
            return WeightedGraph.load(cfg.graph)
        except _BAD_FILE as exc:
            raise click.UsageError(f"malformed graph file {cfg.graph!r}: {exc!r}") from exc
    if cfg.family:
        return gen_graph(cfg.family, cfg.params or {}, cfg.seed)
    raise click.UsageError("provide --graph or a generator family")


def _sample_pairs(n: int, count: int, seed: int) -> List[Tuple[int, int]]:
    if n < 2:
        return []
    all_pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    if len(all_pairs) <= count:
        return all_pairs
    rng = substream(seed, "pairs")
    return [all_pairs[rng.randrange(len(all_pairs))] for _ in range(count)]


# filled by @_subcommand below
_RUNNERS: Dict[str, Callable[[WeightedGraph, ExperimentConfig, Report], None]] = {}


def run_experiment(cfg: ExperimentConfig) -> Report:
    G = _load_graph(cfg)
    rep = Report(cfg)
    fn = _RUNNERS.get(cfg.subcommand)
    if fn is None:
        raise click.UsageError(f"unknown subcommand {cfg.subcommand!r}")
    fn(G, cfg, rep)
    return rep


# -- click wiring ----------------------------------------------------------

class _Float(click.FloatRange):
    """A FloatRange of finite values: it also rejects NaN, which no bound
    comparison catches, and infinity, which an open range admits."""

    def convert(self, value, param, ctx):
        rv = super().convert(value, param, ctx)
        if not math.isfinite(rv):
            self.fail(f"{rv} is not in the range {self._describe_range()}.",
                      param, ctx)
        return rv


_POSITIVE = _Float(min=0, min_open=True)
_OUTPUT = click.option("-o", "--output", type=click.Path(), default=None)
_SEED = click.option(
    "--seed", type=int, help=f"PRNG seed (default: ${SEED_ENV} or 0).",
    callback=lambda _ctx, _param, seed: _default_seed() if seed is None else seed)
_GRAPH = click.option("--graph", type=click.Path(exists=True), default=None,
                      help="Graph JSON file.")
_H = click.option("--h", type=click.IntRange(min=1), default=2)
_K = click.option("--k", type=click.IntRange(min=1), default=2)
_EPSILON = click.option("--epsilon", default=0.5,
                        type=_Float(0, 1, min_open=True, max_open=True))
_ALT = click.option("--alt", "variant", flag_value="alt", default="standard")


def _write(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


@click.group()
def main() -> None:
    """Hop-constrained metric embeddings toolkit."""


def _subcommand(name: str, doc: str, *options):
    """Register a runner under name, with a click command of that name that
    takes -o, --seed and --graph and then options, runs it and emits its
    report (exit code 1 if an invariant fails)."""
    def register(runner):
        _RUNNERS[name] = runner

        def command(output: Optional[str], **kw) -> None:
            rep = run_experiment(ExperimentConfig(name, **kw))
            _write(rep.to_json(), output)
            if not rep.passed:
                sys.exit(1)

        for option in reversed((_OUTPUT, _SEED, _GRAPH) + options):
            command = option(command)
        main.command(name=name, help=doc)(command)
        return runner
    return register


@main.command()
@click.option("--family", required=True,
              type=click.Choice(["path", "cycle", "grid", "gnp", "random-weighted"]))
@click.option("--n", type=click.IntRange(min=1), default=8)
@click.option("--rows", type=click.IntRange(min=1), default=4)
@click.option("--cols", type=click.IntRange(min=1), default=4)
@click.option("--p", type=_Float(0, 1), default=0.2)
@click.option("--wmin", type=_POSITIVE, default=1.0)
@click.option("--wmax", type=_POSITIVE, default=10.0)
@_SEED
@_OUTPUT
def gen(family, n, rows, cols, p, wmin, wmax, seed, output):
    """Generate a graph from a deterministic family."""
    if wmin > wmax:
        raise click.BadParameter(f"{wmin} is larger than --wmax {wmax}.",
                                 param_hint="'--wmin'")
    try:
        G = gen_graph(family, {"n": n, "rows": rows, "cols": cols, "p": p,
                               "wmin": wmin, "wmax": wmax}, seed)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    _write(G.to_json() + "\n", output)


@_subcommand("check", "Report basic graph statistics.", _H)
def _run_check(G: WeightedGraph, cfg: ExperimentConfig, rep: Report) -> None:
    diam = hop_diameter(G, cfg.h)
    rep.constants.update({
        "n": G.n, "m": len(G.edges), "scale": _fmt(G.scale),
        "aspect_ratio": _fmt(G.max_weight()),
        "hop_diameter": "inf" if is_inf(diam) else _fmt(diam),
        "total_weight": _fmt(G.total_weight()),
    })
    rep.check("graph well-formed", True)


@_subcommand("ramsey", "Ramsey-type ultrametric embedding + invariant suite.",
             _H, _K, _ALT)
def _run_ramsey(G: WeightedGraph, cfg: ExperimentConfig, rep: Report) -> None:
    mu = [1.0] * G.n
    emb = ramsey_embed(G, mu, set(range(G.n)), cfg.h, cfg.k, cfg.variant)
    rep.constants.update({"t": _fmt(emb.t), "beta": emb.beta, "phi": emb.phi,
                          "survivors": len(emb.M), "max_j": emb.max_j})
    rep.check("ultrametric valid", validate_ultrametric(emb.U))
    need = G.n ** (1.0 - 1.0 / cfg.k)
    rep.check("measure survival mu(M) >= mu(M0)^(1-1/k)",
              len(emb.M) >= need - 1e-9, f"{len(emb.M)} vs {need}")
    leaf = emb.leaf_of()

    def answer(u: int, v: int) -> Tuple[float, Optional[float]]:
        dU = ultra_distance(emb.U, leaf[u], leaf[v])
        return dU, (dU if u in emb.M or v in emb.M else None)

    bad, _ = _sandwich(G, cfg.h, emb.beta, emb.t, answer)
    rep.check("domination and marked-pair distortion", bad == 0, f"{bad} violations")
    jmax = 2 * (cfg.k - 1)
    rep.check("cluster index j <= 2(k-1)", emb.max_j <= jmax,
              f"{emb.max_j} vs {jmax}")


@_subcommand("clan", "Clan embedding + invariant suite.", _H, _K, _ALT)
def _run_clan(G: WeightedGraph, cfg: ExperimentConfig, rep: Report) -> None:
    mu = [1.0] * G.n
    emb = clan_embed(G, mu, cfg.h, cfg.k, cfg.variant)
    size = emb.clan_size()
    bound = G.n ** (1.0 + 1.0 / cfg.k)
    rep.constants.update({"t": _fmt(emb.t), "beta": emb.beta,
                          "clan_size": size, "size_bound": _fmt(bound)})
    rep.check("ultrametric valid", validate_ultrametric(emb.U))
    rep.check("weighted clan size <= mu(V)^(1+1/k)", size <= bound + 1e-9,
              f"{size} vs {bound}")
    bad, _ = _sandwich(G, cfg.h, emb.beta, emb.t,
                       lambda u, v: (emb.min_copy_distance(u, v),
                                     emb.chief_distance(u, v)))
    rep.check("domination and chief distortion", bad == 0, f"{bad} violations")


@_subcommand("cover", "Sparse cover + invariant suite.",
             click.option("--delta", type=_POSITIVE, required=True))
def _run_cover(G: WeightedGraph, cfg: ExperimentConfig, rep: Report) -> None:
    sc = sparse_cover(G, cfg.delta, cfg.seed)
    mu = edge_costs(G)
    muG = sum(mu.values()) or 1.0
    rep.constants.update({
        "clusters": len(sc.clusters), "attempts": sc.attempts,
        "cost_ratio": _fmt(sc.cluster_cost(mu) / muG),
        "mean_multiplicity": _fmt(sum(sc.multiplicity(v) for v in range(G.n)) / G.n),
    })
    apsp = [dijkstra(G.adj, u) for u in range(G.n)]
    miss = 0
    for u in range(G.n):
        for v in range(u + 1, G.n):
            d = apsp[u][v]
            if not is_inf(d) and d <= cfg.delta + 1e-12:
                if not any(u in C and v in C for C, _, _ in sc.clusters):
                    miss += 1
    rep.check("cover property for delta-close pairs", miss == 0, f"{miss} misses")
    rmax = math.log2(2 * G.n)
    rep.check("radius <= delta*log(2n)",
              all(r <= rmax for _, _, r in sc.clusters))


@_subcommand("preserve", "Path-tree embedding (or general-subgraph image) + invariant suite.",
             _H, click.option("--root", type=int, default=0), _ALT,
             click.option("--subgraph", type=click.Path(exists=True), default=None))
def _run_preserve(G: WeightedGraph, cfg: ExperimentConfig, rep: Report) -> None:
    if not 0 <= cfg.root < G.n:
        raise click.UsageError(f"root {cfg.root} is not a vertex of the {G.n}-vertex graph")
    if cfg.subgraph:
        try:
            with open(cfg.subgraph, "r", encoding="utf-8") as fh:
                H_edges = [(as_integer(u, "vertex id"), as_integer(v, "vertex id"))
                           for u, v, *_ in json.load(fh)["edges"]]
        except _BAD_FILE as exc:
            raise click.UsageError(f"malformed subgraph file {cfg.subgraph!r}: {exc!r}") from exc
        for u, v in H_edges:
            if not (0 <= u < G.n and 0 <= v < G.n and G.has_edge(u, v)):
                raise click.UsageError(f"subgraph edge ({u},{v}) is not an edge of the graph")
        pte, gi = image_of_general_subgraph(G, H_edges, cfg.h, cfg.variant,
                                            cfg.seed, cfg.root)
        H1 = WeightedGraph(G.n, [(u, v, 1.0) for u, v in
                                 {(min(a, b), max(a, b)) for a, b in H_edges}])
        miss = 0
        for u in range(G.n):
            dh = hop_distance_all(H1, u, cfg.h)
            for v in range(u + 1, G.n):
                if not is_inf(dh[v]) and not gi.co_component(pte.T.payload, u, v):
                    miss += 1
        rep.constants.update({"images": len(gi.images),
                              "image_edges": len(gi.edges)})
        rep.check("low-hop pairs co-componented", miss == 0, f"{miss} misses")
        return
    pte = build_path_tree_embedding(G, cfg.root, cfg.h, cfg.variant)
    rep.constants.update({
        "root_copies": len(pte.f[cfg.root]), "hop_bound": pte.hop_bound,
        "edge_hop_budget": pte.edge_hop_budget,
        "path_bound": _fmt(pte.path_bound),
        "copies": sum(len(c) for c in pte.f.values()),
    })
    rep.check("unique root copy", len(pte.f[cfg.root]) == 1)
    copies = [c for v in range(G.n) for c in pte.f[v]]
    rng = substream(cfg.seed, "preserve-pairs")
    sample = [(rng.choice(copies), rng.choice(copies)) for _ in range(cfg.pairs)]
    bad = 0
    for a, b in sample:
        try:
            p, _w = induced_path(pte, a, b)
        except Unreachable:
            continue
        if len(p) - 1 > pte.hop_bound:
            bad += 1
    rep.check("induced paths within hop bound", bad == 0, f"{bad} violations")


def _sandwich(G: WeightedGraph, h: int, budget: int, stretch: float,
              answer: Callable[[int, int], Tuple[float, Optional[float]]],
              ) -> Tuple[int, int]:
    """(violations, pairs checked) of d^(budget*h) <= lower and
    upper <= stretch*d^(h) over ordered pairs u != v, where answer(u, v)
    gives (lower, upper); a finite lower where d^(budget*h) is infinite is
    a violation, and an upper of None is not checked."""
    bad = checked = 0
    for u in range(G.n):
        dh = hop_distance_all(G, u, h)
        dB = hop_distance_all(G, u, budget * h)
        for v in range(G.n):
            if v == u:
                continue
            lo, up = answer(u, v)
            checked += 1
            if lo < dB[v] * (1 - 1e-9):
                bad += 1
            if up is not None and not is_inf(dh[v]) and (
                    is_inf(up) or up > stretch * dh[v] * (1 + 1e-9)):
                bad += 1
    return bad, checked


def _sandwich_report(G: WeightedGraph, cfg: ExperimentConfig, rep: Report,
                     query: Callable[[int, int], float], budget: int,
                     stretch: float) -> None:
    bad, checked = _sandwich(G, cfg.h, budget, stretch,
                             lambda u, v: (query(u, v),) * 2)
    rep.check("sandwich d^(Bh) <= query <= stretch*d^(h)", bad == 0,
              f"{bad}/{checked} violations")


@_subcommand("oracle", "Hop-constrained distance oracle + invariant suite.",
             _H, _K, _EPSILON)
def _run_oracle(G: WeightedGraph, cfg: ExperimentConfig, rep: Report) -> None:
    O = ds.build_hop_oracle(G, cfg.h, cfg.k, cfg.epsilon, cfg.seed)
    rep.constants.update({"B": O.hop_budget, "stretch": _fmt(O.stretch),
                          "t_coarse": _fmt(O.coarse.t_coarse),
                          "beta_hops": O.coarse.beta_hops,
                          "size_words": O.size_words()})
    _sandwich_report(G, cfg, rep,
                     lambda u, v: ds.hop_oracle_query(O, u, v),
                     O.hop_budget, O.stretch)


@_subcommand("labels", "Hop-constrained distance labeling + invariant suite.",
             _H, _K, _EPSILON)
def _run_labels(G: WeightedGraph, cfg: ExperimentConfig, rep: Report) -> None:
    L = ds.build_hop_labeling(G, cfg.h, cfg.k, cfg.epsilon)
    rep.constants.update({"B": L.hop_budget, "stretch": _fmt(L.stretch),
                          "size_words": L.size_words()})
    _sandwich_report(G, cfg, rep,
                     lambda u, v: ds.labeling_query(L, L.label(u), L.label(v)),
                     L.hop_budget, L.stretch)


@_subcommand("route", "Hop-constrained compact routing scheme + invariant suite.",
             _H, _K, _EPSILON,
             click.option("--pairs", type=click.IntRange(min=1), default=200))
def _run_route(G: WeightedGraph, cfg: ExperimentConfig, rep: Report) -> None:
    S = ds.build_routing_scheme(G, cfg.h, cfg.k, cfg.epsilon, cfg.seed)
    rep.constants.update({"stretch": _fmt(S.stretch),
                          "size_words": S.size_words()})
    undelivered = weight_bad = hops_bad = nonlocal_bad = 0
    routed = 0
    for u, v in _sample_pairs(G.n, cfg.pairs, cfg.seed):
        dh = hop_distance_all(G, u, cfg.h)[v]
        if is_inf(dh):
            continue
        r = ds.route(S, u, v)
        routed += 1
        if not r.delivered:
            undelivered += 1
            continue
        if r.weight > S.stretch * dh * (1 + 1e-9):
            weight_bad += 1
        if len(r.path) - 1 > r.weight_aux / S.omegas[r.scale] * (1 + 1e-9):
            hops_bad += 1
        if not set(r.table_reads) <= set(r.path):
            nonlocal_bad += 1
    rep.constants["routed_pairs"] = routed
    rep.check("delivery for h-hop-connected pairs", undelivered == 0,
              f"{undelivered} undelivered")
    rep.check("delivered weight <= stretch*d^(h)", weight_bad == 0,
              f"{weight_bad} violations")
    rep.check("delivered hops <= w_i(P)/omega_i", hops_bad == 0,
              f"{hops_bad} violations")
    rep.check("forwarding reads only local tables", nonlocal_bad == 0,
              f"{nonlocal_bad} violations")


if __name__ == "__main__":
    main()
