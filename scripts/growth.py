"""Growth of the hop-oracle build with n, as alternating base/head pairs.

Each build is ``build_hop_oracle(G, 2, 2, 0.5, seed=n)`` on the growth
graph of size n: connected G(n, 6/n) with weights uniform in [1, 10], drawn
by ``perfbench/inputs.py`` from ``random.Random(n)``.  Both revisions are
exported with ``git archive``, as ``scripts/bench_pairs.py`` does, and each
(n, side) runs in its own process on that side's ``src/``, the side that
runs first alternating from pair to pair.  A process times one untraced
build, then builds again with counters installed from outside, as
``perfbench/layers.py`` traces: it wraps ``bellman_ford`` (every
relaxation), ``_repair`` and ``_ball`` wherever a ``hopmetric`` module
binds them.  Run from the repository root (about three minutes):

    python3 scripts/growth.py --base REV --head REV --out BENCH_growth.json
    python3 scripts/growth.py --base REV --head REV --sizes 128 256 --out g.json

Every size but 1024 runs 3 pairs, and 1024 runs one.  The file holds every
run, the per-side median ``build_s`` and the counts, which are deterministic
and must agree across the runs of one side; the oracle's fingerprint must
agree across both sides.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

from bench_pairs import SIDES, export

H, K, EPSILON = 2, 2, 0.5
SIZES = (128, 256, 512, 1024)
# (module, function) counted; each is wrapped in every module that binds it
COUNTED = (("graph_core", "bellman_ford"), ("ramsey", "_repair"), ("ramsey", "_ball"))


def pairs_at(n: int) -> int:
    return 1 if n >= 1024 else 3


def counting(fn, name: str, counts: dict):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        if name == "_ball":
            counts["ball_entries"] += len(args[1])
        return fn(*args, **kwargs)
    return wrapper


def worker(n: int) -> dict:
    """One timed and one counted build of the size-n oracle in the tree at
    the working directory, whose ``src/`` is first on the path."""
    import importlib
    import pkgutil
    import random

    sys.path.insert(0, os.getcwd())
    from perfbench import inputs
    import hopmetric
    from hopmetric import datastructures, graph_core

    G = graph_core.WeightedGraph.from_json(
        inputs.random_weighted_json(n, 6.0 / n, 1.0, 10.0, random.Random(n)))

    def build():
        return datastructures.build_hop_oracle(G, H, K, EPSILON, n)

    t0 = time.perf_counter()
    O = build()
    build_s = time.perf_counter() - t0
    modules = [importlib.import_module(f"hopmetric.{m.name}")
               for m in pkgutil.iter_modules(hopmetric.__path__)]
    counts = dict.fromkeys([fn for _, fn in COUNTED] + ["ball_entries"], 0)
    for owner, name in COUNTED:
        real = getattr(importlib.import_module(f"hopmetric.{owner}"), name)
        wrapped = counting(real, name, counts)
        for mod in modules:
            if getattr(mod, name, None) is real:
                setattr(mod, name, wrapped)
    again = build()
    fingerprint = [O.size_words(), len(O.inner), O.coarse.attempts, O.hop_budget]
    if [again.size_words(), len(again.inner), again.coarse.attempts,
            again.hop_budget] != fingerprint:
        raise RuntimeError(f"n = {n}: the counted build differs from the timed one")
    return {"n": n, "build_s": build_s, "counts": counts, "fingerprint": fingerprint,
            "library": os.path.dirname(hopmetric.__file__)}


def run(root: str, n: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--worker", str(n)],
                         cwd=root, env=env, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{root} n = {n}: exit {out.returncode}\n{out.stderr}")
    rec = json.loads(lines[-1])
    if not rec.pop("library").startswith(root):
        raise RuntimeError(f"{root} n = {n}: imported another tree's library")
    return rec


def summary(runs: list) -> dict:
    """Per side: median build_s and the counts; the counts of one side and
    the fingerprints of both must not vary."""
    out = {}
    for side in SIDES:
        mine = [p[side] for p in runs]
        if any(r["counts"] != mine[0]["counts"] for r in mine):
            raise RuntimeError(f"{side}: counts vary across runs")
        out[side] = {"build_s": statistics.median(r["build_s"] for r in mine),
                     "counts": mine[0]["counts"]}
    if len({json.dumps(p[s]["fingerprint"]) for p in runs for s in SIDES}) != 1:
        raise RuntimeError("the oracle differs between the sides")
    out["ratio"] = out["head"]["build_s"] / out["base"]["build_s"]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    ap.add_argument("--base")
    ap.add_argument("--head")
    ap.add_argument("--sizes", type=int, nargs="+", default=list(SIZES))
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    if args.worker is not None:
        print(json.dumps(worker(args.worker)))
        return 0
    if not (args.base and args.head and args.out):
        ap.error("--base, --head and --out are required")
    with tempfile.TemporaryDirectory() as tmp:
        roots = {side: os.path.join(tmp, side) for side in SIDES}
        revs = {side: export(getattr(args, side), roots[side]) for side in SIDES}
        doc = {"revisions": revs, "graph": "connected G(n, 6/n), weights U[1, 10], "
               "random.Random(n)", "h": H, "k": K, "epsilon": EPSILON, "sizes": {}}
        turn = 0
        for n in args.sizes:
            runs = []
            for _ in range(pairs_at(n)):
                order = SIDES if turn % 2 == 0 else SIDES[::-1]
                turn += 1
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = run(roots[side], n)
                    print(n, side, round(pair[side]["build_s"], 3), file=sys.stderr,
                          flush=True)
                runs.append(pair)
            doc["sizes"][str(n)] = {"pairs": runs, "summary": summary(runs)}
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
