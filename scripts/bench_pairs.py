"""Alternating base/head pairs of benchmark runs, written to one BENCH_*.json.

Both revisions are exported with ``git archive`` into a scratch directory,
and each side runs its own committed ``perfbench/run.py`` on its own
``src/``.  Pair i runs seed seeds[i] on both sides; which side runs first
alternates from pair to pair.  Run from the repository root:

    python3 scripts/bench_pairs.py --base REV --head REV \\
        --workload oracle-rw --seeds 101-110 --seconds 15 --trace-seed 5 \\
        --out BENCH_oracle_balls.json

``--workload`` may be given more than once.  The file holds the raw last
line of every run, the per-side medians and quartiles of each end-to-end
metric, the pairs the head wins (ties count for neither side), whether the
head's median is within the metric's bound in ``BENCHMARK.json``, whether
the head shows a gain and whether the base's spread resolves the bound
(see ``summary``).
With ``--trace-seed`` one ``--trace 1`` run per side records the per-layer
metrics of that seed.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile

SIDES = ("base", "head")


def export(rev: str, dest: str) -> str:
    """The full commit id of rev, with its tree extracted into dest."""
    os.makedirs(dest)
    archive = subprocess.run(["git", "archive", rev], check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout, check=True)
    return subprocess.run(["git", "rev-parse", rev], check=True, capture_output=True,
                          text=True).stdout.strip()


def run(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The last output line of one benchmark run in the tree at root."""
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds),
                          "--trace", str(trace)],
                         cwd=root, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{root} {workload} seed {seed}: exit {out.returncode}\n"
                           f"{out.stderr}")
    return json.loads(lines[-1])


def seeds_of(text: str) -> list:
    """The seeds LO..HI of "LO-HI", or the one seed of "S"."""
    m = re.fullmatch(r"(\d+)(?:-(\d+))?", text, re.ASCII)
    if m is None:
        raise ValueError(f"expected LO-HI or one seed, got {text!r}")
    lo, hi = int(m[1]), int(m[2] or m[1])
    if lo > hi:
        raise ValueError(f"range {text!r} is reversed")
    return list(range(lo, hi + 1))


def quartiles(values: list) -> list:
    """[Q1, Q3]; a single run is its own quartiles."""
    if len(values) < 2:
        return values * 2
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def summary(pairs: list, spec: list) -> dict:
    """Medians, quartiles, head wins and the verdicts per end-to-end metric.

    ``gain``: the head wins at least 9 of every 10 pairs and its median is
    better than the base's by more than the base's quartile spread Q3 - Q1.
    ``resolved``: the base's spread is within the metric's bound of its
    median, or every head run is better than every base run.
    """
    out = {}
    for m in spec:
        name, sign = m["name"], 1.0 if m["better"] == "lower" else -1.0
        vals = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        med = {side: statistics.median(vals[side]) for side in SIDES}
        quarts = {side: quartiles(vals[side]) for side in SIDES}
        spread = quarts["base"][1] - quarts["base"][0]
        head_wins = sum(sign * (h - b) < 0 for b, h in zip(vals["base"], vals["head"]))
        apart = max(sign * h for h in vals["head"]) < min(sign * b for b in vals["base"])
        out[name] = {
            "median": med,
            "quartiles": quarts,
            "ratio": med["head"] / med["base"] if med["base"] else None,
            "head_wins": head_wins,
            "base_wins": sum(sign * (h - b) > 0 for b, h in zip(vals["base"], vals["head"])),
            "within_bound": sign * (med["head"] - med["base"]) <= m["bound"] * abs(med["base"]),
            "gain": (10 * head_wins >= 9 * len(pairs)
                     and sign * (med["base"] - med["head"]) > spread),
            "resolved": spread <= m["bound"] * abs(med["base"]) or apart,
        }
    for side in SIDES:
        out[f"{side}_failed"] = sum(p[side]["failed"] for p in pairs)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True)
    ap.add_argument("--head", required=True)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", required=True, help="LO-HI, one pair per seed")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    try:
        seeds = seeds_of(args.seeds)
    except ValueError as exc:
        ap.error(f"--seeds: {exc}")
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)["end_to_end"]
    with tempfile.TemporaryDirectory() as tmp:
        roots = {side: os.path.join(tmp, side) for side in SIDES}
        revs = {side: export(getattr(args, side), roots[side]) for side in SIDES}
        doc = {"revisions": revs, "seeds": seeds, "seconds": args.seconds,
               "workloads": {}}
        for wl in args.workload:
            pairs = []
            for i, seed in enumerate(seeds):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run(roots[side], wl, seed, args.seconds, 0)
                    print(wl, seed, side, pair[side]["metrics"]["build_s"]["value"],
                          file=sys.stderr, flush=True)
                pairs.append(pair)
            entry = {"pairs": pairs, "summary": summary(pairs, spec)}
            if args.trace_seed is not None:
                entry["trace"] = {"seed": args.trace_seed, **{
                    side: run(roots[side], wl, args.trace_seed, args.seconds, 1)
                    for side in SIDES}}
            doc["workloads"][wl] = entry
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
