"""Mutation checks: does tier-1 catch a construction that breaks a claim?

Each entry of ``MUTANTS`` names a file under the repository root, the
exact text to replace (it must occur once), the replacement and the claim
the replacement breaks.  For each entry the script copies the tree into a
temporary directory, applies that one mutant there and runs tier-1 first
without the golden tests (``tests/test_golden_*.py``) and, if that passes,
with them.  It prints one verdict per entry:

- ``killed by T``: a non-golden test fails, T the first;
- ``killed by goldens only: T``: only a pinned digest notices;
- ``survived``: all of tier-1 passes.

The working tree is never edited.  An unmutated copy is run first, and the
script stops if that copy fails.  Run from the repository root (about 20 s
of tests per mutant):

    python3 scripts/mutants.py            # every entry
    python3 scripts/mutants.py repair-blanks-cut scan-bound-at-h
"""
from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    claim: str


MUTANTS = (
    Mutant("repair-blanks-cut", "src/hopmetric/graph_core.py",
           "    if not bad:\n        return dist\n",
           "    return dist\n",
           "a repaired carving row equals the fresh row of G[Y minus C]; "
           "blanking the carved entries alone keeps stale distances"),
    Mutant("scan-bound-at-h", "src/hopmetric/graph_core.py",
           "            reach[s] = max(rows[h - 1])\n",
           "            reach[s] = max(rows[h])\n",
           "a skipped scan row cannot raise D' or lack a pair; the bound "
           "needs x's (h - 1)-hop row, since s spends one hop reaching x"),
    Mutant("gate-drops-lim", "src/hopmetric/graph_core.py",
           "    gate = _gate(n, allowed, math.nextafter(lim, math.inf))\n",
           "    gate = _gate(n, allowed, lim)\n",
           "bellman_ford keeps every entry <= maxr + 1e-12; a gate at lim "
           "itself drops the entries exactly on it"),
    Mutant("slack-one-edge-short", "src/hopmetric/ramsey.py",
           "(budget + 1) * w_min > (r + _REL_TOL)",
           "budget * w_min > (r + _REL_TOL)",
           "a budget is slack at r when its walks of budget + 1 edges all "
           "weigh more than r + 1e-12; b * w_min is one edge short, and "
           "leaves such rows hop-bounded"),
    Mutant("repair-rounds-budget", "src/hopmetric/ramsey.py",
           "            hit[1] = _repair(G.adj, hit[1], hit[2], hit[0], len(allowed))\n",
           "            hit[1] = _repair(G.adj, hit[1], hit[2], hit[0], int(r / G.w_min))\n",
           "a plain row is repaired for every entry up to its own radius, in "
           "at least |Y| rounds; r / w_min rounds cover only the request's radius"),
    Mutant("clan-no-split", "src/hopmetric/clan.py",
           "    return standard_rule(G, Y, Y, mu, h, k, k + 1, scale_i, True,\n",
           "    return standard_rule(G, Y, Y, mu, h, k, k + 1, scale_i, False,\n",
           "the clan path bound path_t charges a 1/3-2/3 split of mu(Y) "
           "at every standard clan carving"),
    Mutant("tree-parent-largest-id", "src/hopmetric/tz.py",
           "    nbrs = [sorted(a) for a in adj]\n",
           "    nbrs = [sorted(a, reverse=True) for a in adj]\n",
           "a routing tree's parent is the smallest-id neighbour within 1e-9 "
           "of tight; scanning neighbours in descending id order takes the "
           "largest"),
    Mutant("tree-parent-loose-tight", "src/hopmetric/tz.py",
           "            if abs(get(u, math.inf) + w - dv) <= 1e-9:\n",
           "            if abs(get(u, math.inf) + w - dv) <= 0.5:\n",
           "a routing tree's parent lies within 1e-9 of tight; a wider "
           "tolerance admits a smaller-id neighbour off every shortest path"),
    Mutant("reuse-on-equal-size-alone", "src/hopmetric/tz.py",
           "            if e is None or e[0] != u:\n",
           "            if e is None:\n",
           "a routing tree is taken from the previous scale only when every "
           "vertex keeps its parent; a tree of the same size and vertices "
           "with other parents has other entries"),
    Mutant("reuse-without-size-check", "src/hopmetric/tz.py",
           "    if prev is not None and prev[root][root].interval[1] == len(dist):\n",
           "    if prev is not None:\n",
           "a routing tree is taken from the previous scale only at the same "
           "size; a smaller tree whose parents all match would get the "
           "larger tree's intervals and children"),
    Mutant("scale-floor-ignores-w-min", "src/hopmetric/ramsey.py",
           "    if G.w_min < 1.0:\n",
           "    if G.w_min < 0.0:\n",
           "the scale recursion stops at scale 0, so every embedding and "
           "structure refuses a least weight below 1 at its boundary"),
    Mutant("route-weight-aux", "src/hopmetric/datastructures.py",
           "    got = tz._walk(S.inner[i], u, v, S.G.nbr_weight)\n",
           "    got = tz._walk(S.inner[i], u, v, [{b: x + S.omegas[i] for b, x in row.items()}\n"
           "                                      for row in S.G.nbr_weight])\n",
           "a route's weight is the base-graph weight of its path; adding "
           "omega_i to the weight the walk adds per hop reports the scale "
           "graph's weight"),
    Mutant("route-reads-source-once", "src/hopmetric/datastructures.py",
           "(u,) + path[:-1]))",
           "path[:-1]))",
           "the source reads its table twice, once to write the header and "
           "once to take the first hop; a read log without the second read "
           "is not the log of per-hop forwarding"),
    Mutant("no-surcharge", "src/hopmetric/datastructures.py",
           "tuple((v, w + omega) for v, w in row)",
           "tuple((v, w) for v, w in row)",
           "the scale graph charges omega_i on every edge, which turns the "
           "hop budget into a weight budget; without it the landmark layer "
           "answers on the base graph and ignores hops"),
    Mutant("omega-halved", "src/hopmetric/datastructures.py",
           "    omega = (epsilon / (t_coarse * h)) * 2.0 ** i\n",
           "    omega = (epsilon / (2 * t_coarse * h)) * 2.0 ** i\n",
           "a path of more than B*h hops pays more than omega_i*B*h >= 2*2^i "
           "in surcharge; half of omega_i pays only 2^i, so long paths "
           "undercut the hop-bounded distance"),
    Mutant("bunch-admits-1.5-lim", "src/hopmetric/tz.py",
           "                if d < lim[x] - 1e-15:\n                    bunch[x][w] = d\n",
           "                if d <= 1.5 * lim[x]:\n                    bunch[x][w] = d\n",
           "the bunch of x holds the w in A_i - A_{i+1} strictly closer than "
           "d(A_{i+1}, x); admitting d <= 1.5 * d(A_{i+1}, x) grows bunches "
           "past the cluster rule and changes labels, witnesses and routes"),
    Mutant("carve-blank-skips-tight-test", "src/hopmetric/ramsey.py",
           "            if hit[2] is None and not any(row[c] + w == row[y] and y not in removed\n"
           "                                          for c in reached for y, w in adj[c]):\n",
           "            if hit[2] is None:\n",
           "a carve blanks a plain row in place only when no reached cut vertex "
           "has a tight successor outside the cut; past one, entries that "
           "walked through the cut must be repaired"),
    Mutant("stale-ball-no-radius", "src/hopmetric/ramsey.py",
           "            entry[0] = _ball(self.row(G, v, budget, r, allowed), entry[0], r)\n",
           "            entry[0] = entry[0].intersection(allowed)\n",
           "a stale ball is refreshed through its served row at its radius; "
           "the old ball minus the cut keeps vertices whose repaired distance "
           "passed the radius"),
    Mutant("certificate-margin-1.05", "src/hopmetric/ramsey.py",
           "            return max(d[u] for u in allowed) <= r * (1.0 - 1e-9)\n",
           "            return max(d[u] for u in allowed) <= r * 1.05\n",
           "one row certifies the trivial return only within r * (1 - 1e-9); "
           "at 1.05 r two walks joined at the center can exceed delta/2"),
    Mutant("alt-ball-budget-halved", "src/hopmetric/ramsey.py",
           "    bball = 2 * k * L * h\n",
           "    bball = k * L * h\n",
           "the alt rule's balls have hop budget 2kLh, which the reported "
           "beta = 4kL charges; half of it changes the centers and clusters"),
    Mutant("diam-check-1.5-bound", "src/hopmetric/ramsey.py",
           "        d = balls.row(G, s, budget, bound, allowed)\n"
           "        if any(d[u] > bound + _REL_TOL for u in allowed):\n",
           "        d = balls.row(G, s, budget, 1.5 * bound, allowed)\n"
           "        if any(d[u] > 1.5 * bound + _REL_TOL for u in allowed):\n",
           "the trivial return claims diam^(4kLh)(G[Y]) <= delta/2; pruning and "
           "accepting at 1.5 times that admits a cluster of larger diameter"),
    Mutant("diam-check-skipped", "src/hopmetric/ramsey.py",
           "                or _bounded_diam_at_most(G, balls, allowed, 2 * bball, delta / 2.0)):\n",
           "                or True):\n",
           "the trivial return must be certified, since far unmarked vertices "
           "can break diam^(4kLh)(G[Y]) <= delta/2; skipping the check "
           "returns such a Y whole"),
    Mutant("nested-read-below-radius", "src/hopmetric/ramsey.py",
           "                    row = self.plain(G, v, r, allowed)\n",
           "                    row = self.plain(G, v, 0.0, allowed)\n",
           "a slack nested ball is read from a plain row pruned at its radius "
           "or above; a row pruned below it misses the ball's outer vertices"),
    Mutant("binding-ball-from-plain-row", "src/hopmetric/ramsey.py",
           "                if _slack(b, r, size, w_min):\n"
           "                    row = self.plain(G, v, r, allowed)\n",
           "                row = self.plain(G, v, r, allowed)\n"
           "                if row is not None or _slack(b, r, size, w_min):\n",
           "a nested ball reads v's plain row only when its budget is slack at "
           "its radius; a binding ball read from it takes in the vertices "
           "that only walks of more hops reach"),
    Mutant("diam-check-row-at-quarter", "src/hopmetric/ramsey.py",
           "        d = balls.row(G, s, budget, bound, allowed)\n",
           "        d = balls.row(G, s, budget, bound / 2.0, allowed)\n",
           "the diameter check reads rows pruned at delta/2, its bound; rows "
           "at delta/4 lose the pairs between and refuse true trivial returns"),
    Mutant("induced-down-unreversed", "src/hopmetric/preserve.py",
           "        out += seg[1]\n",
           "        out += seg[0]\n",
           "an induced path steps down from the LCA along each edge's path "
           "oriented parent -> child; the up-segment runs the other way and "
           "breaks the walk"),
    Mutant("bhp-stop-round-early", "src/hopmetric/preserve.py",
           "    while frontier and len(rows) <= b:\n",
           "    while frontier and len(rows) < b:\n",
           "a bounded-hop path keeps rows until the budget is spent or a round "
           "improves nothing; stopping one round early drops the last kept "
           "row and misses paths that need every hop of the budget"),
)

IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                 ".hypothesis", ".benchmarks")


def mutated(root: str, m: Mutant) -> str:
    """The text of m.path under root with m applied; m.old must occur once."""
    with open(os.path.join(root, m.path), encoding="utf-8") as fh:
        text = fh.read()
    if text.count(m.old) != 1:
        raise ValueError(f"{m.name}: expected one match in {m.path}, "
                         f"found {text.count(m.old)}")
    return text.replace(m.old, m.new)


def tier1(root: str, goldens: bool) -> str:
    """The first failing test of tier-1 in the copy at root, "" if it passes."""
    # tests/test_mutants.py checks this table against the tree, so any
    # mutant would fail it
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-rf", "-p", "no:cacheprovider",
           "--continue-on-collection-errors", "--ignore=tests/test_mutants.py"]
    if not goldens:
        cmd.append("--ignore-glob=tests/test_golden_*")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    if out.returncode == 0:
        return ""
    failed = [ln.split()[1] for ln in out.stdout.splitlines() if ln.startswith("FAILED ")]
    return failed[0] if failed else f"exit {out.returncode}"


def verdict(root: str) -> str:
    first = tier1(root, goldens=False)
    if first:
        return f"killed by {first}"
    first = tier1(root, goldens=True)
    return f"killed by goldens only: {first}" if first else "survived"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("names", nargs="*", help="entries to run (default: all)")
    args = ap.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    unknown = sorted(set(args.names) - set(known))
    if unknown:
        ap.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [known[n] for n in args.names] or list(MUTANTS)
    src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with tempfile.TemporaryDirectory() as tmp:
        clean = os.path.join(tmp, "clean")
        shutil.copytree(src, clean, ignore=IGNORED)
        texts = [mutated(clean, m) for m in chosen]     # every entry applies
        if tier1(clean, goldens=True):
            print("the unmutated tree fails tier-1; no verdicts", file=sys.stderr)
            return 1
        for m, text in zip(chosen, texts):
            root = os.path.join(tmp, m.name)
            shutil.copytree(clean, root)
            with open(os.path.join(root, m.path), "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"{m.name}: {verdict(root)} ({m.claim})", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
