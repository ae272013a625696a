#!/usr/bin/env python3
"""Benchmark of the hopmetric library: structure builds and query streams.

    python3 perfbench/run.py --workload oracle-rw --seed 1 --seconds 30 --trace 0

Run from the repository root.  One process, one thread.  The run imports
the library from ``src/``, builds the workload's graph pool from the seed,
then times rounds of builds followed by a closed-loop query stream with one
client.  Every timed build and query block is bracketed by the frozen
reference loop of ``calib.py``, which cancels the host's speed drift.
Every output is checked outside the timed regions.

With ``--trace 0`` the last line of output carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run, which
wraps the library's public functions from outside.  The line before it is a
detail record: raw and calibrated times, the query mix, failures and counts.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import time
from array import array
from collections import Counter
from types import SimpleNamespace

import calib
import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE_DIR = os.path.join(ROOT, ".perfbench_state")

BUILD_SHARE = 0.7       # share of --seconds spent on build rounds
MIN_ROUNDS = 1          # build rounds even when one round exceeds the share
MIN_TRACED_ROUNDS = 2
SETUP_REPS = 11
BLOCK_S = 0.2           # minimum length of a query block
OPS = ("query", "query2")

# Whether each timing metric is reported drift-calibrated (True) or raw
# (False): per metric, the one whose largest quartile spread (IQR / median)
# over ten seeds on the three workloads was smaller.  Calibrated won on every
# metric; the detail record holds both.
CALIBRATED = {
    "setup_s": True,
    "build_s": True,
    "query_us_p50": True,
    "query_us_p99": True,
    "query2_us_p50": True,
    "query2_us_p99": True,
}


class GuardError(Exception):
    """A count that must repeat exactly did not."""


def import_library() -> SimpleNamespace:
    """(Re)import hopmetric from this checkout's src/."""
    for name in [m for m in sys.modules if m == "hopmetric" or m.startswith("hopmetric.")]:
        del sys.modules[name]
    hm = importlib.import_module("hopmetric")
    if not os.path.abspath(hm.__file__).startswith(SRC + os.sep):
        raise ImportError(f"hopmetric imported from {hm.__file__}, not from {SRC}")
    return SimpleNamespace(
        hopmetric=hm,
        datastructures=importlib.import_module("hopmetric.datastructures"),
        ultrametric=importlib.import_module("hopmetric.ultrametric"),
        preserve=importlib.import_module("hopmetric.preserve"))


def setup(clock: calib.DriftClock, jsons):
    """Import the library and parse the pool, SETUP_REPS times."""
    def load():
        lib = import_library()
        return lib, [lib.hopmetric.WeightedGraph.from_json(t) for t in jsons]
    samples = []
    for _ in range(SETUP_REPS):
        gc.collect()
        (lib, graphs), raw, f = clock.sampled(load, "setup")
        samples.append((raw, f))
    return lib, graphs, samples


def build_round(wl, lib, graphs, clock, chk, sample=True):
    """Build every structure of every pool graph once; check the builds.
    Traced rounds calibrate by bracketing only, so that no reference chunk
    runs inside a traced span."""
    timed = clock.sampled if sample else clock.bracket
    built, raw, cal = [], 0.0, 0.0
    for gi, G in enumerate(graphs):
        b = {}
        for label, thunk in wl.builds(lib, gi, G):
            gc.collect()
            b[label], r, f = timed(thunk, "build")
            raw += r
            cal += r * f
        built.append(b)
    for gi, b in enumerate(built):
        wl.check_build(gi, b, chk)
    return built, raw, cal


def round_record(wl, built):
    counts = Counter()
    for b in built:
        counts.update(wl.layer_counts(b))
    return {"fingerprint": [wl.fingerprint(b) for b in built], "counts": dict(counts),
            "size_words": sum(wl.size_words(b) for b in built)}


class QueryChecker:
    """Checks query results as they come, outside the timed intervals.  The
    first pass of an op is checked in full; a later result that equals the
    checked result of the same pair counts as checked."""

    def __init__(self, wl, built, chk):
        self.wl, self.built, self.chk = wl, built, chk
        self.flat = [(gi, u, v) for gi, plist in enumerate(wl.pairs) for u, v, _ in plist]
        self.passed = {op: [] for op in OPS}

    def for_op(self, op):
        wl, built, chk, flat = self.wl, self.built, self.chk, self.flat
        passed = self.passed[op]

        def check(i, result):
            if i < len(passed) and result == passed[i]:
                chk.checked += 1
                return
            gi, u, v = flat[i]
            failed = chk.failed
            wl.check_query(op, gi, built[gi], u, v, result, chk)
            if i == len(passed):
                passed.append(result if chk.failed == failed else _FAILED)
        return check


_FAILED = object()


def run_block(fns, pairs, check, min_s=0.0):
    """Whole passes of one query op over every pool graph's pairs, until
    ``min_s`` has passed; each result is checked as it comes.  Between two
    queries, a reference chunk runs every ``calib.SAMPLE_PERIOD_S``.
    Returns (latencies in ns, calibration factor)."""
    clock = time.perf_counter_ns
    period = int(calib.SAMPLE_PERIOD_S * 1e9)
    ns, chunks = array("q"), []
    start = clock()
    next_chunk = start + period
    while not ns or clock() - start < min_s * 1e9:
        i = 0
        for fn, plist in zip(fns, pairs):
            for u, v, _ in plist:
                t0 = clock()
                r = fn(u, v)
                t1 = clock()
                ns.append(t1 - t0)
                check(i, r)
                i += 1
                if t1 >= next_chunk:
                    chunks.append(calib.reference_chunk())
                    next_chunk = clock() + period
    return ns, calib.chunk_factor(chunks)


def query_phase(wl, lib, built, chk, seconds):
    """Closed loop, one client: alternate blocks of the two ops."""
    fns = {op: [wl.query_fn(op, lib, b) for b in built] for op in OPS}
    checker = QueryChecker(wl, built, chk)
    checks = {op: checker.for_op(op) for op in OPS}
    lat = {op: [] for op in OPS}
    gc.collect()
    gc.freeze()      # the structures are long-lived: keep them out of collections
    t_end = time.perf_counter() + seconds
    i = 0
    while i < 2 * len(OPS) or time.perf_counter() < t_end:
        op = OPS[i % len(OPS)]
        lat[op].append(run_block(fns[op], wl.pairs, checks[op], BLOCK_S))
        i += 1
    gc.unfreeze()
    return lat


def trimmed_mean(values, trim=0.2):
    """Mean of the values left after dropping the lowest and the highest
    ``trim`` share."""
    xs = sorted(values)
    k = int(len(xs) * trim)
    return statistics.mean(xs[k:len(xs) - k])


def latency_metrics(lat):
    """Per-block percentiles, each scaled by its block's calibration factor;
    the metric is their trimmed mean over blocks, so a block hit by a burst
    of host noise does not move it."""
    out = {}
    for op, blocks in lat.items():
        for p in (50, 99):
            raw = [calib.percentile(ns, p) / 1e3 for ns, _ in blocks]
            out[f"{op}_us_p{p}"] = {
                "raw": trimmed_mean(raw),
                "calibrated": trimmed_mean(x * f for x, (_, f) in zip(raw, blocks)),
                "blocks": len(blocks), "samples_per_block": len(blocks[0][0])}
    return out


def query_mix(wl, lib, built):
    """Shares of the pairs in one block, by kind and by outcome."""
    fns = {op: [wl.query_fn(op, lib, b) for b in built] for op in OPS}
    kinds, tally = Counter(), Counter()
    for gi, plist in enumerate(wl.pairs):
        for u, v, kind in plist:
            kinds[kind] += 1
            tally["finite_d_h"] += wl.refs[gi].d(u, v, wl.h) < float("inf")
            tally["infinite_coarse"] += wl.infinite_coarse(lib, built[gi], u, v)
            for op in OPS:
                tally[f"{op}_answered"] += wl.answered(op, fns[op][gi](u, v))
    total = sum(kinds.values())
    return {"pairs_per_block": total,
            **{k: c / total for k, c in sorted({**kinds, **tally}.items())}}


def check_repeats(records, what):
    first = records[0]
    for i, rec in enumerate(records[1:], 1):
        if rec != first:
            raise GuardError(f"{what} of round {i} differ from round 0: {rec} vs {first}")


def code_digest(jsons) -> str:
    """Digest of the library sources, the benchmark's sources and the inputs:
    runs are compared only when all three are the same."""
    h = hashlib.sha256()
    for d in (os.path.join(SRC, "hopmetric"), HERE):
        for name in sorted(os.listdir(d)):
            if name.endswith(".py"):
                with open(os.path.join(d, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    for text in jsons:
        h.update(text.encode())
    return h.hexdigest()[:16]


def guard_across_runs(workload, seed, digest, record):
    """Counts must repeat exactly across runs of one seed and one code."""
    record = json.loads(json.dumps(record))
    path = os.path.join(STATE_DIR, f"{workload}-{seed}-{digest}.json")
    old = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            old = json.load(fh)
    for key, val in record.items():
        if key in old and old[key] != val:
            raise GuardError(f"{key} differs from an earlier run of seed {seed}: "
                             f"{val} vs {old[key]}")
    os.makedirs(STATE_DIR, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**old, **record}, fh)


def median_pair(samples):
    """Median raw and calibrated value of (raw, factor) samples."""
    return {"raw": statistics.median(r for r, _ in samples),
            "calibrated": statistics.median(r * f for r, f in samples)}


def calibration_summary(log):
    """Per kind of timed region: count, raw seconds and mean factor."""
    out = {}
    for tag, raw, factor, _before, _after, samples in log:
        s = out.setdefault(tag, {"regions": 0, "raw_s": 0.0, "factors": [], "samples": 0})
        s["regions"] += 1
        s["raw_s"] += raw
        s["factors"].append(factor)
        s["samples"] += samples
    for s in out.values():
        s["mean_factor"] = statistics.mean(s.pop("factors"))
    return out


def pick(timing, name):
    return timing[name]["calibrated" if CALIBRATED[name] else "raw"]


def run_untraced(wl, lib, graphs, clock, chk, seconds):
    rounds, records, built = [], [], None
    t0 = time.perf_counter()
    budget = BUILD_SHARE * seconds
    while len(rounds) < MIN_ROUNDS or (
            time.perf_counter() - t0 + statistics.mean(r for r, _ in rounds) <= budget):
        built = None
        built, raw, cal = build_round(wl, lib, graphs, clock, chk)
        rounds.append((raw, cal / raw))
        records.append(round_record(wl, built))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_repeats(records, "structure counts")
    t1 = time.perf_counter()
    for gi, b in enumerate(built):
        wl.prepare_checks(gi, b)
    t2 = time.perf_counter()
    lat = query_phase(wl, lib, built, chk, (1.0 - BUILD_SHARE) * seconds)
    timing = {"build_s": median_pair(rounds), **latency_metrics(lat)}
    phases = {"builds": t1 - t0, "prepare_checks": t2 - t1,
              "queries": time.perf_counter() - t2}
    return timing, records[0], built, {"peak_rss_mb": peak_rss_mb,
                                       "build_rounds": len(rounds), "phase_s": phases}


def run_traced(wl, lib, graphs, clock, chk, seconds):
    """Rounds U, T, T, U, T, T, ...: U untraced builds; T traced builds plus
    one traced pass of each query op."""
    tracer = layers.Tracer()
    plain, traced, snaps, records = [], [], [], []
    t0 = time.perf_counter()
    i = 0
    while len(traced) < MIN_TRACED_ROUNDS or time.perf_counter() - t0 < seconds:
        if i % 3 == 0:
            _, raw, cal = build_round(wl, lib, graphs, clock, chk, sample=False)
            plain.append((raw, cal / raw))
            i += 1
            continue
        tracer.reset()
        tracer.install()
        try:
            built, braw, bcal = build_round(wl, lib, graphs, clock, chk, sample=False)
            raw, cal = braw, bcal
            for gi, b in enumerate(built):
                wl.prepare_checks(gi, b)
            fns = {op: [wl.query_fn(op, lib, b) for b in built] for op in OPS}
            checker = QueryChecker(wl, built, chk)
            for op in OPS:
                ns, qf = run_block(fns[op], wl.pairs, checker.for_op(op))
                raw += sum(ns) / 1e9
                cal += sum(ns) / 1e9 * qf
        finally:
            tracer.uninstall()
        traced.append((braw, bcal / braw))
        snaps.append({name: tracer.self_s(name) * cal / raw for name in tracer.calls})
        rec = round_record(wl, built)
        rec["calls"] = dict(tracer.calls)
        rec["nested"] = {f"{a}>{b}": c for (a, b), c in tracer.nested.items()}
        records.append(rec)
        nested = Counter(tracer.nested)
        i += 1
    check_repeats(records, "call counts")
    rec = records[0]
    calls = Counter(rec["calls"])
    self_s = {name: statistics.median(s.get(name, 0.0) for s in snaps) for name in calls}
    build_s = {"traced": median_pair(traced), "untraced": median_pair(plain)}
    return calls, nested, self_s, rec, build_s


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hopmetric", "__init__.py")):
        print(f"error: no hopmetric sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)

    t_start = time.perf_counter()
    wl = workloads.WORKLOADS[args.workload](args.seed)
    if args.trace:
        # three rounds of the whole pool would take too long; counts are
        # per half pool, and still repeat exactly for a seed
        wl.truncate(max(1, len(wl.jsons) // 2))
    t_inputs = time.perf_counter() - t_start
    chk = workloads.Checks()
    clock = calib.DriftClock()
    lib, graphs, setup_samples = setup(clock, wl.jsons)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "calibrated": CALIBRATED}
    try:
        if args.trace:
            metrics, record = traced_metrics(wl, lib, graphs, clock, chk, args.seconds,
                                             spec, detail)
        else:
            metrics, record = untraced_metrics(wl, lib, graphs, clock, chk, args.seconds,
                                               spec, detail, setup_samples)
        guard_across_runs(args.workload, args.seed, code_digest(wl.jsons), record)
        guard_ok = True
    except GuardError as e:
        print(f"DETERMINISM GUARD FAILED: {e}", file=sys.stderr)
        metrics, guard_ok = {}, False
    detail["inputs_s"] = t_inputs
    detail["wall_s"] = time.perf_counter() - t_start
    detail["fail_ratio"] = chk.failed / chk.checked if chk.checked else 0.0
    detail["failures"] = chk.messages
    for msg in chk.messages:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": guard_ok and chk.failed == 0 and chk.checked > 0,
                      "attempted": max(1, chk.checked), "failed": chk.failed,
                      "metrics": metrics}))
    return 0 if guard_ok else 1


def untraced_metrics(wl, lib, graphs, clock, chk, seconds, spec, detail, setup_samples):
    timing, record, built, extra = run_untraced(wl, lib, graphs, clock, chk, seconds)
    timing["setup_s"] = median_pair(setup_samples)
    detail.update(timing=timing, query_mix=query_mix(wl, lib, built),
                  checked=chk.checked, calibration=calibration_summary(clock.log), **extra)
    values = {name: pick(timing, name) for name in CALIBRATED}
    values["size_words"] = record["size_words"]
    values["peak_rss_mb"] = extra["peak_rss_mb"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}, \
        {"fingerprint": record["fingerprint"]}


def traced_metrics(wl, lib, graphs, clock, chk, seconds, spec, detail):
    calls, nested, self_s, record, build_s = run_traced(wl, lib, graphs, clock, chk, seconds)
    overhead = build_s["traced"]["calibrated"] / build_s["untraced"]["calibrated"]
    derived = {
        "ramsey.alt_fallbacks": layers.alt_fallbacks(nested),
        "ramsey.profiles_per_carve": _ratio(calls["graph_core.hop_profile"],
                                            layers.carvings(calls, nested)),
        "tz.forward_per_route": _ratio(calls["tz.forward"], calls["datastructures.route"]),
        "trace_overhead": overhead,
    }
    for key in ("datastructures.coarse_attempts", "datastructures.coarse_rounds",
                "datastructures.realized_scales", "cover.attempts"):
        derived[key] = record["counts"].get(key, 0)
    detail.update(layers={name: {"calls": calls[name], "self_s": self_s[name]}
                          for name in sorted(calls)},
                  derived=derived, build_s=build_s, checked=chk.checked,
                  calibration=calibration_summary(clock.log))
    metrics = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name.endswith(".calls"):
            value = calls[name[:-len(".calls")]]
        elif name.endswith(".self_s"):
            value = self_s.get(name[:-len(".self_s")], 0.0)
        else:
            value = derived[name]
        metrics[name] = {"value": value, "unit": m["unit"]}
    return metrics, {key: record[key] for key in ("fingerprint", "calls", "nested")}


def _ratio(num, den):
    return num / den if den else 0.0


if __name__ == "__main__":
    sys.exit(main())
