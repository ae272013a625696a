"""Drift calibration and percentile helpers.

The host's speed drifts by tens of percent, on time scales from a fraction
of a second to minutes, and CPU time drifts with it.  Timed regions are
therefore calibrated against a frozen pure-Python reference loop: a
calibrated time is the raw time times nominal over measured reference time,
so it reads as seconds on a host whose reference takes exactly the nominal
time.

Three ways to measure the reference:

* bracketing: the full loop, best of 3, runs between timed regions, and a
  region's factor uses the mean of the two references around it;
* timer sampling: an interval timer runs a short chunk of the loop every
  ``SAMPLE_PERIOD_S`` inside the region, and the factor uses the mean chunk
  time.  The chunks' time is subtracted from the region's raw time.
* interleaved sampling: a query stream runs the same chunk between two
  queries every ``SAMPLE_PERIOD_S``, outside every query's timed interval.

Sampling follows speed changes within a region that bracketing misses; on
this benchmark's builds it roughly halves the spread of repeated identical
builds.  Bracketing remains for traced rounds, where a chunk would land
inside a traced span.

The loop, its graph and the nominal times are frozen: changing any of them
changes every calibrated time the benchmark has reported.
"""
from __future__ import annotations

import math
import signal
import statistics
import time
from typing import Callable, Sequence, Tuple

NOMINAL_REFERENCE_S = 0.010   # best-of-3 full loop on a nominal host
SAMPLE_PERIOD_S = 0.010
MIN_SAMPLES = 5               # fewer samples: fall back to bracketing

_REF_N = 96
_REF_SOURCES = 160
_CHUNK_SOURCES = 4
_REF_HOPS = 8
_REF_ADJ = tuple(tuple(((v + d) % _REF_N, 1.0 + (v * d) % 7) for d in (1, 3, 11))
                 for v in range(_REF_N))

NOMINAL_CHUNK_S = NOMINAL_REFERENCE_S * _CHUNK_SOURCES / _REF_SOURCES


def reference_work(sources: int = _REF_SOURCES) -> float:
    """Bounded-hop relaxation on a fixed circulant graph: the same mix of
    dict, list and float work as the library's hot loops.  Every source does
    the same work, so time is proportional to ``sources``."""
    total = 0.0
    for i in range(sources):
        s = i % _REF_N
        dist = {s: 0.0}
        frontier = [s]
        for _ in range(_REF_HOPS):
            updates = {}
            for u in frontier:
                du = dist[u]
                for v, w in _REF_ADJ[u]:
                    nd = du + w
                    if nd < dist.get(v, math.inf) and nd < updates.get(v, math.inf):
                        updates[v] = nd
            if not updates:
                break
            dist.update(updates)
            frontier = list(updates)
        total += sum(dist.values())
    return total


def reference_chunk() -> float:
    """Wall time of one short chunk of the reference loop."""
    t0 = time.perf_counter()
    reference_work(_CHUNK_SOURCES)
    return time.perf_counter() - t0


def chunk_factor(samples: Sequence[float]) -> float:
    """Multiplier turning a raw time into nominal-host seconds, from the
    chunk times sampled during it."""
    if not samples:
        raise ValueError("no reference samples")
    return NOMINAL_CHUNK_S / statistics.mean(samples)


def measure_reference(repeats: int = 3) -> float:
    """Best-of-``repeats`` wall time of one full ``reference_work`` call."""
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference_work()
        best = min(best, time.perf_counter() - t0)
    return best


def calibration_factor(ref_before: float, ref_after: float,
                       nominal: float = NOMINAL_REFERENCE_S) -> float:
    """Multiplier turning a raw time into nominal-host seconds."""
    if ref_before <= 0 or ref_after <= 0:
        raise ValueError("reference times must be positive")
    return nominal / ((ref_before + ref_after) / 2.0)


class DriftClock:
    """Times regions back to back; each region's closing reference
    measurement also opens the next region."""

    def __init__(self) -> None:
        self.last_ref = measure_reference()
        self.log = []     # (tag, raw seconds, factor, reference before, after, samples)

    def bracket(self, fn: Callable[[], object], tag: str = "") -> Tuple[object, float, float]:
        """Run ``fn``; return (result, raw seconds, bracketing factor)."""
        return self._timed(fn, tag, sample=False)

    def sampled(self, fn: Callable[[], object], tag: str = "") -> Tuple[object, float, float]:
        """Run ``fn`` under the sampling timer; return (result, raw seconds
        net of the chunks, factor).  The factor comes from the samples, or
        from the bracketing references when the region is too short."""
        return self._timed(fn, tag, sample=True)

    def _timed(self, fn, tag, sample):
        samples = []

        def chunk(_signum, _frame):
            samples.append(reference_chunk())

        ref_before = self.last_ref
        if sample:
            previous = signal.signal(signal.SIGALRM, chunk)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        t0 = time.perf_counter()
        try:
            out = fn()
        finally:
            raw = time.perf_counter() - t0
            if sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        raw -= sum(samples)
        self.last_ref = measure_reference()
        if len(samples) >= MIN_SAMPLES:
            factor = chunk_factor(samples)
        else:
            factor = calibration_factor(ref_before, self.last_ref)
        self.log.append((tag, raw, factor, ref_before, self.last_ref, len(samples)))
        return out, raw, factor


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile that has at least ten samples beyond it."""
    if not 0 < p < 100:
        raise ValueError("percentile must be in (0, 100)")
    n = len(samples)
    rank = max(1, math.ceil(p / 100.0 * n))
    if n - rank < 10:
        raise ValueError(f"p{p} of {n} samples has {n - rank} samples beyond it; "
                         "at least 10 are needed")
    return sorted(samples)[rank - 1]
