"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/test_helpers.py
"""
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import calib  # noqa: E402
import inputs  # noqa: E402
from hopmetric import WeightedGraph, hop_distance_all, is_inf  # noqa: E402


@pytest.mark.parametrize("seed", range(6))
def test_reference_relaxation_matches_hop_distance_all(seed):
    rng = random.Random(seed)
    n = rng.randrange(2, 14)
    text = inputs.random_weighted_json(n, 0.3, 1.0, 10.0, rng)
    G = WeightedGraph.from_json(text)
    adj = inputs.reference_adjacency(text)
    for h in (1, 2, 3, n):
        for s in range(n):
            ref = inputs.reference_hop_distances(adj, s, h)
            lib = hop_distance_all(G, s, h)
            for v in range(n):
                if is_inf(lib[v]):
                    assert ref[v] == float("inf")
                else:
                    assert ref[v] == pytest.approx(lib[v], rel=1e-12)


def test_reference_relaxation_on_grid_counts_hops():
    adj = inputs.reference_adjacency(inputs.grid_json(3, 3))
    assert list(inputs.reference_hop_distances(adj, 0, 2)) == [
        0.0, 1.0, 2.0, 1.0, 2.0, float("inf"), 2.0, float("inf"), float("inf")]


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    samples = list(range(1000))
    assert calib.percentile(samples, 99) == 989      # 10 samples beyond
    with pytest.raises(ValueError):
        calib.percentile(samples[:999], 99)           # 9 beyond
    with pytest.raises(ValueError):
        calib.percentile(list(range(19)), 50)         # 9 beyond
    assert calib.percentile(list(range(20)), 50) == 9


def test_calibration_factor_is_one_at_nominal_reference():
    nominal = calib.NOMINAL_REFERENCE_S
    assert calib.calibration_factor(nominal, nominal) == 1.0
    assert calib.calibration_factor(0.5 * nominal, 1.5 * nominal) == 1.0
    assert calib.calibration_factor(2 * nominal, 2 * nominal) == 0.5


def test_sandwich_check():
    inf = float("inf")
    assert inputs.sandwich_ok(3.0, 2.0, 1.0, 3.0)
    assert not inputs.sandwich_ok(1.9, 2.0, 1.0, 3.0)     # below d^(B h)
    assert not inputs.sandwich_ok(3.1, 2.0, 1.0, 3.0)     # above stretch d^(h)
    assert not inputs.sandwich_ok(inf, 2.0, 1.0, 3.0)     # must be finite
    assert inputs.sandwich_ok(inf, inf, inf, 3.0)
    assert not inputs.sandwich_ok(5.0, inf, inf, 3.0)     # no B h-hop path
