"""The pure parts of scripts/bench_pairs.py: seed ranges, quartiles and the
per-metric summary of base/head pairs, on synthetic runs."""
from __future__ import annotations

import importlib
import os
import sys

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "scripts")


@pytest.fixture(scope="module")
def bp():
    sys.path.insert(0, SCRIPTS)
    try:
        return importlib.import_module("bench_pairs")
    finally:
        sys.path.remove(SCRIPTS)


def _pairs(name: str, base: list, head: list, failed=(0, 0)) -> list:
    def side(value, fail):
        return {"metrics": {name: {"value": value}}, "failed": fail}
    return [{"base": side(b, failed[0]), "head": side(h, failed[1])}
            for b, h in zip(base, head)]


class TestSeeds:
    @pytest.mark.parametrize("text, seeds", [
        ("5", [5]),
        ("101-103", [101, 102, 103]),
        ("7-7", [7]),
    ])
    def test_ranges(self, bp, text, seeds):
        assert bp.seeds_of(text) == seeds

    @pytest.mark.parametrize("text", ["", "110-101", "5-", "-5", "a-b", "1-2-3", "1.5"])
    def test_rejects_empty_reversed_or_malformed(self, bp, text):
        with pytest.raises(ValueError):
            bp.seeds_of(text)

    def test_cli_rejects_before_export(self, bp, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(bp, "export", lambda *a: pytest.fail("exported"))
        out = tmp_path / "out.json"
        with pytest.raises(SystemExit) as exc:
            bp.main(["--base", "A", "--head", "B", "--workload", "serve-rw",
                     "--seeds", "110-101", "--seconds", "1", "--out", str(out)])
        assert exc.value.code == 2
        assert "reversed" in capsys.readouterr().err
        assert not out.exists()


class TestQuartiles:
    def test_single_run_is_its_own_quartiles(self, bp):
        assert bp.quartiles([3.0]) == [3.0, 3.0]

    def test_inclusive_quartiles(self, bp):
        assert bp.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == [2.0, 4.0]


class TestSummary:
    def test_lower_is_better(self, bp):
        pairs = _pairs("build_s", [10.0, 10.0, 10.0, 10.0], [9.0, 9.0, 10.0, 11.0])
        s = bp.summary(pairs, [{"name": "build_s", "better": "lower", "bound": 0.2}])["build_s"]
        assert s["median"] == {"base": 10.0, "head": 9.5}
        assert s["ratio"] == pytest.approx(0.95)
        assert (s["head_wins"], s["base_wins"]) == (2, 1)   # the tie counts for neither
        assert s["within_bound"]

    def test_higher_is_better(self, bp):
        pairs = _pairs("ops", [10.0, 10.0, 10.0], [12.0, 8.0, 7.0])
        s = bp.summary(pairs, [{"name": "ops", "better": "higher", "bound": 0.25}])["ops"]
        assert (s["head_wins"], s["base_wins"]) == (1, 2)
        assert s["within_bound"]          # median 8 is 20% worse, bound 25%
        s = bp.summary(pairs, [{"name": "ops", "better": "higher", "bound": 0.1}])["ops"]
        assert not s["within_bound"]

    @pytest.mark.parametrize("head, bound, within", [
        ([12.0], 0.2, True),      # exactly at the bound
        ([12.5], 0.2, False),
        ([5.0], 0.0, True),       # better is always within
        ([10.0], 0.0, True),
    ])
    def test_within_bound_lower(self, bp, head, bound, within):
        pairs = _pairs("build_s", [10.0], head)
        s = bp.summary(pairs, [{"name": "build_s", "better": "lower", "bound": bound}])
        assert s["build_s"]["within_bound"] is within

    def test_zero_base_median_has_no_ratio(self, bp):
        pairs = _pairs("fails", [0.0, 0.0], [0.0, 1.0])
        s = bp.summary(pairs, [{"name": "fails", "better": "lower", "bound": 0.2}])
        assert s["fails"]["ratio"] is None
        assert s["fails"]["base_wins"] == 1

    def test_failures_are_summed_per_side(self, bp):
        pairs = _pairs("build_s", [1.0, 1.0], [1.0, 1.0], failed=(1, 3))
        s = bp.summary(pairs, [{"name": "build_s", "better": "lower", "bound": 0.2}])
        assert (s["base_failed"], s["head_failed"]) == (2, 6)


BUILD = [{"name": "build_s", "better": "lower", "bound": 0.2}]


class TestGainAndResolved:
    @pytest.mark.parametrize("head, gain", [
        ([5.0] * 10, True),
        ([5.0] * 9 + [20.0], True),          # 9 of 10 pairs won
        ([5.0] * 9 + [12.0], True),          # 9 won and a tie
        ([5.0] * 8 + [20.0] * 2, False),     # 8 of 10
        ([5.0] * 8 + [12.0] * 2, False),     # 8 won, ties count for neither
    ])
    def test_nine_tenths_of_pairs(self, bp, head, gain):
        s = bp.summary(_pairs("build_s", [12.0] * 10, head), BUILD)["build_s"]
        assert s["gain"] is gain

    def test_median_must_move_beyond_base_spread(self, bp):
        base = [10.0, 20.0] * 5                    # Q1 = 10, Q3 = 20, median 15
        for head, gain in [([9.0, 19.0] * 5, False),    # wins all, moves 1
                           ([4.0, 6.0] * 5, False),     # moves 10: not more than 10
                           ([3.0, 5.0] * 5, True)]:     # moves 11
            s = bp.summary(_pairs("build_s", base, head), BUILD)["build_s"]
            assert s["head_wins"] == 10
            assert s["gain"] is gain

    def test_higher_is_better(self, bp):
        spec = [{"name": "ops", "better": "higher", "bound": 0.25}]
        assert bp.summary(_pairs("ops", [10.0] * 10, [12.0] * 10), spec)["ops"]["gain"]
        assert not bp.summary(_pairs("ops", [10.0] * 10, [8.0] * 10), spec)["ops"]["gain"]

    @pytest.mark.parametrize("base, head, resolved", [
        ([11.0, 13.0] * 5, [30.0] * 10, True),    # spread 2 is 1/6 of 12, bound 1/5
        ([10.0, 14.0] * 5, [11.0] * 10, False),   # spread 4 is 1/3 of 12
        ([10.0, 14.0] * 5, [9.0] * 10, True),     # every head run beats every base run
        ([10.0, 14.0] * 5, [9.0] * 9 + [10.0], False),   # one head run ties
        ([0.0] * 4, [1.0] * 4, True),             # no spread at a zero median
    ])
    def test_resolved(self, bp, base, head, resolved):
        s = bp.summary(_pairs("build_s", base, head), BUILD)["build_s"]
        assert s["resolved"] is resolved
