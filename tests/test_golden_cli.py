"""Golden CLI outputs: SHA-256 of what `hopmetric` prints for a fixed set of
invocations.

tests/test_golden_reports.py pins run_experiment; these pin the click layer
above it: how options map onto the config, `--alt`, `-o` and the
`$HOPMETRIC_SEED` default.  Every invocation runs in an isolated working
directory and names its files relatively, so no absolute path enters a
report.  The graph g.json is a 14-vertex random-weighted graph and h.json
holds its first 6 edges.
"""
from __future__ import annotations

import hashlib
import json

import pytest
from click.testing import CliRunner

from hopmetric.cli import main

ENV = {"HOPMETRIC_SEED": "7"}
GRAPH = ["--graph", "g.json"]
INVOCATIONS = {
    "check": ["check"] + GRAPH,
    "ramsey": ["ramsey"] + GRAPH,
    "ramsey-alt-k3": ["ramsey", "--alt", "--k", "3"] + GRAPH,
    "clan-alt": ["clan", "--alt"] + GRAPH,
    "clan-h3": ["clan", "--h", "3"] + GRAPH,
    "cover": ["cover", "--delta", "2.5", "--seed", "1"] + GRAPH,
    "preserve-root3": ["preserve", "--root", "3"] + GRAPH,
    "preserve-alt-subgraph": ["preserve", "--alt", "--subgraph", "h.json"] + GRAPH,
    "oracle": ["oracle", "--seed", "5"] + GRAPH,
    "labels": ["labels", "--epsilon", "0.25"] + GRAPH,
    "route": ["route", "--pairs", "50", "--seed", "2"] + GRAPH,
    "gen-gnp": ["gen", "--family", "gnp", "--n", "10", "--p", "0.3"],
    "gen-random-weighted": ["gen", "--family", "random-weighted", "--n", "12",
                            "--p", "0.3", "--wmin", "2", "--wmax", "5"],
}

GOLDEN = {
    "check": "ea12b3b89d08acb28ab3db8d62ffbfc22f112c7d2b459099cfe18892de348f0a",
    "clan-alt": "a391bb04db2d0e4525be60e931d2a03e128a6f4011b1b9277111563f43c3ab75",
    "clan-h3": "872be00b66cb0e8c0ee2a31564bc466301ebfa27e6ae796697fe079bc07aa854",
    "cover": "1ecb295820033b9d87965782b7440eb786be645b5a47f810db3dbec9f5ec80ab",
    "gen-gnp": "1c1589c9fccfb71b239cdffd7ac4953c295c95954a2a84f3424e03b44d6db2e6",
    "gen-random-weighted": "46584b65372904d2fc4e8b97c36ae96e38136facd84165b1afc5cdeb8b7e0861",
    "labels": "4e47068cc87d487df740e6014f27f0270120698d394cc10fa0ddff7812e9db42",
    "oracle": "a7676f801315dfb02acba0f617d5ae48c0a6a9fe17c2efbacce268eb88e1e0df",
    "preserve-alt-subgraph": "e76777f6e3c8f9b08cad9b2abdec486ab0e9b51fcaaa0db73a35c47093a10bf9",
    "preserve-root3": "d3e0c77a4abb7b85ce8983292ae7d5d1315dc4daba11633c01bea34724aed313",
    "ramsey": "aa0ccd2fef3218d1738ee645350fc6c45d87ee70ad6e2f1d58c1dea4b1fe0154",
    "ramsey-alt-k3": "6f4a7cc1d39a823e63d8260a7258fb21cd06f89fb269e6a2319655e532e53c2f",
    "route": "ea17f4f99c4b4369ecb5d767d4366d3e7d749bfa83523ae48f9727a81be2797c",
}


def _run(args):
    """stdout of `hopmetric args`, after checking that `-o` writes the same
    bytes and prints nothing."""
    runner = CliRunner()
    with runner.isolated_filesystem():
        res = runner.invoke(main, ["gen", "--family", "random-weighted", "--n", "14",
                                   "--p", "0.3", "--seed", "4", "-o", "g.json"],
                            env=ENV)
        assert res.exit_code == 0, res.output
        with open("g.json", encoding="utf-8") as fh:
            edges = json.load(fh)["edges"]
        with open("h.json", "w", encoding="utf-8") as fh:
            json.dump({"edges": edges[:6]}, fh)
        res = runner.invoke(main, args, env=ENV)
        assert res.exit_code == 0, res.output
        to_file = runner.invoke(main, args + ["-o", "out.json"], env=ENV)
        assert to_file.exit_code == 0 and to_file.stdout_bytes == b""
        with open("out.json", "rb") as fh:
            assert fh.read() == res.stdout_bytes
    return res.stdout_bytes


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_cli_golden(name):
    digest = hashlib.sha256(_run(INVOCATIONS[name])).hexdigest()
    assert digest == GOLDEN[name], f"{name}: {digest}"
