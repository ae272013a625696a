"""Command-line interface: generators, reports, determinism, exit codes."""
from __future__ import annotations

import json

import pytest
from click.testing import CliRunner

from hopmetric.cli import (ExperimentConfig, gen_graph, main, run_experiment)
from hopmetric.graph_core import WeightedGraph


class TestGenGraph:
    def test_path_and_cycle(self):
        G = gen_graph("path", {"n": 5})
        assert G.n == 5 and len(G.edges) == 4
        C = gen_graph("cycle", {"n": 5})
        assert C.n == 5 and len(C.edges) == 5
        with pytest.raises(ValueError):
            gen_graph("cycle", {"n": 2})

    def test_grid(self):
        G = gen_graph("grid", {"rows": 4, "cols": 4})
        assert G.n == 16 and len(G.edges) == 24

    @pytest.mark.parametrize("family, params", [
        ("path", {"n": 4.5}), ("cycle", {"n": 4.5}), ("grid", {"rows": 2.9, "cols": 3}),
        ("gnp", {"n": 6.5, "p": 0.5})])
    def test_fractional_sizes_rejected(self, family, params):
        with pytest.raises(ValueError, match="must be an integer, got"):
            gen_graph(family, params)

    def test_random_families_deterministic(self):
        a = gen_graph("gnp", {"n": 12, "p": 0.3}, seed=9)
        b = gen_graph("gnp", {"n": 12, "p": 0.3}, seed=9)
        assert a.edges == b.edges
        c = gen_graph("gnp", {"n": 12, "p": 0.3}, seed=10)
        assert a.edges != c.edges
        w = gen_graph("random-weighted", {"n": 10, "p": 0.3,
                                          "wmin": 1.0, "wmax": 5.0}, seed=3)
        assert all(1.0 <= wt <= 5.0 for _, _, wt in
                   [(u, v, wt * w.scale) for u, v, wt in w.edges])

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            gen_graph("torus", {"n": 4})


class TestReports:
    def test_byte_identical(self):
        cfg = ExperimentConfig("ramsey", family="gnp",
                               params={"n": 8, "p": 0.4}, h=2, k=2, seed=4)
        a = run_experiment(cfg).to_json()
        b = run_experiment(cfg).to_json()
        assert a == b
        payload = json.loads(a)
        assert payload["passed"] is True
        assert payload["config"]["subcommand"] == "ramsey"

    def test_all_runners_pass(self):
        common = dict(family="gnp", params={"n": 7, "p": 0.5}, h=2, k=2, seed=2)
        for sub in ("check", "ramsey", "clan", "cover", "preserve",
                    "oracle", "labels", "route"):
            rep = run_experiment(ExperimentConfig(sub, **common))
            assert rep.passed, f"{sub}: {rep.to_json()}"


class TestCommands:
    def test_gen_pipe_to_check(self, tmp_path):
        runner = CliRunner()
        gpath = tmp_path / "g.json"
        res = runner.invoke(main, ["gen", "--family", "grid", "--rows", "3",
                                   "--cols", "3", "-o", str(gpath)])
        assert res.exit_code == 0
        G = WeightedGraph.load(str(gpath))
        assert G.n == 9 and len(G.edges) == 12
        res = runner.invoke(main, ["check", "--graph", str(gpath), "--h", "2"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["constants"]["n"] == 9
        assert payload["passed"] is True

    def test_subcommands_exit_zero(self, tmp_path):
        runner = CliRunner()
        gpath = tmp_path / "g.json"
        runner.invoke(main, ["gen", "--family", "gnp", "--n", "7", "--p",
                             "0.5", "--seed", "2", "-o", str(gpath)])
        for args in (["ramsey", "--h", "2", "--k", "2"],
                     ["clan", "--h", "2", "--k", "2", "--alt"],
                     ["cover", "--delta", "1.0"],
                     ["preserve", "--h", "2"],
                     ["oracle", "--h", "1", "--k", "2", "--epsilon", "0.5"]):
            res = runner.invoke(main, args + ["--graph", str(gpath),
                                              "--seed", "2"])
            assert res.exit_code == 0, f"{args}: {res.output}"
            assert json.loads(res.output)["passed"] is True

    def test_seed_env_default(self, tmp_path, monkeypatch):
        runner = CliRunner()
        monkeypatch.setenv("HOPMETRIC_SEED", "9")
        a = runner.invoke(main, ["gen", "--family", "gnp", "--n", "10",
                                 "--p", "0.3"])
        b = runner.invoke(main, ["gen", "--family", "gnp", "--n", "10",
                                 "--p", "0.3", "--seed", "9"])
        assert a.output == b.output
        c = runner.invoke(main, ["gen", "--family", "gnp", "--n", "10",
                                 "--p", "0.3", "--seed", "8"])
        assert a.output != c.output

    def test_malformed_seed_env_is_usage_error(self, tmp_path, monkeypatch):
        runner = CliRunner()
        monkeypatch.setenv("HOPMETRIC_SEED", "abc")
        res = runner.invoke(main, ["gen", "--family", "gnp", "--n", "10",
                                   "--p", "0.3"])
        assert res.exit_code == 2
        assert "HOPMETRIC_SEED" in res.output and "'abc'" in res.output
        # an explicit --seed never reads the variable
        gpath = tmp_path / "g.json"
        res = runner.invoke(main, ["gen", "--family", "gnp", "--n", "6",
                                   "--p", "0.5", "--seed", "9", "-o", str(gpath)])
        assert res.exit_code == 0
        res = runner.invoke(main, ["ramsey", "--graph", str(gpath)])
        assert res.exit_code == 2 and "HOPMETRIC_SEED" in res.output

    def test_missing_graph_is_usage_error(self):
        runner = CliRunner()
        res = runner.invoke(main, ["ramsey"])
        assert res.exit_code != 0

    def test_every_command_has_help(self):
        for name, cmd in main.commands.items():
            assert cmd.get_short_help_str(), name
            assert next(p for p in cmd.params if p.name == "seed").help, name
        assert [name for name, cmd in main.commands.items()
                if any(p.name == "pairs" for p in cmd.params)] == ["route"]


class TestBadInput:
    """Malformed input files and parameters are usage errors (exit code 2),
    not tracebacks."""

    @staticmethod
    def _graph(tmp_path):
        gpath = tmp_path / "g.json"
        gpath.write_text(gen_graph("path", {"n": 4}).to_json())
        return str(gpath)

    @staticmethod
    def _usage_error(res):
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert "Error:" in res.output

    @pytest.mark.parametrize("text", ["{not json", '{"n": 3}', "[1, 2]",
                                      '{"n": 3, "edges": [[0, 5, 1.0]]}',
                                      '{"n": 2.7, "edges": [[0, 1, 1.0]]}',
                                      '{"n": 3, "edges": [[0, 1.5, 2.0]]}',
                                      '{"n": 3, "edges": [[0, true, 1.0]]}',
                                      '{"n": "3", "edges": [[0, 1, 2.5]]}',
                                      '{"n": 3, "edges": [["0", "1", "2.5"]]}',
                                      '{"n": 3, "edges": [[0, 1, "2.5"]]}',
                                      '{"n": 3, "edges": [[0, 1, false]]}'])
    def test_malformed_graph_file(self, tmp_path, text):
        gpath = tmp_path / "bad.json"
        gpath.write_text(text)
        res = CliRunner().invoke(main, ["check", "--graph", str(gpath)])
        self._usage_error(res)
        assert "malformed graph file" in res.output

    @pytest.mark.parametrize("text, message", [
        ("{not json", "malformed subgraph file"),
        ('{"vertices": []}', "malformed subgraph file"),
        ('{"edges": [[0]]}', "malformed subgraph file"),
        ('{"edges": [[0, 1.5]]}', "malformed subgraph file"),
        ('{"edges": [[0.5, 1]]}', "malformed subgraph file"),
        ('{"edges": [[0, true]]}', "malformed subgraph file"),
        ('{"edges": [["0", "1"]]}', "malformed subgraph file"),
        ('{"edges": [[0, 9]]}', "not an edge of the graph"),
        ('{"edges": [[0, 2]]}', "not an edge of the graph")])
    def test_malformed_subgraph_file(self, tmp_path, text, message):
        hpath = tmp_path / "h.json"
        hpath.write_text(text)
        res = CliRunner().invoke(main, ["preserve", "--graph", self._graph(tmp_path),
                                        "--subgraph", str(hpath)])
        self._usage_error(res)
        assert message in res.output

    @pytest.mark.parametrize("root", ["4", "-1"])
    def test_root_out_of_range(self, tmp_path, root):
        res = CliRunner().invoke(main, ["preserve", "--graph", self._graph(tmp_path),
                                        "--root", root])
        self._usage_error(res)
        assert "not a vertex" in res.output

    @pytest.mark.parametrize("args", [
        ["ramsey", "--h", "0"], ["clan", "--k", "0"], ["check", "--h", "-1"],
        ["preserve", "--h", "0"], ["oracle", "--epsilon", "1.5"],
        ["labels", "--epsilon", "0"], ["route", "--pairs", "-1"],
        ["route", "--k", "0"], ["cover", "--delta", "-1"], ["cover", "--delta", "0"],
        ["cover", "--delta", "nan"], ["cover", "--delta", "inf"],
        ["oracle", "--epsilon", "nan"]])
    def test_parameter_out_of_range(self, tmp_path, args):
        res = CliRunner().invoke(main, args + ["--graph", self._graph(tmp_path)])
        self._usage_error(res)
        assert "is not in the range" in res.output

    @pytest.mark.parametrize("args, message", [
        (["path", "--n", "0"], "is not in the range"),
        (["grid", "--rows", "0"], "is not in the range"),
        (["grid", "--cols", "-3"], "is not in the range"),
        (["random-weighted", "--wmin", "-1"], "is not in the range"),
        (["random-weighted", "--wmax", "nan"], "is not in the range"),
        (["random-weighted", "--wmax", "inf"], "is not in the range"),
        (["gnp", "--p", "-1"], "is not in the range"),
        (["gnp", "--p", "nan"], "is not in the range"),
        (["random-weighted", "--wmin", "5", "--wmax", "2"], "larger than --wmax"),
        (["cycle", "--n", "2"], "cycle needs n >= 3")])
    def test_gen_out_of_range(self, args, message):
        res = CliRunner().invoke(main, ["gen", "--family"] + args)
        self._usage_error(res)
        assert message in res.output
