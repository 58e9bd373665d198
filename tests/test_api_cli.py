"""CLI round-trips for the plan subcommand and the plan-backed commands."""


import numpy as np
import pytest

from repro.cli import main
from repro.utils.io import load_rows_json


class TestPlanCommand:
    def test_numeric_backend(self, capsys):
        assert main(["plan", "--m", "40", "--n", "24", "--tile-size", "8"]) == 0
        out = capsys.readouterr().out
        assert "backend        : numeric" in out
        assert "max rel error" in out

    def test_all_backends(self, capsys):
        assert main(
            ["plan", "--m", "40", "--n", "24", "--tile-size", "8", "--backend", "all"]
        ) == 0
        out = capsys.readouterr().out
        for backend in ("numeric", "dag", "simulate"):
            assert f"backend        : {backend}" in out

    def test_json_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "rows.json"
        assert main(
            ["plan", "--m", "40", "--n", "24", "--tile-size", "8",
             "--backend", "all", "--json", str(path)]
        ) == 0
        rows = load_rows_json(path)
        assert [row["backend"] for row in rows] == ["numeric", "dag", "simulate"]
        # DAG and simulator traced the same graph for the same plan.
        assert rows[1]["n_tasks"] == rows[2]["n_tasks"]

    def test_dag_backend_options(self, capsys):
        assert main(
            ["plan", "--m", "64", "--n", "32", "--tile-size", "8",
             "--backend", "dag", "--stage", "ge2bnd", "--tree", "flattt",
             "--variant", "rbidiag", "--n-cores", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "critical path" in out and "rbidiag" in out

    def test_rejects_bad_stage_backend_combo(self, capsys):
        assert main(["plan", "--m", "16", "--n", "16", "--tile-size", "4",
                     "--stage", "gesvd", "--backend", "simulate"]) == 2
        assert "numeric" in capsys.readouterr().err

    def test_rejects_wide_matrix(self, capsys):
        assert main(["plan", "--m", "16", "--n", "32"]) == 2
        assert "transpose" in capsys.readouterr().err

    def test_backend_all_skips_unsupported_stage(self, capsys):
        # gesvd only runs numerically; 'all' reports the other two as
        # skipped instead of aborting after partial output.
        assert main(["plan", "--m", "16", "--n", "16", "--tile-size", "4",
                     "--stage", "gesvd", "--backend", "all"]) == 0
        out = capsys.readouterr().out
        assert "backend        : numeric" in out
        assert out.count("skipped") == 2


class TestSvdCommand:
    def test_n_cores_and_auto_tree(self, capsys):
        assert main(
            ["svd", "--m", "40", "--n", "24", "--tile-size", "8",
             "--tree", "auto", "--n-cores", "8"]
        ) == 0
        out = capsys.readouterr().out
        assert "max rel error" in out

    def test_rejects_unknown_tree(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["svd", "--m", "40", "--n", "24", "--tree", "bogus"])
        assert excinfo.value.code == 2

    def test_npy_input_still_works(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        path = tmp_path / "a.npy"
        np.save(path, rng.standard_normal((30, 20)))
        assert main(["svd", "--input", str(path), "--tile-size", "5"]) == 0


class TestPlanBackedLegacyCommands:
    def test_simulate_output_labels(self, capsys):
        assert main(["simulate", "2000", "2000", "--nb", "200", "--cores", "8"]) == 0
        out = capsys.readouterr().out
        assert "tasks" in out and "GFlop/s" in out

    def test_simulate_ge2val_stage_seconds(self, capsys):
        assert main(
            ["simulate", "4000", "1000", "--nb", "250", "--cores", "8", "--ge2val"]
        ) == 0
        out = capsys.readouterr().out
        assert "t_post" in out

    def test_critical_path_matches_direct_trace(self, capsys):
        from repro.dag.critical_path import critical_path_length
        from repro.ir import get_program
        from repro.trees import GreedyTree

        assert main(["critical-path", "8", "4", "--tree", "greedy"]) == 0
        out = capsys.readouterr().out
        expected = critical_path_length(get_program("bidiag", 8, 4, GreedyTree()))
        measured = [l for l in out.splitlines() if l.startswith("measured")][0]
        assert float(measured.split(":")[1]) == pytest.approx(expected)


class TestRunParamOverrides:
    def test_plan_experiments_registered(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "plan-tree-sweep" in out and "plan-backend-matrix" in out

    def test_run_with_param_override(self, capsys):
        assert main(
            ["run", "plan-tree-sweep", "--param", "m=1000", "--param", "n=1000",
             "--param", "trees=('flatts','greedy')"]
        ) == 0
        out = capsys.readouterr().out
        assert "flatts" in out and "greedy" in out
        assert "flattt" not in out

    def test_run_backend_matrix(self, capsys):
        assert main(["run", "plan-backend-matrix", "--markdown"]) == 0
        out = capsys.readouterr().out
        assert "numeric" in out and "dag" in out and "simulate" in out
