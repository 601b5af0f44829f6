"""End-to-end CLI behavior through ``tensyl.cli.main``."""

import json

import numpy as np
import pytest

from tensyl import fileio
from tensyl import tensor as tc
from tensyl.cli import main
from tensyl.instances import random_consistent, random_inconsistent

from conftest import random_tensor, write_with_bad_entry


@pytest.fixture
def consistent_file(tmp_path):
    rng = np.random.default_rng(1)
    problem, x_star = random_consistent(rng, (2, 2), (3,), shift=2.0)
    path = tmp_path / "problem.json"
    fileio.write_problem(path, problem, x_star=x_star)
    return path


@pytest.fixture
def inconsistent_file(tmp_path):
    rng = np.random.default_rng(2)
    problem = random_inconsistent(rng, (2,), (3,))
    path = tmp_path / "bad.json"
    fileio.write_problem(path, problem)
    return path


class TestSolve:
    def test_success_and_outputs(self, consistent_file, tmp_path, capsys):
        out = tmp_path / "x.json"
        csv = tmp_path / "r.csv"
        code = main(["solve", str(consistent_file), "--out", str(out), "--csv", str(csv)])
        assert code == 0
        assert "status: Converged" in capsys.readouterr().out
        solution = fileio.read_tensor(out)
        x_star = fileio.read_problem(consistent_file).x_star
        assert tc.fro_norm(tc.subtract(solution, x_star)) < 1e-7
        assert csv.read_text().startswith("k,res\n")

    def test_default_output_paths(self, consistent_file, tmp_path):
        code = main(["solve", str(consistent_file), "--quiet"])
        assert code == 0
        assert (tmp_path / "problem_solution.json").exists()
        assert (tmp_path / "problem_residuals.csv").exists()

    def test_quiet_machine_line(self, consistent_file, tmp_path, capsys):
        code = main(["solve", str(consistent_file), "--quiet"])
        assert code == 0
        fields = capsys.readouterr().out.strip().split()
        assert fields[0] == "Converged"
        assert int(fields[1]) > 0
        assert float(fields[2]) < 1e-10

    def test_init_from_file(self, consistent_file, tmp_path):
        x_star = fileio.read_problem(consistent_file).x_star
        warm = tmp_path / "warm.json"
        fileio.write_tensor(x_star, warm)
        code = main(["solve", str(consistent_file), "--init", f"file:{warm}", "--quiet"])
        assert code == 0
        csv = (tmp_path / "problem_residuals.csv").read_text()
        assert len(csv.strip().split("\n")) == 2  # header plus the initial residual

    def test_init_bad_split(self, consistent_file, tmp_path, capsys):
        rng = np.random.default_rng(0)
        wrong = tmp_path / "wrong.json"
        fileio.write_tensor(random_tensor(rng, (3,), (2, 2)), wrong)
        code = main(["solve", str(consistent_file), "--init", f"file:{wrong}"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_inconsistent_exit_code(self, inconsistent_file, capsys):
        code = main(["solve", str(inconsistent_file), "--quiet"])
        assert code == 2
        assert capsys.readouterr().out.startswith("Inconsistent")

    def test_iteration_limit_exit_code(self, consistent_file):
        assert main(["solve", str(consistent_file), "--kmax", "1", "--quiet"]) == 3

    def test_missing_file(self, tmp_path, capsys):
        code = main(["solve", str(tmp_path / "nope.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "1e999"])
    def test_non_finite_entry_rejected(self, tmp_path, capsys, token):
        rng = np.random.default_rng(3)
        problem, _ = random_consistent(rng, (2,), (3,))
        path = tmp_path / "p.json"
        write_with_bad_entry(path, problem, token)
        code = main(["solve", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "D: field 'data' entry 1" in err
        assert "not a finite number" in err
        assert not (tmp_path / "p_solution.json").exists()

    def test_options_override(self, consistent_file, capsys):
        code = main(["solve", str(consistent_file), "--epsilon", "1e-2", "--quiet"])
        assert code == 0
        fields = capsys.readouterr().out.strip().split()
        assert float(fields[2]) < 1e-2


class TestNearness:
    def test_requires_x0(self, consistent_file, capsys):
        code = main(["nearness", str(consistent_file)])
        assert code == 1
        assert "X0" in capsys.readouterr().err

    def test_success(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        problem, _ = random_consistent(rng, (2,), (2, 2), shift=2.0)
        x0 = random_tensor(rng, (2,), (2, 2))
        path = tmp_path / "near.json"
        fileio.write_problem(path, problem, x0=x0)
        code = main(["nearness", str(path), "--quiet"])
        assert code == 0
        fields = capsys.readouterr().out.strip().split()
        assert fields[0] == "Converged"
        assert (tmp_path / "near_nearest.json").exists()


class TestOracleAndVerify:
    def test_oracle_consistent(self, consistent_file, tmp_path, capsys):
        out = tmp_path / "oracle.json"
        code = main(["oracle", str(consistent_file), "--out", str(out), "--quiet"])
        assert code == 0
        assert capsys.readouterr().out.startswith("consistent")
        assert out.exists()

    def test_oracle_inconsistent(self, inconsistent_file, capsys):
        code = main(["oracle", str(inconsistent_file), "--quiet"])
        assert code == 2
        assert capsys.readouterr().out.startswith("inconsistent")

    def test_verify_agreement(self, consistent_file, capsys):
        code = main(["verify", str(consistent_file), "--quiet"])
        assert code == 0
        assert capsys.readouterr().out.startswith("agree")

    def test_verify_agreement_on_inconsistent(self, inconsistent_file, capsys):
        code = main(["verify", str(inconsistent_file), "--quiet"])
        assert code == 0
        assert capsys.readouterr().out.startswith("agree")

    def test_verify_names_tolerance_and_result(self, tmp_path, capsys):
        # The verdicts agree, but the solutions are farther apart than --tol.
        path = tmp_path / "p.json"
        assert main(["gen", "--I", "2,2", "--J", "3", "--seed", "7", "--out", str(path), "--quiet"]) == 0
        code = main(["verify", str(path), "--tol", "1e-20"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        assert "verdict agreement: True" in lines
        assert "(tolerance " in lines[2]
        assert lines[-1] == "result: disagree"
        assert main(["verify", str(path), "--tol", "1e-20", "--quiet"]) == 1
        assert capsys.readouterr().out.startswith("disagree ")


class TestGen:
    def test_consistent_instance(self, tmp_path):
        out = tmp_path / "gen.json"
        code = main(["gen", "--I", "2,2", "--J", "3", "--seed", "7", "--out", str(out), "--quiet"])
        assert code == 0
        loaded = fileio.read_problem(out)
        assert loaded.problem.D.row_extents == (2, 2)
        assert loaded.problem.D.col_extents == (3,)
        assert loaded.x_star is not None

    def test_deterministic_for_seed(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            main(["gen", "--I", "2", "--J", "2,2", "--seed", "5", "--out", str(out), "--quiet"])
        assert a.read_text() == b.read_text()

    def test_inconsistent_instance(self, tmp_path):
        out = tmp_path / "bad.json"
        code = main(
            ["gen", "--I", "2", "--J", "3", "--seed", "9", "--inconsistent",
             "--out", str(out), "--quiet"]
        )
        assert code == 0
        assert main(["oracle", str(out), "--quiet"]) == 2

    def test_bad_extents(self, tmp_path, capsys):
        code = main(["gen", "--I", "2,x", "--J", "3", "--seed", "1",
                     "--out", str(tmp_path / "o.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestRepro:
    def test_runs_and_reports(self, tmp_path, capsys):
        code = main(["repro", "--outdir", str(tmp_path / "repro")])
        out = capsys.readouterr().out
        # the distance is checked against the value the printed blocks imply;
        # the contradicting published figure is still named
        assert code == 0
        assert "[ok] nearness problem: distance " in out
        assert "within 1e-3 of 603.3520 implied by the printed blocks" in out
        assert "published figure 640.2422" in out
        assert "[ok] reference problem: final residual < 1e-10" in out
        assert "[ok] nearness problem: solution matches published entries to 5e-4" in out
        assert (tmp_path / "repro" / "reference_residuals.csv").exists()
        assert (tmp_path / "repro" / "nearness_solution.json").exists()

    def test_outdir_is_a_file(self, tmp_path, capsys):
        outdir = tmp_path / "taken"
        outdir.write_text("")
        assert main(["repro", "--outdir", str(outdir), "--quiet"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err


class TestUsageErrors:
    def test_unknown_command_maps_to_one(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_no_command_maps_to_one(self, capsys):
        assert main([]) == 1
        capsys.readouterr()
