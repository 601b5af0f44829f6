"""End-to-end CLI behavior through ``tensyl.cli.main``."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tensyl import cli, fileio, reference_problems
from tensyl import tensor as tc
from tensyl.cli import main
from tensyl.instances import random_consistent, random_inconsistent
from tensyl.solver import SylvesterProblem

from conftest import random_tensor, scaled_problem, write_with_bad_entry

# The environment of a shell run of the package from this source tree.
SRC_ENV = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}

# Extents whose A has 2^56 doubles, 2^59 bytes: beyond any 57-bit address
# space, so numpy refuses the allocation before it touches memory.
UNALLOCATABLE = ["--I", "16384,16384", "--J", "1"]


@pytest.fixture
def consistent_file(tmp_path):
    rng = np.random.default_rng(1)
    problem, x_star = random_consistent(rng, (2, 2), (3,), shift=2.0)
    path = tmp_path / "problem.json"
    fileio.write_problem(path, problem, x_star=x_star)
    return path


@pytest.fixture
def overflowing_shift_files(tmp_path):
    """Nearness files whose every entry is finite, each with its one error line."""
    # A X0 = 1e400 overflows.
    a = tc.DenseTensor((2,), (2,), [1.0e200, 0.0, 0.0, 1.0e200])
    problem = SylvesterProblem(a, tc.DenseTensor((1,), (1,), [1.0]), tc.DenseTensor((2,), (1,), [1.0, 1.0]))
    product = tmp_path / "p.json"
    fileio.write_problem(product, problem, x0=tc.DenseTensor((2,), (1,), [1.0e200, 1.0e200]))
    # A X0 = -1.7e308 is finite; D - A X0 = 3.4e308 is not.
    scalar = [tc.DenseTensor((1,), (1,), [v]) for v in (1.0, 0.0, 1.7e308, -1.7e308)]
    difference = tmp_path / "q.json"
    fileio.write_problem(difference, SylvesterProblem(*scalar[:3]), x0=scalar[3])
    return [
        (product, "error: A *_M X + X *_N C overflowed the double range\n"),
        (difference, "error: D - (A *_M X0 + X0 *_N C) overflowed the double range\n"),
    ]


@pytest.fixture
def inconsistent_file(tmp_path):
    rng = np.random.default_rng(2)
    problem, _ = random_inconsistent(rng, (2,), (3,))
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

    def test_init_bad_spec(self, consistent_file, capsys):
        assert main(["solve", str(consistent_file), "--init", "ones"]) == 1
        assert capsys.readouterr().err == "error: bad --init value 'ones'; expected 'zero' or 'file:<path>'\n"

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

    def test_overflowed_shift_is_named(self, overflowing_shift_files, capsys):
        for path, error in overflowing_shift_files:
            code = main(["nearness", str(path)])
            assert code == 1
            assert capsys.readouterr().err == error
            assert not path.with_name(f"{path.stem}_nearest.json").exists()

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
        # The verdicts agree, but a loose --epsilon stops the solver farther
        # from the oracle's solution than cli.VERIFY_TOL allows.
        path = tmp_path / "p.json"
        assert main(["gen", "--I", "2,2", "--J", "3", "--seed", "7", "--out", str(path), "--quiet"]) == 0
        code = main(["verify", str(path), "--epsilon", "1e-2"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        assert "verdict agreement: True" in lines
        assert "(tolerance " in lines[2]
        assert lines[-1] == "result: disagree"
        assert main(["verify", str(path), "--epsilon", "1e-2", "--quiet"]) == 1
        assert capsys.readouterr().out.startswith("disagree ")

    def test_verify_compares_no_solutions_when_both_are_inconsistent(self, tmp_path, capsys):
        # The solver stops Inconsistent on a diverged iterate (5.35e7 from the
        # oracle's least-squares solution), which is no solution to compare.
        path = tmp_path / "p.json"
        gen = ["gen", "--I", "5,4", "--J", "4,5", "--seed", "0", "--inconsistent", "--out", str(path), "--quiet"]
        assert main(gen) == 0
        assert main(["verify", str(path), "--quiet"]) == 0
        assert capsys.readouterr().out == "agree n/a\n"
        assert main(["verify", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("solver: Inconsistent (")
        assert lines[2:] == ["Frobenius distance between solutions: n/a", "verdict agreement: True",
                             "result: agree"]

    @pytest.mark.parametrize(
        "gen_args",
        [
            ["--I", "2", "--J", "3", "--seed", "2", "--inconsistent"],
            ["--I", "2,2", "--J", "3", "--seed", "7"],
        ],
        ids=["inconsistent", "consistent"],
    )
    def test_verify_iteration_limit_is_undecided(self, tmp_path, gen_args, capsys):
        # A run cut off by k_max neither agrees nor disagrees with the oracle.
        path = tmp_path / "p.json"
        assert main(["gen", *gen_args, "--out", str(path), "--quiet"]) == 0
        assert main(["verify", str(path), "--kmax", "2"]) == 3
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "solver: IterationLimit (2 iterations)"
        assert lines[-1] == "result: undecided"
        assert main(["verify", str(path), "--kmax", "2", "--quiet"]) == 3
        assert capsys.readouterr().out.startswith("undecided ")

    def test_verify_refuses_oversized_problem_before_solving(self, tmp_path, monkeypatch, capsys):
        # m * n = 65 * 64 = 4160 is past the oracle's dense cap of 4096.
        path = tmp_path / "big.json"
        assert main(["gen", "--I", "65", "--J", "64", "--seed", "0", "--out", str(path), "--quiet"]) == 0

        def no_solve(*args, **kwargs):
            raise AssertionError("verify solved a problem the oracle refuses")

        monkeypatch.setattr("tensyl.cli.solve_min_norm", no_solve)
        assert main(["verify", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unfolded system of size 4160 exceeds the dense cap 4096\n"

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf", "1e-6"])
    def test_verify_rejects_bad_tolerance(self, consistent_file, tol, capsys):
        # The agreement tolerance is the constant cli.VERIFY_TOL, not a flag, so
        # every --tol is refused, the old default 1e-6 as well as a bad value.
        assert main(["verify", str(consistent_file), "--tol", tol]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: --tol {tol}" in captured.err


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
        for I, seed in (("2", "9"), ("1", "0")):  # row extent product 2, then 1
            code = main(
                ["gen", "--I", I, "--J", "3", "--seed", seed, "--inconsistent",
                 "--out", str(out), "--quiet"]
            )
            assert code == 0
            assert main(["oracle", str(out), "--quiet"]) == 2

    @pytest.mark.parametrize("kind, flags", [("consistent", []), ("inconsistent", ["--inconsistent"])])
    def test_reports_written_instance(self, tmp_path, capsys, kind, flags):
        out = tmp_path / "gen.json"
        assert main(["gen", "--I", "2", "--J", "3", "--seed", "9", "--out", str(out), *flags]) == 0
        assert capsys.readouterr().out == f"wrote {kind} instance to {out}\n"
        assert out.exists()

    def test_bad_extents(self, tmp_path, capsys):
        code = main(["gen", "--I", "2,x", "--J", "3", "--seed", "1",
                     "--out", str(tmp_path / "o.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_zero_extent(self, tmp_path, capsys):
        assert main(["gen", "--I", "0", "--J", "3", "--seed", "1", "--out", str(tmp_path / "o.json")]) == 1
        assert capsys.readouterr().err == "error: row extents must be positive integers, got (0,)\n"
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("flags", [[], ["--inconsistent"]], ids=["consistent", "inconsistent"])
    def test_unallocatable_size_is_one_error_line(self, tmp_path, capsys, flags):
        out = tmp_path / "o.json"
        assert main(["gen", *UNALLOCATABLE, "--seed", "0", "--out", str(out), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: Unable to allocate ") and captured.err.count("\n") == 1
        assert not out.exists()


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

    def test_quiet_pass_prints_ok(self, tmp_path, capsys):
        assert main(["repro", "--outdir", str(tmp_path), "--quiet"]) == 0
        assert capsys.readouterr().out == "ok\n"

    def test_failed_check(self, tmp_path, monkeypatch, capsys):
        published = reference_problems.min_norm_reference()
        off = published.data.copy()
        off[0] += 1.0e-3  # twice the entry tolerance
        monkeypatch.setattr(reference_problems, "min_norm_reference",
                            lambda: tc.DenseTensor(published.row_extents, published.col_extents, off))
        check = "reference problem: solution matches published entries to 5e-4"
        assert main(["repro", "--outdir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert f"[FAIL] {check}" in captured.out.splitlines()
        assert "[ok] nearness problem: solution matches published entries to 5e-4" in captured.out
        assert "all reproduction checks passed" not in captured.out
        assert captured.err == f"error: {check}\n"
        assert main(["repro", "--outdir", str(tmp_path), "--quiet"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("fail\n", f"error: {check}\n")

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

    def test_epsilon_p_flag_refused(self, consistent_file, capsys):
        # The direction tolerance is the constant solver.DIRECTION_TOL, not a flag.
        assert main(["solve", str(consistent_file), "--epsilon-p", "1e-12"]) == 1
        assert capsys.readouterr().out == ""


SOLVER_FLAGS = {"epsilon": None, "k_max": None}


class TestArgumentSet:
    @pytest.mark.parametrize("argv, want", [
        (["solve", "p.json"], {"command": "solve", "problem": "p.json", "init": "zero", **SOLVER_FLAGS,
                               "out": None, "csv": None, "quiet": False}),
        (["nearness", "p.json"], {"command": "nearness", "problem": "p.json", **SOLVER_FLAGS,
                                  "out": None, "csv": None, "quiet": False}),
        (["oracle", "p.json"], {"command": "oracle", "problem": "p.json", "out": None, "quiet": False}),
        (["verify", "p.json"], {"command": "verify", "problem": "p.json", **SOLVER_FLAGS, "quiet": False}),
        (["gen", "--I", "2", "--J", "3", "--seed", "1", "--out", "o.json"],
         {"command": "gen", "I": "2", "J": "3", "seed": 1, "inconsistent": False, "out": "o.json",
          "quiet": False}),
        (["repro"], {"command": "repro", "outdir": "repro_out", "quiet": False}),
    ])
    def test_every_dest_and_default(self, argv, want):
        got = vars(cli.build_parser().parse_args(argv))
        del got["func"]
        assert got == want


class TestParserReuse:
    def test_reused_parser_carries_no_state(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        assert main(["gen", "--I", "2,2", "--J", "3", "--seed", "7", "--out", str(path), "--quiet"]) == 0
        assert main(["verify", str(path), "--kmax", "2", "--quiet"]) == 3
        assert capsys.readouterr().out.startswith("undecided ")
        assert main(["verify", str(path), "--no-such-flag"]) == 1
        capsys.readouterr()
        # the default k_max again, and the human report, not --quiet's line
        assert main(["verify", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("solver: Converged (")
        assert lines[-1] == "result: agree"

    def test_main_builds_one_parser(self, consistent_file, monkeypatch, capsys):
        main(["oracle", str(consistent_file), "--quiet"])  # the parser exists from here on
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for argv in (["verify", str(consistent_file), "--quiet"], ["frobnicate"], ["oracle", str(consistent_file)]):
            main(argv)
        capsys.readouterr()
        assert built == []

    def test_import_builds_no_parser(self):
        script = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting_init(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting_init\n"
            "import tensyl.cli\n"
            "print(len(built))\n"
        )
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True,
                              env=SRC_ENV)
        assert done.stdout == "0\n"


class TestShellEntryPoint:
    def test_exit_codes_reach_the_shell(self, tmp_path):
        def tensyl(*argv):
            return subprocess.run([sys.executable, "-m", "tensyl.cli", *argv], capture_output=True, text=True,
                                  env=SRC_ENV)

        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        assert tensyl("gen", "--I", "2,2", "--J", "3", "--seed", "7", "--out", str(good), "--quiet").returncode == 0
        done = tensyl("verify", str(good), "--quiet")
        assert (done.returncode, done.stdout.split()[0], done.stderr) == (0, "agree", "")
        gen = tensyl("gen", "--I", "2", "--J", "3", "--seed", "9", "--inconsistent", "--out", str(bad), "--quiet")
        assert gen.returncode == 0
        done = tensyl("solve", str(bad), "--quiet")
        assert (done.returncode, done.stdout.split()[0], done.stderr) == (2, "Inconsistent", "")

    def test_unallocatable_gen_is_one_error_line(self, tmp_path):
        out = tmp_path / "o.json"
        done = subprocess.run([sys.executable, "-m", "tensyl.cli", "gen", *UNALLOCATABLE, "--seed", "0",
                               "--out", str(out)], capture_output=True, text=True, env=SRC_ENV)
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr.startswith("error: Unable to allocate ") and done.stderr.count("\n") == 1
        assert not out.exists()

    def test_overflowed_shift_is_one_error_line(self, overflowing_shift_files):
        # No numpy RuntimeWarning, and no source line of tensyl, before it.
        for path, error in overflowing_shift_files:
            done = subprocess.run([sys.executable, "-m", "tensyl.cli", "nearness", str(path)],
                                  capture_output=True, text=True, env=SRC_ENV)
            assert (done.returncode, done.stdout, done.stderr) == (1, "", error)

    def test_overflowing_solve_is_one_error_line(self, tmp_path):
        # ||D||^2 overflows inside the solve loop, where no numpy warning may escape either.
        rng = np.random.default_rng(0)
        a, c = random_tensor(rng, (2,), (2,)), random_tensor(rng, (2,), (2,))
        path = tmp_path / "huge.json"
        fileio.write_problem(path, SylvesterProblem(a, c, tc.DenseTensor((2,), (2,), [1.0e200, 1.0, 1.0, 1.0])))
        done = subprocess.run([sys.executable, "-m", "tensyl.cli", "solve", str(path)], capture_output=True,
                              text=True, env=SRC_ENV)
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == "error: step length alpha is not finite (iteration 1)\n"

    def test_oracle_norms_do_not_overflow(self, tmp_path):
        # ||D||^2 and the residual's square overflow at 2^600 times a normal problem; the norms may not.
        problem, _ = random_consistent(np.random.default_rng(3), (2, 2), (3,))
        path = tmp_path / "huge.json"
        fileio.write_problem(path, scaled_problem(problem, 600))
        done = subprocess.run([sys.executable, "-m", "tensyl.cli", "oracle", str(path), "--quiet"],
                              capture_output=True, text=True, env=SRC_ENV)
        assert (done.returncode, done.stdout.split()[:2], done.stderr) == (0, ["consistent", "12"], "")
        assert float(done.stdout.split()[2]) < 1e-10 * 2.0**600
        done = subprocess.run([sys.executable, "-m", "tensyl.cli", "verify", str(path)], capture_output=True,
                              text=True, env=SRC_ENV)
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == "error: step length alpha is not finite (iteration 1)\n"

    @pytest.mark.parametrize("command", ["oracle", "verify"])
    def test_overflowing_lift_is_one_error_line(self, tmp_path, command):
        # Every entry is finite, but the Kronecker lift's diagonal 1e308 + 1e308 is not; the
        # off-diagonal entry keeps psi(A) nonsymmetric, so the oracle lifts K.
        a = tc.psi_inverse(np.array([[1.0e308, 1.0e308], [0.0, 1.0e308]]), (2,), (2,))
        c = tc.DenseTensor((1,), (1,), [1.0e308])
        problem = SylvesterProblem(a, c, tc.DenseTensor((2,), (1,), [1.0, 1.0]))
        path = tmp_path / "lift.json"
        fileio.write_problem(path, problem)
        done = subprocess.run([sys.executable, "-m", "tensyl.cli", command, str(path)], capture_output=True,
                              text=True, env=SRC_ENV)
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == "error: Kronecker lift overflowed the double range\n"

    def test_int_past_digit_limit_is_one_error_line(self, tmp_path):
        path = tmp_path / "big.json"
        write_with_bad_entry(path, random_consistent(np.random.default_rng(3), (2,), (3,))[0], "9" * 5000)
        done = subprocess.run([sys.executable, "-m", "tensyl.cli", "solve", str(path)], capture_output=True,
                              text=True, env=SRC_ENV)
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr.startswith(f"error: {path}: ") and done.stderr.count("\n") == 1

    def test_deeply_nested_file_is_one_error_line(self, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text('{"A": ' + "[" * 5000 + "]" * 5000 + "}")
        done = subprocess.run([sys.executable, "-m", "tensyl.cli", "verify", str(deep)], capture_output=True,
                              text=True, env=SRC_ENV)
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == f"error: {deep}: JSON nested too deeply to read\n"
