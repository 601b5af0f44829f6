"""Random instance generators: determinism, consistency, the planted witness."""

import numpy as np
import pytest

from tensyl import fileio
from tensyl import tensor as tc
from tensyl.cli import main
from tensyl.instances import random_consistent, random_inconsistent
from tensyl.oracle import DEFAULT_SIZE_CAP, oracle_solve
from tensyl.solver import apply_adjoint, apply_operator


class TestRandomConsistent:
    def test_witness_solves_equation(self):
        rng = np.random.default_rng(0)
        problem, x = random_consistent(rng, (2, 2), (3,))
        d = apply_operator(problem.A, problem.C, x)
        assert np.allclose(d.data, problem.D.data)

    def test_deterministic_for_seed(self):
        a = random_consistent(np.random.default_rng(8), (2,), (3,))[0]
        b = random_consistent(np.random.default_rng(8), (2,), (3,))[0]
        assert np.array_equal(a.D.data, b.D.data)

    def test_shift_adds_identity(self):
        base = random_consistent(np.random.default_rng(1), (2,), (2,), shift=0.0)[0]
        shifted = random_consistent(np.random.default_rng(1), (2,), (2,), shift=5.0)[0]
        diff = tc.psi(shifted.A) - tc.psi(base.A)
        assert np.allclose(diff, 5.0 * np.eye(2))

    def test_oracle_certifies_consistent(self):
        rng = np.random.default_rng(3)
        problem, _ = random_consistent(rng, (2,), (2, 2))
        assert oracle_solve(problem).consistent


class TestRandomInconsistent:
    def test_oracle_certifies_inconsistent(self):
        rng = np.random.default_rng(6)
        problem, _ = random_inconsistent(rng, (2, 2), (3,))
        assert not oracle_solve(problem).consistent
        # An extent product of 1 makes that singular operator the 1 x 1 zero.
        for split in [((1,), (3,)), ((3,), (1,)), ((1,), (1,)), ((1, 1), (2, 2))]:
            problem, _ = random_inconsistent(np.random.default_rng(0), *split)
            assert not oracle_solve(problem).consistent

    def test_operators_are_singular(self):
        rng = np.random.default_rng(7)
        problem, _ = random_inconsistent(rng, (2,), (2, 2))
        assert np.linalg.matrix_rank(tc.psi(problem.A)) < problem.D.m
        assert np.linalg.matrix_rank(tc.psi(problem.C)) < problem.D.n

    def test_deterministic_for_seed(self):
        a, y_a = random_inconsistent(np.random.default_rng(9), (2,), (3,))
        b, y_b = random_inconsistent(np.random.default_rng(9), (2,), (3,))
        assert np.array_equal(a.D.data, b.D.data)
        assert np.array_equal(y_a.data, y_b.data)

    @pytest.mark.parametrize("rows, cols", [((2, 2), (3,)), ((1,), (1,)), ((3,), (1,)), ((8, 8), (8, 9))])
    def test_witness_certifies_inconsistency(self, rows, cols):
        # L*(Y) = 0 and <D, Y> != 0: no X has L(X) = D, since <L(X), Y> =
        # <X, L*(Y)>.  (8, 8) x (8, 9) has m*n = 4608, above the oracle's cap.
        problem, y = random_inconsistent(np.random.default_rng(0), rows, cols)
        a, c, d = problem.A, problem.C, problem.D
        assert (y.row_extents, y.col_extents) == (d.row_extents, d.col_extents)
        assert tc.fro_norm(y) == pytest.approx(1.0, rel=1e-15)
        assert tc.fro_norm(apply_adjoint(a, c, y)) <= 1e-14 * (tc.fro_norm(a) + tc.fro_norm(c))
        # <D, Y> = max(1, ||L(X)||) up to rounding
        assert tc.inner(d, y) >= 1.0 - 1e-12

    def test_gen_above_dense_cap(self, tmp_path, capsys):
        out = tmp_path / "big.json"
        argv = ["gen", "--I", "8,8", "--J", "8,9", "--seed", "0", "--inconsistent", "--out", str(out)]
        assert main(argv) == 0
        assert capsys.readouterr() == (f"wrote inconsistent instance to {out}\n", "")
        written = fileio.read_problem(out)
        assert written.problem.D.m * written.problem.D.n > DEFAULT_SIZE_CAP
        assert written.x_star is None
        problem, _ = random_inconsistent(np.random.default_rng(0), (8, 8), (8, 9))
        assert written.problem.D.data.tobytes() == problem.D.data.tobytes()


@pytest.mark.parametrize("generate", [random_consistent, random_inconsistent])
@pytest.mark.parametrize("rows, cols, which", [((0,), (2,), "row"), ((2,), (2.5,), "col"), ((2,), (3, -1), "col")])
def test_bad_extents_refused_before_any_draw(generate, rows, cols, which):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(tc.DimensionError, match=f"^{which} extents must be positive integers"):
        generate(rng, rows, cols)
    assert rng.bit_generator.state == state
