"""Dense unfolding oracle: min-norm least squares, unfolding, verdicts."""

import numpy as np
import pytest

from tensyl import tensor as tc
from tensyl.instances import random_consistent, random_inconsistent
from tensyl.oracle import (
    DEFAULT_RANK_TOL,
    SizeCapError,
    min_norm_lstsq,
    oracle_solve,
    unfold_system,
)
from tensyl.solver import Status, apply_operator, solve_min_norm
from tensyl.tensor import DimensionError

from conftest import random_tensor, singular_consistent


class TestMinNormLstsq:
    def test_full_rank_square(self, rng):
        A = rng.uniform(-1, 1, (6, 6)) + 3 * np.eye(6)
        b = rng.uniform(-1, 1, 6)
        x, residual, rank = min_norm_lstsq(A, b)
        assert rank == 6
        assert residual < 1e-10
        assert np.allclose(x, np.linalg.solve(A, b), atol=1e-10)

    def test_overdetermined_matches_numpy(self, rng):
        A = rng.uniform(-1, 1, (8, 4))
        b = rng.uniform(-1, 1, 8)
        x, residual, rank = min_norm_lstsq(A, b)
        want, res2, rank_np, _ = np.linalg.lstsq(A, b, rcond=None)
        assert rank == rank_np
        assert np.allclose(x, want, atol=1e-10)
        assert residual == pytest.approx(np.sqrt(res2[0]), rel=1e-8)

    def test_rank_deficient_matches_pinv(self, rng):
        A = rng.uniform(-1, 1, (6, 4)) @ rng.uniform(-1, 1, (4, 8))
        b = rng.uniform(-1, 1, 6)
        x, _, rank = min_norm_lstsq(A, b)
        assert rank == 4
        assert np.allclose(x, np.linalg.pinv(A) @ b, atol=1e-9)

    def test_zero_matrix(self):
        x, residual, rank = min_norm_lstsq(np.zeros((3, 3)), np.ones(3))
        assert rank == 0
        assert np.all(x == 0.0)
        assert residual == pytest.approx(np.sqrt(3.0))

    def test_input_validation(self):
        with pytest.raises(DimensionError):
            min_norm_lstsq(np.zeros((0, 0)), np.zeros(0))
        with pytest.raises(DimensionError):
            min_norm_lstsq(np.eye(3), np.zeros(2))
        with pytest.raises(ArithmeticError):
            min_norm_lstsq(np.full((2, 2), np.nan), np.zeros(2))

    @pytest.mark.parametrize("scale", [1.0, 1.0e6, 1.0e-6])
    def test_rank_rule_counts_singular_values_above_tolerance(self, rng, scale):
        # Prescribed singular values; the cut is DEFAULT_RANK_TOL times the
        # largest, so 1.01 and 0.99 times the cut fall on either side of it.
        cut = DEFAULT_RANK_TOL
        s = scale * np.array([1.0, 0.5, 1e-3, 1e-9, 1.01 * cut, 0.99 * cut, 1e-11, 0.0])
        u, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        v, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        K = u @ np.diag(s) @ v.T
        b = rng.standard_normal(8)
        x, residual, rank = min_norm_lstsq(K, b)
        assert rank == 5
        # The dropped directions carry only rounding, rotated by about
        # eps / (0.02 * cut) = 1e-4 between the two values at the cut;
        # keeping the 0.99 one would put a component of the size of ||x|| there.
        assert np.linalg.norm(v[:, rank:].T @ x) <= 1e-2 * np.linalg.norm(x)
        assert residual == pytest.approx(np.linalg.norm(K @ x - b), rel=1e-12)


class TestUnfoldSystem:
    def test_kronecker_structure(self, rng):
        problem, _ = random_consistent(rng, (2, 2), (3,))
        a_mat = tc.psi(problem.A)
        c_mat = tc.psi(problem.C)
        want = np.kron(np.eye(3), a_mat) + np.kron(c_mat.T, np.eye(4))
        assert np.array_equal(unfold_system(problem), want)

    def test_operator_equivalence(self, rng):
        # K vec(psi(X)) must equal vec(psi(A *_M X + X *_N C))
        problem, _ = random_consistent(rng, (2, 2), (2, 2))
        x = random_tensor(rng, (2, 2), (2, 2))
        lifted = unfold_system(problem) @ x.data
        direct = apply_operator(problem.A, problem.C, x).data
        assert np.allclose(lifted, direct, atol=1e-12)

    def test_size_cap(self, rng):
        problem, _ = random_consistent(rng, (65,), (64,))  # m * n = 4160
        with pytest.raises(SizeCapError):
            unfold_system(problem)


class TestOracleSolve:
    def test_consistent_verdict_and_solution(self, rng):
        problem, x_true = random_consistent(rng, (2, 2), (3,), shift=3.0)
        result = oracle_solve(problem)
        assert result.consistent
        assert result.numerical_rank == 12
        assert tc.fro_norm(tc.subtract(result.min_norm_solution, x_true)) < 1e-8

    def test_inconsistent_verdict(self):
        rng = np.random.default_rng(5)
        problem, _ = random_inconsistent(rng, (2,), (3,))
        result = oracle_solve(problem)
        assert not result.consistent
        assert result.residual_norm > 1e-3

    def test_min_norm_on_singular_operator(self):
        problem, witness = singular_consistent(np.random.default_rng(11), (2, 2), (3,))
        result = oracle_solve(problem)
        assert result.consistent
        # oracle answer should be no longer than the witness
        assert tc.fro_norm(result.min_norm_solution) <= tc.fro_norm(witness) + 1e-10

    def test_agrees_with_solver_at_1296(self):
        # m*n = 1296: a Kronecker matrix of 1296 x 1296 entries.
        problem, _ = random_consistent(np.random.default_rng(0), (6, 6), (6, 6), shift=4.0)
        outcome = solve_min_norm(problem)
        result = oracle_solve(problem)
        assert outcome.status == Status.CONVERGED
        assert result.consistent and result.numerical_rank == 1296
        gap = tc.fro_norm(tc.subtract(outcome.solution, result.min_norm_solution))
        assert gap <= 1e-10 * tc.fro_norm(result.min_norm_solution)
