"""Dense unfolding oracle: min-norm least squares, unfolding, verdicts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensyl import tensor as tc
from tensyl.instances import random_consistent, random_inconsistent
from tensyl.oracle import (
    DEFAULT_RANK_TOL,
    SizeCapError,
    _certified_nonsingular,
    min_norm_lstsq,
    oracle_solve,
    unfold_system,
)
from tensyl.solver import Status, apply_operator, solve_min_norm
from tensyl.tensor import DimensionError

from conftest import random_tensor, scaled_problem, singular_consistent


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


def _prescribed(rng, sigma):
    """Q diag(sigma) Z^T for random orthogonal Q and Z."""
    q, _ = np.linalg.qr(rng.standard_normal((sigma.size, sigma.size)))
    z, _ = np.linalg.qr(rng.standard_normal((sigma.size, sigma.size)))
    return q @ np.diag(sigma) @ z.T


def _fallbacks(rng):
    """Systems that must go to gelsd: no Cholesky certificate, or not square."""
    m = rng.uniform(-1.0, 1.0, (8, 8))
    v = rng.uniform(-1.0, 1.0, 8)
    v /= np.linalg.norm(v)
    return {
        "kappa 1e6": _prescribed(rng, np.geomspace(1.0, 1.0e-6, 8)),
        "planted singular": m - np.outer(v, v @ m),
        "zero": np.zeros((5, 5)),
        "1x1 zero": np.zeros((1, 1)),
        "rectangular": rng.uniform(-1.0, 1.0, (8, 5)),
    }


class TestRoutes:
    @pytest.mark.parametrize("n", [1, 6, 40])
    def test_well_conditioned_takes_the_lu_route(self, rng, n):
        K = rng.uniform(-1.0, 1.0, (n, n)) + 3.0 * np.sqrt(n) * np.eye(n)
        b = rng.uniform(-1.0, 1.0, n)
        assert _certified_nonsingular(K)
        x, residual, rank = min_norm_lstsq(K, b)
        assert rank == n
        assert np.array_equal(x, np.linalg.solve(K, b))
        want = np.linalg.lstsq(K, b, rcond=DEFAULT_RANK_TOL)[0]
        assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)
        assert residual == pytest.approx(np.linalg.norm(K @ x - b), rel=1e-12)

    @pytest.mark.parametrize("name", ["kappa 1e6", "planted singular", "zero", "1x1 zero", "rectangular"])
    def test_fallback_equals_lstsq_bytes(self, rng, name):
        K = _fallbacks(rng)[name]
        b = rng.uniform(-1.0, 1.0, K.shape[0])
        if K.shape[0] == K.shape[1]:
            assert not _certified_nonsingular(K)
        x, _, rank = min_norm_lstsq(K, b)
        want, _, want_rank, _ = np.linalg.lstsq(K, b, rcond=DEFAULT_RANK_TOL)
        assert (x.tobytes(), rank) == (want.tobytes(), want_rank)

    @pytest.mark.parametrize("certified", [True, False], ids=["lu", "gelsd"])
    def test_overflowed_solution_is_named(self, certified):
        # Finite K and rhs whose solution 1e300 * 2^1000 overflows, on either route.
        K = np.diag([2.0**-1000, 2.0**-1000 if certified else 0.0])
        assert _certified_nonsingular(K) == certified
        with pytest.raises(ArithmeticError, match="^least-squares solution overflowed the double range$"):
            min_norm_lstsq(K, [1.0e300, 1.0])

    @pytest.mark.parametrize("k", [-600, -300, 300, 600])
    def test_route_does_not_depend_on_scale(self, rng, k):
        cases = {**_fallbacks(rng), "shifted": rng.uniform(-1.0, 1.0, (8, 8)) + 4.0 * np.eye(8)}
        for K in cases.values():
            if K.shape[0] == K.shape[1]:
                assert _certified_nonsingular(np.ldexp(K, k)) == _certified_nonsingular(K)

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 12),
        log_ratio=st.floats(-14.0, 0.0),
    )
    def test_certificate_bounds_the_condition_number(self, seed, n, log_ratio):
        # sigma_min / sigma_max = 10^log_ratio, the others log-uniform between.
        rng = np.random.default_rng(seed)
        sigma = np.sort(10.0 ** rng.uniform(log_ratio, 0.0, n))[::-1]
        sigma[0], sigma[-1] = 1.0, 10.0**log_ratio
        K = _prescribed(rng, sigma)
        s = np.linalg.svd(K, compute_uv=False)
        if _certified_nonsingular(K):
            assert s[-1] / s[0] > 1e-5
        # The shift is 1e-8 ||K||_F^2 <= 1e-8 n sigma_max^2, far below sigma_min^2 here.
        if s[-1] / s[0] > 1e-3:
            assert _certified_nonsingular(K)


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

    @pytest.mark.parametrize("k", [-600, -300, 300, 515, 560, 600])
    def test_verdict_and_rank_hold_across_the_double_range(self, k):
        # The norms of D and of the residual would overflow from about 2^515 as plain sums of squares.
        problems = [random_consistent(np.random.default_rng(3), (2, 2), (3,))[0]]
        problems += [random_inconsistent(np.random.default_rng(s), (2, 2), (3,))[0] for s in range(10)]
        for problem in problems:
            want, got = oracle_solve(problem), oracle_solve(scaled_problem(problem, k))
            assert (got.consistent, got.numerical_rank) == (want.consistent, want.numerical_rank)
