"""Dense unfolding oracle: min-norm least squares, unfolding, verdicts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensyl import oracle, tensor as tc
from tensyl.instances import random_consistent, random_inconsistent
from tensyl.oracle import (
    DEFAULT_RANK_TOL,
    FACTOR_PROOF_TOL,
    SYMMETRY_TOL,
    SizeCapError,
    _spectrum,
    min_norm_lstsq,
    oracle_solve,
    unfold_system,
)
from tensyl.reference_problems import load_nearness_problem, load_reference_problem
from tensyl.solver import Status, SylvesterProblem, apply_operator, solve_min_norm

from conftest import SMALL_SHAPES, random_tensor, scaled_problem, singular_consistent


def _lifted(M, rhs, c=0.0):
    """The problem psi(A) = M - c I, psi(C) = [[c]] (n = 1), D = rhs, whose lift
    is M up to the rounding of (m_ii - c) + c, and exactly M when c = 0.  c
    moves the factors but not their eigenvalue sums: c = 1 makes a zero M's
    factors -I and [[1]], which the spectral route passes on."""
    m = len(M)
    return SylvesterProblem(tc.psi_inverse(M - c * np.eye(m), (m,), (m,)), tc.psi_inverse(np.array([[c]]), (1,), (1,)),
                            tc.DenseTensor((m,), (1,), rhs))


class TestMinNormLstsq:
    def test_full_rank_square(self, rng):
        A = rng.uniform(-1, 1, (6, 6)) + 3 * np.eye(6)
        b = rng.uniform(-1, 1, 6)
        x, residual, rank = min_norm_lstsq(_lifted(A, b))
        assert rank == 6
        assert residual < 1e-10
        assert np.allclose(x, np.linalg.solve(A, b), atol=1e-10)

    def test_rank_deficient_matches_pinv(self, rng):
        A = rng.uniform(-1, 1, (6, 4)) @ rng.uniform(-1, 1, (4, 6))
        b = rng.uniform(-1, 1, 6)
        x, _, rank = min_norm_lstsq(_lifted(A, b))
        assert rank == 4
        assert np.allclose(x, np.linalg.pinv(A) @ b, atol=1e-9)

    def test_zero_matrix(self):
        x, residual, rank = min_norm_lstsq(_lifted(np.zeros((3, 3)), np.ones(3)))
        assert rank == 0
        assert np.all(x == 0.0)
        assert residual == pytest.approx(np.sqrt(3.0))

    @pytest.mark.parametrize("scale", [1.0, 1.0e6, 1.0e-6])
    def test_rank_rule_counts_singular_values_above_tolerance(self, rng, scale):
        # Prescribed singular values; the cut is DEFAULT_RANK_TOL times the
        # largest, so 1.01 and 0.99 times the cut fall on either side of it.
        # The lift moves them by about u * scale, far below the 0.02 * cut gap.
        cut = DEFAULT_RANK_TOL
        s = scale * np.array([1.0, 0.5, 1e-3, 1e-9, 1.01 * cut, 0.99 * cut, 1e-11, 0.0])
        u, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        v, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        b = rng.standard_normal(8)
        problem = _lifted(u @ np.diag(s) @ v.T, b, c=scale)
        x, residual, rank = min_norm_lstsq(problem)
        assert rank == 5
        # The dropped directions carry only rounding, rotated by about
        # eps / (0.02 * cut) = 1e-4 between the two values at the cut;
        # keeping the 0.99 one would put a component of the size of ||x|| there.
        assert np.linalg.norm(v[:, rank:].T @ x) <= 1e-2 * np.linalg.norm(x)
        assert residual == pytest.approx(np.linalg.norm(unfold_system(problem) @ x - b), rel=1e-12)


def _prescribed(rng, sigma):
    """Q diag(sigma) Z^T for random orthogonal Q and Z."""
    q, _ = np.linalg.qr(rng.standard_normal((sigma.size, sigma.size)))
    z, _ = np.linalg.qr(rng.standard_normal((sigma.size, sigma.size)))
    return q @ np.diag(sigma) @ z.T


def _fallbacks(rng):
    """Matrices that must go to gelsd: singular or ill-conditioned, with no
    factor proof.  The zero ones lift from the symmetric factors -I and [[1]],
    whose eigenvalue sums cancel to the cut 0 itself, so the spectral route
    passes them on."""
    m = rng.uniform(-1.0, 1.0, (8, 8))
    v = rng.uniform(-1.0, 1.0, 8)
    v /= np.linalg.norm(v)
    return {
        "kappa 1e6": _prescribed(rng, np.geomspace(1.0, 1.0e-6, 8)),
        "planted singular": m - np.outer(v, v @ m),
        "zero": np.zeros((5, 5)),
        "1x1 zero": np.zeros((1, 1)),
    }


class TestRoutes:
    @pytest.mark.parametrize("n", [1, 6, 40])
    def test_well_conditioned_takes_the_lu_route(self, rng, n):
        K = rng.uniform(-1.0, 1.0, (n, n)) + 3.0 * np.sqrt(n) * np.eye(n)
        b = rng.uniform(-1.0, 1.0, n)
        assert _route(_lifted(K, b)) == ("spectral" if n == 1 else "factors")  # 1 x 1 factors are symmetric
        x, residual, rank = min_norm_lstsq(_lifted(K, b))
        assert rank == n
        assert np.array_equal(x, np.linalg.solve(K, b))
        want = np.linalg.lstsq(K, b, rcond=DEFAULT_RANK_TOL)[0]
        assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)
        assert residual == pytest.approx(np.linalg.norm(K @ x - b), rel=1e-12)

    @pytest.mark.parametrize("name", ["kappa 1e6", "planted singular", "zero", "1x1 zero"])
    def test_fallback_equals_lstsq_bytes(self, rng, name):
        M = _fallbacks(rng)[name]
        b = rng.uniform(-1.0, 1.0, len(M))
        problem = _lifted(M, b, c=1.0)
        K = unfold_system(problem)
        assert _route(problem) == "gelsd"
        x, _, rank = min_norm_lstsq(problem)
        want, _, want_rank, _ = np.linalg.lstsq(K, b, rcond=DEFAULT_RANK_TOL)
        assert (x.tobytes(), rank) == (want.tobytes(), want_rank)

    @pytest.mark.parametrize("certified", [True, False], ids=["lu", "gelsd"])
    def test_overflowed_solution_is_named(self, certified):
        # Finite K = [[t, t], [0, t or 0]], t = 2^-1000, and rhs whose solution, about 1e300 * 2^1000,
        # overflows on either route; the off-diagonal t keeps psi(A) off the spectral route.
        t = 2.0**-1000
        problem = _lifted(np.array([[t, t], [0.0, t if certified else 0.0]]), [1.0e300, 1.0], c=t)
        assert _route(problem) == ("factors" if certified else "gelsd")
        with pytest.raises(ArithmeticError, match="^least-squares solution overflowed the double range$"):
            min_norm_lstsq(problem)


def _route(problem):
    """The route ``oracle_solve`` takes, read from ``oracle._spectrum``:
    "spectral" when it returns eigenbases (both factors symmetric and no
    eigenvalue sum near the cut); else "factors" when the factors prove K
    nonsingular; else "gelsd"."""
    a, c = tc.psi(problem.A), tc.psi(problem.C)
    if _spectrum(a, c)[2] is not None:
        return "spectral"
    return "factors" if _factor_proof(a, c) else "gelsd"


def _lstsq_answer(problem):
    """(consistent, rank, x) from numpy's gelsd on K, by the oracle's own verdict rule."""
    D = problem.D
    K = unfold_system(problem)
    x, _, rank, _ = np.linalg.lstsq(K, D.data, rcond=DEFAULT_RANK_TOL)
    tol = DEFAULT_RANK_TOL * tc._norm(D.data) * D.m * D.n
    return tc._norm(K @ x - D.data) <= tol, rank, x


def _laplacian(k, skew=0.0):
    """Neumann path Laplacian: tridiagonal (-1, 2, -1) with both end entries 1, null space the constants;
    plus ``skew`` times the periodic convection S - S^T (S the cyclic shift, k >= 3), which keeps the
    constants as its null space on either side and its symmetric part."""
    lap = 2.0 * np.eye(k) - np.eye(k, k, 1) - np.eye(k, k, -1)
    lap[0, 0] = lap[-1, -1] = 1.0
    return lap + skew * (np.roll(np.eye(k), 1, axis=1) - np.roll(np.eye(k), -1, axis=1))


def _laplacian_problem(rng, m, n, consistent, skew=0.0):
    """A = L_m, convected by ``skew``, and C = L_n; D = L(X) for a random X, plus a constant block
    when inconsistent, which the left null space (the constants) sees."""
    a, c = tc.psi_inverse(_laplacian(m, skew), (m,), (m,)), tc.psi_inverse(_laplacian(n), (n,), (n,))
    d = apply_operator(a, c, random_tensor(rng, (m,), (n,)))
    if not consistent:
        d = tc.add(d, tc.psi_inverse(np.ones((m, n)), (m,), (n,)))
    return SylvesterProblem(a, c, d)


def _skew_block_problem():
    """psi(A) = [[0, 1.5], [-1.5, 0]] (+) L_2 and psi(C) = L_3 (Neumann
    Laplacians): each factor has one null vector, and S_a is zero on the
    skew block, so three eigenvalue sums of K's symmetric part vanish."""
    a = np.zeros((4, 4))
    a[0, 1], a[1, 0] = 1.5, -1.5
    a[2:, 2:] = _laplacian(2)
    return _lift(a, _laplacian(3), np.arange(1.0, 13.0).reshape(4, 3))


def _within_gelsd_error(problem, got, rank, x, floor):
    """Whether ``got`` lies within gelsd's own error bound of its solution x,
    N u kappa (2 + kappa ||r|| / (sigma_1 ||x||)) (Wedin, BIT 13, 1973), kappa =
    sigma_1 / sigma_rank, or within ``floor``, relative to ||x||."""
    K = unfold_system(problem)
    s = np.linalg.svd(K, compute_uv=False)
    kappa, u = s[0] / s[rank - 1], np.finfo(float).eps / 2
    residual = tc._norm(K @ x - problem.D.data)
    bound = len(K) * u * kappa * (2 + kappa * residual / (s[0] * tc._norm(x)))
    return tc._norm(got - x) <= max(bound, floor) * tc._norm(x)


def _factor_singular_problems():
    problems = []
    for seed in range(10):
        for rows, cols in SMALL_SHAPES:
            problems.append(random_inconsistent(np.random.default_rng(seed), rows, cols)[0])
            problems.append(singular_consistent(np.random.default_rng(seed), rows, cols)[0])
    return problems


class TestGelsdRoute:
    """Singular operators whose factors share null spaces, the planted
    generators and convected Neumann Laplacians among them, and other
    singular K off the spectral route: gelsd decides them, with its bytes."""

    def test_factor_singular_problems_take_gelsd_bytes(self):
        # No factor proof can hold on a singular K, and the planted factors are not symmetric.
        for problem in _factor_singular_problems():
            assert _route(problem) == "gelsd"
            result = oracle_solve(problem)
            consistent, rank, x = _lstsq_answer(problem)
            assert (result.consistent, result.numerical_rank) == (consistent, rank)
            assert result.min_norm_solution.data.tobytes() == x.tobytes()

    @pytest.mark.parametrize("consistent", [True, False], ids=["consistent", "inconsistent"])
    @pytest.mark.parametrize("m, n", [(12, 9), (16, 16)])
    def test_neumann_laplacians(self, rng, m, n, consistent):
        # L_m convected, so that the factors are not both symmetric: gelsd, rank mn - 1.
        problem = _laplacian_problem(rng, m, n, consistent, skew=0.5)
        assert _route(problem) == "gelsd"
        result = oracle_solve(problem)
        want_consistent, rank, x = _lstsq_answer(problem)
        assert (result.consistent, result.numerical_rank) == (consistent, m * n - 1)
        assert (want_consistent, rank) == (consistent, m * n - 1)
        assert result.min_norm_solution.data.tobytes() == x.tobytes()

    def test_64x64_neumann_laplacians_stay_on_gelsd(self, rng):
        # L_64 convected, off the spectral route and singular, so no factor
        # proof: the route is checked; gelsd itself takes about 18 s at this size.
        assert _route(_laplacian_problem(rng, 64, 64, False, skew=0.5)) == "gelsd"

    def test_indefinite_operators_keep_their_routes(self):
        # The reference problem; random_inconsistent factors, whose eigenvalue
        # sums have both signs; and a skew block, where S_a = 0 so that three
        # sums vanish.  None is proven by its factors, and each takes gelsd.
        problems = {"reference": load_reference_problem().problem, "skew": _skew_block_problem()}
        for seed in range(10):
            problems[f"inconsistent-{seed}"] = random_inconsistent(np.random.default_rng(seed), (4, 3), (3, 3))[0]
        for name, problem in problems.items():
            a, c = tc.psi(problem.A), tc.psi(problem.C)
            sums = np.add.outer(np.linalg.eigvalsh(a + a.T), np.linalg.eigvalsh(c + c.T)) / 2
            if name == "skew":
                assert np.count_nonzero(np.abs(sums) < 1e-12) == 3
            else:
                assert 0 < np.count_nonzero(sums < 0) < sums.size
            assert _route(problem) == "gelsd", name

    def test_singular_4x4_factors_take_gelsd_bytes(self):
        # Both factors singular, sigma_{mn-1} / ||K||_F = 7.5e-5.
        problem, _ = random_inconsistent(np.random.default_rng(0), (4, 4), (4, 4))
        assert _route(problem) == "gelsd"
        result = oracle_solve(problem)
        _, rank, x = _lstsq_answer(problem)
        assert (result.min_norm_solution.data.tobytes(), result.numerical_rank) == (x.tobytes(), rank)

    @pytest.mark.parametrize(
        "a_diag, c_diag",
        [
            # lambda(A) + mu(C) = 1 + (-1) = 0 makes K singular, yet neither factor has a null space.
            ([1.0, 2.0], [-1.0, 3.0]),
            # Both factors have a null space by the 1e-10 rule, and the sum 1.8e-10 is below K's cut 2e-10.
            ([1.0, 9.0e-11], [1.0, 9.0e-11]),
        ],
        ids=["regular-factors", "singular-factors"],
    )
    def test_singular_k_takes_gelsd_bytes(self, a_diag, c_diag):
        # Upper-triangular factors with these diagonals, off the spectral route.
        a = tc.psi_inverse(np.diag(a_diag) + np.eye(2, 2, 1) * 1.0e-11, (2,), (2,))
        c = tc.psi_inverse(np.diag(c_diag) + np.eye(2, 2, 1) * 1.0e-11, (2,), (2,))
        problem = SylvesterProblem(a, c, tc.DenseTensor((2,), (2,), [1.0, 2.0, 3.0, 4.0]))
        assert _route(problem) == "gelsd"
        result = oracle_solve(problem)
        consistent, rank, x = _lstsq_answer(problem)
        assert (result.min_norm_solution.data.tobytes(), result.numerical_rank) == (x.tobytes(), rank)
        assert (result.consistent, rank) == (consistent, 3)

    @pytest.mark.parametrize("k", [-600, -300, 300, 600])
    def test_route_and_rank_do_not_depend_on_scale(self, rng, k):
        problems = _factor_singular_problems()[::7] + [_laplacian_problem(rng, 12, 9, False)]
        for problem in problems:
            scaled = scaled_problem(problem, k)
            assert _route(scaled) == _route(problem)
            want, got = oracle_solve(problem), oracle_solve(scaled)
            assert (got.consistent, got.numerical_rank) == (want.consistent, want.numerical_rank)

    def test_zero_operator(self):
        # Zero factors are symmetric; every sum is 0, the cut itself, with an allowance of 0.
        zero = tc.zeros((2, 2), (2, 2))
        problem = SylvesterProblem(zero, zero, tc.DenseTensor((2, 2), (2, 2), np.arange(1.0, 17.0)))
        assert _route(problem) == "spectral"
        result = oracle_solve(problem)
        assert result.numerical_rank == 0 and not result.consistent
        assert np.all(result.min_norm_solution.data == 0.0)
        assert result.residual_norm == np.linalg.norm(np.arange(1.0, 17.0))

    def test_overflowed_solution_is_named(self):
        # K = [[t, t], [0, 0]], t = 2^-1000, from psi(C) = 0: the min-norm solution, about
        # 1e300 * 2^999, overflows on gelsd.
        a = tc.psi_inverse(np.array([[2.0**-1000, 2.0**-1000], [0.0, 0.0]]), (2,), (2,))
        problem = SylvesterProblem(a, tc.zeros((1,), (1,)), tc.DenseTensor((2,), (1,), [1.0e300, 1.0]))
        assert _route(problem) == "gelsd"
        with pytest.raises(ArithmeticError, match="^least-squares solution overflowed the double range$"):
            oracle_solve(problem)


def _at_margin(rng, m, n, ratio):
    """Factors (a, c) with lambda_min(S_a) + lambda_min(S_c) equal to ``ratio``
    times the factor proof's threshold t (sqrt(n) ||a||_F + sqrt(m) ||c||_F),
    S the symmetric parts: random a, c, then a + s I with s from a fixed-point
    iteration (the threshold moves by about 2e-4 sqrt(mn) s)."""
    a0, c = rng.uniform(-1.0, 1.0, (m, m)), rng.uniform(-1.0, 1.0, (n, n))
    low_c = np.linalg.eigvalsh(c + c.T)[0] / 2
    s = 0.0
    for _ in range(8):
        a = a0 + s * np.eye(m)
        bound = FACTOR_PROOF_TOL * (np.sqrt(n) * np.linalg.norm(a) + np.sqrt(m) * np.linalg.norm(c))
        s += ratio * bound - np.linalg.eigvalsh(a + a.T)[0] / 2 - low_c
    return a0 + s * np.eye(m), c


def _lift(a, c, d=None):
    """The problem with unfoldings (a, c, d), d = 0 by default."""
    m, n = len(a), len(c)
    d = np.zeros((m, n)) if d is None else d
    return SylvesterProblem(tc.psi_inverse(a, (m,), (m,)), tc.psi_inverse(c, (n,), (n,)), tc.psi_inverse(d, (m,), (n,)))


def _factor_bound(a, c):
    """The factor bound of ``oracle._spectrum``, a lower bound on sigma_min(K) / U."""
    return _spectrum(a, c)[3]


def _factor_proof(a, c):
    """Whether the factors prove nonsingular the lift of (a, c)."""
    return bool(_factor_bound(a, c) > FACTOR_PROOF_TOL)


def _orthogonal(rng, k):
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    return q * np.sign(np.diag(r))


class TestFactorProof:
    @settings(derandomize=True, database=None, max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 5),
        n=st.integers(1, 5),
        ratio=st.one_of(st.floats(1.01, 10.0), st.floats(0.1, 0.99)),
        sign=st.sampled_from([1.0, -1.0]),
        k=st.sampled_from([0, -600, 600]),
    )
    def test_proof_bounds_the_smallest_singular_value(self, seed, m, n, ratio, sign, k):
        # Margins 1.01-10x the threshold and below it, negative-definite operators
        # (-a, -c), m or n = 1 and 2^+-600 scalings.  A proof bounds sigma_min(K)
        # by the bound times U, and gelsd counts rank mn, with the LU solution.
        rng = np.random.default_rng(seed)
        a, c = (np.ldexp(sign * f, k) for f in _at_margin(rng, m, n, ratio))
        problem = _lift(a, c, np.ldexp(rng.uniform(-1.0, 1.0, (m, n)), k))
        bound = _factor_bound(a, c)
        assert (bound > FACTOR_PROOF_TOL) == (ratio > 1.0)  # the allowance is far below 1% of the threshold
        if ratio < 1.0:
            return
        K, d = unfold_system(problem), problem.D.data
        assert np.linalg.svd(K, compute_uv=False)[-1] >= bound * (np.sqrt(n) * tc._norm(a) + np.sqrt(m) * tc._norm(c))
        lu = np.linalg.solve(K, d)
        x, _, rank, _ = np.linalg.lstsq(K, d, rcond=DEFAULT_RANK_TOL)
        assert rank == m * n
        assert tc._norm(x - lu) <= 1e-12 * tc._norm(lu)

    @pytest.mark.parametrize("ulps, proven", [(2, False), (12, True)])
    def test_a_margin_inside_the_allowance_is_not_proven(self, ulps, proven):
        # Factors [[1]] and [[y]]: the sum 1 + y is exact, and U = 1 - y.  With y
        # a few ulps above (t - 1) / (1 + t), 1 + y exceeds t U by about 2 or 12
        # ulps of y, inside or outside the rounding allowance 3 u U, 6 ulps.
        t = FACTOR_PROOF_TOL
        y = (t - 1.0) / (1.0 + t) + ulps * np.spacing(0.5)
        assert 1.0 + y > t * (1.0 - y)
        assert _factor_proof(np.array([[1.0]]), np.array([[y]])) == proven

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("k", [0, -600, 600])
    @pytest.mark.parametrize("m, n", [(3, 2), (12, 9), (16, 16)])
    def test_neumann_laplacians_are_proven(self, rng, m, n, sign, k):
        # Symmetric semidefinite singular factors, their negatives and 2^+-600
        # scalings take the spectral route, with gelsd's rank and verdict, and
        # its solution within gelsd's own error (1e-11 at 16 x 16, where the
        # spectral solution is within 1.3e-13 of a 40-digit reference).
        a, c = np.ldexp(sign * _laplacian(m), k), np.ldexp(sign * _laplacian(n), k)
        problem = _lift(a, c, np.ldexp(rng.uniform(-1.0, 1.0, (m, n)), k))
        assert _route(problem) == "spectral"
        result = oracle_solve(problem)
        consistent, rank, x = _lstsq_answer(problem)
        assert (result.consistent, result.numerical_rank) == (consistent, m * n - 1)
        assert _within_gelsd_error(problem, result.min_norm_solution.data, rank, x, 1e-12)

    @pytest.mark.parametrize("k", [-600, -300, 300, 600])
    def test_decision_does_not_depend_on_scale(self, k):
        factors = [_at_margin(np.random.default_rng(seed), 3, 4, ratio)
                   for seed in range(4) for ratio in (0.99, 1.01, 2.0)]
        for seed, shift in [(0, 0.0), (0, 4.0), (3, 0.0), (3, 4.0)]:
            problem, _ = random_consistent(np.random.default_rng(seed), (2, 2), (3,), shift=shift)
            factors += [(tc.psi(problem.A), tc.psi(problem.C)), (-tc.psi(problem.A), -tc.psi(problem.C))]
        decisions = [_factor_proof(a, c) for a, c in factors]
        assert [_factor_proof(np.ldexp(a, k), np.ldexp(c, k)) for a, c in factors] == decisions
        # Ratios 1.01 and 2, and shift 4 with either sign.
        assert decisions.count(True) == 12

    @pytest.mark.parametrize("k", [0, -1000])
    def test_a_zero_factor_does_not_set_the_scale(self, k):
        # K = psi(C)^T (x) I with sigma_min / sigma_max = 1e-6: neither proof
        # holds at any scale.  psi(C) = Q diag(1, 1e-6) Q^T R, R a rotation by
        # 1e-7, is not symmetric, but its symmetric part is definite.  Scaled by
        # the zero factor's exponent, 0, the squares of 2^-1000 psi(C) would
        # underflow in U, and a threshold of zero would prove K.
        q = np.array([[0.6, 0.8], [-0.8, 0.6]])
        phi = 1.0e-7
        r = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
        c = np.ldexp(q @ np.diag([1.0, 1.0e-6]) @ q.T @ r, k)
        problem = _lift(np.zeros((2, 2)), c, np.ldexp(np.arange(1.0, 5.0).reshape(2, 2), k))
        assert _route(problem) == "gelsd"
        result = oracle_solve(problem)
        _, rank, x = _lstsq_answer(problem)
        assert (result.min_norm_solution.data.tobytes(), result.numerical_rank) == (x.tobytes(), rank)

    def test_factors_far_apart_in_scale(self):
        # One 2^-e for both factors: 2^-1000 a next to 2^1000 c neither overflows nor decides otherwise.
        problem, _ = random_consistent(np.random.default_rng(0), (3,), (2, 2), shift=4.0)
        a, c = tc.psi(problem.A), tc.psi(problem.C)
        assert _factor_proof(np.ldexp(a, -1000), np.ldexp(c, 1000))
        assert _factor_proof(np.ldexp(a, 1000), np.ldexp(c, -1000))


class TestUnfoldSystem:
    @pytest.mark.parametrize(
        "rows, cols",
        [((1,), (5,)), ((5,), (1,)), ((2, 2), (3,)), ((3,), (2, 2, 2))],
        ids=["1x5", "5x1", "2.2x3", "3x2.2.2"],
    )
    def test_kronecker_structure(self, rng, rows, cols):
        # Factors with negative entries and zeros; np.array_equal takes -0.0 == 0.0,
        # the one way np.kron's 0 * x can differ from the lift's written zeros.
        problem, _ = random_consistent(rng, rows, cols)
        a_mat = np.where(rng.random((problem.A.m,) * 2) < 0.3, 0.0, tc.psi(problem.A))
        c_mat = np.where(rng.random((problem.C.m,) * 2) < 0.3, 0.0, tc.psi(problem.C))
        problem = SylvesterProblem(tc.psi_inverse(a_mat, rows, rows), tc.psi_inverse(c_mat, cols, cols), problem.D)
        m, n = len(a_mat), len(c_mat)
        want = np.kron(np.eye(n), a_mat) + np.kron(c_mat.T, np.eye(m))
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


def _singular_with_nonsingular_factors():
    """Upper-triangular psi(A) and psi(C) with diagonals (1, 2, 3) and (-1, 4, 5),
    so K is singular by 1 + (-1) = 0 while neither factor is, and the factors
    are not symmetric; D = L(X) for X = 1..9 as a 3 x 3 matrix."""
    a = tc.psi_inverse(np.diag([1.0, 2.0, 3.0]) + np.triu(np.ones((3, 3)), 1), (3,), (3,))
    c = tc.psi_inverse(np.diag([-1.0, 4.0, 5.0]) + np.triu(np.ones((3, 3)), 1), (3,), (3,))
    x = tc.psi_inverse(np.arange(1.0, 10.0).reshape(3, 3), (3,), (3,))
    return SylvesterProblem(a, c, apply_operator(a, c, x))


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

    @pytest.mark.parametrize(
        "route, make",
        [
            ("gelsd", lambda rng: _singular_with_nonsingular_factors()),
            ("factors", lambda rng: random_consistent(rng, (2, 2), (3,), shift=4.0)[0]),
            ("spectral", lambda rng: _laplacian_problem(rng, 12, 9, False)),
        ],
        ids=["nonsingular-factors", "factor-proof", "spectral"],
    )
    def test_one_min_norm_lstsq_call_on_every_route(self, monkeypatch, route, make):
        problem = make(np.random.default_rng(0))
        assert _route(problem) == route
        calls = []

        def counting(given):
            calls.append(given)
            return min_norm_lstsq(given)

        monkeypatch.setattr(oracle, "min_norm_lstsq", counting)
        oracle_solve(problem)
        assert calls == [problem]

    @pytest.mark.parametrize(
        "route, decomposition, make",
        [
            ("spectral", "eigh", lambda rng: _laplacian_problem(rng, 12, 9, False)),
            ("gelsd", "eigh", lambda rng: _near_cut_problem(-1.0e-7)),
            ("gelsd", "eigh", lambda rng: _near_cut_problem(1.0e-7)),
            ("factors", "eigvalsh", lambda rng: random_consistent(rng, (2, 2), (3,), shift=4.0)[0]),
            ("gelsd", "eigvalsh", lambda rng: load_reference_problem().problem),
        ],
        ids=["spectral", "near-cut-below", "near-cut-above", "factor-proof", "gelsd"],
    )
    def test_one_eigendecomposition_per_factor_on_every_route(self, monkeypatch, route, decomposition, make):
        # One scaled spectrum serves both routes: eigh on each factor of a symmetric pair, also
        # when a sum near the cut sends it on to the dense routes, and eigvalsh on each of any other.
        problem = make(np.random.default_rng(0))
        assert _route(problem) == route
        calls = []
        for name in ("eigh", "eigvalsh"):
            eig = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda f, name=name, eig=eig: calls.append(name) or eig(f))
        min_norm_lstsq(problem)
        assert calls == [decomposition] * 2

    def test_reference_and_planted_problems_take_gelsd_bytes(self):
        # Indefinite symmetric parts and nonsymmetric factors: no factor proof
        # and no spectral route, so every output byte is gelsd's.
        problems = [load_reference_problem().problem, load_nearness_problem().problem]
        problems += [random_inconsistent(np.random.default_rng(seed), (3, 2), (2, 2))[0] for seed in range(6)]
        for problem in problems:
            result = oracle_solve(problem)
            consistent, rank, x = _lstsq_answer(problem)
            assert (result.consistent, result.numerical_rank) == (consistent, rank)
            assert result.min_norm_solution.data.tobytes() == x.tobytes()

    @pytest.mark.parametrize("k", [-600, -300, 300, 515, 560, 600])
    def test_verdict_and_rank_hold_across_the_double_range(self, k):
        # The norms of D and of the residual would overflow from about 2^515 as plain sums of squares.
        problems = [random_consistent(np.random.default_rng(3), (2, 2), (3,))[0]]
        problems += [random_inconsistent(np.random.default_rng(s), (2, 2), (3,))[0] for s in range(10)]
        for problem in problems:
            want, got = oracle_solve(problem), oracle_solve(scaled_problem(problem, k))
            assert (got.consistent, got.numerical_rank) == (want.consistent, want.numerical_rank)


def _semidefinite(rng, k, nullity):
    """Q diag(d) Q^T as perfbench builds its singular factors: Q of k -
    ``nullity`` orthonormal columns and d uniform in [1, 2]."""
    q = _orthogonal(rng, k)[:, : k - nullity]
    return (q * rng.uniform(1.0, 2.0, k - nullity)) @ q.T


def _indefinite(rng, k, low, high):
    """Q diag(d) Q^T with |d| uniform in [low, high] and random signs."""
    q = _orthogonal(rng, k)
    return (q * (rng.uniform(low, high, k) * rng.choice([-1.0, 1.0], k))) @ q.T


def _skewed(f, ratio):
    """f made exactly symmetric, then its (0, 1) entry moved by whole ulps, so
    that ||f - f^T||_F is about ``ratio`` times the spectral route's bound
    ``SYMMETRY_TOL`` u ||f||_F."""
    f = (f + f.T) / 2
    step = np.spacing(f[0, 1])
    f[0, 1] += round(ratio * SYMMETRY_TOL * np.finfo(float).eps / 2 * np.linalg.norm(f) / (np.sqrt(2) * step)) * step
    return f


def _symmetry_ratio(f):
    return np.linalg.norm(f - f.T) / (SYMMETRY_TOL * np.finfo(float).eps / 2 * np.linalg.norm(f))


def _near_cut_problem(offset, skew=0.0):
    """psi(A) = diag(1, t) plus ``skew`` at (0, 1) and minus it at (1, 0),
    psi(C) = diag(1, 0) and D = [[1, 2], [3, 4]]: the sums are 2, 1 + t, 1
    and t, exact from eigh, the cut is 1e-10 * 2, and t = (1 + offset) * cut."""
    t = (1.0 + offset) * DEFAULT_RANK_TOL * 2.0
    a = np.array([[1.0, skew], [-skew, t]])
    return _lift(a, np.diag([1.0, 0.0]), np.array([[1.0, 2.0], [3.0, 4.0]]))


class TestSpectralRoute:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["semidefinite", "laplacian", "indefinite"]),
        m=st.integers(1, 6),
        n=st.integers(1, 6),
        nullity=st.integers(0, 2),
        consistent=st.booleans(),
        sign=st.sampled_from([1.0, -1.0]),
        k=st.sampled_from([0, -600, 600]),
    )
    def test_matches_gelsd_on_the_lift(self, seed, kind, m, n, nullity, consistent, sign, k):
        # Semidefinite factors as perfbench builds them, with nullity 0-2 (at
        # most k - 1); Neumann Laplacians; indefinite factors whose eigenvalue
        # sums keep |sum| >= 1; their negatives; and 2^+-600 scalings.  D is
        # L(X) or random, inconsistent when both factors are singular.
        rng = np.random.default_rng(seed)
        if kind == "semidefinite":
            a, c = _semidefinite(rng, m, min(nullity, m - 1)), _semidefinite(rng, n, min(nullity, n - 1))
        elif kind == "laplacian":
            m, n = max(m, 2), max(n, 2)
            a, c = _laplacian(m), _laplacian(n)
        else:
            a, c = _indefinite(rng, m, 3.0, 4.0), _indefinite(rng, n, 1.0, 2.0)
        x = rng.uniform(-1.0, 1.0, (m, n))
        d = a @ x + x @ c if consistent else rng.uniform(-1.0, 1.0, (m, n))
        problem = _lift(np.ldexp(sign * a, k), np.ldexp(sign * c, k), np.ldexp(d, k))
        assert _route(problem) == "spectral"
        result = oracle_solve(problem)
        want_consistent, rank, want = _lstsq_answer(problem)
        assert (result.consistent, result.numerical_rank) == (want_consistent, rank)
        assert tc._norm(result.min_norm_solution.data - want) <= 1e-12 * tc._norm(want)

    @pytest.mark.parametrize("ratio", [0.95, 1.05])
    def test_factors_just_above_the_symmetry_bound_take_the_dense_routes(self, ratio):
        # Semidefinite singular factors with one null vector each, whose skew
        # parts are 0.95 or 1.05 times the bound.  Above it the singular K has
        # no factor proof, and the solution has gelsd's bytes.
        rng = np.random.default_rng(7)
        a, c = _skewed(_semidefinite(rng, 5, 1), ratio), _skewed(_semidefinite(rng, 4, 1), ratio)
        assert all((_symmetry_ratio(f) > 1.0) == (ratio > 1.0) for f in (a, c))
        problem = _lift(a, c, rng.uniform(-1.0, 1.0, (5, 4)))
        result = oracle_solve(problem)
        consistent, rank, x = _lstsq_answer(problem)
        assert (result.consistent, result.numerical_rank) == (consistent, rank) == (False, 19)
        if ratio < 1.0:
            assert _route(problem) == "spectral"
            assert tc._norm(result.min_norm_solution.data - x) <= 1e-12 * tc._norm(x)
            return
        assert _route(problem) == "gelsd"
        assert result.min_norm_solution.data.tobytes() == x.tobytes()

    @pytest.mark.parametrize(
        "offset, ulps, route, rank",
        [(-1.0e-3, 0, "spectral", 3), (-1.0e-7, 0, "gelsd", 3), (1.0e-7, 0, "gelsd", 4), (1.0e-3, 0, "spectral", 4),
         (-7.0e-6, 0, "spectral", 3), (7.0e-6, 0, "spectral", 4), (-7.0e-6, 4, "gelsd", 3), (7.0e-6, 4, "gelsd", 4)],
    )
    def test_a_sum_within_its_allowance_of_the_cut_takes_the_dense_routes(self, offset, ulps, route, rank):
        # t = (1 + offset) * cut lies 1e-7, 7e-6 or 1e-3 of the cut away from it, inside
        # or outside the allowance, about 5.6e-6 of it.  Skew entries of 4u, 0.7 times
        # the symmetry bound, keep the sums exact and widen the allowance by
        # ||skew(psi(A))||_F, about 3.1e-6 of the cut.  Inside, gelsd decides, with its own bytes.
        problem = _near_cut_problem(offset, ulps * np.finfo(float).eps / 2)
        assert _route(problem) == route
        result = oracle_solve(problem)
        consistent, want_rank, x = _lstsq_answer(problem)
        assert (result.consistent, result.numerical_rank) == (consistent, want_rank) == (rank == 4, rank)
        if route == "gelsd":
            assert result.min_norm_solution.data.tobytes() == x.tobytes()
        else:
            assert tc._norm(result.min_norm_solution.data - x) <= 1e-12 * tc._norm(x)

    def test_nonsymmetric_semidefinite_pair_takes_gelsd(self, rng):
        # Convected Laplacians: nonsymmetric factors whose symmetric parts are
        # semidefinite and whose null vectors, the constants, are shared by
        # both sides.  K is singular, so gelsd decides, with its own bytes.
        a, c = _laplacian(12, skew=0.5), _laplacian(9, skew=0.25)
        problem = _lift(a, c, rng.uniform(-1.0, 1.0, (12, 9)))
        assert _route(problem) == "gelsd"
        result = oracle_solve(problem)
        _, rank, x = _lstsq_answer(problem)
        assert (result.min_norm_solution.data.tobytes(), result.numerical_rank) == (x.tobytes(), rank)
        assert rank == 107

    @pytest.mark.parametrize("consistent", [True, False], ids=["consistent", "inconsistent"])
    def test_symmetric_factors_above_the_size_cap(self, consistent):
        # m n = 8192 unknowns, twice the cap, on semidefinite factors with one
        # null vector each: the null space of the operator is u v^T.
        rng = np.random.default_rng(0)
        a, c = _semidefinite(rng, 128, 1), _semidefinite(rng, 64, 1)
        u, v = np.linalg.eigh(a)[1][:, 0], np.linalg.eigh(c)[1][:, 0]
        x = rng.uniform(-1.0, 1.0, (128, 64))
        d = a @ x + x @ c + (0.0 if consistent else np.outer(u, v))
        result = oracle_solve(_lift(a, c, d))
        assert (result.consistent, result.numerical_rank) == (consistent, 128 * 64 - 1)
        want = x - (u @ x @ v) * np.outer(u, v)  # the min-norm solution
        assert np.linalg.norm(result.min_norm_solution.data - want.ravel(order="F")) <= 1e-12 * np.linalg.norm(want)
        with pytest.raises(SizeCapError):
            oracle_solve(_lift(a + np.triu(np.ones((128, 128)), 1), c, d))

    def test_overflowed_solution_is_named(self):
        # psi(A) = diag(2^-1000, 0), psi(C) = 0: the solution 1e300 * 2^1000 overflows
        # on the spectral route, which lifts nothing.
        a = tc.psi_inverse(np.diag([2.0**-1000, 0.0]), (2,), (2,))
        problem = SylvesterProblem(a, tc.zeros((1,), (1,)), tc.DenseTensor((2,), (1,), [1.0e300, 1.0]))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "unfold_system", None)
            with pytest.raises(ArithmeticError, match="^least-squares solution overflowed the double range$"):
                oracle_solve(problem)
