"""Solver behavior: convergence, statuses, options, and the nearness route."""

import numpy as np
import pytest

from tensyl import tensor as tc
from tensyl.instances import random_consistent, random_inconsistent
from tensyl.solver import (
    DIVERGENCE_FACTOR,
    NumericalBreakdownError,
    SolveOptions,
    SolveOutcome,
    Status,
    SylvesterProblem,
    apply_adjoint,
    apply_operator,
    solve,
    solve_min_norm,
    solve_nearness,
)
from tensyl.tensor import DimensionError

from conftest import loop_sylvester_rhs, random_tensor, scaled_consistent


class TestProblemValidation:
    def test_rejects_nonsquare_a(self, rng):
        a = random_tensor(rng, (2,), (3,))
        c = random_tensor(rng, (2,), (2,))
        d = random_tensor(rng, (2,), (2,))
        with pytest.raises(DimensionError):
            SylvesterProblem(a, c, d)

    def test_rejects_mismatched_d(self, rng):
        a = random_tensor(rng, (2,), (2,))
        c = random_tensor(rng, (3,), (3,))
        d = random_tensor(rng, (2,), (2,))
        with pytest.raises(DimensionError):
            SylvesterProblem(a, c, d)


class TestOperators:
    def test_apply_operator_matches_loop(self, rng):
        a = random_tensor(rng, (2, 2), (2, 2))
        c = random_tensor(rng, (3,), (3,))
        x = random_tensor(rng, (2, 2), (3,))
        got = apply_operator(a, c, x)
        want = loop_sylvester_rhs(a, c, x)
        assert np.allclose(got.data, want.data, atol=1e-13)

    def test_adjoint_identity(self, rng):
        # <L(x), y> = <x, L*(y)> for the Sylvester operator L
        a = random_tensor(rng, (2, 2), (2, 2))
        c = random_tensor(rng, (3,), (3,))
        x = random_tensor(rng, (2, 2), (3,))
        y = random_tensor(rng, (2, 2), (3,))
        lhs = tc.inner(apply_operator(a, c, x), y)
        rhs = tc.inner(x, apply_adjoint(a, c, y))
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestSolveOptions:
    def test_defaults(self):
        opts = SolveOptions()
        assert opts.epsilon == 1.0e-10
        assert opts.epsilon_p == 1.0e-12
        assert opts.k_max == 1000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon": 0.0},
            {"epsilon": -1.0},
            {"epsilon_p": 0.0},
            {"k_max": 0},
            {"k_max": 2.5},
            {"k_max": True},
            {"k_max": "7"},
            {"epsilon": "1e-3"},
            {"epsilon": True},
            {"epsilon": 10**400},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            SolveOptions(**kwargs)

    def test_numpy_scalars_accepted_as_python_numbers(self):
        opts = SolveOptions(epsilon=np.float64(1e-8), k_max=np.int64(5))
        assert opts == SolveOptions(epsilon=1e-8, k_max=5)
        assert type(opts.epsilon) is float and type(opts.k_max) is int


class TestSolve:
    def test_recovers_unique_solution(self, rng):
        problem, x_true = random_consistent(rng, (2, 2), (3,), shift=3.0)
        outcome = solve_min_norm(problem)
        assert outcome.status == Status.CONVERGED
        assert tc.fro_norm(tc.subtract(outcome.solution, x_true)) < 1e-7

    def test_solution_satisfies_equation(self, rng):
        problem, _ = random_consistent(rng, (3,), (2, 2), shift=2.0)
        outcome = solve_min_norm(problem)
        residual = tc.subtract(problem.D, apply_operator(problem.A, problem.C, outcome.solution))
        assert tc.fro_norm(residual) < 1e-10

    def test_zero_rhs_converges_immediately(self, rng):
        a = random_tensor(rng, (2,), (2,))
        c = random_tensor(rng, (3,), (3,))
        problem = SylvesterProblem(a, c, tc.zeros((2,), (3,)))
        outcome = solve_min_norm(problem)
        assert outcome.status == Status.CONVERGED
        assert outcome.iterations == 0
        assert tc.fro_norm(outcome.solution) == 0.0

    def test_residual_history_and_final_residual(self, rng):
        problem, _ = random_consistent(rng, (2,), (2,), shift=2.0)
        outcome = solve_min_norm(problem)
        assert len(outcome.residual_history) == outcome.iterations + 1
        assert outcome.final_residual == outcome.residual_history[-1]
        assert outcome.final_residual < 1e-10

    def test_initial_iterate_split_checked(self, rng):
        problem, _ = random_consistent(rng, (2,), (3,))
        with pytest.raises(DimensionError):
            solve(problem, tc.zeros((3,), (2,)))

    def test_relative_threshold(self, rng):
        problem, _ = random_consistent(rng, (2,), (2,), shift=2.0)
        loose = solve_min_norm(problem, SolveOptions(epsilon=1e-4, relative=True))
        tight = solve_min_norm(problem, SolveOptions(epsilon=1e-10))
        assert loose.status == Status.CONVERGED
        assert loose.iterations <= tight.iterations
        assert loose.final_residual <= 1e-4 * tc.fro_norm(problem.D)

    def test_iteration_limit_status(self, rng):
        problem, _ = random_consistent(rng, (2, 2), (2, 2), shift=2.0)
        outcome = solve_min_norm(problem, SolveOptions(k_max=2))
        assert outcome.status == Status.ITERATION_LIMIT
        assert outcome.iterations == 2

    def test_inconsistent_detection(self):
        rng = np.random.default_rng(42)
        problem = random_inconsistent(rng, (2, 2), (3,))
        outcome = solve_min_norm(problem)
        assert outcome.status == Status.INCONSISTENT

    def test_trace_callback_sees_every_iteration(self, rng):
        problem, _ = random_consistent(rng, (2,), (2, 2), shift=2.0)
        states = []
        outcome = solve_min_norm(problem, trace_cb=states.append)
        assert [s.k for s in states] == list(range(1, outcome.iterations + 1))
        # recorded residual norms match the history
        for s in states:
            assert s.r_norm_sq == pytest.approx(outcome.residual_history[s.k - 1] ** 2)

    def test_overflowing_rhs_raises_breakdown(self, rng):
        # ||D||^2 overflows, so the first step length is inf / inf
        a = random_tensor(rng, (2,), (2,))
        c = random_tensor(rng, (2,), (2,))
        huge = tc.DenseTensor((2,), (2,), [1.0e200, 1.0, 1.0, 1.0])
        problem = SylvesterProblem(a, c, huge)
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(NumericalBreakdownError) as err:
                solve_min_norm(problem)
        assert err.value.iteration >= 1


class TestMinNormAndNearness:
    def test_min_norm_starts_from_zero(self, rng):
        problem, _ = random_consistent(rng, (2,), (3,), shift=2.0)
        states = []
        solve_min_norm(problem, trace_cb=states.append)
        assert tc.fro_norm(states[0].X) == 0.0

    def test_nearness_solution_solves_equation(self, rng):
        problem, _ = random_consistent(rng, (2, 2), (3,), shift=2.0)
        x0 = random_tensor(rng, (2, 2), (3,))
        x_hat, distance, outcome = solve_nearness(problem, x0)
        assert outcome.status == Status.CONVERGED
        residual = tc.subtract(problem.D, apply_operator(problem.A, problem.C, x_hat))
        assert tc.fro_norm(residual) < 1e-9
        assert distance == pytest.approx(tc.fro_norm(tc.subtract(x_hat, x0)))

    def test_nearness_from_solution_returns_it(self, rng):
        problem, x_true = random_consistent(rng, (2,), (2, 2), shift=3.0)
        x_hat, distance, _ = solve_nearness(problem, x_true)
        assert distance < 1e-10
        assert tc.fro_norm(tc.subtract(x_hat, x_true)) < 1e-10

    def test_nearness_validates_x0(self, rng):
        problem, _ = random_consistent(rng, (2,), (3,))
        with pytest.raises(DimensionError):
            solve_nearness(problem, tc.zeros((3,), (2,)))

    def test_nearness_beats_other_solutions(self):
        # with a singular operator the solution set is an affine subspace;
        # the nearness answer must be at least as close to X0 as any member
        from tensyl.instances import _rank_deficient_square, _uniform_tensor

        rng = np.random.default_rng(9)
        a = _rank_deficient_square(rng, (2, 2))
        c = _rank_deficient_square(rng, (3,))
        witness = _uniform_tensor(rng, (2, 2), (3,))
        problem = SylvesterProblem(a, c, apply_operator(a, c, witness))
        x0 = _uniform_tensor(rng, (2, 2), (3,))
        x_hat, distance, outcome = solve_nearness(problem, x0)
        assert outcome.status == Status.CONVERGED
        other = solve(problem, _uniform_tensor(rng, (2, 2), (3,)))
        assert other.status == Status.CONVERGED
        assert distance <= tc.fro_norm(tc.subtract(other.solution, x0)) + 1e-8


def textbook_solve(problem, opts):
    """The iteration written out on tensors with the public operator pair.

    Returns ``(status, solution, iterations)``; every test and update is the
    one the library's ``solve`` makes, from the zero iterate.
    """
    A, C, D = problem.A, problem.C, problem.D
    X = tc.zeros_like(D)
    R = tc.subtract(D, apply_operator(A, C, X))
    res = tc.fro_norm(R)
    if res < opts.epsilon:
        return Status.CONVERGED, X, 0
    P = apply_adjoint(A, C, R)
    p_first, res_first = tc.fro_norm(P), res
    for k in range(1, opts.k_max + 1):
        p_norm = tc.fro_norm(P)
        if p_norm <= opts.epsilon_p * max(1.0, p_first * (res / res_first)):
            return Status.INCONSISTENT, X, k - 1
        X = tc.add(X, tc.scale(res * res / (p_norm * p_norm), P))
        R = tc.subtract(D, apply_operator(A, C, X))
        res_new = tc.fro_norm(R)
        if res_new < opts.epsilon:
            return Status.CONVERGED, X, k
        if res_new > DIVERGENCE_FACTOR * res_first:
            return Status.INCONSISTENT, X, k
        P = tc.add(apply_adjoint(A, C, R), tc.scale(res_new * res_new / (res * res), P))
        res = res_new
    return Status.ITERATION_LIMIT, X, opts.k_max


class TestInPlaceCore:
    """The solver updates work buffers in place; nothing may leak out of them."""

    def test_inputs_unchanged(self, rng):
        problem, _ = random_consistent(rng, (2, 2), (3,), shift=2.0)
        x1 = random_tensor(rng, (2, 2), (3,))
        before = [t.data.copy() for t in (problem.A, problem.C, problem.D, x1)]
        outcome = solve(problem, x1)
        assert outcome.status == Status.CONVERGED
        after = [t.data for t in (problem.A, problem.C, problem.D, x1)]
        for old, new in zip(before, after):
            assert old.tobytes() == new.tobytes()

    def test_solution_is_read_only_and_owns_its_data(self, rng):
        problem, x_true = random_consistent(rng, (2,), (3,), shift=3.0)
        x1 = random_tensor(rng, (2,), (3,))
        for start in (x1, x_true):  # the second converges at iteration 0
            outcome = solve(problem, start)
            assert outcome.status == Status.CONVERGED
            assert not outcome.solution.data.flags.writeable
            assert not np.shares_memory(outcome.solution.data, start.data)
        assert outcome.iterations == 0

    def test_trace_states_are_independent_snapshots(self, rng):
        problem, _ = random_consistent(rng, (2, 2), (3,), shift=2.0)
        states = []
        outcome = solve_min_norm(problem, trace_cb=states.append)
        assert len(states) == outcome.iterations >= 3
        for prev, cur in zip(states, states[1:]):
            for name in ("X", "R", "P"):
                assert not np.shares_memory(getattr(prev, name).data, getattr(cur, name).data)
            assert not np.array_equal(prev.R.data, cur.R.data)
            assert not np.array_equal(prev.P.data, cur.P.data)
        assert not np.any(states[0].X.data)

    @pytest.mark.parametrize(
        "kind, split, k_max, status",
        [
            ("consistent", ((2, 2), (3,)), 1000, Status.CONVERGED),
            # at seed 5, (2, 2) x (3,) stops on the divergence test and
            # (2,) x (3,) on the vanishing direction
            ("inconsistent", ((2, 2), (3,)), 1000, Status.INCONSISTENT),
            ("inconsistent", ((2,), (3,)), 1000, Status.INCONSISTENT),
            ("consistent", ((2, 2), (3,)), 2, Status.ITERATION_LIMIT),
        ],
    )
    def test_matches_textbook_loop(self, kind, split, k_max, status):
        rng = np.random.default_rng(5)
        if kind == "consistent":
            problem, _ = random_consistent(rng, *split, shift=2.0)
        else:
            problem = random_inconsistent(rng, *split)
        opts = SolveOptions(k_max=k_max)
        want_status, want, want_iterations = textbook_solve(problem, opts)
        outcome = solve_min_norm(problem, opts)
        assert outcome.status == want_status == status
        assert outcome.iterations == want_iterations
        assert tc.fro_norm(tc.subtract(outcome.solution, want)) <= 1e-12 * tc.fro_norm(want)
