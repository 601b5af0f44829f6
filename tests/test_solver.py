"""Solver behavior: convergence, statuses, options, and the nearness route."""

import ctypes
import re
import sys
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from tensyl import solver
from tensyl import tensor as tc
from tensyl.instances import random_consistent, random_inconsistent
from tensyl.oracle import oracle_solve
from tensyl.reference_problems import load_nearness_problem, load_reference_problem
from tensyl.solver import (
    DIRECTION_TOL,
    DIVERGENCE_FACTOR,
    SolveOptions,
    Status,
    SylvesterProblem,
    MATMUL_MIN_ENTRIES,
    _bind_sylvester,
    apply_adjoint,
    apply_operator,
    solve,
    solve_min_norm,
    solve_nearness,
)
from tensyl.tensor import DimensionError

from conftest import loop_sylvester_rhs, random_tensor, scaled_problem, singular_consistent, textbook_solve


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

    # Each entry point applies the one split rule to A, C (2 x 2 and 3 x 3
    # here) and its own operand; a split differs even where the sizes agree.
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda a, c, d: SylvesterProblem(tc.zeros((2,), (3,)), c, d), "A must have a square split"),
            (lambda a, c, d: SylvesterProblem(a, tc.zeros((3,), (1, 3)), d), "C must have a square split"),
            (lambda a, c, d: SylvesterProblem(a, c, tc.zeros((1, 2), (3,))), "D split (1, 2) x (3,) does not fit"),
            (lambda a, c, d: SylvesterProblem(a, c, tc.zeros((2,), (3, 1))), "D split (2,) x (3, 1) does not fit"),
            (lambda a, c, d: apply_operator(a, c, tc.zeros((3,), (2,))), "X split (3,) x (2,) does not fit"),
            (lambda a, c, d: apply_adjoint(a, c, tc.zeros((3,), (2,))), "R split (3,) x (2,) does not fit"),
            (lambda a, c, d: solve(SylvesterProblem(a, c, d), tc.zeros((2, 1), (3,))),
             "initial iterate split (2, 1) x (3,) does not fit"),
            (lambda a, c, d: solve_nearness(SylvesterProblem(a, c, d), tc.zeros((2,), (1, 3))),
             "X0 split (2,) x (1, 3) does not fit"),
        ],
        ids=["nonsquare-A", "nonsquare-C", "D-rows", "D-cols", "operator", "adjoint", "solve-start", "nearness-X0"],
    )
    def test_split_rule(self, rng, call, message):
        a, c, d = random_tensor(rng, (2,), (2,)), random_tensor(rng, (3,), (3,)), random_tensor(rng, (2,), (3,))
        with pytest.raises(DimensionError, match=re.escape(message)):
            call(a, c, d)


class TestOperators:
    def test_apply_operator_matches_loop(self, rng):
        a = random_tensor(rng, (2, 2), (2, 2))
        c = random_tensor(rng, (3,), (3,))
        x = random_tensor(rng, (2, 2), (3,))
        got = apply_operator(a, c, x)
        want = loop_sylvester_rhs(a, c, x)
        assert np.allclose(got.data, want.data, atol=1e-13)

    @pytest.mark.parametrize("m, n", [(1, 1), (1, 7), (6, 1), (12, 9), (64, 48), (128, 96)])
    def test_kernel_rounds_like_matmul(self, rng, monkeypatch, m, n):
        # The kernel's dot and matmul closures must round exactly as np.matmul
        # into F-order buffers followed by +=, the solver's layout, for the
        # operator and the adjoint: the reference iteration counts depend on
        # it.  a @ x + x @ c writes into fresh C-order arrays, which round
        # differently at 12 x 9 under some OpenBLAS kernels, so it is no
        # reference here.
        a, c, x = (np.asfortranarray(rng.standard_normal(shape)) for shape in ((m, m), (n, n), (m, n)))
        for aa, cc in ((a, c), (a.T, c.T)):
            want, tmp = np.empty_like(x), np.empty_like(x)
            np.matmul(aa, x, want)
            np.matmul(x, cc, tmp)
            want += tmp
            for threshold, name in ((x.size + 1, "dot_kernel"), (x.size, "matmul_kernel")):
                monkeypatch.setattr(solver, "MATMUL_MIN_ENTRIES", threshold)
                out = np.empty_like(x)
                kernel = _bind_sylvester(aa, cc, x, out, np.empty_like(x))
                assert kernel.__name__ == name
                assert kernel() is out
                assert out.tobytes() == want.tobytes()

    def test_kernel_entry_by_size(self):
        # dot below the threshold, matmul from it up; every small_solve and
        # cli_verify size (m*n <= 256) is below it, large_solve's is above.
        # Binding only takes views, so the 1 x 1 operands need not fit X.
        def kernel(size):
            x, op = np.empty((size, 1), order="F"), np.empty((1, 1))
            return _bind_sylvester(op, op, x, np.empty_like(x), np.empty_like(x)).__name__

        assert 256 < MATMUL_MIN_ENTRIES < 512 * 256
        assert kernel(MATMUL_MIN_ENTRIES - 1) == "dot_kernel"
        assert kernel(MATMUL_MIN_ENTRIES) == "matmul_kernel"

    def test_adjoint_identity(self, rng):
        # <L(x), y> = <x, L*(y)> for the Sylvester operator L
        a = random_tensor(rng, (2, 2), (2, 2))
        c = random_tensor(rng, (3,), (3,))
        x = random_tensor(rng, (2, 2), (3,))
        y = random_tensor(rng, (2, 2), (3,))
        lhs = tc.inner(apply_operator(a, c, x), y)
        rhs = tc.inner(x, apply_adjoint(a, c, y))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize(
        "apply, product",
        [(apply_operator, "A *_M X + X *_N C"), (apply_adjoint, "A^T *_M R + R *_N C^T")],
        ids=["operator", "adjoint"],
    )
    def test_overflowed_product_is_named(self, apply, product):
        # Every operand is finite; the product 1e400 is not.
        a = tc.DenseTensor((2,), (2,), [1.0e200, 0.0, 0.0, 1.0e200])
        c = tc.DenseTensor((1,), (1,), [1.0])
        x = tc.DenseTensor((2,), (1,), [1.0e200, 1.0e200])
        with pytest.raises(ArithmeticError, match=f"^{re.escape(product)} overflowed the double range$"):
            apply(a, c, x)


class TestSolveOptions:
    def test_defaults(self):
        opts = SolveOptions()
        assert opts.epsilon == 1.0e-10
        assert opts.k_max == 1000
        assert [f.name for f in fields(SolveOptions)] == ["epsilon", "k_max"]
        assert DIRECTION_TOL == 1.0e-12

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon": 0.0},
            {"epsilon": -1.0},
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

    def test_iteration_limit_status(self, rng):
        problem, _ = random_consistent(rng, (2, 2), (2, 2), shift=2.0)
        outcome = solve_min_norm(problem, SolveOptions(k_max=2))
        assert outcome.status == Status.ITERATION_LIMIT
        assert outcome.iterations == 2

    @pytest.mark.parametrize("k", [-16, -20])
    @pytest.mark.parametrize("rows, cols", [((3, 2), (2, 2)), ((2, 2), (3,)), ((4, 3), (3, 3)), ((4, 4), (4, 4))],
                             ids=["(3,2)x(2,2)", "(2,2)x(3,)", "(4,3)x(3,3)", "(4,4)x(4,4)"])
    def test_scaled_down_consistent_problem_converges(self, rows, cols, k):
        # (A, C, D) * 2^k shrinks the direction with the residual, which the
        # zero-direction test compares relatively: it must not call this
        # consistent problem inconsistent, as an absolute floor would.
        for seed in range(4):
            problem, _ = random_consistent(np.random.default_rng(seed), rows, cols)
            outcome = solve_min_norm(scaled_problem(problem, k), SolveOptions(k_max=20000))
            assert outcome.status == Status.CONVERGED, seed

    def test_inconsistent_detection(self):
        rng = np.random.default_rng(42)
        problem, _ = random_inconsistent(rng, (2, 2), (3,))
        outcome = solve_min_norm(problem)
        assert outcome.status == Status.INCONSISTENT

    def test_overflowing_rhs_raises_breakdown(self, rng):
        # ||D||^2 overflows, so the first step length is inf / inf
        a = random_tensor(rng, (2,), (2,))
        c = random_tensor(rng, (2,), (2,))
        huge = tc.DenseTensor((2,), (2,), [1.0e200, 1.0, 1.0, 1.0])
        problem = SylvesterProblem(a, c, huge)
        with pytest.raises(ArithmeticError, match=r"^step length alpha is not finite \(iteration 1\)$"):
            solve_min_norm(problem)  # and no numpy warning

    def test_overflowing_residual_raises_breakdown(self):
        # Inconsistent, and finite up to the first update: the step length
        # ||D||^2 / ||A^T D||^2 = 1e300 is finite, but A X then overflows.
        a = tc.DenseTensor((2,), (2,), [1.0e10, 0.0, 0.0, 0.0])
        d = tc.DenseTensor((2,), (1,), [1.0e-11, 1.0e149])
        problem = SylvesterProblem(a, tc.DenseTensor((1,), (1,), [0.0]), d)
        assert not oracle_solve(problem).consistent
        with pytest.raises(ArithmeticError, match=r"^residual norm is not finite \(iteration 1\)$"):
            solve_min_norm(problem)


# The reference problems' exact (min-norm, nearness) iteration counts under
# each OpenBLAS kernel, by the name the library reports at run time
# (OPENBLAS_CORETYPE=Prescott runs Katmai; Nehalem, Atom and Barcelona run
# Nehalem).  The counts are a rounding
# property of the GEMM kernel.
REFERENCE_COUNTS = {
    "SkylakeX": (82, 86),
    "Haswell": (80, 87),
    "Sandybridge": (91, 82),
    "Katmai": (87, 86),
    "Nehalem": (87, 86),
}


def openblas_core():
    """The kernel name of the OpenBLAS loaded in this process, or None if it cannot be read."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_", "openblas_get_corename"):
            corename = getattr(lib, symbol, None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return None


class TestMinNormAndNearness:
    def test_reference_iteration_counts_are_exact(self):
        # Exact, not the acceptance gate's bands: a change in the rounding
        # order of the products or the norms moves these counts.
        outcome = solve_min_norm(load_reference_problem().problem)
        loaded = load_nearness_problem()
        _, _, near_outcome = solve_nearness(loaded.problem, loaded.x0)
        assert (outcome.status, near_outcome.status) == (Status.CONVERGED, Status.CONVERGED)
        counts = (outcome.iterations, near_outcome.iterations)
        core = openblas_core()
        assert core in REFERENCE_COUNTS, f"no pinned counts for OpenBLAS core {core!r}; this run took {counts}"
        assert counts == REFERENCE_COUNTS[core], f"OpenBLAS core {core}"

    def test_min_norm_starts_from_zero(self, rng):
        problem, _ = random_consistent(rng, (2,), (3,), shift=2.0)
        got = solve_min_norm(problem)
        for want in (solve(problem), solve(problem, tc.zeros(problem.D.row_extents, problem.D.col_extents))):
            assert got.residual_history == want.residual_history
            assert got.solution.data.tobytes() == want.solution.data.tobytes()

    @pytest.mark.parametrize("seed", range(6))
    def test_adjoint_start_gives_the_min_norm_solution(self, seed):
        # The paper's special start X1 = L*(H) keeps every iterate in range(L*), orthogonal to
        # null(L), so on a singular operator the solve ends at the least-norm solution; a generic
        # start keeps its null-space part.  Measured: 1.1e-12 to 6.7e-11 from L*(H), 0.009 to 0.35
        # from a random start.
        rng = np.random.default_rng(seed)
        problem, _ = singular_consistent(rng, (3, 2), (2, 2))
        want = oracle_solve(problem).min_norm_solution
        h, x1 = random_tensor(rng, (3, 2), (2, 2)), random_tensor(rng, (3, 2), (2, 2))
        for start, near in ((apply_adjoint(problem.A, problem.C, h), True), (x1, False)):
            outcome = solve(problem, start)
            assert outcome.status == Status.CONVERGED
            gap = tc.fro_norm(tc.subtract(outcome.solution, want)) / tc.fro_norm(want)
            assert gap <= 1e-9 if near else gap > 1e-3

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
        rng = np.random.default_rng(9)
        problem, _ = singular_consistent(rng, (2, 2), (3,))
        x0 = random_tensor(rng, (2, 2), (3,))
        x_hat, distance, outcome = solve_nearness(problem, x0)
        assert outcome.status == Status.CONVERGED
        other = solve(problem, random_tensor(rng, (2, 2), (3,)))
        assert other.status == Status.CONVERGED
        assert distance <= tc.fro_norm(tc.subtract(other.solution, x0)) + 1e-8

    @pytest.mark.parametrize("kind", ["reference", "consistent", "inconsistent", "matmul"])
    def test_nearness_is_the_shifted_min_norm_solve(self, kind):
        # The paper's route in public functions: Y = min-norm solution of
        # L(Y) = D - L(X0), then X = Y + X0; solve_nearness runs it on psi
        # matrices and must give the same bytes.
        rng = np.random.default_rng(4)
        if kind == "reference":
            loaded = load_nearness_problem()
            problem, x0 = loaded.problem, loaded.x0
        else:
            split = ((8, 8), (8, 8)) if kind == "matmul" else ((4, 3), (3, 3))  # m*n = 4096 binds matmul
            if kind == "inconsistent":
                problem, _ = random_inconsistent(rng, *split)
            else:  # the shift keeps the solve well short of the iteration cap
                problem, _ = random_consistent(rng, *split, shift=16.0 if kind == "matmul" else 2.0)
            x0 = random_tensor(rng, *split)
        A, C, D = problem.A, problem.C, problem.D
        want = solve_min_norm(SylvesterProblem(A, C, tc.subtract(D, apply_operator(A, C, x0))))
        x_hat, distance, outcome = solve_nearness(problem, x0)
        assert outcome.status == want.status != Status.ITERATION_LIMIT
        assert outcome.residual_history == want.residual_history
        assert outcome.solution.data.tobytes() == want.solution.data.tobytes()
        assert x_hat.data.tobytes() == tc.add(want.solution, x0).data.tobytes()
        assert distance == tc.fro_norm(want.solution)

    def test_nearness_folds_two_tensors(self, monkeypatch):
        # Y-hat and X-hat: the shift and the solve run on psi matrices.
        loaded = load_nearness_problem()
        built = []
        init = tc.DenseTensor.__init__

        def counting_init(self, *args):
            built.append(args[:2])
            init(self, *args)

        monkeypatch.setattr(tc.DenseTensor, "__init__", counting_init)
        solve_nearness(loaded.problem, loaded.x0)
        D = loaded.problem.D
        assert built == [(D.row_extents, D.col_extents)] * 2

    @pytest.mark.parametrize(
        "a, d, x0, quantity",
        [
            (1.0, 1.7e308, -1.7e308, "D - (A *_M X0 + X0 *_N C)"),
            # Y-hat = 1e300 is finite, and one step from zero reaches it
            (1.0e-150, sys.float_info.max * 1.0e-150 + 1.0e150, sys.float_info.max, "X_hat = X0 + Y_hat"),
        ],
        ids=["shift", "sum"],
    )
    def test_overflowed_nearness_quantity_is_named(self, a, d, x0, quantity):
        # Every operand is finite, and no numpy warning comes before the error.
        def scalar(value):
            return tc.DenseTensor((1,), (1,), [value])

        problem = SylvesterProblem(scalar(a), scalar(0.0), scalar(d))
        with pytest.raises(ArithmeticError, match=f"^{re.escape(quantity)} overflowed the double range$"):
            solve_nearness(problem, scalar(x0))


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

    @pytest.mark.parametrize(
        "run, buffers",
        [
            (lambda problem, x, opts: solve_min_norm(problem, opts), 6),
            (lambda problem, x, opts: solve(problem, x, opts), 6),
            # the shift D - L(X0) is the right-hand side, a sixth buffer
            (lambda problem, x, opts: solve_nearness(problem, x, opts), 7),
        ],
        ids=["min-norm", "start", "nearness"],
    )
    def test_working_set_is_five_buffers(self, run, buffers):
        # The iterate, residual, direction and two scratch buffers, 8 m n
        # bytes each, and no more than one further buffer's worth: no zero
        # start tensor, and the solution folded after the others are freed.
        # m*n = 4096 (the kernel's matmul entry), where fixed Python objects
        # are small beside the buffers.  Measured: 5.15, 5.11 and 6.12.
        rng = np.random.default_rng(5)
        problem, _ = random_consistent(rng, (8, 8), (8, 8), shift=2.0)
        x = random_tensor(rng, (8, 8), (8, 8))  # the start iterate, or X0
        opts = SolveOptions(k_max=40)
        buffer_bytes = 8 * problem.D.m * problem.D.n
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            run(problem, x, opts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start <= buffers * buffer_bytes, f"peak {(peak - start) / buffer_bytes:.2f} buffers"

    @pytest.mark.parametrize(
        "kind, split, k_max, status",
        [
            ("consistent", ((2, 2), (3,)), 1000, Status.CONVERGED),
            ("inconsistent", ((2, 2), (3,)), 1000, Status.INCONSISTENT),
            ("inconsistent", ((2,), (3,)), 1000, Status.INCONSISTENT),
            ("consistent", ((2, 2), (3,)), 2, Status.ITERATION_LIMIT),
            # m*n = 4096 takes the kernel's matmul entry
            ("consistent", ((8, 8), (8, 8)), 40, Status.ITERATION_LIMIT),
        ],
    )
    def test_matches_textbook_loop(self, kind, split, k_max, status):
        rng = np.random.default_rng(5)
        if kind == "consistent":
            problem, _ = random_consistent(rng, *split, shift=2.0)
        else:
            problem, _ = random_inconsistent(rng, *split)
        opts = SolveOptions(k_max=k_max)
        want_status, want, want_iterations, want_history = textbook_solve(problem, opts)
        outcome = solve_min_norm(problem, opts)
        assert outcome.status == want_status == status
        assert outcome.iterations == want_iterations
        assert outcome.residual_history == want_history
        assert outcome.solution.data.tobytes() == want.data.tobytes()
        if kind == "inconsistent":
            # At seed 5, (2, 2) x (3,) stops on the divergence test and
            # (2,) x (3,) on the vanishing direction.
            diverged = want_history[-1] > DIVERGENCE_FACTOR * want_history[0]
            assert diverged == (split == ((2, 2), (3,)))
