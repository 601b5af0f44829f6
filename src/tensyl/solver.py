"""Conjugate-direction iteration for A *_M X + X *_N C = D.

Each sweep takes a gradient-type step X <- X + alpha * P with
alpha = ||R||^2 / ||P||^2, recomputes the residual from its defining
formula, and conjugates the next direction with beta = ||R_new||^2 / ||R||^2.
For a consistent equation the iterates reach a solution in finitely many
steps in exact arithmetic.  Two tests certify that no solution exists: a
nonzero residual paired with a vanishing direction, and a residual grown
past DIVERGENCE_FACTOR times the first one.  Starting from the zero
tensor yields the least-Frobenius-norm solution.
"""

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import tensor as tc
from .tensor import DenseTensor, DimensionError

# A residual this many times the first one certifies inconsistency (see solve).
DIVERGENCE_FACTOR = 1.0e6


class NumericalBreakdownError(ArithmeticError):
    """A step scalar became NaN/Inf; carries the offending iteration."""

    def __init__(self, message, iteration):
        super().__init__(f"{message} (iteration {iteration})")
        self.iteration = iteration


class Status(Enum):
    CONVERGED = "Converged"
    INCONSISTENT = "Inconsistent"
    ITERATION_LIMIT = "IterationLimit"


@dataclass(frozen=True)
class SylvesterProblem:
    """The triple (A, C, D) with validated shape compatibility."""

    A: DenseTensor
    C: DenseTensor
    D: DenseTensor

    def __post_init__(self):
        a, c, d = self.A, self.C, self.D
        if a.row_extents != a.col_extents:
            raise DimensionError(f"A must have a square split, got {a.row_extents} x {a.col_extents}")
        if c.row_extents != c.col_extents:
            raise DimensionError(f"C must have a square split, got {c.row_extents} x {c.col_extents}")
        if d.row_extents != a.row_extents:
            raise DimensionError(
                f"D row extents {d.row_extents} do not match A extents {a.row_extents}"
            )
        if d.col_extents != c.row_extents:
            raise DimensionError(
                f"D col extents {d.col_extents} do not match C extents {c.row_extents}"
            )


@dataclass(frozen=True)
class SolveOptions:
    epsilon: float = 1.0e-10
    epsilon_p: float = 1.0e-12
    k_max: int = 1000
    relative: bool = False  # off by default: absolute residual test

    def __post_init__(self):
        for name in ("epsilon", "epsilon_p"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            try:
                value = float(value)
            except OverflowError as exc:
                raise ValueError(f"{name}: {exc}") from exc
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
            object.__setattr__(self, name, value)
        if isinstance(self.k_max, bool) or not isinstance(self.k_max, numbers.Integral):
            raise ValueError(f"k_max must be an integer, got {self.k_max!r}")
        if self.k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {self.k_max}")
        object.__setattr__(self, "k_max", int(self.k_max))


@dataclass(frozen=True)
class SolverState:
    """Snapshot at the top of iteration k: iterate, residual, direction."""

    k: int
    X: DenseTensor
    R: DenseTensor
    P: DenseTensor
    r_norm_sq: float


@dataclass
class SolveOutcome:
    status: Status
    solution: DenseTensor
    residual_history: list = field(default_factory=list)
    iterations: int = 0

    @property
    def final_residual(self):
        return self.residual_history[-1]


def _fold(like, mat):
    """A tensor with the split of ``like`` holding a copy of ``mat``."""
    return tc.psi_inverse(mat, like.row_extents, like.col_extents)


def _sylvester(a, c, x, out=None, tmp=None):
    """a x + x c on unfoldings, into ``out`` with scratch ``tmp`` when given.

    The adjoint is _sylvester(a.T, c.T, ...).
    """
    out = np.matmul(a, x, out=out)
    out += np.matmul(x, c, out=tmp)
    return out


def _check_operands(A, C, X):
    if not (
        A.row_extents == A.col_extents == X.row_extents
        and C.row_extents == C.col_extents == X.col_extents
    ):
        raise DimensionError(
            f"operator splits {A.row_extents} x {A.col_extents} and "
            f"{C.row_extents} x {C.col_extents} do not fit "
            f"{X.row_extents} x {X.col_extents}"
        )


def apply_operator(A, C, X):
    """A *_M X + X *_N C."""
    _check_operands(A, C, X)
    return _fold(X, _sylvester(tc.psi(A), tc.psi(C), tc.psi(X)))


def apply_adjoint(A, C, R):
    """A^T *_M R + R *_N C^T, the adjoint of apply_operator."""
    _check_operands(A, C, R)
    return _fold(R, _sylvester(tc.psi(A).T, tc.psi(C).T, tc.psi(R)))


def _check_finite(value, what, k):
    if not math.isfinite(value):
        raise NumericalBreakdownError(f"{what} is not finite", k)


def _check_start(start, D, what):
    if not start.same_split(D):
        raise DimensionError(
            f"{what} split {start.row_extents} x {start.col_extents} does not match D"
        )


def solve(problem, x1, opts=None, trace_cb=None):
    """Run the iteration from initial iterate ``x1``.

    The iteration runs on the psi unfoldings in buffers allocated once per
    solve; tensors are built only for the returned solution and, when
    ``trace_cb`` is given, for the SolverState it receives at the top of
    every iteration (before the update producing X^(k+1)).  The test suite
    uses it to record residual/direction sequences.
    """
    opts = opts or SolveOptions()
    A, C, D = problem.A, problem.C, problem.D
    _check_start(x1, D, "initial iterate")
    a, c, d = tc.psi(A), tc.psi(C), tc.psi(D)
    at, ct = a.T, c.T  # the adjoint's operands, as views
    norm = np.linalg.norm

    threshold = opts.epsilon * (float(norm(d)) if opts.relative else 1.0)

    x = np.array(tc.psi(x1), order="F")
    r, p, s1, s2 = (np.empty_like(x) for _ in range(4))
    np.subtract(d, _sylvester(a, c, x, s1, s2), out=r)  # R = D - (AX + XC)
    res = float(norm(r))
    history = [res]
    if res < threshold:
        return SolveOutcome(Status.CONVERGED, _fold(D, x), history, 0)

    _sylvester(at, ct, r, p, s2)
    p_first = float(norm(p))
    res_first = res

    k = 1
    while k <= opts.k_max:
        p_norm = float(norm(p))
        if trace_cb is not None:
            trace_cb(SolverState(k, _fold(D, x), _fold(D, r), _fold(D, p), res * res))
        # Dimensionless zero-direction test.  The direction shrinks in
        # proportion to the residual on a consistent equation, so the floor
        # tracks the current residual level; a direction far below it while
        # the residual is still large certifies inconsistency.
        dir_floor = opts.epsilon_p * max(1.0, p_first * (res / res_first))
        if p_norm <= dir_floor:
            # Nonzero residual with vanishing direction: no solution exists.
            return SolveOutcome(Status.INCONSISTENT, _fold(D, x), history, k - 1)
        alpha = (res * res) / (p_norm * p_norm)
        _check_finite(alpha, "step length alpha", k)
        x += np.multiply(p, alpha, out=s1)
        np.subtract(d, _sylvester(a, c, x, s1, s2), out=r)
        res_new = float(norm(r))
        _check_finite(res_new, "residual norm", k)
        history.append(res_new)
        if res_new < threshold:
            return SolveOutcome(Status.CONVERGED, _fold(D, x), history, k)
        if res_new > DIVERGENCE_FACTOR * res_first:
            # On a consistent equation the residual never grows from a zero
            # start (finite-termination theory; confirmed empirically), while
            # an unsolvable one makes the step length blow up as the
            # direction degenerates.  Sustained divergence is therefore a
            # numerical inconsistency certificate.
            return SolveOutcome(Status.INCONSISTENT, _fold(D, x), history, k)
        beta = (res_new * res_new) / (res * res)
        _check_finite(beta, "conjugation coefficient beta", k)
        # P <- beta P + (A^T R + R C^T), the two products summed first: the
        # rounding order decides the iteration counts of the reference problems
        p *= beta
        p += _sylvester(at, ct, r, s1, s2)
        res = res_new
        k += 1

    return SolveOutcome(Status.ITERATION_LIMIT, _fold(D, x), history, opts.k_max)


def solve_min_norm(problem, opts=None, trace_cb=None):
    """Solve from the zero iterate; on a consistent equation the result is
    the unique least-Frobenius-norm solution."""
    x1 = tc.zeros_like(problem.D)
    return solve(problem, x1, opts, trace_cb)


def solve_nearness(problem, x0, opts=None):
    """Closest solution to ``x0``: min-norm solve of the shifted equation.

    Returns ``(x_hat, distance, outcome)`` where ``distance`` equals
    ``||x_hat - x0||`` and ``outcome`` is the underlying min-norm solve
    (its solution is the correction Y-hat).
    """
    A, C, D = problem.A, problem.C, problem.D
    _check_start(x0, D, "X0")
    d_shift = tc.subtract(D, apply_operator(A, C, x0))
    shifted = SylvesterProblem(A, C, d_shift)
    outcome = solve_min_norm(shifted, opts)
    y_hat = outcome.solution
    x_hat = tc.add(y_hat, x0)
    return x_hat, tc.fro_norm(y_hat), outcome
