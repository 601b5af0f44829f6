"""Conjugate-direction iteration for A *_M X + X *_N C = D.

Each sweep takes a gradient-type step X <- X + alpha * P with
alpha = ||R||^2 / ||P||^2, recomputes the residual from its defining
formula, and conjugates the next direction with beta = ||R_new||^2 / ||R||^2.
For a consistent equation the iterates reach a solution in finitely many
steps in exact arithmetic.  Two tests certify that no solution exists: a
nonzero residual paired with a vanishing direction, and a residual grown
past DIVERGENCE_FACTOR times the first one.  Starting from the zero
tensor yields the least-Frobenius-norm solution.

The loop, ``_iterate``, runs on F-order psi matrices in five buffers
allocated once per solve: the iterate, the residual, the direction and two
scratch arrays.  Its products all go through one kernel, a x + x c into a
preallocated buffer, bound once per solve through ``dot`` or ``matmul`` by
the size of X (see ``_bind_sylvester``), and its norms are BLAS dots, so an
iteration costs four GEMMs and a few vector operations, with nothing rebuilt
in the loop.  ``solve`` and ``solve_nearness`` are its tensor edges: they
build no tensor but their results, folded once the loop has freed all but
the iterate, so a solve peaks at its five buffers.  The products outside
the loop, the nearness shift and the sum X0 + Y-hat go through the algebra's
overflow rule, ``tensor._checked``, and the loop runs under ``np.errstate``:
an overflow is one ArithmeticError naming it, with no numpy warning.
"""

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import tensor as tc
from .tensor import DenseTensor, DimensionError

# A residual this many times the first one certifies inconsistency (see _iterate).
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


def _check_operands(A, C, X, what):
    """The one split rule: A and C are square, and X, named ``what``, has the
    row extents of A and the column extents of C."""
    for name, op in (("A", A), ("C", C)):
        if op.row_extents != op.col_extents:
            raise DimensionError(f"{name} must have a square split, got {op.row_extents} x {op.col_extents}")
    if (X.row_extents, X.col_extents) != (A.row_extents, C.row_extents):
        raise DimensionError(f"{what} split {X.row_extents} x {X.col_extents} does not fit "
                             f"A {A.row_extents} and C {C.row_extents}")


@dataclass(frozen=True)
class SylvesterProblem:
    """The triple (A, C, D), with D fitting (A, C) by the split rule."""

    A: DenseTensor
    C: DenseTensor
    D: DenseTensor

    def __post_init__(self):
        _check_operands(self.A, self.C, self.D, "D")


@dataclass(frozen=True)
class SolveOptions:
    epsilon: float = 1.0e-10
    epsilon_p: float = 1.0e-12
    k_max: int = 1000

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


DEFAULT_OPTIONS = SolveOptions()


@dataclass
class SolveOutcome:
    status: Status
    solution: DenseTensor
    residual_history: list

    @property
    def iterations(self):
        """Sweeps run: the history holds the start residual and one per sweep."""
        return len(self.residual_history) - 1

    @property
    def final_residual(self):
        return self.residual_history[-1]


# From this many entries of X up, _bind_sylvester binds matmul, below it dot.
# Measured per kernel call on 2 cores with OpenBLAS 0.3.31: matmul took
# 1.02-1.34x the time of dot at m*n = 108 to 3072, tied at 4096 and 5120,
# and was 2-6% faster from 6144 to 131072.
MATMUL_MIN_ENTRIES = 4096


def _bind_sylvester(a, c, x, out, tmp):
    """A zero-argument kernel writing a x + x c into the F-order buffer
    ``out``, with F-order scratch ``tmp``; it reads ``x`` on every call.

    Below MATMUL_MIN_ENTRIES entries it calls ``ndarray.dot``, which writes
    only into a C-contiguous array, so each product is formed transposed into
    the buffers' C-order views: (a x)^T = x^T a^T, (x c)^T = c^T x^T.  From
    there up, ``np.matmul`` into the F-order buffers makes the same transposed
    BLAS calls, without dot's zero-fill of its output: the bytes are equal.
    The adjoint is the same kernel on (a.T, c.T).
    """
    add = np.add
    if x.size >= MATMUL_MIN_ENTRIES:
        matmul = np.matmul

        def matmul_kernel():
            matmul(a, x, out)
            matmul(x, c, tmp)
            return add(out, tmp, out)

        return matmul_kernel
    xt_dot, ct_dot = x.T.dot, c.T.dot
    at, xt, out_t, tmp_t = a.T, x.T, out.T, tmp.T

    def dot_kernel():
        xt_dot(at, out_t)
        ct_dot(xt, tmp_t)
        return add(out, tmp, out)

    return dot_kernel


def _product(a, c, x, quantity):
    """a x + x c on psi matrices, in a new F-order matrix checked as ``quantity``."""
    return tc._checked(quantity, _bind_sylvester(a, c, x, np.empty_like(x), np.empty_like(x)))


def apply_operator(A, C, X):
    """A *_M X + X *_N C."""
    _check_operands(A, C, X, "X")
    mat = _product(tc.psi(A), tc.psi(C), tc.psi(X), "A *_M X + X *_N C")
    return tc.psi_inverse(mat, X.row_extents, X.col_extents)


def apply_adjoint(A, C, R):
    """A^T *_M R + R *_N C^T, the adjoint of apply_operator."""
    _check_operands(A, C, R, "R")
    mat = _product(tc.psi(A).T, tc.psi(C).T, tc.psi(R), "A^T *_M R + R *_N C^T")
    return tc.psi_inverse(mat, R.row_extents, R.col_extents)


@np.errstate(over="ignore", invalid="ignore")
def _iterate(a, c, d, x, opts):
    """The loop on F-order psi matrices: a x + x c = d from the iterate ``x``,
    which it updates in place; returns ``(status, residual_history)``.

    The residual, direction and two scratch buffers, the two bound kernels
    and the flat views are its locals, so they are freed when it returns.
    Each norm is ``sqrt(v.dot(v))`` on a flat view, what ``np.linalg.norm``
    computes, without its wrapper.
    """
    sqrt, isfinite, add, subtract, multiply = math.sqrt, math.isfinite, np.add, np.subtract, np.multiply
    threshold, k_max, epsilon_p = opts.epsilon, opts.k_max, opts.epsilon_p

    r, p, s1, s2 = (np.empty_like(x) for _ in range(4))
    operator = _bind_sylvester(a, c, x, s1, s2)  # A X + X C into s1
    adjoint = _bind_sylvester(a.T, c.T, r, s1, s2)  # A^T R + R C^T into s1
    rf, pf = r.ravel(order="K"), p.ravel(order="K")  # flat views, for the norms
    rdot, pdot = rf.dot, pf.dot

    subtract(d, operator(), r)  # R = D - (AX + XC)
    res = sqrt(rdot(rf))
    history = [res]
    if res < threshold:
        return Status.CONVERGED, history

    np.copyto(p, adjoint())
    p_first = sqrt(pdot(pf))
    res_first = res
    res_limit = DIVERGENCE_FACTOR * res_first
    scalar = np.empty(())  # holds alpha, then beta: multiply would make it from each float
    append = history.append

    status = Status.ITERATION_LIMIT
    for k in range(1, k_max + 1):
        p_norm = sqrt(pdot(pf))
        # Dimensionless zero-direction test.  The direction shrinks in
        # proportion to the residual on a consistent equation, so the floor
        # tracks the current residual level; a direction far below it while
        # the residual is still large certifies inconsistency.
        dir_floor = epsilon_p * max(1.0, p_first * (res / res_first))
        if p_norm <= dir_floor:
            # Nonzero residual with vanishing direction: no solution exists.
            status = Status.INCONSISTENT
            break
        alpha = (res * res) / (p_norm * p_norm)
        if not isfinite(alpha):
            raise NumericalBreakdownError("step length alpha is not finite", k)
        scalar[()] = alpha
        add(x, multiply(p, scalar, s1), x)
        subtract(d, operator(), r)
        res_new = sqrt(rdot(rf))
        if not isfinite(res_new):
            raise NumericalBreakdownError("residual norm is not finite", k)
        append(res_new)
        if res_new < threshold:
            status = Status.CONVERGED
            break
        if res_new > res_limit:
            # On a consistent equation the residual never grows from a zero
            # start (finite-termination theory; confirmed empirically), while
            # an unsolvable one makes the step length blow up as the
            # direction degenerates.  Sustained divergence is therefore a
            # numerical inconsistency certificate.
            status = Status.INCONSISTENT
            break
        beta = (res_new * res_new) / (res * res)
        if not isfinite(beta):
            raise NumericalBreakdownError("conjugation coefficient beta is not finite", k)
        # P <- beta P + (A^T R + R C^T), the two products summed first: the
        # rounding order decides the iteration counts of the reference problems
        scalar[()] = beta
        multiply(p, scalar, p)
        add(p, adjoint(), p)
        res = res_new

    return status, history


def solve(problem, x1=None, opts=None):
    """Run the iteration from the initial iterate ``x1``, or from zero when
    it is None; a given ``x1`` is checked by the split rule and copied."""
    opts = opts or DEFAULT_OPTIONS
    A, C, D = problem.A, problem.C, problem.D
    d = tc.psi(D)
    if x1 is None:
        x = np.zeros(d.shape, order="F")
    else:
        _check_operands(A, C, x1, "initial iterate")
        x = np.array(tc.psi(x1), order="F")
    status, history = _iterate(tc.psi(A), tc.psi(C), d, x, opts)
    return SolveOutcome(status, tc.psi_inverse(x, D.row_extents, D.col_extents), history)


def solve_min_norm(problem, opts=None):
    """Solve from the zero iterate; on a consistent equation the result is
    the unique least-Frobenius-norm solution."""
    return solve(problem, None, opts)


def solve_nearness(problem, x0, opts=None):
    """Closest solution to ``x0``: min-norm solve of the shifted equation.

    Returns ``(x_hat, distance, outcome)`` where ``distance`` equals
    ``||x_hat - x0||`` and ``outcome`` is the underlying min-norm solve
    (its solution is the correction Y-hat).
    """
    A, C, D = problem.A, problem.C, problem.D
    _check_operands(A, C, x0, "X0")
    a, c, x0_mat = tc.psi(A), tc.psi(C), tc.psi(x0)
    d = _product(a, c, x0_mat, "A *_M X + X *_N C")  # L(X0), then D - L(X0) in place
    tc._checked("D - (A *_M X0 + X0 *_N C)", np.subtract, tc.psi(D), d, d)
    y = np.zeros(d.shape, order="F")
    status, history = _iterate(a, c, d, y, opts or DEFAULT_OPTIONS)
    x_hat = tc._checked("X_hat = X0 + Y_hat", np.add, y, x0_mat)
    y_hat = tc.psi_inverse(y, D.row_extents, D.col_extents)
    outcome = SolveOutcome(status, y_hat, history)
    return tc.psi_inverse(x_hat, D.row_extents, D.col_extents), tc.fro_norm(y_hat), outcome
