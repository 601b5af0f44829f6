"""Independent ground truth via unfolding to a single dense linear system.

The tensor equation A *_M X + X *_N C = D unfolds through psi to the
matrix Sylvester equation psi(A) Xm + Xm psi(C) = psi(D), whose Kronecker
lift is K x = d with K = I_n (x) psi(A) + psi(C)^T (x) I_m and d the
column-major vectorization of psi(D), which is ``D.data`` itself.  The
minimum-norm least-squares solution of that system comes from LAPACK's
SVD-based least squares through numpy (``numpy.linalg.lstsq``): a direct
dense solve that shares no code with the iterative solver.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as tc
from .tensor import DenseTensor, DimensionError

DEFAULT_SIZE_CAP = 4096
DEFAULT_RANK_TOL = 1.0e-10


class SizeCapError(ValueError):
    """Unfolded system larger than the dense-solve cap, DEFAULT_SIZE_CAP unknowns."""


@dataclass(frozen=True)
class OracleResult:
    consistent: bool
    min_norm_solution: DenseTensor
    residual_norm: float
    numerical_rank: int


def unfold_system(problem):
    """Kronecker lift K of the Sylvester operator: K vec(psi(X)) = vec(psi(D)) = D.data."""
    m, n = problem.D.m, problem.D.n
    if m * n > DEFAULT_SIZE_CAP:
        raise SizeCapError(
            f"unfolded system of size {m * n} exceeds the dense cap {DEFAULT_SIZE_CAP}"
        )
    return np.kron(np.eye(n), tc.psi(problem.A)) + np.kron(tc.psi(problem.C).T, np.eye(m))


def min_norm_lstsq(K, rhs):
    """Minimum-2-norm solution of min ||K x - rhs||; returns (x, residual, rank).

    LAPACK's SVD-based least squares (gelsd): the numerical rank counts the
    singular values above ``DEFAULT_RANK_TOL`` times the largest, and the
    smaller ones are treated as zero.
    """
    K = np.asarray(K, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64).ravel()
    if K.size == 0:
        raise DimensionError("empty system matrix")
    if not (np.isfinite(K).all() and np.isfinite(rhs).all()):
        raise ArithmeticError("non-finite entries in the unfolded system")
    if rhs.size != K.shape[0]:
        raise DimensionError(f"rhs length {rhs.size} does not match {K.shape[0]} rows")
    x, _, rank, _ = np.linalg.lstsq(K, rhs, rcond=DEFAULT_RANK_TOL)
    residual = float(np.linalg.norm(K @ x - rhs))
    return x, residual, int(rank)


def oracle_solve(problem):
    """Consistency verdict and min-norm solution from the dense unfolding."""
    D = problem.D
    x, residual, rank = min_norm_lstsq(unfold_system(problem), D.data)
    tol = DEFAULT_RANK_TOL * float(np.linalg.norm(D.data)) * D.m * D.n
    solution = DenseTensor(D.row_extents, D.col_extents, x)
    return OracleResult(residual <= tol, solution, residual, rank)
