"""Independent ground truth via unfolding to a single dense linear system.

The tensor equation A *_M X + X *_N C = D unfolds through psi to the
matrix Sylvester equation psi(A) Xm + Xm psi(C) = psi(D), whose Kronecker
lift is K x = d with K = I_n (x) psi(A) + psi(C)^T (x) I_m and d the
column-major vectorization of psi(D).  The minimum-norm least-squares
solution of that system comes from LAPACK's SVD-based least squares
through numpy (``numpy.linalg.lstsq``): a direct dense solve that shares
no code with the iterative solver.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as tc
from .tensor import DenseTensor, DimensionError

DEFAULT_SIZE_CAP = 4096
DEFAULT_RANK_TOL = 1.0e-10


class SizeCapError(ValueError):
    """Unfolded system larger than the configured dense-solve cap."""


@dataclass(frozen=True)
class UnfoldedSystem:
    K: np.ndarray
    rhs: np.ndarray
    m: int
    n: int


@dataclass(frozen=True)
class OracleResult:
    consistent: bool
    min_norm_solution: DenseTensor
    residual_norm: float
    numerical_rank: int


def unfold_system(problem, size_cap=DEFAULT_SIZE_CAP):
    """Kronecker lift of the Sylvester operator: K vec(psi(X)) = vec(psi(D))."""
    m = problem.D.m
    n = problem.D.n
    if m * n > size_cap:
        raise SizeCapError(
            f"unfolded system of size {m * n} exceeds the dense cap {size_cap}"
        )
    K = np.kron(np.eye(n), tc.psi(problem.A)) + np.kron(tc.psi(problem.C).T, np.eye(m))
    rhs = tc.psi(problem.D).ravel(order="F")
    return UnfoldedSystem(K, rhs, m, n)


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


def row_space_projection(K, v):
    """Orthogonal projection of ``v`` onto the row space of ``K``.

    Uses the pseudoinverse identity P_row = K^+ K, realized as the
    minimum-norm solution of K x = K v.
    """
    x, _, _ = min_norm_lstsq(K, np.asarray(K) @ np.asarray(v))
    return x


def oracle_solve(problem, size_cap=DEFAULT_SIZE_CAP):
    """Consistency verdict and min-norm solution from the dense unfolding."""
    system = unfold_system(problem, size_cap)
    x, residual, rank = min_norm_lstsq(system.K, system.rhs)
    tol = DEFAULT_RANK_TOL * float(np.linalg.norm(system.rhs)) * system.m * system.n
    solution = tc.psi_inverse(x, problem.D.row_extents, problem.D.col_extents)
    return OracleResult(residual <= tol, solution, residual, rank)
