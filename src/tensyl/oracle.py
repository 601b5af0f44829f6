"""Independent ground truth via unfolding to a single dense linear system.

The tensor equation A *_M X + X *_N C = D unfolds through psi to the
matrix Sylvester equation psi(A) Xm + Xm psi(C) = psi(D), whose Kronecker
lift is K x = d with K = I_n (x) psi(A) + psi(C)^T (x) I_m and d the
column-major vectorization of psi(D), which is ``D.data`` itself.  Its
minimum-norm least-squares solution takes one of two dense LAPACK routes
through numpy, neither sharing code with the iterative solver:

- when a Cholesky factorization of K^T K shifted down by
  ``CERTIFICATE_SHIFT`` ||K||_F^2 completes, K is proven nonsingular and
  the system is solved by LU (``numpy.linalg.solve``);
- otherwise (a failed Cholesky or a non-square K) by SVD-based least
  squares (``numpy.linalg.lstsq``, LAPACK gelsd).

Its norms are ``tensor._norm``, whose squares neither overflow nor underflow,
the certificate scales K by the power of two of ``tensor._exponent``, and the
lift, the solution and the residual run through ``tensor._checked``.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as tc
from .tensor import DenseTensor, DimensionError

DEFAULT_SIZE_CAP = 4096
DEFAULT_RANK_TOL = 1.0e-10
# tau^2 of the nonsingularity certificate: a completed Cholesky proves
# sigma_min(K)^2 > (tau^2 - 1e-12) ||K||_F^2 up to the size cap.
CERTIFICATE_SHIFT = 1.0e-8


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
    return tc._checked("Kronecker lift", np.add, np.kron(np.eye(n), tc.psi(problem.A)),
                       np.kron(tc.psi(problem.C).T, np.eye(m)))


def _certified_nonsingular(K):
    """True when a Cholesky factorization of G = K^T K - tau^2 ||K||_F^2 I
    completes, for a square finite K and tau^2 = ``CERTIFICATE_SHIFT``.

    The rounding error in G is at most (2N+3) u ||K||_F^2: gamma_N for the
    product and gamma_{N+1} trace(G) for the Cholesky (Higham, Accuracy and
    Stability of Numerical Algorithms, Thm 10.5; Rump, BIT 46, 2006).  Up to
    ``DEFAULT_SIZE_CAP`` that is below 1e-12 ||K||_F^2, so a completed
    factorization proves sigma_min(K) > 0.99e-4 sigma_max(K).  K is first
    scaled by 2^-e, with 2^(e-1) <= max |K| < 2^e, so that K^T K cannot
    overflow and underflow costs at most 2^-1074 of the largest entry: the
    answer does not depend on the scale of K.
    """
    scaled = np.ldexp(K, -tc._exponent(K))
    g = scaled.T @ scaled
    del scaled  # the Cholesky factor takes its memory
    g.flat[:: len(g) + 1] -= CERTIFICATE_SHIFT * np.trace(g)
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return False
    return True


def min_norm_lstsq(K, rhs):
    """Minimum-2-norm solution of min ||K x - rhs||; returns (x, residual, rank).

    A square K that ``_certified_nonsingular`` proves nonsingular has
    sigma_min > 0.99e-4 sigma_max, so its numerical rank is N and x is the
    unique solution, computed by LU.  Every other K goes to LAPACK's
    SVD-based least squares (gelsd): the numerical rank counts the singular
    values above ``DEFAULT_RANK_TOL`` times the largest, and the smaller
    ones are treated as zero.  Non-finite input is refused; an overflowed
    solution or residual is an ArithmeticError naming it.
    """
    K = np.asarray(K, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64).ravel()
    if K.size == 0:
        raise DimensionError("empty system matrix")
    if not (np.isfinite(K).all() and np.isfinite(rhs).all()):
        raise ArithmeticError("non-finite entries in the unfolded system")
    if rhs.size != K.shape[0]:
        raise DimensionError(f"rhs length {rhs.size} does not match {K.shape[0]} rows")
    if K.shape[0] == K.shape[1] and _certified_nonsingular(K):
        x, rank = np.linalg.solve(K, rhs), K.shape[0]
    else:
        x, _, rank, _ = np.linalg.lstsq(K, rhs, rcond=DEFAULT_RANK_TOL)
    x = tc._checked("least-squares solution", np.asarray, x)
    return x, tc._norm(tc._checked("least-squares residual", lambda: K @ x - rhs)), int(rank)


def oracle_solve(problem):
    """Consistency verdict and min-norm solution from the dense unfolding."""
    D = problem.D
    x, residual, rank = min_norm_lstsq(unfold_system(problem), D.data)
    tol = DEFAULT_RANK_TOL * tc._norm(D.data) * D.m * D.n
    solution = DenseTensor(D.row_extents, D.col_extents, x)
    return OracleResult(residual <= tol, solution, residual, rank)
