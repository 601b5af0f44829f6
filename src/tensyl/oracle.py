"""Independent ground truth via unfolding to a single dense linear system.

The tensor equation A *_M X + X *_N C = D unfolds through psi to the
matrix Sylvester equation psi(A) Xm + Xm psi(C) = psi(D), whose Kronecker
lift is K x = d with K = I_n (x) psi(A) + psi(C)^T (x) I_m and d the
column-major vectorization of psi(D), which is ``D.data`` itself.  Its
minimum-norm least-squares solution takes one of two dense LAPACK routes
through numpy, none sharing code with the iterative solver:

- a certified LU solve (``numpy.linalg.solve``) of the bordered matrix
  B = [[K, 2^e W], [2^e Z^T, 0]] with r >= 0 border columns (B = K when
  r = 0), when a Cholesky factorization of B^T B shifted down by
  ``CERTIFICATE_SHIFT`` ||B||_F^2 completes.  When both factors have null
  spaces, Z = null(psi(C)^T) (x) null(psi(A)) and W = null(psi(C)) (x)
  null(psi(A)^T), r orthonormal columns each, have K Z ~ 0 and K^T W ~ 0;
  they border K if ||K Z||_F and ||K^T W||_F are at most
  ``DEFAULT_RANK_TOL`` ||K||_F / sqrt(mn), and otherwise r = 0.
  B [x; y] = [d; 0] gives x, and the rank is mn - r.  K is the leading
  block of B, so singular-value interlacing gives sigma_{mn-r}(K) >=
  sigma_min(B) > 0.99e-4 sigma_max(B) >= 0.99e-4 sigma_1(K), while
  sigma_{mn-r+1}(K) <= ||K Z||_2 <= 1e-10 sigma_1(K): gelsd's rank rule
  counts exactly mn - r.  With x orthogonal to range(Z) = null(K) and K x
  the projection of d onto range(W)^perp = range(K), x is gelsd's
  truncated solution;
- otherwise (a failed certificate, or a non-square K) SVD-based least
  squares on K (``numpy.linalg.lstsq``, LAPACK gelsd).

Its norms are ``tensor._norm``, whose squares neither overflow nor underflow,
the certificate scales its matrix by the power of two of ``tensor._exponent``,
as do the null-space test and the border, and the lift, the solution and the
residual run through ``tensor._checked``.
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
    N = 2 ``DEFAULT_SIZE_CAP``, the largest bordered matrix, that is below
    2e-12 ||K||_F^2, so a completed factorization proves sigma_min(K) >
    0.99e-4 sigma_max(K).  K is first scaled by 2^-e, with 2^(e-1) <= max |K|
    < 2^e, so that K^T K cannot overflow and underflow costs at most 2^-1074
    of the largest entry: the answer does not depend on the scale of K.
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


def _null_spaces(f):
    """(right, left): orthonormal bases of the null spaces of the square
    factor f, the trailing columns of V and of U in one SVD, for the singular
    values at most ``DEFAULT_RANK_TOL`` times the largest.  None when
    ``_certified_nonsingular`` proves f nonsingular or no singular value is
    that small."""
    if _certified_nonsingular(f):
        return None
    u, s, vt = np.linalg.svd(f)
    k = np.count_nonzero(s > DEFAULT_RANK_TOL * s[0])
    return (vt[k:].T, u[:, k:]) if k < len(s) else None


def _null_bases(K, a, c):
    """(Z, W) = (null(c^T) (x) null(a), null(c) (x) null(a^T)) for the
    factors a = psi(A) and c = psi(C) of K, so that K Z ~ 0 and K^T W ~ 0.
    None when either factor has no null space, or when ||K Z||_F or
    ||K^T W||_F exceeds ``DEFAULT_RANK_TOL`` ||K||_F / sqrt(N), the bound
    that gives sigma_{N-r+1}(K) <= 1e-10 sigma_1(K), tested on 2^-e K, whose
    products cannot overflow.  The smaller factor goes first, so the larger
    one is examined only when the smaller has a null space."""
    swap = len(c) < len(a)
    first = _null_spaces(c if swap else a)
    second = first and _null_spaces(a if swap else c)
    if second is None:
        return None
    (a_right, a_left), (c_right, c_left) = (second, first) if swap else (first, second)
    z, w = np.kron(c_left, a_right), np.kron(c_right, a_left)
    scaled = np.ldexp(K, -tc._exponent(K))
    bound = DEFAULT_RANK_TOL * np.linalg.norm(scaled) / np.sqrt(len(K))
    return (z, w) if max(np.linalg.norm(scaled @ z), np.linalg.norm(scaled.T @ w)) <= bound else None


def _bordered(K, z, w):
    """B = [[K, 2^e W], [2^e Z^T, 0]], its border scaled to K by e from ``tensor._exponent``."""
    e = tc._exponent(K)
    return np.block([[K, np.ldexp(w, e)], [np.ldexp(z.T, e), np.zeros((z.shape[1],) * 2)]])


def min_norm_lstsq(K, rhs, bases=None):
    """Minimum-2-norm solution of min ||K x - rhs||; returns (x, residual, rank).

    ``bases`` is None or the pair (Z, W) of ``_null_bases``: r orthonormal
    columns each with K Z ~ 0 and K^T W ~ 0, bordering K into B from
    ``_bordered``; without it B = K and r = 0.  For a square K whose B
    ``_certified_nonsingular`` proves nonsingular, one LU solve of
    B [x; y] = [rhs; 0] gives x with numerical rank N - r (module
    docstring); K's own certificate is not tried then, since it cannot
    complete when sigma_min(K) <= ||K Z||.  Every other K goes to LAPACK's
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
    n = len(K)
    system = K if bases is None else _bordered(K, *bases)
    if n == K.shape[1] and _certified_nonsingular(system):
        r = len(system) - n
        x, rank = np.linalg.solve(system, np.concatenate((rhs, np.zeros(r))))[:n], n - r
    else:
        x, _, rank, _ = np.linalg.lstsq(K, rhs, rcond=DEFAULT_RANK_TOL)
    x = tc._checked("least-squares solution", np.asarray, x)
    return x, tc._norm(tc._checked("least-squares residual", lambda: K @ x - rhs)), int(rank)


def oracle_solve(problem):
    """Consistency verdict and min-norm solution from the dense unfolding."""
    D = problem.D
    K = unfold_system(problem)
    x, residual, rank = min_norm_lstsq(K, D.data, _null_bases(K, tc.psi(problem.A), tc.psi(problem.C)))
    tol = DEFAULT_RANK_TOL * tc._norm(D.data) * D.m * D.n
    solution = DenseTensor(D.row_extents, D.col_extents, x)
    return OracleResult(residual <= tol, solution, residual, rank)
