"""Independent ground truth via unfolding to a single dense linear system.

The tensor equation A *_M X + X *_N C = D unfolds through psi to the
matrix Sylvester equation psi(A) Xm + Xm psi(C) = psi(D), whose Kronecker
lift is K x = d with K = I_n (x) psi(A) + psi(C)^T (x) I_m and d the
column-major vectorization of psi(D), which is ``D.data`` itself.  Its
minimum-norm least-squares solution takes one of two dense LAPACK routes
through numpy, none sharing code with the iterative solver, and one call,
``min_norm_lstsq(problem)``, lifts K and picks the route from the factors:

- a certified LU solve (``numpy.linalg.solve``) of the bordered matrix
  B = [[K, 2^e W], [2^e Z^T, 0]] with r >= 0 border columns (B = K when
  r = 0), when B is proven nonsingular.  When both factors have null
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
- otherwise SVD-based least squares on K (``numpy.linalg.lstsq``, LAPACK
  gelsd).

The route is tried in this order: the factor proof, then the border, then
the Gram certificate of B (of K itself when there is no border), then
gelsd.  The factor proof, ``_definite_symmetric_part``, costs O(m^3 + n^3):
when K's symmetric part I (x) S_a + S_c (x) I (S the symmetric part of a
factor) is definite, the field of values gives sigma_min(K) >= |x^T K x| /
||x||^2 >= low, the smallest |eigenvalue| of that symmetric part (Horn &
Johnson, Topics in Matrix Analysis, 1991, sections 1.2 and 4.4).  The
proof holds when low, less a rounding allowance, exceeds 2 tau U with
tau^2 = ``CERTIFICATE_SHIFT`` and U >= ||K||_F, so sigma_min(K)^2 > 4
tau^2 ||K||_F^2.  No K that it proves can be bordered, since a border
needs sigma_min(K) <= ||K Z||_F <= 1e-10 ||K||_F, so trying it first moves
no K from one of the other routes to another.  The border, ``_border``, takes one SVD of each
factor.  The Gram certificate, ``_certified_nonsingular``, completes a
Cholesky factorization of B^T B shifted down by ``CERTIFICATE_SHIFT``
||B||_F^2, at O((mn)^3) cost.  Where the factor proof holds, the Gram
certificate would have completed too: its shifted matrix has smallest
eigenvalue at least 3 tau^2 ||K||_F^2 and diagonal at most ||K||_F^2, far
above the 2e-12 ||K||_F^2 rounding of its product and the mn
gamma_{mn+1} <= 2e-9 relative bound under which Cholesky completes
(Demmel; Higham, Accuracy and Stability of Numerical Algorithms, Thm
10.7).  Either proof takes the same LU solve, so the route and every
output byte are those of the Gram certificate alone.

Its norms are ``tensor._norm``, whose squares neither overflow nor underflow,
both proofs scale their matrices by the power of two of ``tensor._exponent``,
as do the null-space test and the border, and the lift, the solution and the
residual run through ``tensor._checked``.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as tc
from .tensor import DenseTensor

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
    """Kronecker lift K of the Sylvester operator: K vec(psi(X)) = vec(psi(D)) = D.data.

    K = I_n (x) psi(A) + psi(C)^T (x) I_m, written into a zero matrix viewed
    as n x n blocks of m x m: psi(A) on the diagonal blocks, then psi(C)^T
    added onto the diagonals of all blocks.  Its entries are those of the
    two ``np.kron`` products and their sum but for the sign of a zero; the
    only sums are a_kk + c_ll, whose overflow is an ArithmeticError.
    """
    m, n = problem.D.m, problem.D.n
    if m * n > DEFAULT_SIZE_CAP:
        raise SizeCapError(
            f"unfolded system of size {m * n} exceeds the dense cap {DEFAULT_SIZE_CAP}"
        )
    K = np.zeros((m * n, m * n))
    blocks = K.reshape(n, m, n, m)  # blocks[j, :, l, :] is block (j, l)
    blocks[range(n), :, range(n), :] = tc.psi(problem.A)
    diagonals = blocks[:, range(m), :, range(m)]  # [i, j, l] = K[j m + i, l m + i]
    blocks[:, range(m), :, range(m)] = tc._checked("Kronecker lift", np.add, diagonals, tc.psi(problem.C).T)
    return K


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


def _definite_symmetric_part(a, c):
    """True when the factors a = psi(A) and c = psi(C) prove their lift K
    nonsingular, with sigma_min(K) > 2 tau ||K||_F for tau^2 =
    ``CERTIFICATE_SHIFT``, from two symmetric eigenproblems of orders m and n.

    K's symmetric part is I (x) S_a + S_c (x) I with S_a = (a + a^T) / 2 and
    S_c = (c + c^T) / 2, whose eigenvalues are the sums of theirs.  When it
    is definite, |x^T K x| >= low ||x||^2 with low = max(lambda_min(S_a) +
    lambda_min(S_c), -(lambda_max(S_a) + lambda_max(S_c))), so sigma_min(K)
    >= low (module docstring).  From the computed low an allowance is taken
    off for eigvalsh's backward error, (m + n) u (||S_a||_F + ||S_c||_F), and
    for the rounded diagonal sums a_kk + c_ll of K, u max |K_ii|; the rest
    must exceed 2 tau U, with U = sqrt(n) ||a||_F + sqrt(m) ||c||_F >= ||K||_F.
    Both factors are first scaled by one 2^-e, e the larger ``tensor._exponent``
    of the two, so the decision does not depend on the scale of (A, C).
    """
    e = max(tc._exponent(a), tc._exponent(c))
    a, c = np.ldexp(a, -e), np.ldexp(c, -e)
    sym_a, sym_c = 0.5 * (a + a.T), 0.5 * (c + c.T)
    lam_a, lam_c = np.linalg.eigvalsh(sym_a), np.linalg.eigvalsh(sym_c)
    low = max(lam_a[0] + lam_c[0], -(lam_a[-1] + lam_c[-1]))
    m, n = len(a), len(c)
    u = np.finfo(np.float64).eps / 2
    allowance = u * ((m + n) * (np.linalg.norm(sym_a) + np.linalg.norm(sym_c))
                     + np.abs(a.diagonal()).max() + np.abs(c.diagonal()).max())
    bound = np.sqrt(n) * np.linalg.norm(a) + np.sqrt(m) * np.linalg.norm(c)
    return bool(low - allowance > 2.0 * np.sqrt(CERTIFICATE_SHIFT) * bound)


def _border(K, a, c):
    """B = [[K, 2^e W], [2^e Z^T, 0]] for Z = null(c^T) (x) null(a) and W =
    null(c) (x) null(a^T), r orthonormal columns each with K Z ~ 0 and
    K^T W ~ 0, from the factors a = psi(A) and c = psi(C) of K; e is
    ``tensor._exponent(K)``.  A factor's null spaces are the trailing columns
    of V and of U in one SVD, for the singular values at most
    ``DEFAULT_RANK_TOL`` times the largest.  K itself when either factor has
    no null space, or when ||K Z||_F or ||K^T W||_F exceeds ``DEFAULT_RANK_TOL``
    ||K||_F / sqrt(N), the bound that gives sigma_{N-r+1}(K) <= 1e-10
    sigma_1(K), tested on 2^-e K, whose products cannot overflow.  The
    smaller factor goes first, so the larger one is decomposed only when the
    smaller has a null space."""
    swap = len(c) < len(a)
    spaces = []
    for f in (c, a) if swap else (a, c):
        u, s, vt = np.linalg.svd(f)
        k = np.count_nonzero(s > DEFAULT_RANK_TOL * s[0])
        if k == len(s):
            return K
        spaces.append((vt[k:].T, u[:, k:]))
    (a_right, a_left), (c_right, c_left) = spaces[::-1] if swap else spaces
    z, w = np.kron(c_left, a_right), np.kron(c_right, a_left)
    e = tc._exponent(K)
    scaled = np.ldexp(K, -e)
    bound = DEFAULT_RANK_TOL * np.linalg.norm(scaled) / np.sqrt(len(K))
    if max(np.linalg.norm(scaled @ z), np.linalg.norm(scaled.T @ w)) > bound:
        return K
    return np.block([[K, np.ldexp(w, e)], [np.ldexp(z.T, e), np.zeros((z.shape[1],) * 2)]])


def min_norm_lstsq(problem):
    """Minimum-2-norm solution x of min ||K x - D.data|| for the lift K of
    ``problem``; returns (x, residual, rank).

    This is where the route is picked (module docstring).  The factors
    psi(A) and psi(C) are read from the problem: ``_definite_symmetric_part``
    of the factors is tried first and, only when it fails, ``_border``
    borders K into B with r columns (B = K and r = 0 without a border).  A
    B proven by the factors or by ``_certified_nonsingular`` gives x by one
    LU solve of B [x; y] = [D.data; 0], with numerical rank mn - r.  K's own
    certificate is not tried on a bordered K, since it cannot complete when
    sigma_min(K) <= ||K Z||.  Every other K goes to LAPACK's SVD-based least
    squares (gelsd): the numerical rank counts the singular values above
    ``DEFAULT_RANK_TOL`` times the largest, and the smaller ones are treated
    as zero.  An overflowed solution or residual is an ArithmeticError
    naming it.
    """
    K, rhs = unfold_system(problem), problem.D.data
    a, c = tc.psi(problem.A), tc.psi(problem.C)
    n = len(K)
    proven = _definite_symmetric_part(a, c)
    system = K if proven else _border(K, a, c)
    if proven or _certified_nonsingular(system):
        r = len(system) - n
        x, rank = np.linalg.solve(system, np.concatenate((rhs, np.zeros(r))))[:n], n - r
    else:
        x, _, rank, _ = np.linalg.lstsq(K, rhs, rcond=DEFAULT_RANK_TOL)
    x = tc._checked("least-squares solution", np.asarray, x)
    return x, tc._norm(tc._checked("least-squares residual", lambda: K @ x - rhs)), int(rank)


def oracle_solve(problem):
    """Consistency verdict and min-norm solution from the dense unfolding."""
    D = problem.D
    x, residual, rank = min_norm_lstsq(problem)
    tol = DEFAULT_RANK_TOL * tc._norm(D.data) * D.m * D.n
    solution = DenseTensor(D.row_extents, D.col_extents, x)
    return OracleResult(residual <= tol, solution, residual, rank)
