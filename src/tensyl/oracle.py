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

The border, ``_border``, comes first and takes one SVD of each factor.
B is then proven nonsingular by one of two proofs, and gelsd takes the
rest.  The factor bound, ``_factor_bound``, costs O(m^3 + n^3), and the
Gram certificate, ``_certified_nonsingular``, tried only when the factor
bound fails, completes a Cholesky factorization of B^T B shifted down by
``CERTIFICATE_SHIFT`` ||B||_F^2, at O((mn)^3) cost.

The factor bound.  K's symmetric part H = I (x) S_a + S_c (x) I (S the
symmetric part of a factor) has the sums lambda_i(S_a) + mu_j(S_c) as its
eigenvalues.  Let low be the (r+1)-th smallest sum, less a rounding
allowance.  On the span of H's eigenvectors for the other N - r sums, N =
mn, x^T K x = x^T H x >= low ||x||^2, so ||K x|| >= low ||x|| there and
Courant-Fischer gives sigma_{N-r}(K) >= low; -K and minus the (r+1)-th
largest sum serve as well (Horn & Johnson, Topics in Matrix Analysis,
1991, sections 1.2 and 4.4).  With r = 0 that is sigma_min(B) >= low.  With
a border of scale s = 2^e, let eps bound ||K Z||_2 and ||K^T W||_2, so
sigma_{N-r+1}(K) <= eps, and let K_0 be K with its r smallest singular
values set to zero, V_1 and U_1 its right and left singular vectors for
the others and V_2 and U_2 its null spaces.  ||K Z|| >= sigma_{N-r}(K)
||V_1^T Z|| gives ||V_1^T Z|| <= q = eps / low, and ||U_1^T W|| <= q
likewise.  Replacing K by K_0, Z by V_2 V_2^T Z and W by U_2 U_2^T W moves
B by at most eps + 2 s q, and leaves a matrix whose singular values are
K_0's nonzero ones, at least low, and s times those of V_2^T Z and U_2^T
W, at least s sqrt(1 - q^2).  So, by Weyl's inequality, sigma_min(B) >=
min(low, s sqrt(1 - q^2)) - eps - 2 s q.  The proof holds when that
exceeds 2 tau sqrt(U^2 + 2 r s^2) >= 2 tau ||B||_F, with tau^2 =
``CERTIFICATE_SHIFT`` and U >= ||K||_F, so sigma_min(B)^2 > 4 tau^2
||B||_F^2.  The Gram certificate
would then have completed too: its shifted matrix has smallest eigenvalue
at least 3 tau^2 ||B||_F^2 and diagonal at most ||B||_F^2, far above the
2e-12 ||B||_F^2 rounding of its product and the (N + r) gamma_{N+r+1} <=
8e-9 relative bound under which Cholesky completes (Demmel; Higham, Accuracy
and Stability of Numerical Algorithms, Thm 10.7).  Either proof takes the
same LU solve, so the route and every output byte are those of the Gram
certificate alone.

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


def _factor_bound(a, c, system):
    """A lower bound on sigma_min(B) / sqrt(U^2 + 2 r s^2), at most
    sigma_min(B) / ||B||_F, from two symmetric eigenproblems of orders m and
    n on the factors a = psi(A) and c = psi(C) of K.  ``system`` is what
    ``_border`` returns: B = [[K, s W], [s Z^T, 0]] with r columns each and
    s = 2^e for e = ``tensor._exponent(K)``, or K itself (r = 0, s = 0).

    K's symmetric part has the sums of the eigenvalues of S_a = (a + a^T) / 2
    and S_c = (c + c^T) / 2 as its own.  low is the (r+1)-th smallest sum or
    minus the (r+1)-th largest, whichever is larger (infinite when r = mn,
    the zero operator), less an allowance for eigvalsh's backward error, (m +
    n) u (||S_a||_F + ||S_c||_F), and for the rounded diagonal sums a_kk +
    c_ll of K, u max |K_ii|, so that sigma_{N-r}(K) >= low (module
    docstring).  U = sqrt(n) ||a||_F + sqrt(m) ||c||_F >= ||K||_F.  Without a
    border the bound is low / U.  With one, eps = ``DEFAULT_RANK_TOL`` U
    bounds ||K Z||_2 and ||K^T W||_2: ``_border`` tested ||K Z||_F <=
    ``DEFAULT_RANK_TOL`` ||K||_F / sqrt(N), and the rounding of that product
    adds at most N^(3/2) u ||K||_F <= 3e-11 ||K||_F.  Then sigma_min(B) >=
    min(low, s sqrt(1 - q^2)) - eps - 2 s q with q = eps / low, or with q = 1,
    a bound below zero, when low <= eps.  Both factors are first scaled by
    one 2^-f, f the ``tensor._exponent`` of their entries together, and s
    with them, so the bound does not depend on the scale of (A, C), and U is
    at least 1/2, even next to a zero factor.
    """
    f = tc._exponent(np.concatenate((a, c), axis=None))
    a, c = np.ldexp(a, -f), np.ldexp(c, -f)
    sym_a, sym_c = 0.5 * (a + a.T), 0.5 * (c + c.T)
    sums = np.sort(np.add.outer(np.linalg.eigvalsh(sym_a), np.linalg.eigvalsh(sym_c)), axis=None)
    m, n = len(a), len(c)
    r = len(system) - m * n
    u = np.finfo(np.float64).eps / 2
    allowance = u * ((m + n) * (np.linalg.norm(sym_a) + np.linalg.norm(sym_c))
                     + np.abs(a.diagonal()).max() + np.abs(c.diagonal()).max())
    low = (max(sums[r], -sums[-1 - r]) if r < m * n else np.inf) - allowance
    bound = np.sqrt(n) * np.linalg.norm(a) + np.sqrt(m) * np.linalg.norm(c)
    s = 0.0
    if r:
        s, eps = np.ldexp(1.0, tc._exponent(system[: m * n, : m * n]) - f), DEFAULT_RANK_TOL * bound
        q = eps / low if low > eps else 1.0
        low = min(low, s * np.sqrt(1.0 - q * q)) - eps - 2.0 * s * q
    return low / np.hypot(bound, np.sqrt(2 * r) * s)


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
    psi(A) and psi(C) are read from the problem, and ``_border`` borders K
    into B with r columns (B = K and r = 0 without a border).  A B proven
    nonsingular by the factors, when ``_factor_bound`` exceeds 2 tau, or
    else by ``_certified_nonsingular``, gives x by one LU solve of B [x; y]
    = [D.data; 0], with numerical rank mn - r.  K's own
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
    system = _border(K, a, c)
    if _factor_bound(a, c, system) > 2.0 * np.sqrt(CERTIFICATE_SHIFT) or _certified_nonsingular(system):
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
