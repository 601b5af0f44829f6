"""Independent ground truth via unfolding to a single dense linear system.

The tensor equation A *_M X + X *_N C = D unfolds through psi to the
matrix Sylvester equation psi(A) Xm + Xm psi(C) = psi(D), whose Kronecker
lift is K x = d with K = I_n (x) psi(A) + psi(C)^T (x) I_m and d the
column-major vectorization of psi(D), which is ``D.data`` itself.  Its
minimum-norm least-squares solution takes one of three routes through
numpy, none sharing code with the iterative solver, and one call,
``min_norm_lstsq(problem)``, picks the route from one spectrum of the
factors (below):

- the spectral route, tried first, which needs no lift, for factors that
  are both symmetric up to rounding;
- an LU solve (``numpy.linalg.solve``) of K x = d, with rank mn, when the
  factor proof shows K nonsingular;
- otherwise SVD-based least squares on K (``numpy.linalg.lstsq``, LAPACK
  gelsd).

One spectrum.  ``_spectrum`` scales psi(A) and psi(C) by one power of two,
runs the symmetry test and decomposes the symmetric part S of each factor
once, by ``eigh`` for a symmetric pair, whose bases the spectral route
needs, and by ``eigvalsh`` otherwise, at O(m^3 + n^3).  Both routes read
the eigenvalue sums lambda_i(S_a) + mu_j(S_c) and their rounding allowance
from it: the eigensolver's error, (m + n) u (||S_a||_F + ||S_c||_F), and
the rounding of K's diagonal sums a_kk + c_ll, u max |K_ii|.

The spectral route.  For symmetric psi(A) = Q Lambda Q^T and psi(C) = P M
P^T, K = (P (x) Q)(I (x) Lambda + M (x) I)(P (x) Q)^T, so K's singular
values are the |lambda_i + mu_j|, and the min-norm solution is X = Q Y P^T
with Y_ij = (Q^T psi(D) P)_ij / (lambda_i + mu_j) where |lambda_i + mu_j|
exceeds gelsd's cut, ``DEFAULT_RANK_TOL`` times the largest, and Y_ij = 0
elsewhere; the rank is the number of sums kept (Golub, Nash & Van Loan,
IEEE Trans. Autom. Control 24(6), 1979; Simoncini, SIAM Review 58(3), 2016,
section 4).  The size cap ``DEFAULT_SIZE_CAP``, a cap on the lift, binds
only the dense routes.  The route is taken when ||f - f^T||_F <=
``SYMMETRY_TOL`` u ||f||_F for both factors f, u the unit roundoff, and
solves with their symmetric parts.  Dropping the skew parts moves K by E = I (x) skew(psi(A))
+ skew(psi(C))^T (x) I, with ||E||_F <= 8 u U for U = sqrt(n) ||psi(A)||_F +
sqrt(m) ||psi(C)||_F.  As ||K||_F^2 = n ||psi(A)||_F^2 + m ||psi(C)||_F^2 + 2
tr psi(A) tr psi(C), that is at most 8 sqrt(2) u ||K||_F when the traces do
not cancel, as for semidefinite pairs: far inside gelsd's own backward
error, a gamma_{cN^2} multiple of ||K||_F for Householder-based least
squares (Higham, Accuracy and Stability of Numerical Algorithms, Thm 20.3),
and of the order of the ``eigh`` backward error the route pays anyway.
SYMMETRY_TOL = 16 admits the factors built as Q diag(d) Q^T, which read
0.5-1.1 u at orders 9-16 and 2.2 u at order 1024, and refuses I + G, G a
scaled Gaussian, which reads 0.4-0.7 (not times u), by 14 decades.  A sum
whose distance from the cut is below its allowance plus ||skew(psi(A))||_F
+ ||skew(psi(C))||_F, which bounds how far K's singular values lie from the
sums, could be counted otherwise by gelsd, so it sends the problem to the
dense routes.

The factor proof.  K's symmetric part H = I (x) S_a + S_c (x) I has the
sums as its eigenvalues.  Let low be the smallest sum, or minus the
largest, less the allowance.  Then |x^T K x| = |x^T H x| >= low ||x||^2, so
sigma_min(K) >= low (Horn & Johnson, Topics in Matrix Analysis, 1991,
sections 1.2 and 4.4).  The proof holds when low exceeds t U, t =
``FACTOR_PROOF_TOL`` and U >= ||K||_F, so that sigma_min(K) > t ||K||_F >= t
sigma_1(K).  At t = 2e-4 that is six decades above gelsd's cut,
``DEFAULT_RANK_TOL`` sigma_1(K), and gelsd's backward error, a
gamma_{cN^2} multiple of ||K||_F (Higham, Thm 20.3), moves sigma_min(K) by
far less than t ||K||_F up to the size cap: gelsd would count rank mn, and
the min-norm solution is K^-1 d, which one LU solve gives (Golub & Van
Loan, Matrix Computations, 4th ed., section 5.5).  A symmetric pair that
the spectral route sends on has its sums from ``eigh``, not ``eigvalsh``,
and never passes the proof: a sum s within its allowance plus the skew
term of the cut puts low below |s| less the allowance, so below the cut
plus ||skew(psi(A))||_F + ||skew(psi(C))||_F <= (1e-10 + 8 u) U, far below t
U, as the cut is at most 1e-10 (||S_a||_2 + ||S_c||_2) <= 1e-10 U.

The verdict.  ``oracle_solve`` calls the problem consistent when the
normwise backward error of its own x, eta = ||r|| / ((||psi(A)||_F +
||psi(C)||_F) ||x|| + ||D||), r = K x - d, is at most tau =
``DEFAULT_RANK_TOL``.  eta <= tau says that x solves exactly a system
(K + dK) x = d + dd with ||dK||_2 <= tau (||psi(A)||_F + ||psi(C)||_F),
which is at least tau ||K||_2, and ||dd|| <= tau ||D|| (Rigal & Gaches,
J. ACM 14(3), 1967; Higham, Thm 7.1).  tau is the relative resolution at
which the rank is already decided: gelsd, and the spectral route, treat
the singular values below tau sigma_1(K) as zero, a change of K by up to
tau ||K||_2, and the verdict allows x the same relative change of K and
of D.  The rounding of r adds at most gamma_{m+n+1} ((||psi(A)||_F +
||psi(C)||_F) ||x|| + ||D||) to ||r|| (Higham, section 3.5), far below
tau for m + n below 10^5.  eta is exactly covariant under D -> s D and
(A, C, D) -> s (A, C, D), and no factor of the size m n enters it.

Its norms are ``tensor._norm``, whose squares neither overflow nor underflow,
``_spectrum`` scales the factors by the power of two of ``tensor._exponent``
of their entries together, and the lift, the solution and the residual run
through ``tensor._checked``.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as tc
from .tensor import DenseTensor

DEFAULT_SIZE_CAP = 4096
DEFAULT_RANK_TOL = 1.0e-10
# t of the factor proof: low > t U proves sigma_min(K) > t sigma_1(K) (module docstring).
FACTOR_PROOF_TOL = 2.0e-4
# c of the spectral route's symmetry test ||f - f^T||_F <= c u ||f||_F (module docstring).
SYMMETRY_TOL = 16


class SizeCapError(ValueError):
    """Unfolded system larger than the dense routes' cap, DEFAULT_SIZE_CAP
    unknowns; the spectral route has no cap."""


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


def _spectrum(a, c):
    """(sums, keep, bases, bound, f), the one spectrum of a = psi(A) and c =
    psi(C) that both routes read (module docstring).  a and c are scaled by
    2^-f, f the ``tensor._exponent`` of their entries together, so that
    nothing here depends on the scale of (A, C) and the larger factor keeps
    an entry of at least 1/2, even next to a zero one.  keep marks the sums
    above the cut.  bases is (Q, P) for the spectral route, or None when the
    pair is not symmetric or a sum lies within its allowance plus the skew
    term of the cut.  bound is low / U, which proves sigma_min(K) > 2e-4
    sigma_1(K) when it exceeds ``FACTOR_PROOF_TOL``."""
    f = tc._exponent(np.concatenate((a, c), axis=None))
    a, c = np.ldexp(a, -f), np.ldexp(c, -f)
    sym_a, sym_c = 0.5 * (a + a.T), 0.5 * (c + c.T)
    norms, skew = (np.linalg.norm(a), np.linalg.norm(c)), (np.linalg.norm(a - a.T), np.linalg.norm(c - c.T))
    u = np.finfo(np.float64).eps / 2
    symmetric = all(s <= SYMMETRY_TOL * u * g for s, g in zip(skew, norms))
    (lam, q), (mu, p) = (np.linalg.eigh(s) if symmetric else (np.linalg.eigvalsh(s), None) for s in (sym_a, sym_c))
    sums = np.add.outer(lam, mu)
    cut = DEFAULT_RANK_TOL * np.abs(sums).max()
    allowance = u * ((len(a) + len(c)) * (np.linalg.norm(sym_a) + np.linalg.norm(sym_c))
                     + np.abs(a.diagonal()).max() + np.abs(c.diagonal()).max())
    near = (np.abs(np.abs(sums) - cut) < allowance + 0.5 * sum(skew)).any()
    low = max(sums.min(), -sums.max()) - allowance
    U = np.sqrt(len(c)) * norms[0] + np.sqrt(len(a)) * norms[1]  # 0 only when K = 0, whose bound is 0
    bases = (q, p) if symmetric and not near else None
    return sums, np.abs(sums) > cut, bases, low / U if U else 0.0, f


def min_norm_lstsq(problem):
    """Minimum-2-norm solution x of min ||K x - D.data|| for the lift K of
    ``problem``; returns (x, residual, rank).

    This is where the route is picked (module docstring), from one
    ``_spectrum`` of the factors psi(A) and psi(C), read from the problem:
    one scaling and one eigendecomposition per factor serve every route.
    When both are symmetric up to rounding and no eigenvalue sum lies too
    close to the cut, the spectral route gives X = Q Y P^T and its rank, the
    number of sums kept, with no lift, at any size; D is scaled by 2^-e, e =
    ``tensor._exponent(D)``, like the factors, so that only an X beyond the
    double range overflows.  Its residual is ||psi(A) X + X psi(C) -
    psi(D)||.  Every other problem is lifted to K, which ``unfold_system``
    refuses above the size cap.  A K whose factor bound exceeds
    ``FACTOR_PROOF_TOL`` gives x by one LU solve of K x = D.data, with rank
    mn; a symmetric pair sent on by the spectral route never does.  Every
    other K goes to LAPACK's SVD-based least squares (gelsd): the numerical
    rank counts the singular values above ``DEFAULT_RANK_TOL`` times the
    largest, and the smaller ones are treated as zero.  An overflowed
    solution or residual is an ArithmeticError naming it.
    """
    a, c, d = tc.psi(problem.A), tc.psi(problem.C), tc.psi(problem.D)
    sums, keep, bases, bound, f = _spectrum(a, c)
    if bases is not None:
        (q, p), e = bases, tc._exponent(d)
        x = tc._checked("least-squares solution", lambda: np.ldexp(
            q @ np.divide(q.T @ np.ldexp(d, -e) @ p, sums, out=np.zeros_like(sums), where=keep) @ p.T, e - f))
        residual = tc._checked("least-squares residual", lambda: a @ x + x @ c - d)
        return x.ravel(order="F"), tc._norm(residual), int(np.count_nonzero(keep))
    K, rhs = unfold_system(problem), problem.D.data
    if bound > FACTOR_PROOF_TOL:
        x, rank = np.linalg.solve(K, rhs), len(K)
    else:
        x, _, rank, _ = np.linalg.lstsq(K, rhs, rcond=DEFAULT_RANK_TOL)
    x = tc._checked("least-squares solution", np.asarray, x)
    return x, tc._norm(tc._checked("least-squares residual", lambda: K @ x - rhs)), int(rank)


def oracle_solve(problem):
    """Min-norm solution from ``min_norm_lstsq``, called consistent when its
    normwise backward error is at most ``DEFAULT_RANK_TOL`` (module docstring)."""
    A, C, D = problem.A, problem.C, problem.D
    x, residual, rank = min_norm_lstsq(problem)
    scale = (tc._norm(A.data) + tc._norm(C.data)) * tc._norm(x) + tc._norm(D.data)
    solution = DenseTensor(D.row_extents, D.col_extents, x)
    return OracleResult(residual <= DEFAULT_RANK_TOL * scale, solution, residual, rank)
