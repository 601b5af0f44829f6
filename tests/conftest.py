"""Shared helpers: independent contraction oracles, a replay of the solver
loop, its exact-arithmetic shadow, and instance builders.

The loop-based contraction here is written against the index definition
directly (explicit sums over every multi-index) and never touches the
library's unfolding-based kernel, so agreement between the two is a real
cross-check rather than a tautology.
"""

import itertools
import json
from math import prod

import numpy as np
import pytest

from tensyl import fileio
from tensyl import tensor as tc
from tensyl.instances import _rank_deficient_square, random_consistent
from tensyl.solver import (
    DIRECTION_TOL,
    DIVERGENCE_FACTOR,
    SolveOptions,
    Status,
    SylvesterProblem,
    apply_adjoint,
    apply_operator,
)


def loop_einstein_product(a, b, num_contracted):
    """Entrywise-definition Einstein product, independent of the library kernel."""
    A = a.data.reshape(a.extents, order="F")
    B = b.data.reshape(b.extents, order="F")
    lead = a.extents[: a.order - num_contracted]
    shared = a.extents[a.order - num_contracted :]
    trail = b.extents[num_contracted:]
    assert shared == b.extents[:num_contracted]
    out = np.zeros(lead + trail if (lead + trail) else (1,))
    for i in itertools.product(*(range(e) for e in lead)):
        for j in itertools.product(*(range(e) for e in trail)):
            acc = 0.0
            for s in itertools.product(*(range(e) for e in shared)):
                acc += A[i + s] * B[s + j]
            out[i + j] = acc
    return tc.DenseTensor(lead, trail, out.ravel(order="F"))


def loop_sylvester_rhs(a, c, x):
    """D = A *_M X + X *_N C via the loop contraction above."""
    m_modes = len(a.row_extents)
    n_modes = len(c.row_extents)
    return tc.add(
        loop_einstein_product(a, x, m_modes),
        loop_einstein_product(x, c, n_modes),
    )


def textbook_solve(problem, opts=None, states=None):
    """The solver's iteration written out on tensors with the public operator pair.

    Every test and update is the one ``solve`` makes, from the zero iterate,
    with the same floating-point operations in the same order, so its
    history and solution equal ``solve_min_norm``'s byte for byte.  Returns
    ``(status, solution, iterations, residual_history)``; when ``states`` is
    a list, ``(X, R, P, ||R||^2)`` is appended to it at the top of every
    iteration, before the update that makes X^(k+1).
    """
    opts = opts or SolveOptions()
    A, C, D = problem.A, problem.C, problem.D
    X = tc.zeros(D.row_extents, D.col_extents)
    R = tc.subtract(D, apply_operator(A, C, X))
    res = tc.fro_norm(R)
    history = [res]
    if res < opts.epsilon:
        return Status.CONVERGED, X, 0, history
    P = apply_adjoint(A, C, R)
    p_first, res_first = tc.fro_norm(P), res
    for k in range(1, opts.k_max + 1):
        p_norm = tc.fro_norm(P)
        if states is not None:
            states.append((X, R, P, res * res))
        if p_norm <= DIRECTION_TOL * max(1.0, p_first * (res / res_first)):
            return Status.INCONSISTENT, X, k - 1, history
        X = tc.add(X, tc.scale(res * res / (p_norm * p_norm), P))
        R = tc.subtract(D, apply_operator(A, C, X))
        res_new = tc.fro_norm(R)
        history.append(res_new)
        if res_new < opts.epsilon:
            return Status.CONVERGED, X, k, history
        if res_new > DIVERGENCE_FACTOR * res_first:
            return Status.INCONSISTENT, X, k, history
        P = tc.add(apply_adjoint(A, C, R), tc.scale(res_new * res_new / (res * res), P))
        res = res_new
    return Status.ITERATION_LIMIT, X, opts.k_max, history


EXACT_PRIME = 2**61 - 1


def _exact_psi(T):
    """psi(T) as Python ints mod EXACT_PRIME in an object array."""
    mat = tc.psi(T)
    assert np.array_equal(mat, np.trunc(mat)), "exact arithmetic needs integer entries"
    return np.vectorize(lambda v: int(v) % EXACT_PRIME, otypes=[object])(mat)


def exact_shadow(problem):
    """``solve``'s recurrences from X = 0 over GF(p), p = EXACT_PRIME, on
    integer A, C and D; returns ``(kind, step)``.

    ``kind`` is "R=0" when the residual vanishes after ``step`` updates of X,
    and "P=0" when the direction vanishes first: the exact inconsistency
    certificate.  R and P are tested entry by entry, since a sum of squares
    can vanish mod p on a nonzero vector; if one does, p divides a number the
    rational run meets, so this run need not mirror it and it raises.
    """
    p = EXACT_PRIME
    a, c, d = (_exact_psi(T) for T in (problem.A, problem.C, problem.D))

    def square(v):
        s = int((v * v).sum()) % p
        if s == 0:
            raise ArithmeticError(f"<v, v> = 0 mod {p} on a nonzero vector: unlucky prime")
        return s

    x = np.zeros(d.shape, dtype=object)
    r = (d - a @ x - x @ c) % p
    if not any(r.flat):
        return "R=0", 0
    direction = (a.T @ r + r @ c.T) % p
    rr = square(r)
    for k in range(1, d.size + 2):
        if not any(direction.flat):
            return "P=0", k - 1
        alpha = rr * pow(square(direction), -1, p) % p
        x = (x + alpha * direction) % p
        r = (d - a @ x - x @ c) % p  # recomputed from its definition, as in solve
        if not any(r.flat):
            return "R=0", k
        rr_new = square(r)
        beta = rr_new * pow(rr, -1, p) % p
        direction = (beta * direction + a.T @ r + r @ c.T) % p
        rr = rr_new
    raise AssertionError(f"no exact stop within m*n + 1 = {d.size + 1} steps")


def exact_ranks(problem):
    """(rank K, rank [K | vec D]) over GF(p), p = EXACT_PRIME, by Gaussian
    elimination on the Kronecker lift K of the integer operator: the equation
    is consistent exactly when the two are equal."""
    p = EXACT_PRIME
    a, c, d = (_exact_psi(T) for T in (problem.A, problem.C, problem.D))
    m, n = d.shape
    eye_m, eye_n = (np.eye(k, dtype=np.int64).astype(object) for k in (m, n))
    K = np.kron(eye_n, a) + np.kron(c.T, eye_m)
    rows = [[v % p for v in row] + [rhs] for row, rhs in zip(K, d.ravel(order="F"))]
    rank = 0
    for col in range(m * n):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = pow(rows[rank][col], -1, p)
        lead = rows[rank] = [v * inverse % p for v in rows[rank]]
        for i in range(rank + 1, len(rows)):
            factor = rows[i][col]
            if factor:
                rows[i] = [(u - factor * v) % p for u, v in zip(rows[i], lead)]
        rank += 1
    return rank, rank + any(row[-1] for row in rows[rank:])


def integer_instance(seed, row_extents, col_extents, kind):
    """Seeded problem with integer entries, of ``kind`` "nonsingular",
    "singular" (consistent) or "inconsistent".

    A nonsingular operator has uniform entries in [-9, 9].  A singular one
    pairs psi(A) = S T S^-1, T upper triangular with the eigenvalue 2 and
    S = I + N with N strictly lower (so S^-1 = sum (-N)^k is integer), with
    an upper triangular psi(C) holding the eigenvalue -2: lambda + mu = 0.
    D = L(X) for an integer X, plus entries in [-1, 1] when inconsistent.
    """
    rng = np.random.default_rng(seed)
    m, n = prod(row_extents), prod(col_extents)
    if kind == "nonsingular":
        a, c = rng.integers(-9, 10, (m, m)), rng.integers(-9, 10, (n, n))
    else:
        t, c = np.triu(rng.integers(-3, 4, (m, m))), np.triu(rng.integers(-3, 4, (n, n)))
        i, j = rng.integers(m), rng.integers(n)
        t[i, i], c[j, j] = 2, -2
        lower = np.tril(rng.integers(-1, 2, (m, m)), -1)
        inverse = sum(np.linalg.matrix_power(-lower, k) for k in range(m))
        a = (np.eye(m, dtype=np.int64) + lower) @ t @ inverse
    x = rng.integers(-9, 10, (m, n))
    d = a @ x + x @ c
    if kind == "inconsistent":
        d = d + rng.integers(-1, 2, (m, n))
    return SylvesterProblem(
        tc.psi_inverse(a.astype(np.float64), row_extents, row_extents),
        tc.psi_inverse(c.astype(np.float64), col_extents, col_extents),
        tc.psi_inverse(d.astype(np.float64), row_extents, col_extents),
    )


def random_tensor(rng, row_extents, col_extents):
    size = prod(row_extents) * prod(col_extents)
    return tc.DenseTensor(tuple(row_extents), tuple(col_extents), rng.uniform(-1.0, 1.0, size))


def singular_consistent(rng, row_extents, col_extents):
    """Consistent problem on rank-deficient A and C, with D = L(witness).

    Draws A, C and then the witness from ``rng``; returns (problem, witness).
    """
    a, _ = _rank_deficient_square(rng, row_extents)
    c, _ = _rank_deficient_square(rng, col_extents)
    witness = random_tensor(rng, row_extents, col_extents)
    return SylvesterProblem(a, c, apply_operator(a, c, witness)), witness


def scaled_problem(problem, k):
    """The problem with A, C and D all multiplied by 2^k, exactly while no entry leaves the normal range."""
    return SylvesterProblem(*(
        tc.DenseTensor(t.row_extents, t.col_extents, np.ldexp(t.data, k)) for t in (problem.A, problem.C, problem.D)
    ))


def write_with_bad_entry(path, problem, token):
    """A problem file whose D has the JSON number ``token`` as its second entry."""
    fileio.write_problem(path, problem)
    obj = json.loads(path.read_text())
    obj["D"]["data"][1] = "@bad@"
    path.write_text(json.dumps(obj).replace('"@bad@"', token))


def scaled_consistent(seed, row_extents, col_extents, factor=1.0, shift=2.0):
    """Well-conditioned seeded instance with D (and the witness X) scaled.

    Scaling the right-hand side down relative to the absolute stopping
    tolerance shortens the residual decay range the iteration traverses,
    which keeps the floating-point drift of the conjugacy relations small.
    """
    rng = np.random.default_rng(seed)
    problem, x_built = random_consistent(rng, row_extents, col_extents, shift=shift)
    if factor != 1.0:
        problem = SylvesterProblem(problem.A, problem.C, tc.scale(factor, problem.D))
        x_built = tc.scale(factor, x_built)
    return problem, x_built


SMALL_SHAPES = [
    ((2, 2), (2, 3)),
    ((3,), (2, 2)),
    ((2, 2), (3,)),
    ((3, 2), (2, 2)),
    ((2,), (3,)),
    ((4, 3), (3,)),
]


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
