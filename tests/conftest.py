"""Shared helpers: independent contraction oracles, a replay of the solver
loop, and instance builders.

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
    DIVERGENCE_FACTOR,
    SolveOptions,
    Status,
    SylvesterProblem,
    apply_adjoint,
    apply_operator,
)


def loop_einstein_product(a, b, num_contracted):
    """Entrywise-definition Einstein product, independent of the library kernel."""
    A = tc.to_array(a)
    B = tc.to_array(b)
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
    X = tc.zeros_like(D)
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
        if p_norm <= opts.epsilon_p * max(1.0, p_first * (res / res_first)):
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


def random_tensor(rng, row_extents, col_extents):
    size = prod(row_extents) * prod(col_extents)
    return tc.DenseTensor(tuple(row_extents), tuple(col_extents), rng.uniform(-1.0, 1.0, size))


def singular_consistent(rng, row_extents, col_extents):
    """Consistent problem on rank-deficient A and C, with D = L(witness).

    Draws A, C and then the witness from ``rng``; returns (problem, witness).
    """
    a = _rank_deficient_square(rng, row_extents)
    c = _rank_deficient_square(rng, col_extents)
    witness = random_tensor(rng, row_extents, col_extents)
    return SylvesterProblem(a, c, apply_operator(a, c, witness)), witness


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
