"""Seeded random problem instances: consistent ones built from a random X,
inconsistent ones planted, with a returned witness."""

from math import prod

import numpy as np

from . import tensor as tc
from .solver import SylvesterProblem, apply_operator


def _uniform_tensor(rng, row_extents, col_extents):
    size = prod(row_extents) * prod(col_extents)
    return tc.DenseTensor(row_extents, col_extents, rng.uniform(-1.0, 1.0, size))


def random_consistent(rng, row_extents, col_extents, shift=0.0):
    """Problem with D built from a random X; returns (problem, x_built).

    ``x_built`` witnesses consistency but is generally not the min-norm
    solution unless the operator is nonsingular.  A nonzero ``shift`` adds
    that multiple of the identity to both operators, which moves every
    eigenvalue lambda_i + mu_j of the unfolded system by 2 ``shift``.  It
    does not make the system well conditioned at every size: with shift 4
    at (8, 8) x (8, 8), seed 1, psi(A) still has an eigenvalue with
    negative real part, and the default solve stops at its iteration limit.
    Raw uniform operators can need far more iterations than the dimension
    bound suggests.
    """
    row_extents = tc._check_extents(row_extents, "row extents")
    col_extents = tc._check_extents(col_extents, "col extents")
    a = _uniform_tensor(rng, row_extents, row_extents)
    c = _uniform_tensor(rng, col_extents, col_extents)
    if shift:
        a = tc.add(a, tc.scale(shift, tc.identity(row_extents)))
        c = tc.add(c, tc.scale(shift, tc.identity(col_extents)))
    x = _uniform_tensor(rng, row_extents, col_extents)
    d = apply_operator(a, c, x)
    return SylvesterProblem(a, c, d), x


def _rank_deficient_square(rng, extents):
    """``(T, v)``: psi(T) = M - v (v^T M) for a uniform square M and a unit
    vector v, so v spans the left null space of psi(T).  For size 1 psi(T)
    is the 1 x 1 zero."""
    size = prod(extents)
    m = rng.uniform(-1.0, 1.0, (size, size))
    v = rng.uniform(-1.0, 1.0, size)
    v /= tc._norm(v)
    return tc.psi_inverse(m - np.outer(v, v @ m), extents, extents), v


def random_inconsistent(rng, row_extents, col_extents):
    """Singular operator and a right-hand side off its range; returns
    (problem, witness).

    psi(A)^T u = 0 and psi(C) w = 0, so the unit-norm witness Y = u w^T has
    L*(Y) = A^T *_M Y + Y *_N C^T = 0.  D = L(X) + max(1, ||L(X)||) Y for a
    random X, so <D, Y> = max(1, ||L(X)||) while <L(Z), Y> = <Z, L*(Y)> = 0
    for every Z: no Z solves L(Z) = D (the Fredholm alternative), at any size.
    """
    row_extents = tc._check_extents(row_extents, "row extents")
    col_extents = tc._check_extents(col_extents, "col extents")
    a, u = _rank_deficient_square(rng, row_extents)
    c_t, w = _rank_deficient_square(rng, col_extents)
    c = tc.transpose(c_t)
    d = apply_operator(a, c, _uniform_tensor(rng, row_extents, col_extents))
    y = tc.psi_inverse(np.outer(u, w), row_extents, col_extents)
    d = tc.add(d, tc.scale(max(1.0, tc.fro_norm(d)), y))
    return SylvesterProblem(a, c, d), y
