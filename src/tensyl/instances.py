"""Seeded random problem instances, oracle-certified at generation time."""

from math import prod

import numpy as np

from . import tensor as tc
from .oracle import min_norm_lstsq, oracle_solve, unfold_system
from .solver import SylvesterProblem, apply_operator


class GenerationError(RuntimeError):
    """Could not certify an instance of the requested kind."""


def _uniform_tensor(rng, row_extents, col_extents):
    size = prod(row_extents) * prod(col_extents)
    return tc.DenseTensor(row_extents, col_extents, rng.uniform(-1.0, 1.0, size))


def random_consistent(rng, row_extents, col_extents, shift=0.0):
    """Problem with D built from a random X; returns (problem, x_built).

    ``x_built`` witnesses consistency but is generally not the min-norm
    solution unless the operator is nonsingular.  A positive ``shift`` adds
    that multiple of the identity to both operators, which keeps the
    unfolded system well conditioned (raw uniform operators can need far
    more iterations than the dimension bound suggests).
    """
    row_extents = tuple(row_extents)
    col_extents = tuple(col_extents)
    a = _uniform_tensor(rng, row_extents, row_extents)
    c = _uniform_tensor(rng, col_extents, col_extents)
    if shift:
        a = tc.add(a, tc.scale(shift, tc.identity(row_extents)))
        c = tc.add(c, tc.scale(shift, tc.identity(col_extents)))
    x = _uniform_tensor(rng, row_extents, col_extents)
    d = apply_operator(a, c, x)
    return SylvesterProblem(a, c, d), x


def _rank_deficient_square(rng, extents):
    # Product of thin uniform factors: singular, hence eigenvalue zero.
    extents = tuple(extents)
    size = prod(extents)
    r = max(1, size - 1)
    left = rng.uniform(-1.0, 1.0, (size, r))
    right = rng.uniform(-1.0, 1.0, (r, size))
    return tc.psi_inverse(left @ right, extents, extents)


def random_inconsistent(rng, row_extents, col_extents, max_tries=20):
    """Rank-deficient operator plus a right-hand side outside its range.

    The perturbation is the least-squares residual of a random probe, i.e.
    a component in the orthogonal complement of the operator's range;
    every emitted instance is certified inconsistent by the dense oracle.
    """
    row_extents = tuple(row_extents)
    col_extents = tuple(col_extents)
    for _ in range(max_tries):
        a = _rank_deficient_square(rng, row_extents)
        c = _rank_deficient_square(rng, col_extents)
        x = _uniform_tensor(rng, row_extents, col_extents)
        d0 = apply_operator(a, c, x)
        base = SylvesterProblem(a, c, d0)
        system = unfold_system(base)
        probe = rng.uniform(-1.0, 1.0, system.m * system.n)
        fit, _, _ = min_norm_lstsq(system.K, probe)
        leftover = probe - system.K @ fit
        norm = np.linalg.norm(leftover)
        if norm < 1.0e-8:
            continue
        scale = max(1.0, np.linalg.norm(system.rhs)) / norm
        bad = system.rhs + scale * leftover
        problem = SylvesterProblem(a, c, tc.psi_inverse(bad, row_extents, col_extents))
        if not oracle_solve(problem).consistent:
            return problem
    raise GenerationError(
        f"no certified inconsistent instance after {max_tries} tries"
    )
