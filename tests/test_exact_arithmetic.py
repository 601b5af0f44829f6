"""Exact-arithmetic ground truth for the finite-termination claim and for
every verdict.

The paper's claims hold in exact arithmetic, where every float check is only
an approximation.  ``exact_shadow`` runs ``solve``'s own recurrences over the
integers mod the prime p = 2^61 - 1 on integer A, C and D.  The map from the
rationals to GF(p) is a ring homomorphism, so unless p divides a numerator or
denominator the rational run meets (about 1/p per check; the shadow raises
where it can see it), the mod-p run stops at the same step as the rational
one and in the same way: R = 0 on a consistent equation, or P = 0 with
R != 0 on an inconsistent one.  Gaussian elimination mod p gives the exact
consistency verdict, with no tolerance.  The exact step counts depend on no
BLAS kernel, unlike the float iteration counts pinned in test_solver.py.
"""

import pytest

from tensyl import tensor as tc
from tensyl.oracle import oracle_solve
from tensyl.reference_problems import load_nearness_problem, load_reference_problem
from tensyl.solver import Status, SylvesterProblem, apply_operator, solve_min_norm

from conftest import exact_ranks, exact_shadow, integer_instance


def _reference(name):
    problem = load_reference_problem().problem
    if name == "min_norm":
        return problem
    # The min-norm solve inside solve_nearness: D - L(X0), integer for integer X0.
    A, C, D = problem.A, problem.C, problem.D
    return SylvesterProblem(A, C, tc.subtract(D, apply_operator(A, C, load_nearness_problem().x0)))


@pytest.mark.parametrize("name", ["min_norm", "nearness"])
def test_reference_problems_terminate_at_step_43(name):
    # The float solver takes 82 and 86 sweeps on SkylakeX, and other counts
    # under other kernels; the exact run stops at 43 on each, within rank K.
    problem = _reference(name)
    rank_k, rank_augmented = exact_ranks(problem)
    assert exact_shadow(problem) == ("R=0", 43)
    assert rank_k == rank_augmented == 63
    assert 43 <= rank_k <= problem.D.m * problem.D.n == 108


# (kind, seed, row extents, col extents, exact stop, rank K)
INTEGER_CASES = [
    ("nonsingular", 0, (4, 3), (3, 3), ("R=0", 108), 108),
    ("nonsingular", 1, (3, 2), (2, 2), ("R=0", 24), 24),
    ("singular", 0, (3, 2), (2, 2), ("R=0", 22), 22),
    ("singular", 1, (2, 2), (3,), ("R=0", 10), 10),
    ("inconsistent", 0, (3, 2), (2, 2), ("P=0", 22), 22),
    ("inconsistent", 1, (2, 2), (3,), ("P=0", 10), 10),
]


@pytest.mark.parametrize(
    "kind, seed, rows, cols, stop, rank", INTEGER_CASES, ids=[f"{k}-{s}" for k, s, *_ in INTEGER_CASES]
)
def test_exact_verdict_matches_solver_and_oracle(kind, seed, rows, cols, stop, rank):
    problem = integer_instance(seed, rows, cols, kind)
    rank_k, rank_augmented = exact_ranks(problem)
    consistent = rank_k == rank_augmented
    assert consistent == (kind != "inconsistent")
    assert exact_shadow(problem) == stop
    assert (stop[0] == "R=0") == consistent
    assert stop[1] <= rank_k == rank <= problem.D.m * problem.D.n

    status = solve_min_norm(problem).status
    assert status == (Status.CONVERGED if consistent else Status.INCONSISTENT)
    assert oracle_solve(problem).consistent == consistent
