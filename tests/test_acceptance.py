"""Acceptance gate: every headline claim of the package, run end to end.

Each test prints a ``PASS``/``FAIL`` line naming the criterion so the gate
reads as a checklist under ``pytest -v -s``.  Criteria:

1. Reference problem reproduction (residual, iteration band, printed entries).
2. Nearness problem reproduction (iteration band, printed entries, distance).
3. Oracle equivalence on 25 consistent + 25 certified-inconsistent instances.
4. Finite termination within m*n + 5 iterations on consistent instances.
5. Orthogonality of the residual and direction sequences.
6. Descent identity <X~ - X^(k), P^(k)> = ||R^(k)||^2 at every iteration.
7. Algebraic identity suites, 200 randomized cases each.
8. Least-norm dominance and row-space membership of the min-norm solution.

The nearness distance is checked in its own test, against 603.3520 rather
than the published figure 640.2422.  The source prints both X0 and the
nearness solution X-hat; from those two blocks alone ||X-hat - X0||_F =
603.3520, and the solver matches every printed entry of X-hat to 5e-4.  The
published 640.2422 contradicts the source's own blocks, so no solver that
reproduces them can meet it.  The check therefore uses the distance the
printed blocks imply, with the same 1e-3 band (4-decimal rounding of the
blocks moves that figure by at most sqrt(108) * 5e-5 ~ 5.2e-4), and reports
the published figure beside it.
"""

import itertools
import time
from math import prod

import numpy as np
import pytest

from tensyl import (
    SolveOptions,
    Status,
    fro_norm,
    inner,
    kron,
    oracle_solve,
    psi,
    psi_inverse,
    solve,
    solve_min_norm,
    solve_nearness,
    subtract,
    trace,
    transpose,
    vec,
)
from tensyl import tensor as tc
from tensyl.instances import (
    _rank_deficient_square,
    _uniform_tensor,
    random_consistent,
    random_inconsistent,
)
from tensyl.oracle import row_space_projection, unfold_system
from tensyl.reference_problems import (
    NEARNESS_DISTANCE,
    load_nearness_problem,
    load_reference_problem,
    min_norm_reference,
    nearness_reference,
    nearness_reference_distance,
)
from tensyl.solver import SylvesterProblem, apply_operator

from conftest import SMALL_SHAPES, loop_einstein_product, random_tensor, scaled_consistent


def _report(name, ok, detail=""):
    tail = f"  ({detail})" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'}: {name}{tail}")
    return ok


@pytest.fixture(scope="module", autouse=True)
def warm_kernel():
    # Warm numpy and BLAS with one small solve before any timed run.
    problem, _ = scaled_consistent(0, (2,), (2,))
    solve_min_norm(problem)


# ---------------------------------------------------------------- criterion 1


def test_reference_problem_reproduction():
    loaded = load_reference_problem()
    start = time.perf_counter()
    outcome = solve_min_norm(loaded.problem)
    elapsed = time.perf_counter() - start
    reference = min_norm_reference()
    max_dev = float(np.max(np.abs(outcome.solution.data - reference.data)))
    checks = [
        ("reference problem: converged", outcome.status == Status.CONVERGED, outcome.status.value),
        ("reference problem: final residual < 1e-10", outcome.final_residual < 1.0e-10,
         f"{outcome.final_residual:.3e}"),
        ("reference problem: iterations within 86 +/- 15", 71 <= outcome.iterations <= 101,
         f"{outcome.iterations}"),
        ("reference problem: printed entries matched to 5e-4", max_dev <= 5.0e-4,
         f"max deviation {max_dev:.3e}"),
        ("reference problem: runtime < 1 s", elapsed < 1.0, f"{elapsed:.3f} s"),
    ]
    ok = all(_report(name, good, detail) for name, good, detail in checks)
    assert ok


# ---------------------------------------------------------------- criterion 2


def test_nearness_problem_reproduction():
    loaded = load_nearness_problem()
    start = time.perf_counter()
    x_hat, distance, outcome = solve_nearness(loaded.problem, loaded.x0)
    elapsed = time.perf_counter() - start
    reference = nearness_reference()
    max_dev = float(np.max(np.abs(x_hat.data - reference.data)))
    checks = [
        ("nearness problem: converged", outcome.status == Status.CONVERGED, outcome.status.value),
        ("nearness problem: iterations within 79 +/- 15", 64 <= outcome.iterations <= 94,
         f"{outcome.iterations}"),
        ("nearness problem: printed entries matched to 5e-4", max_dev <= 5.0e-4,
         f"max deviation {max_dev:.3e}"),
        ("nearness problem: runtime < 1 s", elapsed < 1.0, f"{elapsed:.3f} s"),
    ]
    ok = all(_report(name, good, detail) for name, good, detail in checks)
    assert ok


def test_nearness_published_distance_band():
    """Distance implied by the published X-hat and X0 blocks, +/- 1e-3.

    The published figure 640.2422 contradicts those blocks (they imply
    603.3520), so the expected value is computed from the transcribed
    slices; the published figure is only reported alongside.
    """
    loaded = load_nearness_problem()
    _, distance, _ = solve_nearness(loaded.problem, loaded.x0)
    implied = nearness_reference_distance()
    ok = abs(distance - implied) <= 1.0e-3
    _report(
        f"nearness problem: distance {implied:.4f} +/- 1e-3 (implied by the printed blocks)",
        ok,
        f"got {distance:.4f}; published figure {NEARNESS_DISTANCE}",
    )
    assert ok


# ----------------------------------------------------------- criteria 3 and 4


def _consistent_suite():
    problems = []
    for seed in range(25):
        row, col = SMALL_SHAPES[seed % len(SMALL_SHAPES)]
        rng = np.random.default_rng(seed)
        problem, _ = random_consistent(rng, row, col, shift=2.0)
        assert problem.D.m * problem.D.n <= 120
        problems.append(problem)
    return problems


def test_oracle_equivalence_and_verdicts():
    start = time.perf_counter()
    worst = 0.0
    verdicts_ok = True
    for problem in _consistent_suite():
        outcome = solve_min_norm(problem)
        result = oracle_solve(problem)
        verdicts_ok &= outcome.status == Status.CONVERGED and result.consistent
        worst = max(worst, fro_norm(subtract(outcome.solution, result.min_norm_solution)))
    inconsistent_ok = True
    for seed in range(25):
        row, col = SMALL_SHAPES[seed % len(SMALL_SHAPES)]
        rng = np.random.default_rng(1000 + seed)
        problem = random_inconsistent(rng, row, col)
        outcome = solve_min_norm(problem)
        result = oracle_solve(problem)
        inconsistent_ok &= outcome.status == Status.INCONSISTENT and not result.consistent
    elapsed = time.perf_counter() - start
    checks = [
        ("oracle equivalence: min-norm solutions within 1e-8", worst <= 1.0e-8,
         f"worst {worst:.3e}"),
        ("oracle equivalence: 25/25 consistent verdicts agree", verdicts_ok, ""),
        ("oracle equivalence: 25/25 inconsistent verdicts agree", inconsistent_ok, ""),
        ("oracle equivalence: runtime < 30 s", elapsed < 30.0, f"{elapsed:.1f} s"),
    ]
    ok = all(_report(name, good, detail) for name, good, detail in checks)
    assert ok


def test_finite_termination_bound():
    worst_excess = -10**9
    ok = True
    for problem in _consistent_suite():
        outcome = solve_min_norm(problem, SolveOptions(epsilon=1.0e-10))
        bound = problem.D.m * problem.D.n + 5
        worst_excess = max(worst_excess, outcome.iterations - bound)
        ok &= outcome.status == Status.CONVERGED and outcome.iterations <= bound
    _report(
        "finite termination: iterations <= m*n + 5 on all 25 instances",
        ok,
        f"worst margin {worst_excess} past the bound",
    )
    assert ok


# ----------------------------------------------------------- criteria 5 and 6


def _traced_instances():
    """Ten seeded instances with recorded per-iteration solver states.

    The right-hand sides are scaled down so the absolute residual tolerance
    is reached after a short decay range, and a diagonal shift keeps the
    operators well conditioned; conjugacy relations drift in proportion to
    the traversed residual ratio, so this keeps the recorded sequences
    within the floating-point budget of the checks.
    """
    runs = []
    for seed in range(10):
        row, col = SMALL_SHAPES[seed % len(SMALL_SHAPES)]
        problem, x_true = scaled_consistent(seed, row, col, factor=1.0e-6, shift=4.0)
        states = []
        outcome = solve_min_norm(problem, trace_cb=states.append)
        assert outcome.status == Status.CONVERGED
        limit = min(problem.D.m * problem.D.n, 30)
        runs.append((problem, x_true, states[:limit]))
    return runs


def test_orthogonality_of_residuals_and_directions():
    worst = 0.0
    for _, _, states in _traced_instances():
        for a, b in itertools.combinations(states, 2):
            worst = max(
                worst,
                abs(inner(a.R, b.R)) / (fro_norm(a.R) * fro_norm(b.R)),
                abs(inner(a.P, b.P)) / (fro_norm(a.P) * fro_norm(b.P)),
            )
    ok = worst <= 1.0e-8
    _report(
        "orthogonality: pairwise normalized residual/direction inner products <= 1e-8",
        ok,
        f"worst {worst:.3e}",
    )
    assert ok


def test_descent_identity_every_iteration():
    worst = 0.0
    for _, x_true, states in _traced_instances():
        for state in states:
            err = abs(inner(subtract(x_true, state.X), state.P) - state.r_norm_sq)
            worst = max(worst, err / state.r_norm_sq)
    ok = worst <= 1.0e-8
    _report(
        "descent identity: <X~ - X^(k), P^(k)> = ||R^(k)||^2 within 1e-8 relative",
        ok,
        f"worst {worst:.3e}",
    )
    assert ok


# ---------------------------------------------------------------- criterion 7

_CASES = 200


def _rand_extents(rng, max_modes=2, max_extent=3):
    return tuple(int(rng.integers(1, max_extent + 1)) for _ in range(rng.integers(1, max_modes + 1)))


def _rel_err(got, want):
    scale = max(1.0, fro_norm(want))
    return fro_norm(subtract(got, want)) / scale


def _rel_err_scalar(got, want):
    return abs(got - want) / max(1.0, abs(want))


def test_algebraic_identity_suites():
    rng = np.random.default_rng(777)
    worst = {
        "trace linearity": 0.0,
        "trace cyclicity": 0.0,
        "transpose additivity": 0.0,
        "kron associativity": 0.0,
        "kron mixed product": 0.0,
        "vec of triple product": 0.0,
        "psi homomorphism": 0.0,
        "psi round trip": 0.0,
        "vec round trip": 0.0,
    }
    for _ in range(_CASES):
        I = _rand_extents(rng)
        J = _rand_extents(rng)
        M, N = len(I), len(J)

        # trace linearity and cyclicity on square splits
        sa = random_tensor(rng, I, I)
        sb = random_tensor(rng, I, I)
        sc = random_tensor(rng, I, I)
        al, be = rng.uniform(-2, 2, 2)
        worst["trace linearity"] = max(
            worst["trace linearity"],
            _rel_err_scalar(
                trace(tc.add(tc.scale(al, sa), tc.scale(be, sb))),
                al * trace(sa) + be * trace(sb),
            ),
        )
        abc = tc.einstein_product(tc.einstein_product(sa, sb, M), sc, M)
        bca = tc.einstein_product(tc.einstein_product(sb, sc, M), sa, M)
        cab = tc.einstein_product(tc.einstein_product(sc, sa, M), sb, M)
        worst["trace cyclicity"] = max(
            worst["trace cyclicity"],
            _rel_err_scalar(trace(bca), trace(abc)),
            _rel_err_scalar(trace(cab), trace(abc)),
        )

        # Kronecker-lemma operands: A (I x I), B (I x J), C (J x J), D (I x J)
        A = random_tensor(rng, I, I)
        B = random_tensor(rng, I, J)
        C = random_tensor(rng, J, J)
        Dt = random_tensor(rng, I, J)

        worst["transpose additivity"] = max(
            worst["transpose additivity"],
            _rel_err(transpose(tc.add(B, Dt)), tc.add(transpose(B), transpose(Dt))),
        )
        worst["kron associativity"] = max(
            worst["kron associativity"],
            _rel_err(kron(kron(A, B), C), kron(A, kron(B, C))),
        )
        worst["kron mixed product"] = max(
            worst["kron mixed product"],
            _rel_err(
                tc.einstein_product(kron(A, B), kron(Dt, C), M + N),
                kron(tc.einstein_product(A, Dt, M), tc.einstein_product(B, C, N)),
            ),
        )
        triple = tc.einstein_product(tc.einstein_product(A, B, M), C, N)
        b_col = B.reshape_split(B.extents, ())
        lifted = tc.einstein_product(kron(transpose(C), A), b_col, M + N)
        worst["vec of triple product"] = max(
            worst["vec of triple product"],
            float(np.max(np.abs(vec(triple).data - lifted.data)))
            / max(1.0, fro_norm(triple)),
        )

        # psi homomorphism on a generic chain I x K, K x J
        K = _rand_extents(rng)
        left = random_tensor(rng, I, K)
        right = random_tensor(rng, K, J)
        product = tc.einstein_product(left, right, len(K))
        worst["psi homomorphism"] = max(
            worst["psi homomorphism"],
            float(np.max(np.abs(psi(product) - psi(left) @ psi(right))))
            / max(1.0, fro_norm(product)),
        )

        # round trips
        t = random_tensor(rng, I, J)
        worst["psi round trip"] = max(
            worst["psi round trip"], _rel_err(psi_inverse(psi(t), I, J), t)
        )
        v = vec(t)
        worst["vec round trip"] = max(
            worst["vec round trip"],
            float(np.max(np.abs(v.data - t.data))),
            0.0 if v.row_extents == (prod(I),) and v.col_extents == tuple(J) else 1.0,
        )

    ok = True
    for name, value in worst.items():
        good = value <= 1.0e-12
        ok &= _report(f"algebra ({_CASES} cases): {name} <= 1e-12", good, f"worst {value:.3e}")
    assert ok


# ---------------------------------------------------------------- criterion 8


def test_least_norm_dominance_and_row_space_membership():
    dominance_ok = True
    membership_ok = True
    worst_gap = 0.0
    worst_membership = 0.0
    for seed in range(10):
        rng = np.random.default_rng(3000 + seed)
        row, col = SMALL_SHAPES[seed % len(SMALL_SHAPES)]
        # Singular but consistent: rank-deficient operators, D from a witness.
        a = _rank_deficient_square(rng, row)
        c = _rank_deficient_square(rng, col)
        witness = _uniform_tensor(rng, row, col)
        problem = SylvesterProblem(a, c, apply_operator(a, c, witness))
        min_norm = solve_min_norm(problem)
        other = solve(problem, _uniform_tensor(rng, row, col))
        assert min_norm.status == Status.CONVERGED
        assert other.status == Status.CONVERGED
        gap = fro_norm(min_norm.solution) - fro_norm(other.solution)
        worst_gap = max(worst_gap, gap)
        dominance_ok &= gap <= 1.0e-8

        system = unfold_system(problem)
        v = min_norm.solution.data
        projected = row_space_projection(system.K, v)
        deviation = float(np.linalg.norm(v - projected)) / max(1.0, float(np.linalg.norm(v)))
        worst_membership = max(worst_membership, deviation)
        membership_ok &= deviation <= 1.0e-8
    ok = all(
        (
            _report(
                "least-norm dominance: ||min-norm|| <= ||other solution|| + 1e-8",
                dominance_ok,
                f"worst gap {worst_gap:.3e}",
            ),
            _report(
                "least-norm membership: vec(X~) in the operator row space within 1e-8",
                membership_ok,
                f"worst deviation {worst_membership:.3e}",
            ),
        )
    )
    assert ok
