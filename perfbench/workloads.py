"""The benchmark's workloads: seeded inputs, one round of operations, and the
check each operation's output must pass.

Every input is made here with plain numpy from the seed, so the kind of each
problem is known by construction:

- consistent: A and C are an identity plus a scaled Gaussian, and D is built
  from a planted X;
- singular: A and C are products of thin factors, and D is built from a
  planted X;
- inconsistent: singular A and C, and D gets a component in the left null
  space of the Kronecker matrix, found by numpy SVD.

The checks are computed apart from tensyl: residuals on the unfoldings with
numpy, min-norm solutions with ``numpy.linalg.lstsq`` on a Kronecker matrix
built here, the planted X where the operator is nonsingular, and the
published bands of the two reference problems.
"""

import contextlib
import io
import re
from dataclasses import dataclass
from math import prod
from typing import Callable

import numpy as np

# Relative distance to the numpy min-norm solution an operation may have.
# The solver's own answers sit below 1e-9; a 1e-6 error must fail.
SOLUTION_RTOL = 1.0e-7
# Relative residual ||psi(A) X + X psi(C) - psi(D)|| / max(1, ||psi(D)||).
RESIDUAL_RTOL = 1.0e-9

# Published bands of the two reference problems (see tensyl.reference_problems).
REFERENCE_ENTRY_TOL = 5.0e-4
MIN_NORM_ITERATIONS = (86 - 15, 86 + 15)
NEARNESS_ITERATIONS = (79 - 15, 79 + 15)
NEARNESS_DISTANCE = 603.3520  # implied by the printed X-hat and X0 blocks
NEARNESS_DISTANCE_TOL = 1.0e-3

# Row x column mode splits of the random problems (m * n <= 108).  Each
# split gets REPEATS problems of each kind per round.
SMALL_SPLITS = [((3, 2), (2, 3)), ((4, 3), (3, 3)), ((2, 2, 2), (3, 3)), ((3, 3), (2, 2, 3))]
SMALL_REPEATS = 3
SMALL_KINDS = ("consistent", "singular", "inconsistent")

# One planted, well-conditioned, nonsingular problem, m = 512, n = 256.
LARGE_SPLIT = ((8, 8, 8), (16, 16))
LARGE_SPREAD = 0.55  # about 65 iterations with the default options

# m * n = 108, 144, 180, 216, 256; one consistent and one inconsistent each.
# With an even number of files the median operation falls between the two
# files of the middle size, whose times are close.
VERIFY_SPLITS = [((4, 3), (3, 3)), ((2, 2, 3), (4, 3)), ((3, 6), (2, 5)), ((6, 3), (3, 4)), ((4, 4), (4, 4))]
VERIFY_KINDS = ("consistent", "inconsistent")


@dataclass
class Op:
    """One operation of a round: ``check(run())`` says whether it succeeded."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    shape: tuple  # (m, n) of the unfolding


def kron_matrix(a, c):
    """K with K vec(X) = vec(a X + X c), vec stacking columns."""
    m, n = a.shape[0], c.shape[0]
    return np.kron(np.eye(n), a) + np.kron(c.T, np.eye(m))


def _orthogonal(rng, k):
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    return q * np.sign(np.diag(r))


def _nonsingular(rng, k, spread=0.5):
    return np.eye(k) + spread * rng.standard_normal((k, k)) / np.sqrt(k)


def _singular(rng, k):
    # Thin factors sharing one column space: eigenvalue 0 once, the others in
    # [1, 2].  Raw Gaussian thin factors need up to ~8 m n iterations, too
    # close to the solver's fixed 1000-iteration cap to stay clear of it.
    q = _orthogonal(rng, k)[:, : k - 1]
    return (q * rng.uniform(1.0, 2.0, k - 1)) @ q.T


def make_problem(rng, kind, m, n):
    """Unfoldings (a, c, d) of a problem of the given kind, and its K."""
    make = _nonsingular if kind == "consistent" else _singular
    a, c = make(rng, m), make(rng, n)
    x = rng.standard_normal((m, n))
    d = a @ x + x @ c
    K = kron_matrix(a, c)
    if kind == "inconsistent":
        u, s, _ = np.linalg.svd(K)
        rank = int(np.sum(s > 1.0e-10 * s[0]))
        left_null = u[:, rank:] @ rng.standard_normal(m * n - rank)
        d = d + (np.linalg.norm(d) / np.linalg.norm(left_null)) * left_null.reshape((m, n), order="F")
    return a, c, d, K


def to_problem(tensyl, split, a, c, d):
    row, col = split
    dense = tensyl.tensor.DenseTensor
    return tensyl.solver.SylvesterProblem(
        dense(row, row, a.ravel(order="F")),
        dense(col, col, c.ravel(order="F")),
        dense(row, col, d.ravel(order="F")),
    )


def unfold(tensor):
    return tensor.data.reshape((tensor.m, tensor.n), order="F")


def min_norm(K, d):
    return np.linalg.lstsq(K, d.ravel(order="F"), rcond=None)[0].reshape(d.shape, order="F")


def close(x, ref, rtol=SOLUTION_RTOL):
    return bool(np.linalg.norm(x - ref) <= rtol * np.linalg.norm(ref))


def residual_ok(a, c, d, x):
    return bool(np.linalg.norm(a @ x + x @ c - d) <= RESIDUAL_RTOL * max(1.0, np.linalg.norm(d)))


def check_min_norm(outcome, status, a, c, d, ref):
    """A min-norm solve: the status, and for a solved equation, the residual
    and the distance to the reference solution ``ref``."""
    if outcome.status.value != status:
        return False
    if status != "Converged":
        return True
    x = unfold(outcome.solution)
    return residual_ok(a, c, d, x) and close(x, ref)


def _within(value, band):
    return band[0] <= value <= band[1]


def small_solve(tensyl, seed, outdir):
    """The two bundled reference problems and 36 seeded random problems."""
    solver, refs = tensyl.solver, tensyl.reference_problems
    ops = []

    loaded = refs.load_reference_problem()
    problem = loaded.problem
    a, c, d = unfold(problem.A), unfold(problem.C), unfold(problem.D)
    K = kron_matrix(a, c)
    ref = min_norm(K, d)
    published = unfold(refs.min_norm_reference())

    def check_reference(out, a=a, c=c, d=d, ref=ref, published=published):
        return (
            check_min_norm(out, "Converged", a, c, d, ref)
            and _within(out.iterations, MIN_NORM_ITERATIONS)
            and np.max(np.abs(unfold(out.solution) - published)) <= REFERENCE_ENTRY_TOL
        )

    ops.append(Op("reference_min_norm", lambda p=problem: solver.solve_min_norm(p), check_reference, d.shape))

    near = refs.load_nearness_problem()
    x0 = unfold(near.x0)
    d_near = unfold(near.problem.D)
    near_ref = x0 + min_norm(K, d_near - (a @ x0 + x0 @ c))
    near_published = unfold(refs.nearness_reference())

    def check_nearness(result, a=a, c=c, d=d_near):
        x_hat, distance, out = result
        x = unfold(x_hat)
        return (
            out.status.value == "Converged"
            and _within(out.iterations, NEARNESS_ITERATIONS)
            and abs(distance - NEARNESS_DISTANCE) <= NEARNESS_DISTANCE_TOL
            and np.max(np.abs(x - near_published)) <= REFERENCE_ENTRY_TOL
            and residual_ok(a, c, d, x)
            and close(x, near_ref)
        )

    ops.append(
        Op(
            "reference_nearness",
            lambda p=near.problem, x0=near.x0: solver.solve_nearness(p, x0),
            check_nearness,
            d_near.shape,
        )
    )

    rng = np.random.default_rng(seed)
    for split in SMALL_SPLITS:
        m, n = prod(split[0]), prod(split[1])
        for kind in SMALL_KINDS:
            for r in range(SMALL_REPEATS):
                a, c, d, K = make_problem(rng, kind, m, n)
                status = "Inconsistent" if kind == "inconsistent" else "Converged"
                ref = None if kind == "inconsistent" else min_norm(K, d)
                ops.append(
                    Op(
                        f"{kind}_{m}x{n}_{r}",
                        lambda p=to_problem(tensyl, split, a, c, d): solver.solve_min_norm(p),
                        lambda out, s=status, a=a, c=c, d=d, ref=ref: check_min_norm(out, s, a, c, d, ref),
                        (m, n),
                    )
                )
    return ops


def large_solve(tensyl, seed, outdir):
    """One planted nonsingular problem at m = 512, n = 256."""
    rng = np.random.default_rng(seed)
    m, n = prod(LARGE_SPLIT[0]), prod(LARGE_SPLIT[1])
    a = _nonsingular(rng, m, LARGE_SPREAD)
    c = _nonsingular(rng, n, LARGE_SPREAD)
    x = rng.standard_normal((m, n)) / np.sqrt(m * n)
    d = a @ x + x @ c
    problem = to_problem(tensyl, LARGE_SPLIT, a, c, d)
    return [
        Op(
            "planted_512x256",
            lambda: tensyl.solver.solve_min_norm(problem),
            lambda out: check_min_norm(out, "Converged", a, c, d, x),
            (m, n),
        )
    ]


_SOLVER_LINE = re.compile(r"^solver: (\w+) \((\d+) iterations\)$", re.M)
_ORACLE_LINE = re.compile(r"^oracle: (consistent|inconsistent) \(rank (\d+)\)$", re.M)


def run_verify(cli, path):
    """``tensyl verify <path>`` in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", str(path)])
    return code, out.getvalue()


def check_verify(result, status, verdict, rank):
    """Exit 0, the solver status and oracle verdict known by construction,
    and the oracle rank equal to numpy's rank of the Kronecker matrix."""
    code, text = result
    solver_line, oracle_line = _SOLVER_LINE.search(text), _ORACLE_LINE.search(text)
    return (
        code == 0
        and solver_line is not None
        and oracle_line is not None
        and solver_line.group(1) == status
        and oracle_line.group(1) == verdict
        and int(oracle_line.group(2)) == rank
    )


def write_problem_file(tensyl, path, split, a, c, d, options=None):
    tensyl.fileio.write_problem(path, to_problem(tensyl, split, a, c, d), options=options)


def cli_verify(tensyl, seed, outdir):
    """``tensyl verify`` on ten problem files written here."""
    rng = np.random.default_rng(seed)
    outdir.mkdir(parents=True, exist_ok=True)
    ops = []
    for split in VERIFY_SPLITS:
        m, n = prod(split[0]), prod(split[1])
        for kind in VERIFY_KINDS:
            a, c, d, K = make_problem(rng, kind, m, n)
            path = outdir / f"{kind}_{m}x{n}.json"
            write_problem_file(tensyl, path, split, a, c, d)
            status, verdict = ("Converged", "consistent") if kind == "consistent" else ("Inconsistent", "inconsistent")
            ops.append(
                Op(
                    path.stem,
                    lambda path=path: run_verify(tensyl.cli, path),
                    lambda res, s=status, v=verdict, r=int(np.linalg.matrix_rank(K)): check_verify(res, s, v, r),
                    (m, n),
                )
            )
    return ops


WORKLOADS = {"small_solve": small_solve, "large_solve": large_solve, "cli_verify": cli_verify}
