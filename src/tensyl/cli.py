"""Command-line front door: solve, nearness, oracle, verify, gen, repro.

Exit codes: 0 success/agreement, 1 usage or I/O error, 2 inconsistent
equation, 3 iteration limit reached.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from . import fileio, instances, reference_problems, tensor as tc
from .oracle import oracle_solve
from .solver import SolveOptions, Status, solve, solve_min_norm, solve_nearness

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONSISTENT = 2
EXIT_ITERATION_LIMIT = 3

_STATUS_EXIT = {
    Status.CONVERGED: EXIT_OK,
    Status.INCONSISTENT: EXIT_INCONSISTENT,
    Status.ITERATION_LIMIT: EXIT_ITERATION_LIMIT,
}


def _fail(message):
    print(f"error: {message}", file=sys.stderr)
    return EXIT_ERROR


def _merge_options(file_options, args):
    base = file_options or SolveOptions()
    return SolveOptions(
        epsilon=args.epsilon if args.epsilon is not None else base.epsilon,
        epsilon_p=args.epsilon_p if args.epsilon_p is not None else base.epsilon_p,
        k_max=args.kmax if args.kmax is not None else base.k_max,
    )


def _initial_iterate(init_spec, d_like):
    if init_spec is None or init_spec == "zero":
        return tc.zeros_like(d_like)
    if init_spec.startswith("file:"):
        return fileio.read_tensor(init_spec[len("file:") :])
    raise ValueError(f"bad --init value {init_spec!r}; expected 'zero' or 'file:<path>'")


def _default_path(input_path, suffix):
    p = Path(input_path)
    return str(p.with_name(p.stem + suffix))


def _report(quiet, machine_line, human_lines):
    if quiet:
        print(machine_line)
    else:
        for line in human_lines:
            print(line)


def _cmd_solve(args):
    loaded = fileio.read_problem(args.problem)
    opts = _merge_options(loaded.options, args)
    x1 = _initial_iterate(args.init, loaded.problem.D)
    outcome = solve(loaded.problem, x1, opts)
    out_path = args.out or _default_path(args.problem, "_solution.json")
    csv_path = args.csv or _default_path(args.problem, "_residuals.csv")
    fileio.write_tensor(outcome.solution, out_path)
    fileio.write_residual_csv(outcome.residual_history, csv_path)
    _report(
        args.quiet,
        f"{outcome.status.value} {outcome.iterations} {outcome.final_residual:.6e}",
        [
            f"status: {outcome.status.value}",
            f"iterations: {outcome.iterations}",
            f"final residual: {outcome.final_residual:.6e}",
            f"solution written to {out_path}",
            f"residual history written to {csv_path}",
        ],
    )
    return _STATUS_EXIT[outcome.status]


def _cmd_nearness(args):
    loaded = fileio.read_problem(args.problem)
    if loaded.x0 is None:
        return _fail(f"{args.problem}: nearness requires an X0 field")
    opts = _merge_options(loaded.options, args)
    x_hat, distance, outcome = solve_nearness(loaded.problem, loaded.x0, opts)
    out_path = args.out or _default_path(args.problem, "_nearest.json")
    csv_path = args.csv or _default_path(args.problem, "_residuals.csv")
    fileio.write_tensor(x_hat, out_path)
    fileio.write_residual_csv(outcome.residual_history, csv_path)
    _report(
        args.quiet,
        f"{outcome.status.value} {outcome.iterations} {distance:.6f}",
        [
            f"status: {outcome.status.value}",
            f"iterations: {outcome.iterations}",
            f"distance ||X_hat - X0||: {distance:.6f}",
            f"nearest solution written to {out_path}",
            f"residual history written to {csv_path}",
        ],
    )
    return _STATUS_EXIT[outcome.status]


def _cmd_oracle(args):
    loaded = fileio.read_problem(args.problem)
    result = oracle_solve(loaded.problem)
    out_path = args.out or _default_path(args.problem, "_oracle_solution.json")
    fileio.write_tensor(result.min_norm_solution, out_path)
    verdict = "consistent" if result.consistent else "inconsistent"
    _report(
        args.quiet,
        f"{verdict} {result.numerical_rank} {result.residual_norm:.6e}",
        [
            f"verdict: {verdict}",
            f"numerical rank: {result.numerical_rank}",
            f"residual norm: {result.residual_norm:.6e}",
            f"min-norm solution written to {out_path}",
        ],
    )
    return EXIT_OK if result.consistent else EXIT_INCONSISTENT


def _cmd_verify(args):
    loaded = fileio.read_problem(args.problem)
    opts = _merge_options(loaded.options, args)
    outcome = solve_min_norm(loaded.problem, opts)
    result = oracle_solve(loaded.problem)
    solver_consistent = outcome.status == Status.CONVERGED
    verdicts_agree = solver_consistent == result.consistent
    distance = tc.fro_norm(tc.subtract(outcome.solution, result.min_norm_solution))
    tol = args.tol * max(1.0, tc.fro_norm(result.min_norm_solution))
    agree = verdicts_agree and (not solver_consistent or distance <= tol)
    word = "agree" if agree else "disagree"
    _report(
        args.quiet,
        f"{word} {distance:.6e}",
        [
            f"solver: {outcome.status.value} ({outcome.iterations} iterations)",
            f"oracle: {'consistent' if result.consistent else 'inconsistent'} "
            f"(rank {result.numerical_rank})",
            f"Frobenius distance between solutions: {distance:.6e} (tolerance {tol:.6e})",
            f"verdict agreement: {verdicts_agree}",
            f"result: {word}",
        ],
    )
    return EXIT_OK if agree else EXIT_ERROR


def _parse_extents(text):
    try:
        extents = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad extent list {text!r}") from exc
    if not extents or any(e < 1 for e in extents):
        raise ValueError(f"bad extent list {text!r}")
    return extents


def _cmd_gen(args):
    row_extents = _parse_extents(args.I)
    col_extents = _parse_extents(args.J)
    rng = np.random.default_rng(args.seed)
    if args.inconsistent:
        problem = instances.random_inconsistent(rng, row_extents, col_extents)
        x_star = None
    else:
        problem, x_star = instances.random_consistent(rng, row_extents, col_extents)
    fileio.write_problem(args.out, problem, x_star=x_star)
    if not args.quiet:
        kind = "inconsistent" if args.inconsistent else "consistent"
        print(f"wrote {kind} instance to {args.out}")
    return EXIT_OK


def _cmd_repro(args):
    """Re-run both bundled reference problems and check the published bands.

    The nearness distance is checked against the value implied by the
    printed X-hat and X0 blocks; the published figure, which contradicts
    them, is named beside it.
    """
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    loaded = reference_problems.load_reference_problem()
    outcome = solve_min_norm(loaded.problem)
    fileio.write_residual_csv(outcome.residual_history, outdir / "reference_residuals.csv")
    fileio.write_tensor(outcome.solution, outdir / "reference_solution.json")
    ref_solution = reference_problems.min_norm_reference()
    max_dev = float(
        np.max(np.abs(outcome.solution.data - ref_solution.data))
    )
    reference_checks = [
        ("status Converged", outcome.status == Status.CONVERGED),
        ("final residual < 1e-10", outcome.final_residual < 1.0e-10),
        ("iterations within 86 +/- 15", 71 <= outcome.iterations <= 101),
        ("solution matches published entries to 5e-4", max_dev <= 5.0e-4),
    ]

    loaded = reference_problems.load_nearness_problem()
    x_hat, distance, outcome = solve_nearness(loaded.problem, loaded.x0)
    fileio.write_residual_csv(outcome.residual_history, outdir / "nearness_residuals.csv")
    fileio.write_tensor(x_hat, outdir / "nearness_solution.json")
    near_ref = reference_problems.nearness_reference()
    max_dev = float(np.max(np.abs(x_hat.data - near_ref.data)))
    implied = reference_problems.nearness_reference_distance()
    nearness_checks = [
        ("status Converged", outcome.status == Status.CONVERGED),
        (
            f"distance {distance:.4f} within 1e-3 of {implied:.4f} implied by the "
            f"printed blocks (published figure "
            f"{reference_problems.NEARNESS_DISTANCE} contradicts them)",
            abs(distance - implied) <= 1.0e-3,
        ),
        ("iterations within 79 +/- 15", 64 <= outcome.iterations <= 94),
        ("solution matches published entries to 5e-4", max_dev <= 5.0e-4),
    ]
    failures = []
    for label, checks in (
        ("reference problem", reference_checks),
        ("nearness problem", nearness_checks),
    ):
        for name, ok in checks:
            if not ok:
                failures.append(f"{label}: {name}")
            if not args.quiet:
                print(f"[{'ok' if ok else 'FAIL'}] {label}: {name}")

    if failures:
        if args.quiet:
            print("fail")
        return _fail("; ".join(failures))
    if args.quiet:
        print("ok")
    else:
        print(f"all reproduction checks passed; outputs in {outdir}")
    return EXIT_OK


def _add_solver_flags(parser):
    parser.add_argument("--epsilon", type=float, default=None, help="residual stop tolerance")
    parser.add_argument("--epsilon-p", dest="epsilon_p", type=float, default=None,
                        help="direction-zero tolerance, scaled by "
                        "max(1, ||P_1|| * ||R_k|| / ||R_1||)")
    parser.add_argument("--kmax", type=int, default=None, help="iteration cap")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tensyl",
        description="Sylvester tensor equations under the Einstein product",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the iterative solver on a problem file")
    p.add_argument("problem")
    p.add_argument("--init", default="zero", help="zero or file:<path>")
    _add_solver_flags(p)
    p.add_argument("--out", default=None, help="solution tensor path")
    p.add_argument("--csv", default=None, help="residual history CSV path")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("nearness", help="closest solution to the X0 in the file")
    p.add_argument("problem")
    _add_solver_flags(p)
    p.add_argument("--out", default=None)
    p.add_argument("--csv", default=None)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=_cmd_nearness)

    p = sub.add_parser("oracle", help="dense unfolding oracle verdict and solution")
    p.add_argument("problem")
    p.add_argument("--out", default=None)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify", help="cross-check solver against the oracle")
    p.add_argument("problem")
    _add_solver_flags(p)
    p.add_argument("--tol", type=float, default=1.0e-6,
                   help="relative agreement tolerance on the solutions")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="emit a seeded random problem file")
    p.add_argument("--I", required=True, help="row extents, e.g. 2,2")
    p.add_argument("--J", required=True, help="col extents, e.g. 3")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--inconsistent", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("repro", help="re-run the bundled reference problems")
    p.add_argument("--outdir", default="repro_out")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=_cmd_repro)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors; remap so exit code 2 keeps
        # meaning "equation is inconsistent".
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    try:
        return args.func(args)
    except (OSError, ValueError, ArithmeticError, instances.GenerationError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
