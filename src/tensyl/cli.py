"""Command-line front door: solve, nearness, oracle, verify, gen, repro.

Exit codes: 0 success or agreement, 1 usage or I/O error or disagreement,
2 inconsistent equation, 3 iteration limit reached (for verify: undecided).
"""

import argparse
import functools
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import fileio, instances, reference_problems, tensor as tc
from .oracle import oracle_solve
from .solver import DEFAULT_OPTIONS, SolveOptions, Status, solve, solve_min_norm, solve_nearness

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONSISTENT = 2
EXIT_ITERATION_LIMIT = 3
# verify agrees when ||X - X_oracle||_F <= VERIFY_TOL * ||X_oracle||_F, a relative test.
VERIFY_TOL = 1.0e-6

_STATUS_EXIT = {
    Status.CONVERGED: EXIT_OK,
    Status.INCONSISTENT: EXIT_INCONSISTENT,
    Status.ITERATION_LIMIT: EXIT_ITERATION_LIMIT,
}


def _fail(message):
    print(f"error: {message}", file=sys.stderr)
    return EXIT_ERROR


def _merge_options(file_options, args):
    """The file's options (or the defaults) with each flag given overriding its field."""
    flags = {f.name: getattr(args, f.name) for f in fields(SolveOptions)}
    return replace(file_options or DEFAULT_OPTIONS, **{k: v for k, v in flags.items() if v is not None})


def _default_path(input_path, suffix):
    p = Path(input_path)
    return str(p.with_name(p.stem + suffix))


def _output_paths(args, *outputs):
    """The path of each (flag, default suffix) output, refused if it is the problem's or another's."""
    named = [("the problem file", args.problem)]
    for flag, suffix in outputs:
        named.append((f"--{flag}", getattr(args, flag) or _default_path(args.problem, suffix)))
    seen = {}
    for label, path in named:
        key = os.path.realpath(path)
        if key in seen:
            raise ValueError(f"{seen[key]} and {label} are both {path}")
        seen[key] = label
    return [path for _, path in named[1:]]


def _report(quiet, machine_line, human_lines):
    if quiet:
        print(machine_line)
    else:
        for line in human_lines:
            print(line)


def _finish_run(args, outcome, tensor, out_path, csv_path, what, measure, value):
    """Write ``tensor`` and the residual CSV, report, and map the status to an exit code."""
    fileio.write_tensor(tensor, out_path)
    fileio.write_residual_csv(outcome.residual_history, csv_path)
    _report(
        args.quiet,
        f"{outcome.status.value} {outcome.iterations} {value}",
        [
            f"status: {outcome.status.value}",
            f"iterations: {outcome.iterations}",
            f"{measure}: {value}",
            f"{what} written to {out_path}",
            f"residual history written to {csv_path}",
        ],
    )
    return _STATUS_EXIT[outcome.status]


def _cmd_solve(args):
    paths = _output_paths(args, ("out", "_solution.json"), ("csv", "_residuals.csv"))
    loaded = fileio.read_problem(args.problem)
    opts = _merge_options(loaded.options, args)
    x1 = None if args.init is None else fileio.read_tensor(args.init)
    outcome = solve(loaded.problem, x1, opts)
    return _finish_run(args, outcome, outcome.solution, *paths, "solution",
                       "final residual", f"{outcome.final_residual:.6e}")


def _cmd_nearness(args):
    paths = _output_paths(args, ("out", "_nearest.json"), ("csv", "_residuals.csv"))
    loaded = fileio.read_problem(args.problem)
    if loaded.x0 is None:
        return _fail(f"{args.problem}: nearness requires an X0 field")
    opts = _merge_options(loaded.options, args)
    x_hat, distance, outcome = solve_nearness(loaded.problem, loaded.x0, opts)
    return _finish_run(args, outcome, x_hat, *paths, "nearest solution",
                       "distance ||X_hat - X0||", f"{distance:.6f}")


def _cmd_oracle(args):
    (out_path,) = _output_paths(args, ("out", "_oracle_solution.json"))
    loaded = fileio.read_problem(args.problem)
    result = oracle_solve(loaded.problem)
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
    # First: the dense routes refuse an oversized problem at once; symmetric
    # factors take the spectral route, which has no size cap.
    result = oracle_solve(loaded.problem)
    outcome = solve_min_norm(loaded.problem, opts)
    verdicts_agree = (outcome.status == Status.CONVERGED) == result.consistent
    if outcome.status == Status.INCONSISTENT and not result.consistent:
        # The solver's iterate diverged, so there is no solution to compare.
        word, code, distance, tolerance = "agree", EXIT_OK, "n/a", ""
    else:
        gap = tc.fro_norm(tc.subtract(outcome.solution, result.min_norm_solution))
        tol = VERIFY_TOL * tc.fro_norm(result.min_norm_solution)
        distance, tolerance = f"{gap:.6e}", f" (tolerance {tol:.6e})"
        if outcome.status == Status.ITERATION_LIMIT:
            word, code = "undecided", EXIT_ITERATION_LIMIT
        else:
            word, code = ("agree", EXIT_OK) if verdicts_agree and gap <= tol else ("disagree", EXIT_ERROR)
    _report(
        args.quiet,
        f"{word} {distance}",
        [
            f"solver: {outcome.status.value} ({outcome.iterations} iterations)",
            f"oracle: {'consistent' if result.consistent else 'inconsistent'} "
            f"(rank {result.numerical_rank})",
            f"Frobenius distance between solutions: {distance}{tolerance}",
            f"verdict agreement: {verdicts_agree}",
            f"result: {word}",
        ],
    )
    return code


def _parse_extents(text):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad extent list {text!r}") from exc


def _cmd_gen(args):
    row_extents = _parse_extents(args.I)
    col_extents = _parse_extents(args.J)
    rng = np.random.default_rng(args.seed)
    if args.inconsistent:
        problem, _ = instances.random_inconsistent(rng, row_extents, col_extents)
        x_star = None
    else:
        problem, x_star = instances.random_consistent(rng, row_extents, col_extents)
    fileio.write_problem(args.out, problem, x_star=x_star)
    if not args.quiet:
        kind = "inconsistent" if args.inconsistent else "consistent"
        print(f"wrote {kind} instance to {args.out}")
    return EXIT_OK


def _short(tolerance):
    """A tolerance as the label writes it: 5e-4, 1e-3."""
    return np.format_float_scientific(tolerance, trim="-", exp_digits=1)


def _cmd_repro(args):
    """Re-run both bundled reference problems and check the published bands.

    The nearness distance is checked against the value implied by the
    printed X-hat and X0 blocks; the published figure, which contradicts
    them, is named beside it.
    """
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    ref_outcome = solve_min_norm(reference_problems.load_reference_problem().problem)
    near = reference_problems.load_nearness_problem()
    x_hat, distance, near_outcome = solve_nearness(near.problem, near.x0)
    implied = reference_problems.nearness_reference_distance()
    runs = [  # label, file stem, outcome, solution, published solution, published iterations, own check
        ("reference problem", "reference", ref_outcome, ref_outcome.solution,
         reference_problems.min_norm_reference(), reference_problems.REFERENCE_ITERATIONS,
         ("final residual < 1e-10", ref_outcome.final_residual < 1.0e-10)),
        ("nearness problem", "nearness", near_outcome, x_hat,
         reference_problems.nearness_reference(), reference_problems.NEARNESS_ITERATIONS,
         (f"distance {distance:.4f} within {_short(reference_problems.DISTANCE_TOL)} of {implied:.4f} "
          f"implied by the printed blocks (published figure {reference_problems.NEARNESS_DISTANCE} "
          f"contradicts them)", abs(distance - implied) <= reference_problems.DISTANCE_TOL)),
    ]
    failures, lines = [], []
    for label, stem, outcome, solution, published, iterations, own_check in runs:
        fileio.write_residual_csv(outcome.residual_history, outdir / f"{stem}_residuals.csv")
        fileio.write_tensor(solution, outdir / f"{stem}_solution.json")
        max_dev = float(np.max(np.abs(solution.data - published.data)))
        for name, ok in [
            ("status Converged", outcome.status == Status.CONVERGED),
            own_check,
            (f"iterations within {iterations} +/- {reference_problems.ITERATION_BAND}",
             abs(outcome.iterations - iterations) <= reference_problems.ITERATION_BAND),
            (f"solution matches published entries to {_short(reference_problems.ENTRY_TOL)}",
             max_dev <= reference_problems.ENTRY_TOL),
        ]:
            if not ok:
                failures.append(f"{label}: {name}")
            lines.append(f"[{'ok' if ok else 'FAIL'}] {label}: {name}")

    if not failures:
        lines.append(f"all reproduction checks passed; outputs in {outdir}")
    _report(args.quiet, "fail" if failures else "ok", lines)
    return _fail("; ".join(failures)) if failures else EXIT_OK


@functools.cache
def build_parser():
    """The ``tensyl`` parser, built on the first call and reused after it.

    Building it (6 subcommands, about 40 arguments) costs a sizeable share
    of an in-process ``verify`` (README gives the figures), so a caller of
    ``main`` in one process, such as the tests or a script, pays for it once,
    not per call.  A shell run builds it once either way, and importing this
    module builds none.  Reuse carries no state: every ``parse_args`` call
    fills a fresh namespace, and the parser is not changed after it is built.
    """
    parser = argparse.ArgumentParser(
        prog="tensyl",
        description="Sylvester tensor equations under the Einstein product",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    problem, solver_flags, out, csv, quiet = (argparse.ArgumentParser(add_help=False) for _ in range(5))
    problem.add_argument("problem")
    solver_flags.add_argument("--epsilon", type=float, help="residual stop tolerance")
    solver_flags.add_argument("--kmax", dest="k_max", metavar="KMAX", type=int, help="iteration cap")
    out.add_argument("--out", help="solution tensor path")
    csv.add_argument("--csv", help="residual history CSV path")
    quiet.add_argument("--quiet", action="store_true")

    p = sub.add_parser("solve", parents=[problem, solver_flags, out, csv, quiet],
                       help="run the iterative solver on a problem file")
    p.add_argument("--init", metavar="PATH", help="start tensor file (default: the zero tensor)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("nearness", parents=[problem, solver_flags, out, csv, quiet],
                       help="closest solution to the X0 in the file")
    p.set_defaults(func=_cmd_nearness)

    p = sub.add_parser("oracle", parents=[problem, out, quiet],
                       help="dense unfolding oracle verdict and solution")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify", parents=[problem, solver_flags, quiet],
                       help="cross-check solver against the oracle")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", parents=[quiet], help="emit a seeded random problem file")
    p.add_argument("--I", required=True, help="row extents, e.g. 2,2")
    p.add_argument("--J", required=True, help="col extents, e.g. 3")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--inconsistent", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("repro", parents=[quiet], help="re-run the bundled reference problems")
    p.add_argument("--outdir", default="repro_out")
    p.set_defaults(func=_cmd_repro)

    return parser


def main(argv=None):
    """Run one ``tensyl`` command and return its exit code; see build_parser."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors; remap so exit code 2 keeps
        # meaning "equation is inconsistent".
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    try:
        return args.func(args)
    except (OSError, ValueError, ArithmeticError, MemoryError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
