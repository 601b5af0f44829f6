"""Tests of the benchmark's own checks, on short runs.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def tensyl():
    return run.import_tensyl()[0]


@pytest.fixture(scope="module")
def small_ops(tensyl, tmp_path_factory):
    return workloads.small_solve(tensyl, 0, tmp_path_factory.mktemp("small"))


@pytest.fixture(scope="module")
def large_ops(tensyl, tmp_path_factory):
    return workloads.large_solve(tensyl, 0, tmp_path_factory.mktemp("large"))


def one_round(ops):
    loop = run.Loop()
    loop.round(ops)
    return loop


def spoiled(ops, spoil):
    return [dataclasses.replace(op, run=lambda run=op.run: spoil(run())) for op in ops]


def _perturbed(tensor):
    noise = np.random.default_rng(0).standard_normal(tensor.data.size)
    data = tensor.data + 1.0e-6 * np.linalg.norm(tensor.data) * noise / np.linalg.norm(noise)
    return type(tensor)(tensor.row_extents, tensor.col_extents, data)


def perturb_solution(result):
    if isinstance(result, tuple):  # solve_nearness: (x_hat, distance, outcome)
        return (_perturbed(result[0]),) + result[1:]
    return dataclasses.replace(result, solution=_perturbed(result.solution))


def test_unspoiled_rounds_do_not_fail(small_ops, large_ops):
    for ops in (small_ops, large_ops):
        loop = one_round(ops)
        assert loop.attempted == len(ops) and loop.failed == 0


def test_solution_off_by_1e_6_relative_fails(small_ops, large_ops):
    solved = [op for op in small_ops + large_ops if not op.name.startswith("inconsistent")]
    assert len(solved) == 2 + 2 * len(workloads.SMALL_SPLITS) * workloads.SMALL_REPEATS + 1
    loop = one_round(spoiled(solved, perturb_solution))
    assert loop.failed == loop.attempted == len(solved)


def test_wrong_status_fails(tensyl, small_ops):
    status = tensyl.solver.Status

    def flip(result):
        if isinstance(result, tuple):
            return result[:2] + (dataclasses.replace(result[2], status=status.ITERATION_LIMIT),)
        wrong = status.CONVERGED if result.status == status.INCONSISTENT else status.INCONSISTENT
        return dataclasses.replace(result, status=wrong)

    loop = one_round(spoiled(small_ops, flip))
    assert loop.failed == loop.attempted == len(small_ops)


def test_verify_agreeing_on_iteration_limit_fails(tensyl, tmp_path):
    # tensyl verify reads any non-Converged status as "inconsistent", so an
    # IterationLimit run "agrees" with the oracle on an inconsistent problem.
    rng = np.random.default_rng(0)
    split = workloads.VERIFY_SPLITS[0]
    a, c, d, K = workloads.make_problem(rng, "inconsistent", 12, 9)
    path = tmp_path / "capped.json"
    capped = tensyl.solver.SolveOptions(k_max=2)
    workloads.write_problem_file(tensyl, path, split, a, c, d, options=capped)
    code, text = workloads.run_verify(tensyl.cli, path)
    assert "solver: IterationLimit" in text and "verdict agreement: True" in text
    op = workloads.Op(
        "capped",
        lambda: workloads.run_verify(tensyl.cli, path),
        lambda res: workloads.check_verify(res, "Inconsistent", "inconsistent", int(np.linalg.matrix_rank(K))),
        (12, 9),
    )
    loop = one_round([op])
    assert loop.failed == loop.attempted == 1


def test_cli_verify_round_and_trace(tensyl, tmp_path):
    ops = workloads.cli_verify(tensyl, 0, tmp_path)
    tracer = spans.Tracer()
    loop = run.Loop()
    with tracer.installed():
        loop.round(ops, tracer.op)
    assert loop.attempted == len(ops) == 10 and loop.failed == 0
    metrics = spans.layer_metrics(tracer)
    for name in ("oracle.unfold_s", "oracle.lstsq_s", "fileio.read_problem_s", "cli.self_s", "solver.iter_s"):
        assert metrics[name] > 0, name
    assert tensyl.cli.main.__name__ == "main" and not hasattr(tensyl.cli.main, "__wrapped__")


def test_self_time_subtracts_children():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap("tensor.leaf", lambda: None)
    outer = tracer.wrap("solver.outer", lambda: (leaf(), leaf()))
    tracer.op(outer)
    # clock reads: op 0, outer 1, leaf 2-3, leaf 4-5, outer 6, op 7
    metrics = spans.layer_metrics(tracer)
    assert metrics["tensor.self_s"] == 2.0
    assert metrics["solver.self_s"] == 3.0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    args = [sys.executable, "perfbench/run.py", "--workload", "small_solve", "--seed", "0", "--seconds", "1"]
    done = subprocess.run(args, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""


def test_printed_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert run.LAYER_UNITS == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert spec["paths"] == [HERE.name]
