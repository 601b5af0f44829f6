"""Run one tensyl benchmark workload and print its metrics.

    python3 perfbench/run.py --workload small_solve --seed 1 --seconds 30 --trace 0

Run it from the root of a tensyl checkout: it imports tensyl from ``src/``.
A run sets up ``SETUPS`` times (import tensyl, make and write the inputs,
warm up with one round), then runs whole rounds of the workload's operations
as a closed loop with one client until ``--seconds`` have passed, checking
every output.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced rounds and prints the per-layer metrics.
The last line of standard output is one JSON object; a copy of it, with the
environment, goes to ``perfbench/out/``.
"""

import argparse
import ctypes
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 5
GEMM_FLOOR_MIN_S = 0.2  # timing budget per distinct shape for the GEMM floor
P90_MIN_SAMPLES = 100
LAYER_UNITS = {
    "backend.gemm_floor_s": "s",
    "tensor.calls_per_iter": "count",
    "tensor.self_s": "s",
    "solver.apply_operator_s": "s",
    "solver.apply_adjoint_s": "s",
    "solver.self_s": "s",
    "solver.iter_s": "s",
    "solver.iterations": "count",
    "solver.gflops": "GFLOP/s",
    "oracle.unfold_s": "s",
    "oracle.lstsq_s": "s",
    "fileio.read_problem_s": "s",
    "cli.self_s": "s",
    "cli.import_s": "s",
    "memory.minor_faults_per_op": "count",
    "trace.overhead": "ratio",
}


def nproc():
    return len(os.sched_getaffinity(0))


def cap_blas_threads():
    """At most nproc BLAS threads; must run before numpy is imported."""
    try:
        wanted = int(os.environ.get("OPENBLAS_NUM_THREADS", ""))
    except ValueError:
        wanted = nproc()
    os.environ["OPENBLAS_NUM_THREADS"] = str(max(1, min(wanted, nproc())))


def _openblas_call(name, restype):
    """Call an OpenBLAS query in the library numpy loaded, or return None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_", ""):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}openblas_{name}{suffix}", None)
                if fn is not None:
                    fn.restype = restype
                    return fn()
    return None


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = _openblas_call("get_num_threads", ctypes.c_int)
    config = _openblas_call("get_config", ctypes.c_char_p)
    return {
        "command": [Path(sys.executable).name, *sys.argv],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": config.decode() if config else None,
        "blas_threads": threads if threads is not None else int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc(),
        "machine": platform.machine(),
    }


def import_tensyl():
    """Import tensyl afresh (numpy stays loaded); returns (package, seconds)."""
    for name in [n for n in sys.modules if n == "tensyl" or n.startswith("tensyl.")]:
        del sys.modules[name]
    start = time.perf_counter()
    importlib.import_module("tensyl.cli")
    return sys.modules["tensyl"], time.perf_counter() - start


def setup(workload, seed, outdir):
    """One set-up: import, inputs, warm-up round.  Returns (ops, setup s, import s)."""
    from workloads import WORKLOADS

    start = time.perf_counter()
    tensyl, import_s = import_tensyl()
    ops = WORKLOADS[workload](tensyl, seed, outdir)
    for op in ops:
        op.check(op.run())
    return ops, time.perf_counter() - start, import_s


class Loop:
    """Counts and times operations; an exception or a failed check is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.durations = []

    def round(self, ops, call=lambda run: run()):
        for op in ops:
            self.attempted += 1
            start = time.perf_counter()
            try:
                result = call(op.run)
            except Exception:  # a crashing operation is a failed one
                traceback.print_exc(file=sys.stderr)
                self.failed += 1
                continue
            duration = time.perf_counter() - start
            if op.check(result):
                self.durations.append(duration)
            else:
                print(f"check failed: {op.name}", file=sys.stderr)
                self.failed += 1

    @property
    def ops_per_s(self):
        return len(self.durations) / sum(self.durations) if self.durations else 0.0


def measure(ops, seconds):
    """Whole rounds of ``ops`` until ``seconds`` have passed."""
    loop = Loop()
    start = time.perf_counter()
    while True:
        loop.round(ops)
        if time.perf_counter() - start >= seconds:
            return loop


def gemm_floor(ops):
    """Mean over the round's operations of the four GEMMs of one iteration
    (A X, X C, A^T R, R C^T) at each operation's unfolding shape."""
    import numpy as np

    rng = np.random.default_rng(0)
    per_shape = {}
    for m, n in sorted({op.shape for op in ops}):
        a, c, x = rng.standard_normal((m, m)), rng.standard_normal((n, n)), rng.standard_normal((m, n))
        times = []
        start = time.perf_counter()
        while len(times) < 20 or time.perf_counter() - start < GEMM_FLOOR_MIN_S:
            t0 = time.perf_counter()
            a @ x, x @ c, a.T @ x, x @ c.T
            times.append(time.perf_counter() - t0)
        per_shape[(m, n)] = statistics.median(times)
    return statistics.fmean(per_shape[op.shape] for op in ops)


def traced_run(ops, seconds, stem):
    """Untraced and traced rounds in the order A B B A A B ..., so that neither
    kind always runs first; per-layer figures come from the traced rounds."""
    from spans import Tracer, layer_metrics, write_spans

    plain, traced, tracer = Loop(), Loop(), Tracer()
    order = [False, True]
    faults = 0  # minor page faults during the untraced rounds
    start = time.perf_counter()
    while True:
        for with_trace in order:
            if with_trace:
                with tracer.installed():
                    traced.round(ops, tracer.op)
            else:
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                plain.round(ops)
                faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        order.reverse()
        if time.perf_counter() - start >= seconds:
            break
    write_spans(tracer, OUT / f"{stem}.spans.npz")
    metrics = layer_metrics(tracer)
    metrics["memory.minor_faults_per_op"] = faults / plain.attempted
    metrics["trace.overhead"] = plain.ops_per_s / traced.ops_per_s if traced.ops_per_s else 0.0
    return plain.attempted + traced.attempted, plain.failed + traced.failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["small_solve", "large_solve", "cli_verify"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tensyl" / "__init__.py").is_file():
        print(f"error: no tensyl sources under {ROOT / 'src'}; run from a tensyl checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)

    setups = [setup(args.workload, args.seed, OUT / stem) for _ in range(SETUPS)]
    ops = setups[-1][0]
    setup_s = statistics.median(s for _, s, _ in setups)
    import_s = statistics.median(i for _, _, i in setups)

    extra = {}
    if args.trace:
        gemm_s = gemm_floor(ops)
        attempted, failed, metrics = traced_run(ops, args.seconds, stem)
        metrics.update({"backend.gemm_floor_s": gemm_s, "cli.import_s": import_s})
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in LAYER_UNITS.items()}
    else:
        loop = measure(ops, args.seconds)
        attempted, failed = loop.attempted, loop.failed
        metrics = {
            "ops_per_s": {"value": loop.ops_per_s, "unit": "1/s"},
            "op_s_p50": {"value": statistics.median(loop.durations) if loop.durations else 0.0, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MiB"},
        }
        samples = len(loop.durations)
        if samples >= P90_MIN_SAMPLES:
            extra["op_s_p90"] = {"value": statistics.quantiles(loop.durations, n=10)[8], "unit": "s", "samples": samples}

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    env = environment()
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump({"environment": env, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "setups_s": [s for _, s, _ in setups], **extra, "result": result}, handle, indent=1)
    print(json.dumps({"environment": env}))
    for name, value in extra.items():
        print(json.dumps({name: value}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    cap_blas_threads()
    sys.exit(main())
