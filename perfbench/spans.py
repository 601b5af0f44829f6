"""Spans around tensyl's public functions, recorded from outside the package.

``Tracer.installed()`` rebinds the traced names in their modules (and the
names ``tensyl.cli`` imports directly) to wrappers that record one span per
call: name, start, end and the index of the enclosing span.  Spans stay in
memory; ``layer_metrics`` turns them into per-layer figures and
``write_spans`` writes them out when the run ends.
"""

import functools
import importlib
import inspect
import time
from array import array
from contextlib import contextmanager

import numpy as np

# module -> names traced there; each span is named "<layer>.<function>".
# The names tensyl.cli imports with "from ... import" are bound in cli itself,
# so they are traced there too, under the layer that defines them.
TRACED = {
    "tensyl.solver": ["apply_operator", "apply_adjoint", "solve"],
    "tensyl.oracle": ["unfold_system", "min_norm_lstsq"],
    "tensyl.fileio": ["read_problem"],
    "tensyl.cli": ["main", "solve", "solve_min_norm", "solve_nearness", "oracle_solve"],
}
ROOT = "bench.op"  # the span the benchmark opens around each operation


def _tensor_functions(module):
    return [
        name
        for name, value in vars(module).items()
        if inspect.isfunction(value) and value.__module__ == module.__name__ and not name.startswith("_")
    ]


class Tracer:
    """Spans in flat arrays: name id, start, end and parent index per call."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []  # span name of each name id
        self.name_ids = array("i")
        self.parents = array("q")  # -1 for a root span
        self.starts = array("d")
        self.ends = array("d")
        self.iterations = []  # (iterations, m, n) of every solver.solve call
        self._stack = []

    def wrap(self, name, fn):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack, clock = self._stack, self.clock
        is_solve = name == "solver.solve"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(parents)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if is_solve:
                d = args[0].D
                self.iterations.append((result.iterations, d.m, d.n))
            return result

        return traced

    def op(self, run):
        """Run one benchmark operation inside a root span."""
        return self.wrap(ROOT, run)()

    @contextmanager
    def installed(self):
        """Rebind every traced name for the duration of the block."""
        saved = []
        try:
            tensor = importlib.import_module("tensyl.tensor")
            targets = [(tensor, name, "tensor") for name in _tensor_functions(tensor)]
            for module_name, names in TRACED.items():
                module = importlib.import_module(module_name)
                for name in names:
                    layer = getattr(module, name).__module__.rsplit(".", 1)[-1]
                    targets.append((module, name, layer))
            for module, name, layer in targets:
                original = getattr(module, name)
                saved.append((module, name, original))
                setattr(module, name, self.wrap(f"{layer}.{name}", original))
            yield self
        finally:
            for module, name, original in reversed(saved):
                setattr(module, name, original)


def layer_metrics(tracer):
    """Per-layer figures from the recorded spans.

    Layer times named ``*_s`` are per operation, except
    ``solver.apply_operator_s`` and ``solver.apply_adjoint_s`` (per call) and
    ``solver.iter_s`` (per solver iteration).  A span's self time is its
    duration minus the time its child spans cover.
    """
    names = tracer.names
    ids = np.frombuffer(tracer.name_ids, dtype=np.int32)
    parents = np.frombuffer(tracer.parents, dtype=np.int64)
    duration = np.frombuffer(tracer.ends) - np.frombuffer(tracer.starts)
    nested = parents >= 0
    own = duration - np.bincount(parents[nested], weights=duration[nested], minlength=len(duration))
    total = dict(zip(names, np.bincount(ids, weights=duration, minlength=len(names))))
    self_time = dict(zip(names, np.bincount(ids, weights=own, minlength=len(names))))
    calls = dict(zip(names, np.bincount(ids, minlength=len(names))))

    def layer_self(layer):
        return sum(t for name, t in self_time.items() if name.startswith(layer + "."))

    # tensyl.tensor calls made inside solver.solve, at any depth
    solve_id = names.index("solver.solve") if "solver.solve" in names else -1
    tensor_ids = {i for i, name in enumerate(names) if name.startswith("tensor.")}
    in_solve = [False] * len(parents)
    tensor_calls_in_solve = 0
    for i, (name_id, parent) in enumerate(zip(ids.tolist(), parents.tolist())):
        if parent >= 0 and (in_solve[parent] or ids[parent] == solve_id):
            in_solve[i] = True
            tensor_calls_in_solve += name_id in tensor_ids

    ops = calls.get(ROOT, 0)
    iterations = sum(it for it, _, _ in tracer.iterations)
    flops = sum(4.0 * (m * m * n + m * n * n) * it for it, m, n in tracer.iterations)
    solve_s = total.get("solver.solve", 0.0)

    def per(value, count):
        return float(value / count) if count else 0.0

    return {
        "tensor.calls_per_iter": per(tensor_calls_in_solve, iterations),
        "tensor.self_s": per(layer_self("tensor"), ops),
        "solver.apply_operator_s": per(total.get("solver.apply_operator", 0.0), calls.get("solver.apply_operator", 0)),
        "solver.apply_adjoint_s": per(total.get("solver.apply_adjoint", 0.0), calls.get("solver.apply_adjoint", 0)),
        "solver.self_s": per(layer_self("solver"), ops),
        "solver.iter_s": per(solve_s, iterations),
        "solver.iterations": per(iterations, len(tracer.iterations)),
        "solver.gflops": per(flops / 1.0e9, solve_s),
        "oracle.unfold_s": per(total.get("oracle.unfold_system", 0.0), ops),
        "oracle.lstsq_s": per(total.get("oracle.min_norm_lstsq", 0.0), ops),
        "fileio.read_problem_s": per(total.get("fileio.read_problem", 0.0), ops),
        "cli.self_s": per(self_time.get("cli.main", 0.0), ops),
    }


def write_spans(tracer, path):
    """All spans as one compressed ``.npz``: ``names`` and, per span,
    ``name_id``, ``start``, ``end`` (perf_counter seconds) and ``parent``."""
    np.savez_compressed(
        path,
        names=np.array(tracer.names),
        name_id=np.frombuffer(tracer.name_ids, dtype=np.int32),
        start=np.frombuffer(tracer.starts),
        end=np.frombuffer(tracer.ends),
        parent=np.frombuffer(tracer.parents, dtype=np.int64),
    )
