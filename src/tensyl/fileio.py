"""Text serialization: tensor/problem files (JSON) and residual CSV.

Tensor file: UTF-8 JSON with fields ``row_extents``, ``col_extents`` and
``data`` (flat list in first-index-fastest order).  Problem file: fields
``A``, ``C``, ``D``, optional ``X0``, optional ``options``.  Numbers
round-trip at full double precision through the shortest-repr rendering.
"""

import json
from dataclasses import dataclass

import numpy as np

from .solver import SolveOptions, SylvesterProblem
from .tensor import DenseTensor, DimensionError


class FileFormatError(ValueError):
    """Malformed tensor or problem file."""


@dataclass(frozen=True)
class ProblemFile:
    problem: SylvesterProblem
    x0: DenseTensor | None
    options: SolveOptions | None
    x_star: DenseTensor | None = None


def _check_finite(tensor, where):
    bad = np.flatnonzero(~np.isfinite(tensor.data))
    if bad.size:
        raise FileFormatError(
            f"{where}: field 'data' entry {bad[0]} is {tensor.data[bad[0]]}, not a finite number"
        )


def tensor_to_obj(tensor, where="tensor"):
    """The JSON object of a tensor file; ``where`` names it in errors."""
    _check_finite(tensor, where)
    return {
        "row_extents": list(tensor.row_extents),
        "col_extents": list(tensor.col_extents),
        "data": tensor.data.tolist(),
    }


def tensor_from_obj(obj, where):
    """The tensor a JSON object describes; ``where`` names it in errors."""
    if not isinstance(obj, dict):
        raise FileFormatError(f"{where}: expected an object, got {type(obj).__name__}")
    for key in ("row_extents", "col_extents", "data"):
        if key not in obj:
            raise FileFormatError(f"{where}: missing field {key!r}")
    try:
        tensor = DenseTensor(obj["row_extents"], obj["col_extents"], obj["data"])
    except (DimensionError, TypeError, ValueError) as exc:
        raise FileFormatError(f"{where}: {exc}") from exc
    _check_finite(tensor, where)
    return tensor


def write_tensor(tensor, path):
    obj = tensor_to_obj(tensor, str(path))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle)
        handle.write("\n")


def read_tensor(path):
    with open(path, encoding="utf-8") as handle:
        try:
            obj = json.load(handle)
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    return tensor_from_obj(obj, str(path))


def write_problem(path, problem, x0=None, options=None, x_star=None):
    obj = {
        "A": tensor_to_obj(problem.A, f"{path}: A"),
        "C": tensor_to_obj(problem.C, f"{path}: C"),
        "D": tensor_to_obj(problem.D, f"{path}: D"),
    }
    if x0 is not None:
        obj["X0"] = tensor_to_obj(x0, f"{path}: X0")
    if options is not None:
        obj["options"] = {
            "epsilon": options.epsilon,
            "epsilon_p": options.epsilon_p,
            "k_max": options.k_max,
        }
    if x_star is not None:
        obj["X_star"] = tensor_to_obj(x_star, f"{path}: X_star")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle)
        handle.write("\n")


def read_problem(path):
    with open(path, encoding="utf-8") as handle:
        try:
            obj = json.load(handle)
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise FileFormatError(f"{path}: expected a top-level object")
    for key in ("A", "C", "D"):
        if key not in obj:
            raise FileFormatError(f"{path}: missing field {key!r}")
    a = tensor_from_obj(obj["A"], f"{path}: A")
    c = tensor_from_obj(obj["C"], f"{path}: C")
    d = tensor_from_obj(obj["D"], f"{path}: D")
    try:
        problem = SylvesterProblem(a, c, d)
    except DimensionError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    x0 = tensor_from_obj(obj["X0"], f"{path}: X0") if "X0" in obj else None
    x_star = tensor_from_obj(obj["X_star"], f"{path}: X_star") if "X_star" in obj else None
    options = None
    if "options" in obj:
        block = obj["options"]
        if not isinstance(block, dict):
            raise FileFormatError(f"{path}: options must be an object")
        try:
            options = SolveOptions(
                epsilon=float(block.get("epsilon", 1.0e-10)),
                epsilon_p=float(block.get("epsilon_p", 1.0e-12)),
                k_max=int(block.get("k_max", 1000)),
            )
        except (TypeError, ValueError) as exc:
            raise FileFormatError(f"{path}: options: {exc}") from exc
    if x0 is not None and not x0.same_split(d):
        raise FileFormatError(f"{path}: X0 split does not match D")
    return ProblemFile(problem, x0, options, x_star)


def write_residual_csv(history, path):
    """Two columns ``k,res`` with k counting from 1, LF line endings."""
    if not history:
        raise ValueError("residual history is empty")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("k,res\n")
        for k, res in enumerate(history, start=1):
            handle.write(f"{k},{res:.17g}\n")
