"""Text serialization: tensor/problem files (JSON) and residual CSV.

Tensor file: UTF-8 JSON with fields ``row_extents``, ``col_extents`` and
``data`` (flat list in first-index-fastest order).  Problem file: fields
``A``, ``C``, ``D``, optional ``X0``, ``X_star`` and ``options`` (whose
missing fields take the SolveOptions defaults).  This module is the only
reader and writer of both formats.  Numbers round-trip at full double
precision through the shortest-repr rendering.  Finite entries and option
types are checked by DenseTensor and SolveOptions; the reader names the
file and field in their errors.
"""

import json
from dataclasses import dataclass

from .solver import SolveOptions, SylvesterProblem
from .tensor import DenseTensor, DimensionError


_JSON_NUMBERS = {int, float}  # compared by type(): bool subclasses int


class FileFormatError(ValueError):
    """Malformed tensor or problem file."""


@dataclass(frozen=True)
class ProblemFile:
    problem: SylvesterProblem
    x0: DenseTensor | None
    options: SolveOptions | None
    x_star: DenseTensor | None = None


def tensor_to_obj(tensor):
    """The JSON object of a tensor file."""
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
    for key in ("row_extents", "col_extents"):
        if not isinstance(obj[key], list) or not all(type(e) is int for e in obj[key]):
            raise FileFormatError(f"{where}: field {key!r} must be a list of integers, got {obj[key]!r}")
    data = obj["data"]
    if not isinstance(data, list):
        raise FileFormatError(f"{where}: field 'data' must be a flat list of numbers")
    if not set(map(type, data)) <= _JSON_NUMBERS:
        i = next(i for i, v in enumerate(data) if type(v) not in _JSON_NUMBERS)
        raise FileFormatError(f"{where}: field 'data' entry {i} is {data[i]!r}, not a number")
    try:
        return DenseTensor(obj["row_extents"], obj["col_extents"], data)
    except ValueError as exc:  # DimensionError, or an entry that is not finite
        raise FileFormatError(f"{where}: {exc}") from exc


def write_tensor(tensor, path):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(tensor_to_obj(tensor), handle)
        handle.write("\n")


def _load_json(path):
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"{path}: line {exc.lineno}: {exc.msg}") from exc


def read_tensor(path):
    return tensor_from_obj(_load_json(path), str(path))


def write_problem(path, problem, x0=None, options=None, x_star=None):
    obj = {
        "A": tensor_to_obj(problem.A),
        "C": tensor_to_obj(problem.C),
        "D": tensor_to_obj(problem.D),
    }
    if x0 is not None:
        obj["X0"] = tensor_to_obj(x0)
    if options is not None:
        obj["options"] = {
            "epsilon": options.epsilon,
            "epsilon_p": options.epsilon_p,
            "k_max": options.k_max,
        }
    if x_star is not None:
        obj["X_star"] = tensor_to_obj(x_star)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle)
        handle.write("\n")


def _options_from_obj(block, where):
    """SolveOptions from an ``options`` block; missing fields take the defaults."""
    if not isinstance(block, dict):
        raise FileFormatError(f"{where}: options must be an object")
    defaults = SolveOptions()
    try:
        return SolveOptions(
            epsilon=block.get("epsilon", defaults.epsilon),
            epsilon_p=block.get("epsilon_p", defaults.epsilon_p),
            k_max=block.get("k_max", defaults.k_max),
        )
    except ValueError as exc:
        raise FileFormatError(f"{where}: options: {exc}") from exc


def read_problem(path):
    where = str(path)
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise FileFormatError(f"{where}: expected a top-level object")
    for key in ("A", "C", "D"):
        if key not in obj:
            raise FileFormatError(f"{where}: missing field {key!r}")
    a = tensor_from_obj(obj["A"], f"{where}: A")
    c = tensor_from_obj(obj["C"], f"{where}: C")
    d = tensor_from_obj(obj["D"], f"{where}: D")
    try:
        problem = SylvesterProblem(a, c, d)
    except DimensionError as exc:
        raise FileFormatError(f"{where}: {exc}") from exc
    x0 = tensor_from_obj(obj["X0"], f"{where}: X0") if "X0" in obj else None
    x_star = tensor_from_obj(obj["X_star"], f"{where}: X_star") if "X_star" in obj else None
    options = _options_from_obj(obj["options"], where) if "options" in obj else None
    if x0 is not None and not x0.same_split(d):
        raise FileFormatError(f"{where}: X0 split does not match D")
    return ProblemFile(problem, x0, options, x_star)


def write_residual_csv(history, path):
    """Two columns ``k,res`` with k counting from 1, LF line endings."""
    if not history:
        raise ValueError("residual history is empty")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("k,res\n")
        for k, res in enumerate(history, start=1):
            handle.write(f"{k},{res:.17g}\n")
