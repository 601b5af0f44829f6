"""Text serialization: tensor/problem files (JSON) and residual CSV.

Tensor file: UTF-8 JSON with fields ``row_extents``, ``col_extents`` and
``data`` (flat list in first-index-fastest order).  Problem file: fields
``A``, ``C``, ``D``, optional ``X0``, ``X_star`` and ``options`` (SolveOptions
fields by name; missing ones take their defaults, any other key is an
error), and no other field.  This module is the only reader and writer of
both formats.  Numbers round-trip at full double precision through the
shortest-repr rendering.  Entries, option types and splits are checked by
DenseTensor, SolveOptions and the solver; the reader names the file and
field in their errors.
"""

import json
from dataclasses import asdict, dataclass, fields

from .solver import SolveOptions, SylvesterProblem, _check_operands
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
    except DimensionError as exc:
        raise FileFormatError(f"{where}: {exc}") from exc
    except ValueError as exc:  # an entry that is not a finite double
        raise FileFormatError(f"{where}: field 'data' {exc}") from exc


def _dump_json(obj, path):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle)
        handle.write("\n")


def write_tensor(tensor, path):
    _dump_json(tensor_to_obj(tensor), path)


def _load_json(path):
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
        except UnicodeDecodeError as exc:
            raise FileFormatError(f"{path}: not UTF-8 text: {exc}") from exc
        except RecursionError as exc:
            raise FileFormatError(f"{path}: JSON nested too deeply to read") from exc
        except ValueError as exc:  # e.g. an integer past the int-string digit limit
            raise FileFormatError(f"{path}: {exc}") from exc


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
        obj["options"] = asdict(options)
    if x_star is not None:
        obj["X_star"] = tensor_to_obj(x_star)
    _dump_json(obj, path)


def _options_from_obj(block, where):
    """SolveOptions from an ``options`` block; missing fields take the defaults."""
    if not isinstance(block, dict):
        raise FileFormatError(f"{where}: options must be an object")
    names = {f.name for f in fields(SolveOptions)}
    for key in block:
        if key not in names:
            raise FileFormatError(f"{where}: options: unknown field {key!r}")
    try:
        return SolveOptions(**block)
    except ValueError as exc:
        raise FileFormatError(f"{where}: options: {exc}") from exc


def read_problem(path):
    where = str(path)
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise FileFormatError(f"{where}: expected a top-level object")
    for key in obj:
        if key not in ("A", "C", "D", "X0", "X_star", "options"):
            raise FileFormatError(f"{where}: unknown field {key!r}")
    for key in ("A", "C", "D"):
        if key not in obj:
            raise FileFormatError(f"{where}: missing field {key!r}")
    a = tensor_from_obj(obj["A"], f"{where}: A")
    c = tensor_from_obj(obj["C"], f"{where}: C")
    d = tensor_from_obj(obj["D"], f"{where}: D")
    extra = {k: tensor_from_obj(obj[k], f"{where}: {k}") for k in ("X0", "X_star") if k in obj}
    try:
        problem = SylvesterProblem(a, c, d)
        for key, tensor in extra.items():
            _check_operands(a, c, tensor, key)
    except DimensionError as exc:
        raise FileFormatError(f"{where}: {exc}") from exc
    options = _options_from_obj(obj["options"], where) if "options" in obj else None
    return ProblemFile(problem, extra.get("X0"), options, extra.get("X_star"))


def write_residual_csv(history, path):
    """Two columns ``k,res`` with k counting from 1, LF line endings."""
    if not history:
        raise ValueError("residual history is empty")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("k,res\n")
        for k, res in enumerate(history, start=1):
            handle.write(f"{k},{res:.17g}\n")
