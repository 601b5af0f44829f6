"""Serialization round trips and format validation."""

import hashlib
import json
import re

import numpy as np
import pytest

from tensyl import fileio
from tensyl import tensor as tc
from tensyl.fileio import FileFormatError
from tensyl.instances import random_consistent
from tensyl.reference_problems import load_nearness_problem, load_reference_problem
from tensyl.solver import SolveOptions, SylvesterProblem

from conftest import loop_sylvester_rhs, random_tensor, write_with_bad_entry


class TestTensorFiles:
    def test_round_trip(self, rng, tmp_path):
        t = random_tensor(rng, (2, 3), (2,))
        path = tmp_path / "t.json"
        fileio.write_tensor(t, path)
        back = fileio.read_tensor(path)
        assert (back.row_extents, back.col_extents) == (t.row_extents, t.col_extents)
        assert np.array_equal(back.data, t.data)

    def test_full_double_precision(self, tmp_path):
        t = tc.DenseTensor((2,), (1,), [1.0 / 3.0, np.nextafter(1.0, 2.0)])
        path = tmp_path / "t.json"
        fileio.write_tensor(t, path)
        back = fileio.read_tensor(path)
        assert np.array_equal(back.data, t.data)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"row_extents": [2], "data": [1, 2]}))
        with pytest.raises(FileFormatError):
            fileio.read_tensor(path)

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"row_extents": [2],\n "oops"')
        with pytest.raises(FileFormatError, match="line"):
            fileio.read_tensor(path)

    @pytest.mark.parametrize("content, message", [
        (b'{"A": ' + b"[" * 5000 + b"]" * 5000 + b"}", "JSON nested too deeply to read"),
        (b"\xff{}", "not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 0"),
        # Past Python's int-string digit limit json.load raises a plain ValueError; the
        # message, and with the limit lifted the error, depend on PYTHONINTMAXSTRDIGITS.
        (b"[" + b"9" * 5000 + b"]", ""),
    ], ids=["deep", "not-utf8", "past-digit-limit"])
    @pytest.mark.parametrize("read", [fileio.read_tensor, fileio.read_problem], ids=["tensor", "problem"])
    def test_unreadable_json_names_path(self, tmp_path, read, content, message):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(FileFormatError, match=f"^{re.escape(f'{path}: {message}')}"):
            read(path)

    def test_wrong_data_length(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"row_extents": [2], "col_extents": [2], "data": [1.0]}))
        with pytest.raises(FileFormatError):
            fileio.read_tensor(path)


class TestProblemFiles:
    def test_round_trip_with_everything(self, rng, tmp_path):
        problem, x_star = random_consistent(rng, (2, 2), (3,))
        x0 = random_tensor(rng, (2, 2), (3,))
        opts = SolveOptions(epsilon=1e-8, k_max=123)
        path = tmp_path / "p.json"
        fileio.write_problem(path, problem, x0=x0, options=opts, x_star=x_star)
        loaded = fileio.read_problem(path)
        for got, want in [
            (loaded.problem.A, problem.A),
            (loaded.problem.C, problem.C),
            (loaded.problem.D, problem.D),
            (loaded.x0, x0),
            (loaded.x_star, x_star),
        ]:
            assert (got.row_extents, got.col_extents) == (want.row_extents, want.col_extents)
            assert np.array_equal(got.data, want.data)
        assert loaded.options == opts

    def test_optional_fields_absent(self, rng, tmp_path):
        problem, _ = random_consistent(rng, (2,), (2,))
        path = tmp_path / "p.json"
        fileio.write_problem(path, problem)
        loaded = fileio.read_problem(path)
        assert loaded.x0 is None
        assert loaded.options is None
        assert loaded.x_star is None

    def test_missing_operator(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"A": {}, "C": {}}))
        with pytest.raises(FileFormatError, match="missing field 'D'"):
            fileio.read_problem(path)

    def test_incompatible_shapes(self, rng, tmp_path):
        obj = {
            "A": {"row_extents": [2], "col_extents": [2], "data": [1, 0, 0, 1]},
            "C": {"row_extents": [2], "col_extents": [2], "data": [1, 0, 0, 1]},
            "D": {"row_extents": [3], "col_extents": [2], "data": [0] * 6},
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(FileFormatError):
            fileio.read_problem(path)

    def test_x0_split_checked(self, rng, tmp_path):
        # X0 and X_star must both have D's split.
        problem, _ = random_consistent(rng, (2,), (3,))
        path = tmp_path / "p.json"
        for key in ("X0", "X_star"):
            fileio.write_problem(path, problem)
            obj = json.loads(path.read_text())
            obj[key] = {"row_extents": [3], "col_extents": [2], "data": [0] * 6}
            path.write_text(json.dumps(obj))
            message = f"{path}: {key} split (3,) x (2,) does not fit A (2,) and C (3,)"
            with pytest.raises(FileFormatError, match=f"^{re.escape(message)}$"):
                fileio.read_problem(path)

    def test_bad_options_block(self, rng, tmp_path):
        problem, _ = random_consistent(rng, (2,), (2,))
        path = tmp_path / "p.json"
        fileio.write_problem(path, problem)
        obj = json.loads(path.read_text())
        obj["options"] = {"epsilon": "fast"}
        path.write_text(json.dumps(obj))
        with pytest.raises(FileFormatError):
            fileio.read_problem(path)

    @pytest.mark.parametrize(
        "block, key, value",
        [
            ("D", "row_extents", "22"),
            ("D", "col_extents", [True]),
            ("D", "data", ["1", "2", "3", "4"]),
            ("D", "data", [[1, 2], [3, 4]]),
            ("D", "data", [1, True, 3, 4]),
            ("D", "data", [1, 10**400, 3, 4]),
            ("options", "k_max", 2.7),
            ("options", "k_max", "7"),
            ("options", "k_max", True),
            ("options", "epsilon", "1e-3"),
            ("options", "epsilon", True),
            ("options", "epsilon", float("inf")),
            ("options", "kmax", 7),
            ("options", "relative", True),
            ("options", "epsilon_p", 1e-12),  # the constant solver.DIRECTION_TOL, not a field
        ],
    )
    def test_malformed_field_rejected(self, rng, tmp_path, block, key, value):
        # With this split, a coerced "22" or [True] would fit as (2, 2) or (1,).
        problem, _ = random_consistent(rng, (2, 2), (1,))
        path = tmp_path / "p.json"
        fileio.write_problem(path, problem, options=SolveOptions())
        obj = json.loads(path.read_text())
        obj[block][key] = value
        path.write_text(json.dumps(obj))
        with pytest.raises(FileFormatError, match=f"{block}: .*{key}"):
            fileio.read_problem(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda obj: {**obj, "D": [1, 2]}, "D: expected an object, got list"),
            (lambda obj: {**obj, "D": {**obj["D"], "data": "1 2"}}, "D: field 'data' must be a flat list"),
            (lambda obj: {**obj, "options": [7]}, "options must be an object"),
            (lambda obj: [obj], "expected a top-level object"),
            (lambda obj: {**obj, "Options": {"k_max": 1}}, "unknown field 'Options'"),
        ],
        ids=["tensor", "data", "options", "top-level", "unknown-field"],
    )
    def test_wrong_json_kind_rejected(self, rng, tmp_path, edit, message):
        problem, _ = random_consistent(rng, (2,), (2,))
        path = tmp_path / "p.json"
        fileio.write_problem(path, problem)
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(FileFormatError, match=f"^{re.escape(f'{path}: {message}')}"):
            fileio.read_problem(path)

    def test_missing_options_take_defaults(self, rng, tmp_path):
        problem, _ = random_consistent(rng, (2,), (2,))
        path = tmp_path / "p.json"
        fileio.write_problem(path, problem)
        obj = json.loads(path.read_text())
        obj["options"] = {"k_max": 5}
        path.write_text(json.dumps(obj))
        assert fileio.read_problem(path).options == SolveOptions(k_max=5)


class TestReferenceProblems:
    # SHA-256 of the two reference problem files the package formerly shipped.
    # The bytes pin every number of the built problems and the writer's format.
    DIGESTS = {
        "reference_problem.json": "fceabed0cc3fce2cb3a98f463445ffd608c2d6c4b05ff9b1cf408344febf8a86",
        "nearness_problem.json": "06428bbe518b0990701cbe6fe47780505c691b5be8aa9f030c20829cebc8b443",
    }

    def test_written_files_match_digests_and_loop_rhs(self, tmp_path):
        reference = load_reference_problem()
        nearness = load_nearness_problem()
        fileio.write_problem(tmp_path / "reference_problem.json", reference.problem, x_star=reference.x_star)
        fileio.write_problem(tmp_path / "nearness_problem.json", nearness.problem, x0=nearness.x0)
        for name, digest in self.DIGESTS.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
        a, c, d = reference.problem.A, reference.problem.C, reference.problem.D
        assert np.array_equal(d.data, loop_sylvester_rhs(a, c, reference.x_star).data)


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_problem_file_rejected(self, rng, tmp_path, token):
        problem, _ = random_consistent(rng, (2,), (3,))
        path = tmp_path / "p.json"
        write_with_bad_entry(path, problem, token)
        with pytest.raises(FileFormatError, match=r"D: field 'data' entry 1 is .*not a finite number"):
            fileio.read_problem(path)

    def test_tensor_file_rejected(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text('{"row_extents": [2], "col_extents": [1], "data": [1.0, NaN]}')
        with pytest.raises(FileFormatError, match="not a finite number"):
            fileio.read_tensor(path)

    @pytest.mark.parametrize("field", ["D", "X0"])
    def test_problem_writer_refuses_and_leaves_no_file(self, rng, tmp_path, field):
        # The infinite entry is refused when its tensor is built, before any file is opened.
        problem, _ = random_consistent(rng, (2,), (3,))
        data = np.array(problem.D.data)
        data[4] = float("inf")
        path = tmp_path / "p.json"
        with pytest.raises(ValueError, match=r"^entry 4 is inf, not a finite number$"):
            bad = tc.DenseTensor(problem.D.row_extents, problem.D.col_extents, data)
            if field == "D":
                fileio.write_problem(path, SylvesterProblem(problem.A, problem.C, bad))
            else:
                fileio.write_problem(path, problem, x0=bad)
        assert not path.exists()

    def test_object_pair_round_trips(self, rng):
        t = random_tensor(rng, (2, 3), (2,))
        back = fileio.tensor_from_obj(fileio.tensor_to_obj(t), "t")
        assert (back.row_extents, back.col_extents) == (t.row_extents, t.col_extents)
        assert np.array_equal(back.data, t.data)


class TestResidualCsv:
    def test_format(self, tmp_path):
        path = tmp_path / "r.csv"
        fileio.write_residual_csv([1.0, 0.5, 0.25], path)
        text = path.read_bytes().decode()
        lines = text.split("\n")
        assert lines[0] == "k,res"
        assert lines[1] == "1,1"
        assert lines[2] == "2,0.5"
        assert lines[3] == "3,0.25"
        assert text.endswith("\n") and "\r" not in text

    def test_precision_round_trips(self, tmp_path):
        values = [1.0 / 3.0, 1.2345678901234567e-10]
        path = tmp_path / "r.csv"
        fileio.write_residual_csv(values, path)
        rows = path.read_text().strip().split("\n")[1:]
        back = [float(row.split(",")[1]) for row in rows]
        assert back == values

    def test_empty_history_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            fileio.write_residual_csv([], tmp_path / "r.csv")
