"""Random instance generators: determinism, consistency, certification."""

import re
from types import SimpleNamespace

import numpy as np
import pytest

from tensyl import instances
from tensyl import tensor as tc
from tensyl.cli import main
from tensyl.instances import random_consistent, random_inconsistent
from tensyl.oracle import oracle_solve
from tensyl.solver import apply_operator


class TestRandomConsistent:
    def test_witness_solves_equation(self):
        rng = np.random.default_rng(0)
        problem, x = random_consistent(rng, (2, 2), (3,))
        d = apply_operator(problem.A, problem.C, x)
        assert np.allclose(d.data, problem.D.data)

    def test_deterministic_for_seed(self):
        a = random_consistent(np.random.default_rng(8), (2,), (3,))[0]
        b = random_consistent(np.random.default_rng(8), (2,), (3,))[0]
        assert np.array_equal(a.D.data, b.D.data)

    def test_shift_adds_identity(self):
        base = random_consistent(np.random.default_rng(1), (2,), (2,), shift=0.0)[0]
        shifted = random_consistent(np.random.default_rng(1), (2,), (2,), shift=5.0)[0]
        diff = tc.psi(shifted.A) - tc.psi(base.A)
        assert np.allclose(diff, 5.0 * np.eye(2))

    def test_oracle_certifies_consistent(self):
        rng = np.random.default_rng(3)
        problem, _ = random_consistent(rng, (2,), (2, 2))
        assert oracle_solve(problem).consistent


class TestRandomInconsistent:
    def test_oracle_certifies_inconsistent(self):
        rng = np.random.default_rng(6)
        problem = random_inconsistent(rng, (2, 2), (3,))
        assert not oracle_solve(problem).consistent
        # An extent product of 1 makes that singular operator the 1 x 1 zero.
        for split in [((1,), (3,)), ((3,), (1,)), ((1,), (1,)), ((1, 1), (2, 2))]:
            problem = random_inconsistent(np.random.default_rng(0), *split)
            assert not oracle_solve(problem).consistent

    def test_operators_are_singular(self):
        rng = np.random.default_rng(7)
        problem = random_inconsistent(rng, (2,), (2, 2))
        assert np.linalg.matrix_rank(tc.psi(problem.A)) < problem.D.m
        assert np.linalg.matrix_rank(tc.psi(problem.C)) < problem.D.n

    def test_deterministic_for_seed(self):
        a = random_inconsistent(np.random.default_rng(9), (2,), (3,))
        b = random_inconsistent(np.random.default_rng(9), (2,), (3,))
        assert np.array_equal(a.D.data, b.D.data)

    @pytest.mark.parametrize(
        "name, replacement, message",
        [
            # K = I: the probe lies wholly in the range
            ("unfold_system", lambda problem: np.eye(problem.D.m * problem.D.n),
             r"probe left only \d\.\d{3}e[-+]\d+ outside the operator's range"),
            ("oracle_solve", lambda problem: SimpleNamespace(consistent=True),
             "the oracle found the generated instance consistent"),
        ],
    )
    def test_generation_error(self, monkeypatch, tmp_path, capsys, name, replacement, message):
        monkeypatch.setattr(instances, name, replacement)
        with pytest.raises(instances.GenerationError, match=f"^{message}$"):
            random_inconsistent(np.random.default_rng(0), (2,), (3,))
        out = tmp_path / "bad.json"
        assert main(["gen", "--I", "2", "--J", "3", "--seed", "0", "--inconsistent", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(f"error: {message}\n", captured.err)
        assert not out.exists()


@pytest.mark.parametrize("generate", [random_consistent, random_inconsistent])
@pytest.mark.parametrize("rows, cols, which", [((0,), (2,), "row"), ((2,), (2.5,), "col"), ((2,), (3, -1), "col")])
def test_bad_extents_refused_before_any_draw(generate, rows, cols, which):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(tc.DimensionError, match=f"^{which} extents must be positive integers"):
        generate(rng, rows, cols)
    assert rng.bit_generator.state == state
