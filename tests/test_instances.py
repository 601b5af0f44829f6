"""Random instance generators: determinism, consistency, certification."""

import numpy as np
import pytest

from tensyl import tensor as tc
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

    def test_operators_are_singular(self):
        rng = np.random.default_rng(7)
        problem = random_inconsistent(rng, (2,), (2, 2))
        assert np.linalg.matrix_rank(tc.psi(problem.A)) < problem.D.m
        assert np.linalg.matrix_rank(tc.psi(problem.C)) < problem.D.n

    def test_deterministic_for_seed(self):
        a = random_inconsistent(np.random.default_rng(9), (2,), (3,))
        b = random_inconsistent(np.random.default_rng(9), (2,), (3,))
        assert np.array_equal(a.D.data, b.D.data)
