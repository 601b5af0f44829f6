"""Shared helpers: independent contraction oracles and instance builders.

The loop-based contraction here is written against the index definition
directly (explicit sums over every multi-index) and never touches the
library's unfolding-based kernel, so agreement between the two is a real
cross-check rather than a tautology.
"""

import itertools
import json
from math import prod

import numpy as np
import pytest

from tensyl import fileio
from tensyl import tensor as tc
from tensyl.instances import random_consistent
from tensyl.solver import SylvesterProblem


def loop_einstein_product(a, b, num_contracted):
    """Entrywise-definition Einstein product, independent of the library kernel."""
    A = tc.to_array(a)
    B = tc.to_array(b)
    lead = a.extents[: a.order - num_contracted]
    shared = a.extents[a.order - num_contracted :]
    trail = b.extents[num_contracted:]
    assert shared == b.extents[:num_contracted]
    out = np.zeros(lead + trail if (lead + trail) else (1,))
    for i in itertools.product(*(range(e) for e in lead)):
        for j in itertools.product(*(range(e) for e in trail)):
            acc = 0.0
            for s in itertools.product(*(range(e) for e in shared)):
                acc += A[i + s] * B[s + j]
            out[i + j] = acc
    return tc.DenseTensor(lead, trail, out.ravel(order="F"))


def loop_sylvester_rhs(a, c, x):
    """D = A *_M X + X *_N C via the loop contraction above."""
    m_modes = len(a.row_extents)
    n_modes = len(c.row_extents)
    return tc.add(
        loop_einstein_product(a, x, m_modes),
        loop_einstein_product(x, c, n_modes),
    )


def random_tensor(rng, row_extents, col_extents, scale=1.0):
    size = prod(row_extents) * prod(col_extents)
    return tc.DenseTensor(
        tuple(row_extents), tuple(col_extents), scale * rng.uniform(-1.0, 1.0, size)
    )


def write_with_bad_entry(path, problem, token):
    """A problem file whose D has the JSON number ``token`` as its second entry."""
    fileio.write_problem(path, problem)
    obj = json.loads(path.read_text())
    obj["D"]["data"][1] = "@bad@"
    path.write_text(json.dumps(obj).replace('"@bad@"', token))


def scaled_consistent(seed, row_extents, col_extents, factor=1.0, shift=2.0):
    """Well-conditioned seeded instance with D (and the witness X) scaled.

    Scaling the right-hand side down relative to the absolute stopping
    tolerance shortens the residual decay range the iteration traverses,
    which keeps the floating-point drift of the conjugacy relations small.
    """
    rng = np.random.default_rng(seed)
    problem, x_built = random_consistent(rng, row_extents, col_extents, shift=shift)
    if factor != 1.0:
        problem = SylvesterProblem(problem.A, problem.C, tc.scale(factor, problem.D))
        x_built = tc.scale(factor, x_built)
    return problem, x_built


SMALL_SHAPES = [
    ((2, 2), (2, 3)),
    ((3,), (2, 2)),
    ((2, 2), (3,)),
    ((3, 2), (2, 2)),
    ((2,), (3,)),
    ((4, 3), (3,)),
]


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
