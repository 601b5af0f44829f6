"""Reference problems used by the ``repro`` command and the tests.

The operator slices below are hand-transcribed integer data, and the exact
solution X* is 1..108.  The right-hand side D = A *_2 X* + X* *_2 C is built
here by two Einstein products of the tensor algebra, GEMMs apart from the
solver's kernel.  Every operand is an integer, so D is exact in any
summation order; the tests check it against an explicit loop.
"""

import numpy as np

from . import tensor as tc
from .fileio import ProblemFile
from .solver import DEFAULT_OPTIONS, SylvesterProblem

# A in R^{4x3x4x3}: slice (k, l) -> the 4x3 matrix A(:, :, k, l).
A_SLICES = {
    (1, 1): [[11, 7, 7], [-2, 11, -2], [11, -2, 7], [-2, 11, -2]],
    (2, 1): [[-2, -2, -2], [3, -2, 3], [-2, 3, -2], [3, -2, 3]],
    (3, 1): [[3, -4, -4], [-1, 3, -1], [3, -1, -4], [-1, 3, -1]],
    (4, 1): [[2, -9, -9], [-6, 2, -6], [2, -6, -9], [-6, 2, -6]],
    (1, 2): [[0, 7, 7], [11, 0, 11], [0, 11, 7], [11, 0, 11]],
    (2, 2): [[-16, 3, 3], [-11, -16, -11], [-16, -11, 3], [-11, -16, -11]],
    (3, 2): [[-11, 15, 15], [0, -11, 0], [-11, 0, 15], [0, -11, 0]],
    (4, 2): [[-4, -2, -2], [16, -4, 16], [-4, 16, -2], [16, -4, 16]],
    (1, 3): [[3, -3, -3], [13, 3, 13], [3, 13, -3], [13, 3, 13]],
    (2, 3): [[26, 0, 0], [-4, 26, -4], [26, -4, 0], [-4, 26, -4]],
    (3, 3): [[-4, 1, 1], [8, -4, 8], [-4, 8, 1], [8, -4, 8]],
    (4, 3): [[2, -8, -8], [-16, 2, -16], [2, -16, -8], [-16, 2, -16]],
}

# C in R^{3x3x3x3}: slice (k, l) -> the 3x3 matrix C(:, :, k, l).
C_SLICES = {
    (1, 1): [[10, 0, 6], [15, 10, 10], [10, 15, 10]],
    (2, 1): [[6, -9, 17], [-9, 6, 6], [6, -9, 6]],
    (3, 1): [[4, -19, -3], [-14, 4, 4], [4, -14, 4]],
    (1, 2): [[9, -22, -8], [0, 9, 9], [9, 0, 9]],
    (2, 2): [[0, -9, -3], [-13, 0, 0], [0, -13, 0]],
    (3, 2): [[-7, -17, 12], [6, -7, -7], [-7, 6, -7]],
    (1, 3): [[0, -3, 4], [5, 0, 0], [0, 5, 0]],
    (2, 3): [[5, -13, 1], [-5, 5, 5], [5, -5, 5]],
    (3, 3): [[0, -12, 3], [-1, 0, 0], [0, -1, 0]],
}

# Given tensor X0 of the nearness problem, same slice layout as D.
X0_SLICES = {
    (1, 1): [[0, 11, -10], [-7, -1, -4], [-4, -4, 5], [7, -6, -5]],
    (2, 1): [[4, -11, -12], [-3, 6, -20], [-13, 4, 0], [6, -6, -4]],
    (3, 1): [[-5, 11, 0], [-16, -2, 4], [33, -2, -1], [-16, -8, 9]],
    (1, 2): [[7, 6, -4], [14, -4, -11], [-13, -32, 9], [-28, 0, -10]],
    (2, 2): [[-10, 5, 18], [-6, -8, 8], [-16, -4, 8], [-12, -4, 9]],
    (3, 2): [[-7, 11, 4], [-4, -1, 0], [-14, -5, -21], [4, 6, 14]],
    (1, 3): [[1, 1, 4], [7, 21, -5], [-4, 2, 0], [-16, 5, -18]],
    (2, 3): [[9, 4, 5], [2, -2, -4], [-7, -2, 13], [-16, 6, -4]],
    (3, 3): [[0, -9, 1], [8, -16, -14], [9, -15, -12], [-19, -3, -2]],
}

# Published min-norm solution of the first reference problem (4 decimals).
MIN_NORM_SOLUTION_SLICES = {
    (1, 1): [
        [42.9784, 46.3496, 53.2346],
        [53.0555, 68.2438, 49.0433],
        [54.4996, 54.9506, 59.0609],
        [61.1020, 53.8303, 73.3694],
    ],
    (2, 1): [
        [32.9897, 36.6903, 42.0641],
        [38.3122, 47.6399, 40.5920],
        [39.5236, 41.8336, 45.8862],
        [43.1914, 41.8239, 53.2235],
    ],
    (3, 1): [
        [46.9887, 50.6593, 56.1705],
        [52.7434, 62.6039, 54.4513],
        [53.9760, 56.1170, 60.1748],
        [57.9106, 56.0063, 68.1459],
    ],
    (1, 2): [
        [37.0, 41.0, 45.0],
        [38.0, 42.0, 46.0],
        [39.0, 43.0, 47.0],
        [40.0, 44.0, 48.0],
    ],
    (2, 2): [
        [50.9990, 54.9690, 59.1064],
        [52.4312, 56.9640, 59.8592],
        [53.4524, 57.2834, 61.2886],
        [54.7191, 58.1824, 62.9224],
    ],
    (3, 2): [
        [41.0103, 45.3097, 47.9359],
        [37.6878, 36.3601, 51.4080],
        [38.4764, 44.1664, 48.1138],
        [36.8086, 46.1761, 42.7765],
    ],
    (1, 3): [
        [73.0, 77.0, 81.0],
        [74.0, 78.0, 82.0],
        [75.0, 79.0, 83.0],
        [76.0, 80.0, 84.0],
    ],
    (2, 3): [
        [57.0144, 61.4336, 63.5103],
        [51.9630, 48.5042, 67.9711],
        [52.6669, 59.0329, 62.9594],
        [49.9320, 61.4465, 55.0871],
    ],
    (3, 3): [
        [59.0196, 63.5885, 64.9782],
        [51.8069, 45.6842, 70.6751],
        [52.4051, 59.6161, 63.5163],
        [48.3363, 62.5345, 52.4753],
    ],
}

# Published nearness solution X-hat (4 decimals).
NEARNESS_SOLUTION_SLICES = {
    (1, 1): [
        [44.1912, 54.1943, 43.7075],
        [50.4602, 68.6229, 49.3393],
        [48.1731, 53.1240, 62.4182],
        [79.5249, 53.7313, 65.1154],
    ],
    (2, 1): [
        [39.4807, 25.7036, 37.5108],
        [39.1969, 44.5352, 36.9080],
        [41.6060, 39.9043, 56.2875],
        [45.9264, 37.6248, 44.2264],
    ],
    (3, 1): [
        [40.5057, 59.6836, 56.9232],
        [41.8432, 65.1252, 55.9031],
        [83.6837, 59.5245, 59.2572],
        [52.0225, 56.2288, 71.7468],
    ],
    (1, 2): [
        [37.0, 41.0, 45.0],
        [38.0, 42.0, 46.0],
        [39.0, 43.0, 47.0],
        [40.0, 44.0, 48.0],
    ],
    (2, 2): [
        [41.7494, 54.6924, 71.7399],
        [49.8603, 58.7485, 67.0232],
        [33.7992, 61.6395, 66.1633],
        [53.6123, 55.2035, 71.7550],
    ],
    (3, 2): [
        [34.5193, 56.2964, 52.4892],
        [36.8031, 39.4648, 55.0920],
        [36.3940, 46.0957, 37.7125],
        [34.0736, 50.3752, 51.7736],
    ],
    (1, 3): [
        [73.0, 77.0, 81.0],
        [74.0, 78.0, 82.0],
        [75.0, 79.0, 83.0],
        [76.0, 80.0, 84.0],
    ],
    (2, 3): [
        [66.1178, 55.6214, 63.4721],
        [57.5053, 53.0468, 68.9621],
        [44.5545, 56.3846, 70.5580],
        [50.0412, 66.5350, 56.9444],
    ],
    (3, 3): [
        [64.4359, 52.8083, 61.1574],
        [62.3311, 36.4565, 60.7722],
        [56.7895, 56.3274, 48.6033],
        [36.7992, 60.3013, 46.4383],
    ],
}

# Published distance ||X-hat - X0||_F of the nearness problem.  It is
# contradicted by the same source's printed blocks: X-hat and X0 above imply
# 603.3520 (see ``nearness_reference_distance``), and rounding those blocks to
# 4 decimals moves that figure by at most sqrt(108) * 5e-5 ~ 5.2e-4.  Kept as
# printed so the discrepancy stays on record; checks use the implied value.
NEARNESS_DISTANCE = 640.2422

# Bands ``tensyl repro`` checks: iteration counts within ITERATION_BAND of the
# published ones, solution entries within ENTRY_TOL of the printed blocks, and
# the distance within DISTANCE_TOL of the one the blocks imply.
REFERENCE_ITERATIONS = 86
NEARNESS_ITERATIONS = 79
ITERATION_BAND = 15
ENTRY_TOL = 5.0e-4
DISTANCE_TOL = 1.0e-3


def tensor_from_slices(slices, row_extents, col_extents):
    """Assemble a mode-split tensor from {(k, l): matrix} frontal slices."""
    array = np.zeros(tuple(row_extents) + tuple(col_extents))
    for (k, l), block in slices.items():
        array[:, :, k - 1, l - 1] = np.asarray(block, dtype=np.float64)
    return tc.from_array(array, len(row_extents))


def nearness_start():
    return tensor_from_slices(X0_SLICES, (4, 3), (3, 3))


def min_norm_reference():
    return tensor_from_slices(MIN_NORM_SOLUTION_SLICES, (4, 3), (3, 3))


def nearness_reference():
    return tensor_from_slices(NEARNESS_SOLUTION_SLICES, (4, 3), (3, 3))


def nearness_reference_distance():
    """||X-hat - X0||_F implied by the printed nearness blocks (603.3520).

    Computed from the transcribed slices alone, never from solver output.
    """
    return tc.fro_norm(tc.subtract(nearness_reference(), nearness_start()))


def _reference_equation():
    """(problem, X*): A and C from their slices, X* = 1..108 filled
    first-index-fastest, and D built from X* by two Einstein products."""
    a = tensor_from_slices(A_SLICES, (4, 3), (4, 3))
    c = tensor_from_slices(C_SLICES, (3, 3), (3, 3))
    x_star = tc.DenseTensor((4, 3), (3, 3), np.arange(1.0, 109.0))
    d = tc.add(tc.einstein_product(a, x_star, 2), tc.einstein_product(x_star, c, 2))
    return SylvesterProblem(a, c, d), x_star


def load_reference_problem():
    """The consistent reference problem (known exact solution recorded)."""
    problem, x_star = _reference_equation()
    return ProblemFile(problem, None, DEFAULT_OPTIONS, x_star)


def load_nearness_problem():
    """The nearness problem (same operator, X0 attached)."""
    return ProblemFile(_reference_equation()[0], nearness_start(), DEFAULT_OPTIONS)
