"""Regenerate the bundled problem files under src/tensyl/data.

The right-hand side D is built here with a naive index-loop contraction,
written independently of the library's Einstein-product kernel, so the
bundled fixtures double as a cross-check of that kernel.
"""

from pathlib import Path

import numpy as np

from tensyl import reference_problems as ref
from tensyl import tensor as tc
from tensyl.fileio import write_problem
from tensyl.solver import SylvesterProblem

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "tensyl" / "data"


def loop_sylvester_rhs(a, c, x):
    """D = A *_2 X + X *_2 C by explicit loops over every index."""
    A = tc.to_array(a)
    C = tc.to_array(c)
    X = tc.to_array(x)
    I1, I2 = x.row_extents
    J1, J2 = x.col_extents
    D = np.zeros((I1, I2, J1, J2))
    for i1 in range(I1):
        for i2 in range(I2):
            for j1 in range(J1):
                for j2 in range(J2):
                    acc = 0.0
                    for s1 in range(I1):
                        for s2 in range(I2):
                            acc += A[i1, i2, s1, s2] * X[s1, s2, j1, j2]
                    for t1 in range(J1):
                        for t2 in range(J2):
                            acc += X[i1, i2, t1, t2] * C[t1, t2, j1, j2]
                    D[i1, i2, j1, j2] = acc
    return tc.from_array(D, 2)


def main(out_dir=DATA_DIR):
    """Write both problem files into ``out_dir`` through ``write_problem``."""
    a = ref.operator_a()
    c = ref.operator_c()
    x_star = ref.exact_solution()
    problem = SylvesterProblem(a, c, loop_sylvester_rhs(a, c, x_star))

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_problem(out_dir / "reference_problem.json", problem, x_star=x_star)
    write_problem(out_dir / "nearness_problem.json", problem, x0=ref.nearness_start())
    print(f"wrote fixtures to {out_dir}")


if __name__ == "__main__":
    main()
