"""Regenerate the bundled problem files under src/tensyl/data.

The right-hand side D is built here with a naive index-loop contraction,
written independently of the library's Einstein-product kernel, so the
bundled fixtures double as a cross-check of that kernel.
"""

import json
from pathlib import Path

import numpy as np

from tensyl import reference_problems as ref
from tensyl import tensor as tc
from tensyl.fileio import tensor_to_obj

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


def main():
    a = ref.operator_a()
    c = ref.operator_c()
    x_star = ref.exact_solution()
    d = loop_sylvester_rhs(a, c, x_star)

    DATA_DIR.mkdir(parents=True, exist_ok=True)
    base = {"A": tensor_to_obj(a), "C": tensor_to_obj(c), "D": tensor_to_obj(d)}

    with open(DATA_DIR / "reference_problem.json", "w", encoding="utf-8") as handle:
        json.dump({**base, "X_star": tensor_to_obj(x_star)}, handle)
        handle.write("\n")

    with open(DATA_DIR / "nearness_problem.json", "w", encoding="utf-8") as handle:
        json.dump({**base, "X0": tensor_to_obj(ref.nearness_start())}, handle)
        handle.write("\n")

    print(f"wrote fixtures to {DATA_DIR}")


if __name__ == "__main__":
    main()
