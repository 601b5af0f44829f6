"""Sylvester tensor equations under the Einstein product.

Dense mode-split tensor algebra, a finite-step conjugate-direction solver
for A *_M X + X *_N C = D (with consistency detection, least-norm
solutions and the tensor nearness problem), and an independent dense
unfolding oracle for cross-validation.
"""

from .oracle import OracleResult, SizeCapError, min_norm_lstsq, oracle_solve, unfold_system
from .solver import (
    NumericalBreakdownError,
    SolveOptions,
    SolveOutcome,
    SolverState,
    Status,
    SylvesterProblem,
    apply_adjoint,
    apply_operator,
    solve,
    solve_min_norm,
    solve_nearness,
)
from .tensor import (
    DenseTensor,
    DimensionError,
    add,
    einstein_product,
    fro_norm,
    from_array,
    identity,
    inner,
    ivec,
    kron,
    psi,
    psi_inverse,
    scale,
    subtract,
    to_array,
    trace,
    transpose,
    vec,
    zeros,
    zeros_like,
)

__version__ = "0.1.0"
