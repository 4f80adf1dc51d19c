"""Randomized least-squares solver toolkit.

Dense linear-algebra kernels, sparse sign embeddings, iterative sketching
(basic, damped, momentum), sketch-and-precondition via LSQR, error metrics
(forward / residual / backward), and synthetic problem generators.
"""

from .linalg import (
    lambert_w0,
    qr_solve,
    svd_values,
    tri_solve_upper,
    tri_solve_upper_transpose,
)
from .embed import (
    DistortionReport,
    SparseSignEmbedding,
    choose_dim,
    measure_distortion,
)
from .metrics import (
    backward_error,
    forward_error,
    residual_error,
    wedin_bounds,
)
from .problems import LsProblem, gen_randsvd, gen_sparse, kernel_problem, load_csv
from .solvers import (
    SolveResult,
    SolverConfig,
    SolveTrace,
    bad_variant,
    damping_params,
    iterative_sketching,
    lsqr,
    momentum_params,
    rate_g_damp,
    rate_g_is,
    rate_g_mom,
    sketch_and_precondition,
    sketch_and_solve,
    theoretical_bound_curve,
)

__all__ = [
    "qr_solve",
    "tri_solve_upper",
    "tri_solve_upper_transpose",
    "svd_values",
    "lambert_w0",
    "SparseSignEmbedding",
    "DistortionReport",
    "measure_distortion",
    "choose_dim",
    "forward_error",
    "residual_error",
    "backward_error",
    "wedin_bounds",
    "LsProblem",
    "gen_randsvd",
    "gen_sparse",
    "kernel_problem",
    "load_csv",
    "SolverConfig",
    "SolveTrace",
    "SolveResult",
    "sketch_and_solve",
    "iterative_sketching",
    "sketch_and_precondition",
    "bad_variant",
    "lsqr",
    "damping_params",
    "momentum_params",
    "rate_g_is",
    "rate_g_damp",
    "rate_g_mom",
    "theoretical_bound_curve",
]
