"""s-step GMRES with selectable Arnoldi variants, block orthogonalization
schemes, and polynomial Krylov bases, plus per-iteration stability
diagnostics.

The names below are the package's API. Everything else (Arnoldi steps,
bases, block QR, the measurement kernels) is imported from its module,
such as ``sstep_gmres.basis``.
"""

from .dense import cond2
from .diagnostics import IterationRecord, read_csv, write_csv
from .solver import SolveResult, SolverConfig, backward_error, solve
from .sparse import (
    CsrMatrix,
    RandSvdSpec,
    csr_from_dense,
    gen_randsvd,
    jacobi_preconditioner,
    parse_matrix_market,
    right_singular_vector,
    write_matrix_market,
)

__version__ = "0.1.0"

__all__ = [
    "CsrMatrix",
    "IterationRecord",
    "RandSvdSpec",
    "SolveResult",
    "SolverConfig",
    "backward_error",
    "cond2",
    "csr_from_dense",
    "gen_randsvd",
    "jacobi_preconditioner",
    "parse_matrix_market",
    "read_csv",
    "right_singular_vector",
    "solve",
    "write_csv",
    "write_matrix_market",
]
