"""s-step GMRES with selectable Arnoldi variants, block orthogonalization
schemes, and polynomial Krylov bases, plus per-iteration stability
diagnostics."""

from .arnoldi import (
    ArnoldiState,
    OperatorSet,
    StepReport,
    classical_step,
    modified_step,
    truncate_after_breakdown,
)
from .basis import (
    ChebyshevBasis,
    MonomialBasis,
    NewtonBasis,
    build_krylov_block,
    compute_ritz_values,
    leja_order,
)
from .blockqr import QrState, bcgsi_plus_step, bmgs_step
from .dense import UNIT_ROUNDOFF, cond2, householder_qr
from .diagnostics import (
    IterationRecord,
    basis_condition_numbers,
    csv_text,
    read_csv,
    write_csv,
)
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
    "ArnoldiState",
    "ChebyshevBasis",
    "CsrMatrix",
    "IterationRecord",
    "MonomialBasis",
    "NewtonBasis",
    "OperatorSet",
    "QrState",
    "RandSvdSpec",
    "SolveResult",
    "SolverConfig",
    "StepReport",
    "UNIT_ROUNDOFF",
    "backward_error",
    "basis_condition_numbers",
    "bcgsi_plus_step",
    "bmgs_step",
    "build_krylov_block",
    "classical_step",
    "compute_ritz_values",
    "cond2",
    "csr_from_dense",
    "csv_text",
    "gen_randsvd",
    "householder_qr",
    "jacobi_preconditioner",
    "leja_order",
    "modified_step",
    "parse_matrix_market",
    "read_csv",
    "right_singular_vector",
    "solve",
    "truncate_after_breakdown",
    "write_csv",
    "write_matrix_market",
]
