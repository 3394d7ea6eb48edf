"""Command line interface around the solver.

Three subcommands: ``solve`` runs s-step GMRES on a Matrix Market file or
a generated test matrix and can emit the per-step diagnostics CSV;
``gen`` writes such a test matrix to disk together with its prescribed
singular values; ``info`` prints size, symmetry, and conditioning of a
matrix file.

Exit codes: 0 when the solve converged, 2 when it stopped without
meeting the tolerance (iteration cap or exhausted Krylov space), 1 for
usage and input errors, out-of-memory ones included.
"""

import argparse
import dataclasses
import sys
import warnings

import numpy as np

from .dense import cond2
from .diagnostics import write_csv
from .solver import (
    ARNOLDI_CHOICES,
    BASIS_CHOICES,
    BASIS_OPERATOR_CHOICES,
    ORTH_CHOICES,
    SolverConfig,
    solve,
)
from .sparse import (
    RandSvdSpec,
    csr_from_coo,
    gen_randsvd,
    jacobi_preconditioner,
    parse_matrix_market,
    right_singular_vector,
    text_stream,
    write_matrix_market,
)

__all__ = ["main"]

EXIT_USAGE = 1
EXIT_NOT_CONVERGED = 2

# cond2 of a dense randsvd matrix with one BLAS thread took about 0.05 s
# at n = 300, 0.21-0.25 s at n = 500 and 1.5 s at n = 800 (2-core x86-64
# VM); the pivoted QR's column-by-column Householder loop dominates, and
# the SVD of its R takes most of the rest
DENSE_INFO_LIMIT = 500

# solve applies A as an ndarray (GEMV) when it stores at least n^2 / 4
# entries, else as CSR (spmv). On random matrices the slot-major spmv
# loses to GEMV from about 10-12.5% density at n = 1000-2000 but only
# from 15-20% at n = 3000, and is 1.6-3.4x slower at 25% (2-core x86-64
# VM, one BLAS thread, best of 5). CSR keeps about 40 bytes per entry:
# 24 for the CSR arrays, 16 for the slot-major copy spmv builds on its
# first call. The 8 n^2 bytes of dense storage are thus 1.6x CSR's at
# 12.5% density, equal at 20% and 4/5 of it at 25%.
DENSE_FILL_DENOMINATOR = 4

CONFIG_FIELDS = dataclasses.fields(SolverConfig)


class CliError(Exception):
    """Unusable invocation or input; the message goes to standard error."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; usage errors must be 1 here
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message)


def _build_parser():
    parser = _Parser(prog="sgmres", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser(
        "solve",
        help="run s-step GMRES on a linear system",
        description="Run s-step GMRES and report how the iteration ended.",
    )
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--matrix", metavar="PATH", help="Matrix Market file holding A")
    src.add_argument(
        "--randsvd",
        metavar="N,KAPPA,MODE,SEED",
        help="generate A with prescribed condition number instead of reading it",
    )
    p.add_argument(
        "--rhs",
        default="ones",
        metavar="SPEC",
        help="right-hand side: 'ones', 'file:PATH', or 'rsv:K' for the K-th "
        "right singular vector (needs --randsvd); default ones",
    )
    # one flag per SolverConfig field: its dest is the field's name, and
    # its default the field's, set with ``set_defaults`` below
    p.add_argument("--s", type=int, help="basis columns per block step")
    p.add_argument(
        "--basis", choices=BASIS_CHOICES, help="polynomial basis for the Krylov block"
    )
    p.add_argument("--arnoldi", choices=ARNOLDI_CHOICES, help="block Arnoldi variant")
    p.add_argument(
        "--orth", choices=ORTH_CHOICES, help="block orthogonalization method"
    )
    p.add_argument("--tol", type=float, help="backward error tolerance, default n*u")
    p.add_argument(
        "--tolh",
        type=float,
        dest="tol_h",
        metavar="TOLH",
        help="basis rank-test tolerance, default sqrt(n)*u",
    )
    p.add_argument("--restart", type=int, help="restart length")
    p.add_argument(
        "--max-outer",
        type=int,
        help="cap on block steps (restart cycles when --restart is set)",
    )
    p.add_argument(
        "--precond",
        choices=("none", "jacobi"),
        default="none",
        help="left preconditioner",
    )
    p.add_argument(
        "--basis-operator",
        choices=BASIS_OPERATOR_CHOICES,
        help="operator the classical variant builds the polynomial basis with; "
        "the modified variant always uses the preconditioned one. The default, "
        "plain, can need several times the iterations: 2025 against 415 on a "
        "4096-unknown stencil with Jacobi, Newton, s=5, restart 60",
    )
    p.add_argument(
        "--csv", metavar="PATH", default=None, help="write per-step diagnostics here"
    )
    p.add_argument("--summary", action="store_true", help="print a run summary")
    p.add_argument(
        "--diag-every",
        type=int,
        metavar="K",
        help="measure basis conditioning on block steps K, 2K, ... of each "
        "cycle and on no other step",
    )
    p.set_defaults(run=_run_solve, **{f.name: f.default for f in CONFIG_FIELDS})

    p = sub.add_parser(
        "gen",
        help="generate a test matrix with prescribed singular values",
        description="Write a generated matrix as Matrix Market plus a sidecar "
        "file listing its singular values.",
    )
    p.add_argument(
        "--randsvd", metavar="N,KAPPA,MODE,SEED", required=True, help="matrix spec"
    )
    p.add_argument("--out", metavar="PATH", required=True, help="output file")
    p.set_defaults(run=_run_gen)

    p = sub.add_parser(
        "info",
        help="print size, symmetry, and conditioning of a matrix file",
        description="Inspect a Matrix Market file.",
    )
    p.add_argument("--matrix", metavar="PATH", required=True, help="file to inspect")
    p.set_defaults(run=_run_info)
    return parser


def _parse_randsvd(text):
    parts = text.split(",")
    if len(parts) != 4:
        raise CliError("--randsvd expects N,KAPPA,MODE,SEED, got %r" % text)
    try:
        spec = RandSvdSpec(
            n=int(parts[0]),
            kappa=float(parts[1]),
            mode=int(parts[2]),
            seed=int(parts[3]),
        )
    except ValueError as exc:
        raise CliError("bad --randsvd value: %s" % exc)
    return spec


def _load_problem(args):
    """Returns (A, n, right singular vectors or None).

    A read from a file is an ndarray when it stores at least
    n^2 / DENSE_FILL_DENOMINATOR entries, and a CsrMatrix otherwise. A
    generated A is always an ndarray: with a finite kappa it has no zero
    entry almost surely.
    """
    if args.matrix is not None:
        mat = parse_matrix_market(args.matrix, dense_fill=DENSE_FILL_DENOMINATOR)
        return mat, (mat.shape[0] if isinstance(mat, np.ndarray) else mat.n), None
    a, v, _ = gen_randsvd(_parse_randsvd(args.randsvd))
    return a, a.shape[0], v


def _resolve_rhs(text, n, singular_vectors):
    if text == "ones":
        return np.ones(n)
    if text.startswith("file:"):
        path = text[len("file:") :]
        try:
            with text_stream(path, "r") as stream, warnings.catch_warnings():
                # "input contained no data": the size check below says so
                warnings.simplefilter("ignore", UserWarning)
                vec = np.loadtxt(stream, dtype=float, ndmin=1)
        except ValueError as exc:
            raise CliError("could not read %s as a vector: %s" % (path, exc))
        if vec.ndim != 1:
            raise CliError(
                "right-hand side file %s holds a %d x %d table; expected one "
                "value per line or one line of values" % ((path,) + vec.shape)
            )
        if vec.size != n:
            raise CliError(
                "right-hand side has %d entries but the matrix is %d x %d"
                % (vec.size, n, n)
            )
        return vec
    if text.startswith("rsv:"):
        if singular_vectors is None:
            raise CliError("--rhs rsv:K needs --randsvd, not --matrix")
        try:
            k = int(text[len("rsv:") :])
        except ValueError:
            raise CliError("bad --rhs %r: K must be an integer" % text)
        try:
            return right_singular_vector(singular_vectors, k)
        except ValueError as exc:
            raise CliError("bad --rhs %r: %s" % (text, exc))
    raise CliError("unknown --rhs form %r; expected ones, file:PATH, or rsv:K" % text)


def _print_summary(result, storage):
    conds = [
        r.cond_B_tilde for r in result.records if not np.isnan(r.cond_B_tilde)
    ]
    print("matrix_storage: %s" % storage)
    print("status: %s" % result.status)
    print("backward_error: %s" % repr(float(result.backward_error)))
    print("restart_cycles: %d" % result.cycles)
    print("block_steps: %d" % result.block_steps)
    print("inner_iterations: %d" % result.inner_iterations)
    print("candidate_projections: %d" % result.candidate_projections)
    print("candidate_qr_factorizations: %d" % result.candidate_qr_count)
    print("max_cond_B_tilde: %s" % (repr(float(max(conds))) if conds else "n/a"))


def _run_solve(args):
    mat, n, singular_vectors = _load_problem(args)
    rhs = _resolve_rhs(args.rhs, n, singular_vectors)
    config = SolverConfig(**{f.name: getattr(args, f.name) for f in CONFIG_FIELDS})
    prec = jacobi_preconditioner(mat) if args.precond == "jacobi" else None
    result = solve(mat, rhs, config=config, preconditioner=prec)
    if args.csv is not None:
        write_csv(result.records, args.csv)
    if args.summary:
        _print_summary(result, "dense" if isinstance(mat, np.ndarray) else "csr")
    return 0 if result.converged else EXIT_NOT_CONVERGED


def _run_gen(args):
    spec = _parse_randsvd(args.randsvd)
    a, _, sigma = gen_randsvd(spec)
    write_matrix_market(a, args.out)
    sidecar = args.out + ".sigma.txt"
    with text_stream(sidecar, "w") as fh:
        for value in sigma:
            fh.write(repr(float(value)) + "\n")
    print("wrote %s (%d x %d) and %s" % (args.out, spec.n, spec.n, sidecar))
    return 0


def _is_symmetric(a):
    """Every stored entry has an equal stored mirror: A equals its transpose.

    A stored entry whose mirror is not stored counts as asymmetric even
    when its value is zero, so the stored patterns must match too.
    """
    t = csr_from_coo(a.n, a.col_idx, a.row_idx, a.values)
    return (
        np.array_equal(a.row_ptr, t.row_ptr)
        and np.array_equal(a.col_idx, t.col_idx)
        and np.array_equal(a.values, t.values)
    )


def _run_info(args):
    mat = parse_matrix_market(args.matrix)
    print("n: %d" % mat.n)
    print("nnz: %d" % mat.nnz)
    print("symmetric: %s" % ("yes" if _is_symmetric(mat) else "no"))
    print("frobenius_norm: %s" % repr(float(mat.frobenius_norm())))
    if not np.any(mat.values):
        # no nonzero value: A is singular, and cond2 reports rank loss as inf
        print("cond2: inf")
    elif mat.n <= DENSE_INFO_LIMIT:
        print("cond2: %s" % repr(float(cond2(mat.to_dense()))))
    else:
        print(
            "cond2: skipped (n = %d exceeds the dense SVD limit of %d)"
            % (mat.n, DENSE_INFO_LIMIT)
        )
    return 0


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    # ValueError covers MatrixMarketError and every input check of the
    # library; ArithmeticError a solve whose backward error is not finite;
    # MemoryError an input too large for the storage a solve reserves
    except (CliError, OSError, ValueError, ArithmeticError, MemoryError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
