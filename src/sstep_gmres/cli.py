"""Command line interface around the solver.

Three subcommands: ``solve`` runs s-step GMRES on a Matrix Market file or
a generated test matrix and can emit the per-step diagnostics CSV;
``gen`` writes such a test matrix to disk together with its prescribed
singular values; ``info`` prints size, symmetry, and conditioning of a
matrix file.

Exit codes: 0 when the solve converged, 2 when it stopped without
meeting the tolerance (iteration cap or exhausted Krylov space), 1 for
usage and input errors.
"""

import argparse
import sys

import numpy as np

from .dense import cond2
from .diagnostics import write_csv
from .solver import SolverConfig, solve
from .sparse import (
    MatrixMarketError,
    RandSvdSpec,
    csr_from_coo,
    csr_from_dense,
    gen_randsvd,
    jacobi_preconditioner,
    parse_matrix_market,
    right_singular_vector,
    write_matrix_market,
)

__all__ = ["main"]

EXIT_USAGE = 1
EXIT_NOT_CONVERGED = 2

# cond2 of a dense randsvd matrix with one BLAS thread took about 0.07 s
# at n = 300, 0.29 s at n = 500 and 1.6 s at n = 800 (2-core x86-64 VM);
# the pivoted QR's column-by-column Householder loop dominates
DENSE_INFO_LIMIT = 500


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
    p.add_argument("--s", type=int, default=1, help="basis columns per block step")
    p.add_argument(
        "--basis",
        choices=("monomial", "newton", "chebyshev"),
        default="monomial",
        help="polynomial basis for the Krylov block",
    )
    p.add_argument(
        "--arnoldi",
        choices=("classical", "modified"),
        default="classical",
        help="block Arnoldi variant",
    )
    p.add_argument(
        "--orth",
        choices=("bcgsi+", "bmgs"),
        default="bcgsi+",
        help="block orthogonalization method",
    )
    p.add_argument(
        "--tol", type=float, default=None, help="backward error tolerance, default n*u"
    )
    p.add_argument(
        "--tolh",
        type=float,
        default=None,
        help="basis rank-test tolerance, default sqrt(n)*u",
    )
    p.add_argument("--restart", type=int, default=None, help="restart length")
    p.add_argument(
        "--max-outer",
        type=int,
        default=None,
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
        choices=("plain", "preconditioned"),
        default="plain",
        help="operator the classical variant builds the polynomial basis with; "
        "the modified variant always uses the preconditioned one",
    )
    p.add_argument(
        "--csv", metavar="PATH", default=None, help="write per-step diagnostics here"
    )
    p.add_argument("--summary", action="store_true", help="print a run summary")
    p.add_argument(
        "--diag-every",
        type=int,
        default=1,
        metavar="K",
        help="measure basis conditioning on block steps K, 2K, ... of each "
        "cycle and on no other step",
    )
    p.set_defaults(run=_run_solve)

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
    """Returns (CsrMatrix, right singular vectors or None)."""
    if args.matrix is not None:
        return parse_matrix_market(args.matrix), None
    a, v, _ = gen_randsvd(_parse_randsvd(args.randsvd))
    return csr_from_dense(a), v


def _resolve_rhs(text, n, singular_vectors):
    if text == "ones":
        return np.ones(n)
    if text.startswith("file:"):
        path = text[len("file:") :]
        try:
            vec = np.loadtxt(path, dtype=float).reshape(-1)
        except ValueError as exc:
            raise CliError("could not read %s as a vector: %s" % (path, exc))
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


def _print_summary(result):
    conds = [
        r.cond_B_tilde for r in result.records if not np.isnan(r.cond_B_tilde)
    ]
    print("status: %s" % result.status)
    print("backward_error: %s" % repr(float(result.backward_error)))
    print("restart_cycles: %d" % result.cycles)
    print("block_steps: %d" % result.block_steps)
    print("inner_iterations: %d" % result.inner_iterations)
    print("candidate_projections: %d" % result.candidate_projections)
    print("candidate_qr_factorizations: %d" % result.candidate_qr_count)
    print("max_cond_B_tilde: %s" % (repr(float(max(conds))) if conds else "n/a"))


def _run_solve(args):
    mat, singular_vectors = _load_problem(args)
    rhs = _resolve_rhs(args.rhs, mat.n, singular_vectors)
    try:
        config = SolverConfig(
            s=args.s,
            basis=args.basis,
            arnoldi=args.arnoldi,
            orth=args.orth,
            tol=args.tol,
            tol_h=args.tolh,
            restart=args.restart,
            max_outer=args.max_outer,
            basis_operator=args.basis_operator,
            diag_every=args.diag_every,
        )
    except ValueError as exc:
        raise CliError(str(exc))
    prec = jacobi_preconditioner(mat) if args.precond == "jacobi" else None
    try:
        result = solve(mat, rhs, config=config, preconditioner=prec)
    except ValueError as exc:
        raise CliError(str(exc))
    except ArithmeticError as exc:
        raise CliError(str(exc))
    if args.csv is not None:
        write_csv(result.records, args.csv)
    if args.summary:
        _print_summary(result)
    return 0 if result.converged else EXIT_NOT_CONVERGED


def _run_gen(args):
    spec = _parse_randsvd(args.randsvd)
    a, _, sigma = gen_randsvd(spec)
    write_matrix_market(a, args.out)
    sidecar = args.out + ".sigma.txt"
    with open(sidecar, "w", encoding="ascii") as fh:
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
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except (OSError, MatrixMarketError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
