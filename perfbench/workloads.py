"""The benchmark's workloads: inputs from a seed, set-up, the timed call,
and checks of every output against the benchmark's own arithmetic.

Each workload splits its inputs in two. ``generate`` makes what the
benchmark owns (COO arrays, spec, right-hand sides) and is not timed; it
returns a tuple of cases, which share what ``setup`` builds and which the
timed calls take in turn. ``setup`` builds the inputs the package
constructs itself from the first case and is timed as ``setup_s``.
``call`` is one timed operation on one case, ``solve_s``. ``check``
returns a list of problems, empty when the output is correct; it
compares against the case's first output (``reference``) for bit-exact
repeatability.
"""

import contextlib
import io
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from sstep_gmres import cli, diagnostics, solver, sparse

U = 2.0**-53
# Solver and oracle each evaluate ||b - A x|| in floating point, with an
# error of at most about 6u times ||A||_F ||x|| + ||b||, so two backward
# errors of one x agree to within this absolute amount.
BACKWARD_ERROR_SLACK = 32 * U
# diag_every above any block count of the run: conditioning diagnostics off
DIAGNOSTICS_OFF = 10**6


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    params: dict
    generate: Callable  # seed -> tuple of cases, benchmark-owned inputs
    setup: Callable  # (generated, workdir) -> package-built inputs
    call: Callable  # (generated, inputs) -> output
    check: Callable  # (generated, inputs, output, reference) -> [problem]


def _oracle_backward_error(matvec, a_fro, b, x):
    resid = np.linalg.norm(b - matvec(x))
    return float(resid / (a_fro * np.linalg.norm(x) + np.linalg.norm(b)))


def _ls_residual_problems(records):
    """Givens residual estimates must not increase within a restart cycle."""
    problems = []
    for prev, cur in zip(records, records[1:]):
        if (
            cur.restart_cycle == prev.restart_cycle
            and cur.ls_residual_estimate > prev.ls_residual_estimate
        ):
            problems.append(
                "ls_residual_estimate rose in cycle %d at block %d"
                % (cur.restart_cycle, cur.outer)
            )
    return problems


def _solve_result_problems(result, reference, status_ok):
    problems = [] if status_ok else ["unexpected status %r" % result.status]
    problems += _ls_residual_problems(result.records)
    if reference is not None and result.x.tobytes() != reference.x.tobytes():
        problems.append("x differs from the first solve of this run")
    return problems


# --- stencil-csr -----------------------------------------------------------

STENCIL_GRID = 128
STENCIL_WIND = (20.0, 10.0)
# The iteration count to n*u varies by about 10% between right-hand sides;
# taking several per seed keeps that variation out of solve_s.
STENCIL_RHS = 5
STENCIL_CONFIG = dict(
    s=5,
    basis="newton",
    arnoldi="classical",
    restart=60,
    basis_operator="preconditioned",
    diag_every=DIAGNOSTICS_OFF,
)


def stencil_coo(m):
    """-div(k grad u) + w . grad u on the unit square, k = 1 + 9x.

    Zero Dirichlet boundary, m x m interior points, mesh width 1/(m+1),
    conservative diffusion with k at the half points, central
    differences for the wind w. Unknown (i, j) sits at x = (j+1)h,
    y = (i+1)h and has index i*m + j. Returns (n, rows, cols, vals) with
    no duplicate entries.
    """
    h = 1.0 / (m + 1)
    i, j = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    x = (j + 1) * h
    k = lambda t: 1.0 + 9.0 * t
    wx, wy = STENCIL_WIND
    k_east, k_west, k_ns = k(x + h / 2), k(x - h / 2), k(x)
    neighbours = (
        (0, 1, -k_east / h**2 + wx / (2 * h)),
        (0, -1, -k_west / h**2 - wx / (2 * h)),
        (1, 0, -k_ns / h**2 + wy / (2 * h)),
        (-1, 0, -k_ns / h**2 - wy / (2 * h)),
    )
    index = i * m + j
    rows = [index.ravel()]
    cols = [index.ravel()]
    vals = [((k_east + k_west + 2 * k_ns) / h**2).ravel()]
    for di, dj, coef in neighbours:
        ii, jj = i + di, j + dj
        inside = (ii >= 0) & (ii < m) & (jj >= 0) & (jj < m)
        rows.append(index[inside])
        cols.append(ii[inside] * m + jj[inside])
        vals.append(coef[inside])
    return m * m, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


@dataclass(frozen=True)
class StencilProblem:
    n: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    b: np.ndarray

    def matvec(self, x):
        return coo_matvec(self.n, self.rows, self.cols, self.vals, x)


def coo_matvec(n, rows, cols, vals, x):
    """A x from duplicate-free COO arrays, independent of the package."""
    return np.bincount(rows, vals * x[cols], minlength=n)


def _stencil_generate(seed):
    n, rows, cols, vals = stencil_coo(STENCIL_GRID)
    rng = np.random.default_rng(seed)
    return tuple(
        StencilProblem(n, rows, cols, vals, coo_matvec(n, rows, cols, vals, x_star))
        for x_star in rng.standard_normal((STENCIL_RHS, n))
    )


def _stencil_setup(gen, workdir):
    a = sparse.csr_from_coo(gen.n, gen.rows, gen.cols, gen.vals)
    return a, sparse.jacobi_preconditioner(a)


def _stencil_call(gen, inputs):
    a, prec = inputs
    config = solver.SolverConfig(**STENCIL_CONFIG)
    return solver.solve(a, gen.b, config=config, preconditioner=prec)


def _stencil_check(gen, inputs, result, reference):
    problems = _solve_result_problems(result, reference, result.converged)
    oracle = _oracle_backward_error(gen.matvec, np.linalg.norm(gen.vals), gen.b, result.x)
    tol = gen.n * U + BACKWARD_ERROR_SLACK
    if not oracle <= tol:
        problems.append("recomputed backward error %r above tolerance %r" % (oracle, tol))
    return problems


STENCIL = Workload(
    name="stencil-csr",
    why=(
        "CSR convection-diffusion, 128x128 grid (n=16384), 5 rhs b = A x* with "
        "x* from --seed, solved to n*u: sparse time to solution, spmv and "
        "tall-skinny QR dominate"
    ),
    params=dict(
        grid=STENCIL_GRID,
        n=STENCIL_GRID**2,
        diffusion="1 + 9x",
        wind=STENCIL_WIND,
        rhs="b = A x*, %d x* standard normal from the seed, in turn" % STENCIL_RHS,
        precond="jacobi",
        tol="n*u",
        **STENCIL_CONFIG,
    ),
    generate=_stencil_generate,
    setup=_stencil_setup,
    call=_stencil_call,
    check=_stencil_check,
)


# --- cli-randsvd -----------------------------------------------------------

RANDSVD_CLI = dict(n=300, kappa=1e6, mode=3)
CLI_VARIANTS = ("classical", "modified")
CLI_S = 5
CLI_SOLVE_ARGS = (
    "--basis", "newton", "--s", str(CLI_S), "--max-outer", "30", "--diag-every", "1",
    "--summary",
)
CLI_EXIT_NOT_CONVERGED = 2
# fields that --diag-every 1 measures on every block step
MEASURED_FIELDS = (
    "backward_error",
    "ls_residual_estimate",
    "cond_B_tilde",
    "cond_B_subblock",
    "cond_V",
    "ortho_loss_V",
)


@dataclass(frozen=True)
class CliRun:
    """One in-process ``sgmres solve``: exit code, standard output, CSV."""

    variant: str
    exit_code: int
    stdout: str
    csv: str


def _run_main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_generate(seed):
    spec = "%d,%r,%d,%d" % (
        RANDSVD_CLI["n"], RANDSVD_CLI["kappa"], RANDSVD_CLI["mode"], seed
    )
    return (["gen", "--randsvd", spec],)


def _cli_setup(gen_argv, workdir):
    matrix = os.path.join(workdir, "randsvd.mtx")
    code, out = _run_main(gen_argv + ["--out", matrix])
    if code != 0:
        raise RuntimeError("sgmres gen exited with %d: %s" % (code, out))
    return matrix


def _cli_call(gen_argv, matrix):
    runs = []
    for variant in CLI_VARIANTS:
        csv = "%s.%s.csv" % (matrix, variant)
        argv = ["solve", "--matrix", matrix, "--arnoldi", variant, "--csv", csv]
        code, out = _run_main(argv + list(CLI_SOLVE_ARGS))
        with open(csv, encoding="ascii") as fh:
            runs.append(CliRun(variant, code, out, fh.read()))
    return runs


def _cli_run_problems(run):
    if run.exit_code != CLI_EXIT_NOT_CONVERGED:
        return ["exit code %d" % run.exit_code]
    problems = []
    summary = dict(line.split(": ", 1) for line in run.stdout.strip().splitlines())
    records = diagnostics.read_csv(io.StringIO(run.csv))
    steps = int(summary["block_steps"])
    if len(records) != steps:
        problems.append("%d csv rows for %d block steps" % (len(records), steps))
    for rec in records:
        if any(math.isnan(getattr(rec, f)) for f in MEASURED_FIELDS):
            problems.append("NaN in a measured field at block %d" % rec.outer)
    problems += _ls_residual_problems(records)
    if records and repr(records[-1].backward_error) != summary["backward_error"]:
        problems.append("summary and csv backward errors differ")
    if run.variant == "modified":
        # the modified variant's guarantee for the stacked candidates
        bound = 2.0 * math.sqrt(RANDSVD_CLI["n"]) + math.sqrt(CLI_S)
        worst = max(r.cond_B_tilde for r in records)
        if not worst <= bound:
            problems.append("cond_B_tilde %r above %r" % (worst, bound))
    return problems


def _cli_check(gen_argv, matrix, runs, reference):
    problems = []
    for run in runs:
        tag = "sgmres solve --arnoldi %s: " % run.variant
        problems += [tag + p for p in _cli_run_problems(run)]
    if reference is not None and runs != reference:
        problems.append("outputs differ from the first call of this run")
    return problems


CLI = Workload(
    name="cli-randsvd",
    why=(
        "sgmres gen randsvd n=300 kappa=1e6 mode 3 seeded by --seed, then solve "
        "classical and modified, s=5, 30 blocks, diagnostics every step: file "
        "parsing, diagnostics, cond2"
    ),
    params=dict(
        gen="sgmres gen --randsvd 300,1e6,3,<seed>",
        solve="sgmres solve --matrix M --arnoldi {%s} --csv C %s"
        % ("|".join(CLI_VARIANTS), " ".join(CLI_SOLVE_ARGS)),
        rhs="ones",
    ),
    generate=_cli_generate,
    setup=_cli_setup,
    call=_cli_call,
    check=_cli_check,
)

WORKLOADS = {w.name: w for w in (STENCIL, CLI)}
