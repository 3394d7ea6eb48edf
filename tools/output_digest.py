"""Print one SHA-256 per run set of seeded solves, to check output bits.

Two checkouts print equal digests for a run set when every run of it
gives the same bits: x, status, ``repr`` of the backward error, the
``repr`` of every record and the result counters, and for CLI runs the
exit code, standard output and diagnostics CSV. A pure refactor must
keep every digest; any other change says which ones moved.

Run sets:

- ``stencil-csr``: the benchmark's workload of that name, seeds 1-2, all
  right-hand sides, with its config read from ``perfbench/workloads.py``;
- ``cli-randsvd``: the benchmark's CLI workload, seeds 1-2;
- ``randsvd-sweep``: 72 solves of randsvd n = 200 with b = ones,
  kappa 1e6 and 1e10, modes 1, 3 and 5, s = 4, 8 and 16, monomial and
  Newton bases, both Arnoldi variants, restart 60, diagnostics every
  step;
- ``bases``: 32 solves of randsvd n = 200 with b = ones, kappa 1e6 and
  1e10, modes 3 and 5, s = 4 and 8, Newton and Chebyshev bases, both
  Arnoldi variants, restart 60, diagnostics every step;
- ``quick``: about a second of small solves, restarted and not, capped
  and not, both variants and both orthogonalizations, modified runs
  whose span budget cuts blocks, and one CLI run.

Usage::

    python3 tools/output_digest.py            # every run set
    python3 tools/output_digest.py --quick    # the quick set alone

BLAS is pinned to one thread before numpy loads, since the bits of the
solver's dense kernels depend on the thread count (README, Determinism).
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import contextlib
import hashlib
import importlib.util
import io
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np

from sstep_gmres import cli
from sstep_gmres.solver import SolverConfig, solve
from sstep_gmres.sparse import RandSvdSpec, csr_from_coo, gen_randsvd, jacobi_preconditioner

RESULT_COUNTERS = (
    "cycles",
    "block_steps",
    "inner_iterations",
    "candidate_projections",
    "candidate_qr_count",
)
SEEDS = (1, 2)


def _workloads():
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _add_result(h, result):
    h.update(result.x.tobytes())
    h.update(result.status.encode())
    h.update(repr(result.backward_error).encode())
    for rec in result.records:
        h.update(repr(rec).encode())
    for name in RESULT_COUNTERS:
        h.update(repr(getattr(result, name)).encode())


def _add_cli_run(h, exit_code, stdout, csv):
    h.update(repr(exit_code).encode())
    h.update(stdout.encode())
    h.update(csv.encode())


def stencil_csr(h, workloads):
    w = workloads.WORKLOADS["stencil-csr"]
    for seed in SEEDS:
        cases = w.generate(seed)
        inputs = w.setup(cases[0], None)
        for case in cases:
            _add_result(h, w.call(case, inputs))


def cli_randsvd(h, workloads):
    w = workloads.WORKLOADS["cli-randsvd"]
    for seed in SEEDS:
        (gen_argv,) = w.generate(seed)
        with tempfile.TemporaryDirectory() as workdir:
            matrix = w.setup(gen_argv, workdir)
            for run in w.call(gen_argv, matrix):
                _add_cli_run(h, run.exit_code, run.stdout, run.csv)


def randsvd_sweep(h, workloads):
    n = 200
    for kappa in (1e6, 1e10):
        for mode in (1, 3, 5):
            a, _, _ = gen_randsvd(RandSvdSpec(n=n, kappa=kappa, mode=mode, seed=1))
            for s in (4, 8, 16):
                for basis in ("monomial", "newton"):
                    for arnoldi in ("classical", "modified"):
                        config = SolverConfig(
                            s=s, basis=basis, arnoldi=arnoldi, restart=60, diag_every=1
                        )
                        _add_result(h, solve(a, np.ones(n), config=config))


def bases(h, workloads):
    n = 200
    for kappa in (1e6, 1e10):
        for mode in (3, 5):
            a, _, _ = gen_randsvd(RandSvdSpec(n=n, kappa=kappa, mode=mode, seed=1))
            for s in (4, 8):
                for basis in ("newton", "chebyshev"):
                    for arnoldi in ("classical", "modified"):
                        config = SolverConfig(
                            s=s, basis=basis, arnoldi=arnoldi, restart=60, diag_every=1
                        )
                        _add_result(h, solve(a, np.ones(n), config=config))


QUICK_CONFIGS = (
    dict(s=4, basis="newton", restart=12, diag_every=1),
    dict(s=4, basis="newton", arnoldi="modified", orth="bmgs", restart=12, diag_every=1),
    dict(s=5, max_outer=4, diag_every=1),
    dict(s=5, basis="chebyshev", arnoldi="modified", max_outer=4, diag_every=2),
    dict(s=3, basis="newton", arnoldi="modified", diag_every=1),
    dict(s=3, orth="bmgs", basis_operator="preconditioned", restart=9, diag_every=3),
)
# the modified span budget cuts most blocks of these runs
QUICK_CUT_CONFIGS = (
    dict(s=8, basis="newton", arnoldi="modified", restart=16, diag_every=1),
    dict(s=8, basis="newton", arnoldi="modified", max_outer=3, diag_every=1),
)


def quick(h, workloads):
    a = csr_from_coo(*workloads.stencil_coo(12))
    prec = jacobi_preconditioner(a)
    for kwargs in QUICK_CONFIGS:
        for p in (None, prec):
            config = SolverConfig(**kwargs)
            _add_result(h, solve(a, np.ones(a.n), config=config, preconditioner=p))
    m, _, _ = gen_randsvd(RandSvdSpec(n=40, kappa=1e8, mode=3, seed=2))
    for kwargs in QUICK_CONFIGS:
        _add_result(h, solve(m, np.ones(40), config=SolverConfig(**kwargs)))
    m, _, _ = gen_randsvd(RandSvdSpec(n=40, kappa=1e8, mode=1, seed=1))
    for kwargs in QUICK_CUT_CONFIGS:
        _add_result(h, solve(m, np.ones(40), config=SolverConfig(**kwargs)))
    with tempfile.TemporaryDirectory() as workdir:
        csv = os.path.join(workdir, "steps.csv")
        argv = ["solve", "--randsvd", "30,1e6,3,11", "--s", "4", "--basis", "newton",
                "--csv", csv, "--summary"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        with open(csv, encoding="ascii") as fh:
            _add_cli_run(h, code, out.getvalue(), fh.read())


RUN_SETS = {
    "stencil-csr": stencil_csr,
    "cli-randsvd": cli_randsvd,
    "randsvd-sweep": randsvd_sweep,
    "quick": quick,
    "bases": bases,
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="run the quick set alone")
    args = parser.parse_args(argv)
    workloads = _workloads()
    for name, run_set in RUN_SETS.items():
        if args.quick and name != "quick":
            continue
        h = hashlib.sha256()
        run_set(h, workloads)
        print("%s %s" % (name, h.hexdigest()), flush=True)


if __name__ == "__main__":
    main()
