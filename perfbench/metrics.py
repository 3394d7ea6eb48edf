"""The benchmark's metrics: end-to-end ones with their regression bounds,
and per-layer ones with how a traced run computes them and which
end-to-end metric, on which workload, each is predicted to move.

Layers are the package modules. Per-layer values come from one traced
call (the one with the median wall time) and its traced set-up:
``*.calls`` count spans, ``*.self_s`` are self seconds (span duration
minus the child spans), ``*.s`` are inclusive seconds. ``BENCHMARK.json``
lists the same names, units and directions.
"""

from dataclasses import dataclass
from typing import Callable

from tracing import CALL_SPAN, OPERATOR_APPLY

MODULES = ("sparse", "basis", "dense", "blockqr", "arnoldi", "diagnostics", "solver", "cli")


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float  # share of the parent's median it may worsen by


# On a shared 2-core VM the speed of identical calls drifts by 10-30% over
# minutes, whatever the code, so the timings get the largest bound allowed.
END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("solve_s", "s", "lower", 0.25),
    EndToEnd("ok_rate", "frac", "higher", 0.05),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.1),
)


@dataclass(frozen=True)
class Traced:
    """What the per-layer metrics are computed from."""

    setup: object  # tracing.Profile of the traced set-up
    call: object  # tracing.Profile of the median traced call
    overhead_frac: float  # median traced / median untraced call time - 1


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    value: Callable  # Traced -> number
    moves: str  # predicted end-to-end effect, by workload


def operator_applies(profile):
    # one untraced apply per restart cycle forms the cycle's residual
    return profile.calls[OPERATOR_APPLY] + profile.counts["solver.cycles"]


def _calls(name):
    return lambda t: t.call.calls[name]


def _self(*names):
    return lambda t: sum(t.call.self_s[n] for n in names)


def _setup_total(name):
    return lambda t: t.setup.total_s[name]


def _call_total(name):
    return lambda t: t.call.total_s[name]


def _count(name):
    return lambda t: t.call.counts[name]


SPMV = "solve_s on stencil-csr (~23%) and cli-randsvd (~7%)"
KRYLOV = "solve_s on stencil-csr and cli-randsvd"
BCGS = "solve_s on stencil-csr (~13%) and cli-randsvd"
QR = (
    "solve_s on stencil-csr (~45%) and cli-randsvd; through "
    "sparse.gen_randsvd.s also setup_s on cli-randsvd"
)
COND2 = "solve_s on cli-randsvd"
DIAG = (
    "solve_s on cli-randsvd; on stencil-csr the "
    "final record's measurement (~9%)"
)
COUNT = "iterations, and with them solve_s, on the workload that runs it"

PER_LAYER = (
    LayerMetric("sparse.spmv.calls", "count", "lower", _calls("sparse.spmv"), SPMV),
    LayerMetric("sparse.spmv.self_s", "s", "lower", _self("sparse.spmv"), SPMV),
    LayerMetric(
        "sparse.csr_from_coo.s", "s", "lower", _setup_total("sparse.csr_from_coo"),
        "setup_s on stencil-csr",
    ),
    LayerMetric(
        "sparse.jacobi_preconditioner.s", "s", "lower",
        _setup_total("sparse.jacobi_preconditioner"), "setup_s on stencil-csr",
    ),
    LayerMetric(
        "sparse.gen_randsvd.s", "s", "lower", _setup_total("sparse.gen_randsvd"),
        "setup_s on cli-randsvd",
    ),
    LayerMetric(
        "sparse.write_matrix_market.s", "s", "lower",
        _setup_total("sparse.write_matrix_market"), "setup_s on cli-randsvd",
    ),
    LayerMetric(
        "sparse.parse_matrix_market.s", "s", "lower",
        _call_total("sparse.parse_matrix_market"), "solve_s on cli-randsvd (~10%)",
    ),
    LayerMetric(
        "sparse.apply_preconditioner_inverse.calls", "count", "lower",
        _calls("sparse.apply_preconditioner_inverse"),
        "solve_s on stencil-csr, the one workload with a preconditioner "
        "(cli-randsvd calls it as the identity)",
    ),
    LayerMetric(
        "solver.operator_applies", "count", "lower", lambda t: operator_applies(t.call),
        "falls on stencil-csr with matvec reuse (ROADMAP item 3)",
    ),
    LayerMetric(
        "solver.operator_apply.self_s", "s", "lower", _self(OPERATOR_APPLY),
        "solve_s on both workloads (on CSR input the work sits in sparse.spmv)",
    ),
    LayerMetric(
        "basis.build_krylov_block.calls", "count", "lower",
        _calls("basis.build_krylov_block"), KRYLOV,
    ),
    LayerMetric(
        "basis.build_krylov_block.self_s", "s", "lower",
        _self("basis.build_krylov_block"), KRYLOV,
    ),
    LayerMetric(
        "basis.compute_ritz_values.self_s", "s", "lower",
        _self("basis.compute_ritz_values"), KRYLOV,
    ),
    LayerMetric(
        "arnoldi.attempted_cols", "count", "lower", _count("arnoldi.attempted_cols"),
        "summed widths of the blocks build_krylov_block returns; " + COUNT,
    ),
    LayerMetric(
        "arnoldi.committed_frac", "frac", "higher",
        lambda t: t.call.counts["solver.inner_iterations"]
        / t.call.counts["arnoldi.attempted_cols"],
        "iterations and solve_s where the modified step narrows blocks; 1.0 "
        "on both workloads at their sizes",
    ),
    LayerMetric(
        "arnoldi.step.self_s", "s", "lower",
        _self("arnoldi.classical_step", "arnoldi.modified_step"),
        "solve_s on cli-randsvd (its modified run, under 1% of the call); "
        "no change on stencil-csr",
    ),
    LayerMetric(
        "blockqr.bcgsi_plus_step.calls", "count", "lower",
        _calls("blockqr.bcgsi_plus_step"), BCGS,
    ),
    LayerMetric(
        "blockqr.bcgsi_plus_step.self_s", "s", "lower",
        _self("blockqr.bcgsi_plus_step"), BCGS,
    ),
    LayerMetric("dense.householder_qr.calls", "count", "lower", _calls("dense.householder_qr"), QR),
    LayerMetric("dense.householder_qr.self_s", "s", "lower", _self("dense.householder_qr"), QR),
    LayerMetric("dense.cond2.calls", "count", "lower", _calls("dense.cond2"), COND2),
    LayerMetric("dense.cond2.self_s", "s", "lower", _self("dense.cond2"), COND2),
    LayerMetric(
        "diagnostics.basis_condition_numbers.calls", "count", "lower",
        _calls("diagnostics.basis_condition_numbers"), DIAG,
    ),
    LayerMetric(
        "diagnostics.basis_condition_numbers.self_s", "s", "lower",
        _self("diagnostics.basis_condition_numbers"), DIAG,
    ),
    LayerMetric(
        "diagnostics.write_csv.s", "s", "lower", _call_total("diagnostics.write_csv"),
        "solve_s on cli-randsvd",
    ),
    LayerMetric(
        "solver.inner_iterations", "count", "lower", _count("solver.inner_iterations"), COUNT
    ),
    LayerMetric("solver.block_steps", "count", "lower", _count("solver.block_steps"), COUNT),
    LayerMetric("solver.cycles", "count", "lower", _count("solver.cycles"), COUNT),
    LayerMetric(
        "solver.backward_error.calls", "count", "lower", _calls("solver.backward_error"),
        "solve_s on both workloads, one operator apply each",
    ),
    LayerMetric(
        "solver.self_s", "s", "lower", _self("solver.solve"),
        "solve_s on both workloads: Givens least squares, rank test, "
        "solution update",
    ),
    LayerMetric(
        "cli.main.self_s", "s", "lower", _self("cli.main"),
        "solve_s and setup_s on cli-randsvd: argument handling and the summary",
    ),
    LayerMetric(
        "trace_overhead_frac", "frac", "lower", lambda t: t.overhead_frac,
        "none: traced over untraced solve_s, minus 1",
    ),
) + tuple(
    LayerMetric(
        "layer.%s.self_s" % module, "s", "lower",
        (lambda m: lambda t: t.call.layer_self_s(m))(module),
        "solve_s on every workload that runs the module",
    )
    for module in MODULES
) + (
    LayerMetric(
        "trace.untraced_s", "s", "lower", _self(CALL_SPAN),
        "none: time of the traced call outside every package span",
    ),
    LayerMetric(
        "trace.wall_s", "s", "lower", lambda t: t.call.wall_s,
        "none: the traced call's wall time, the sum of all self times above",
    ),
)
