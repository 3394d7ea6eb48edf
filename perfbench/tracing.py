"""Span tracing of the sstep_gmres package from outside it.

A ``Tracer`` keeps spans in memory as ``[name, start, end, parent]`` rows,
``parent`` being the row index of the enclosing span or -1. ``installed``
swaps traced wrappers for the package's public functions into every
sstep_gmres module that holds them, and puts the originals back on exit,
so runs outside that block execute the package exactly as shipped.

Every application of the system matrix A is recorded as a span named
``solver.operator_apply``: the solver's ``OperatorSet`` callables and the
operators handed to ``backward_error`` and ``compute_ritz_values`` are
wrapped. The one apply per restart cycle that forms the cycle's residual
has no hook outside the solver; ``operator_applies`` adds it back from
the cycle count.
"""

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

PACKAGE = "sstep_gmres"
OPERATOR_APPLY = "solver.operator_apply"
# root spans the benchmark opens around one set-up and one timed call
SETUP_SPAN = "bench.setup"
CALL_SPAN = "bench.call"

# (module, public function): each becomes a span named "<module>.<function>"
TRACED = (
    ("sparse", "spmv"),
    ("sparse", "csr_from_coo"),
    ("sparse", "jacobi_preconditioner"),
    ("sparse", "apply_preconditioner_inverse"),
    ("sparse", "gen_randsvd"),
    ("sparse", "write_matrix_market"),
    ("sparse", "parse_matrix_market"),
    ("basis", "build_krylov_block"),
    ("basis", "compute_ritz_values"),
    ("dense", "householder_qr"),
    ("dense", "cond2"),
    ("blockqr", "bcgsi_plus_step"),
    ("arnoldi", "classical_step"),
    ("arnoldi", "modified_step"),
    ("diagnostics", "basis_condition_numbers"),
    ("diagnostics", "write_csv"),
    ("solver", "solve"),
    ("solver", "backward_error"),
    ("cli", "main"),
)

# functions whose first argument is a callable applying A
_OPERATOR_ARGUMENT = {"solver.backward_error", "basis.compute_ritz_values"}


def _count_block_width(counts, block):
    counts["arnoldi.attempted_cols"] += block.shape[1]


def _count_solve(counts, result):
    counts["solver.inner_iterations"] += result.inner_iterations
    counts["solver.block_steps"] += result.block_steps
    counts["solver.cycles"] += result.cycles


_RESULT_COUNTS = {
    "basis.build_krylov_block": _count_block_width,
    "solver.solve": _count_solve,
}


class Tracer:
    """In-memory span recorder for one traced operation.

    Counts made at the same boundaries go to ``counts``.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._open = []

    def begin(self, name):
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._open.pop()][2] = time.perf_counter()

    @contextmanager
    def span(self, name):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        return traced


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


class Profile:
    """Per-name call counts, inclusive and self seconds of one span tree.

    The tree's first span is its root; ``wall_s`` is the root's duration.
    """

    def __init__(self, spans, counts):
        self.counts = counts
        self.wall_s = spans[0][2] - spans[0][1]
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        for (name, start, end, _), own in zip(spans, self_times(spans)):
            self.calls[name] += 1
            self.total_s[name] += end - start
            self.self_s[name] += own

    def layer_self_s(self, module):
        prefix = module + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))


def _traced_function(tracer, name, fn):
    on_result = _RESULT_COUNTS.get(name)
    wraps_operator = name in _OPERATOR_ARGUMENT

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if wraps_operator:
            args = (tracer.wrap(OPERATOR_APPLY, args[0]),) + args[1:]
        tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end()
        if on_result is not None:
            on_result(tracer.counts, result)
        return result

    return traced


def _traced_operator_set(tracer, operator_set):
    """OperatorSet constructor whose matvec and basis_op record applies."""

    def build(**kwargs):
        matvec = tracer.wrap(OPERATOR_APPLY, kwargs["matvec"])
        basis_op = kwargs["basis_op"]
        basis_op = (
            matvec if basis_op is kwargs["matvec"] else tracer.wrap(OPERATOR_APPLY, basis_op)
        )
        return operator_set(**dict(kwargs, matvec=matvec, basis_op=basis_op))

    return build


def _package_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if name == PACKAGE or name.startswith(PACKAGE + ".")
    ]


@contextmanager
def installed(tracer):
    """Route the package's traced functions through ``tracer``.

    Every module attribute bound to a traced function is replaced, since
    the package's modules import functions from each other by name. The
    originals are restored on exit, also when the block raises.
    """
    modules = _package_modules()
    saved = []
    try:
        for module, func in TRACED:
            original = getattr(sys.modules["%s.%s" % (PACKAGE, module)], func)
            replacement = _traced_function(tracer, "%s.%s" % (module, func), original)
            for m in modules:
                for attr in [a for a, v in vars(m).items() if v is original]:
                    saved.append((m, attr, original))
                    setattr(m, attr, replacement)
        solver = sys.modules[PACKAGE + ".solver"]
        saved.append((solver, "OperatorSet", solver.OperatorSet))
        solver.OperatorSet = _traced_operator_set(tracer, solver.OperatorSet)
        yield tracer
    finally:
        for m, attr, original in reversed(saved):
            setattr(m, attr, original)
