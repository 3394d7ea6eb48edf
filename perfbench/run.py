"""Seeded, offline benchmark of the sstep_gmres package.

Run from the repository root:

    python3 perfbench/run.py --workload stencil-csr --seed 1 --seconds 40 --trace 0

Workloads are defined in ``workloads.py`` and listed in BENCHMARK.json.
A run builds the workload's cases (inputs) from ``--seed``, times the
package's set-up several times, makes one untimed warm-up call, then makes
timed calls, one at a time and taking the cases in turn, for at least
``--seconds`` seconds, checking every output. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the run environment.

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing installed. With ``--trace 1`` untraced and traced calls of the
first case alternate:
the traced ones run with span wrappers around the package's public
functions (see ``tracing.py``), and the metrics are the per-layer ones of
``metrics.py``. The traced run's spans are written to
``perfbench/out/trace-<workload>-<seed>.json`` at the end.
"""

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import metrics
import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# One BLAS thread: on a shared 2-core host, two OpenBLAS threads spin-wait
# for each other, double the CPU time and make call times swing widely.
BLAS_THREAD_CAP = 1
# set-ups repeat at least this often and for at least this long
SETUP_REPEATS = 5
SETUP_SECONDS = 3.0
MIN_CALLS = 3
MIN_TRACED_CALLS = 2
WORKLOAD_NAMES = ("stencil-csr", "cli-randsvd")
# two self-time sums of one span tree differ only by float rounding
SELF_TIME_RTOL = 1e-9


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _cap_blas_threads():
    """Pin BLAS threads before numpy loads; returns the cap and nproc."""
    nproc = len(os.sched_getaffinity(0))
    threads = min(BLAS_THREAD_CAP, nproc)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads, nproc


def _environment(np, threads, nproc):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas["name"], blas["version"])
    except (TypeError, KeyError):
        blas = "unknown"
    return dict(
        nproc=nproc,
        blas_threads=threads,
        python=platform.python_version(),
        numpy=np.__version__,
        blas=blas,
        # numba switches the package to other spmv and Jacobi kernels
        numba_importable=importlib.util.find_spec("numba") is not None,
        machine=platform.machine(),
    )


class Calls:
    """Timed, checked calls of one workload; each case's outputs must
    match that case's first output."""

    def __init__(self, workload, cases, inputs):
        self.workload = workload
        self.cases = cases
        self.inputs = inputs
        self.references = [None] * len(cases)
        self.attempted = 0
        self.failed = 0

    def run(self, case, tracer=None):
        """One call on a case; returns its wall seconds. A tracer traces it."""
        generated = self.cases[case]
        self.attempted += 1
        start = time.perf_counter()
        try:
            if tracer is None:
                output = self.workload.call(generated, self.inputs)
            else:
                with tracing.installed(tracer), tracer.span(tracing.CALL_SPAN):
                    output = self.workload.call(generated, self.inputs)
        except Exception:  # a raising call is a failed operation; the run goes on
            traceback.print_exc()
            self.failed += 1
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        reference = self.references[case]
        problems = self.workload.check(generated, self.inputs, output, reference)
        if problems:
            self.failed += 1
            print("check failed: " + "; ".join(problems), file=sys.stderr)
        elif reference is None:
            self.references[case] = output
        return elapsed


def _timed_setups(workload, generated, workdir):
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        start = time.perf_counter()
        inputs = workload.setup(generated, workdir)
        times.append(time.perf_counter() - start)
    return inputs, times


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def measure(workload, seed, seconds, workdir):
    """End-to-end metrics with no tracing installed."""
    cases = workload.generate(seed)
    inputs, setup_times = _timed_setups(workload, cases[0], workdir)
    calls = Calls(workload, cases, inputs)
    calls.run(0)  # warm-up, not timed: lazy imports, caches, the reference output
    times = []
    start = time.perf_counter()
    while len(times) < MIN_CALLS or time.perf_counter() - start < seconds:
        times.append(calls.run(len(times) % len(cases)))
    attempted = len(setup_times) + calls.attempted
    values = dict(
        setup_s=statistics.median(setup_times),
        solve_s=statistics.median(times),
        ok_rate=1.0 - calls.failed / attempted,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    result = dict(
        correct=calls.failed == 0,
        attempted=attempted,
        failed=calls.failed,
        metrics={m.name: _metric(values[m.name], m.unit) for m in metrics.END_TO_END},
    )
    return result, dict(setup_times=setup_times, solve_times=times)


def trace_problems(profiles):
    """Harness checks on the traced calls: exact repeat of every count,
    self times summing to wall time, and on CSR input one spmv per A
    apply."""
    problems = []
    first = profiles[0]
    for p in profiles:
        if (p.calls, p.counts) != (first.calls, first.counts):
            problems.append("span or result counts differ between traced calls")
        if abs(sum(p.self_s.values()) - p.wall_s) > SELF_TIME_RTOL * p.wall_s:
            problems.append("self times do not add up to the traced wall time")
        spmv = p.calls["sparse.spmv"]
        if spmv and spmv != metrics.operator_applies(p):
            problems.append(
                "%d operator applies but %d spmv calls" % (metrics.operator_applies(p), spmv)
            )
    return problems


def measure_traced(workload, seed, seconds, workdir, trace_path, env):
    """Per-layer metrics from traced calls, alternating with untraced ones."""
    cases = workload.generate(seed)
    setup_tracer = tracing.Tracer()
    with tracing.installed(setup_tracer), setup_tracer.span(tracing.SETUP_SPAN):
        inputs = workload.setup(cases[0], workdir)
    # the first case only, so that every traced call repeats the same work
    calls = Calls(workload, cases[:1], inputs)
    calls.run(0)  # warm-up, not timed
    untraced, tracers = [], []
    start = time.perf_counter()
    while len(tracers) < MIN_TRACED_CALLS or time.perf_counter() - start < seconds:
        untraced.append(calls.run(0))
        tracers.append(tracing.Tracer())
        calls.run(0, tracers[-1])

    profiles = [tracing.Profile(t.spans, t.counts) for t in tracers]
    by_wall = sorted(profiles, key=lambda p: p.wall_s)
    traced = metrics.Traced(
        setup=tracing.Profile(setup_tracer.spans, setup_tracer.counts),
        call=by_wall[(len(by_wall) - 1) // 2],
        overhead_frac=statistics.median(p.wall_s for p in profiles)
        / statistics.median(untraced)
        - 1.0,
    )
    problems = trace_problems(profiles)
    for p in problems:
        print("trace check failed: " + p, file=sys.stderr)

    with open(trace_path, "w", encoding="ascii") as fh:
        json.dump(
            dict(
                env=env,
                workload=workload.name,
                seed=seed,
                setup=dict(spans=setup_tracer.spans, counts=setup_tracer.counts),
                calls=[dict(spans=t.spans, counts=t.counts) for t in tracers],
            ),
            fh,
        )
    result = dict(
        correct=calls.failed == 0 and not problems,
        attempted=calls.attempted + 1,
        failed=calls.failed,
        metrics={m.name: _metric(m.value(traced), m.unit) for m in metrics.PER_LAYER},
    )
    return result, dict(
        untraced_times=untraced, traced_times=[p.wall_s for p in profiles]
    )


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC / "sstep_gmres" / "__init__.py").is_file():
        print("error: package sources not found at %s" % SRC, file=sys.stderr)
        return 2
    threads, nproc = _cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import numpy as np
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    env = _environment(np, threads, nproc)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        if args.trace:
            trace_path = OUT / ("trace-%s-%d.json" % (workload.name, args.seed))
            result, ran = measure_traced(
                workload, args.seed, args.seconds, workdir, trace_path, env
            )
        else:
            result, ran = measure(workload, args.seed, args.seconds, workdir)
    context = dict(
        workload=workload.name,
        seed=args.seed,
        trace=args.trace,
        params=workload.params,
        env=env,
        error_rate=result["failed"] / result["attempted"],
        **ran,
    )
    print(json.dumps(context))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
