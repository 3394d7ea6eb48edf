"""Tests of the benchmark harness itself (not of the package).

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
The count-repeat test runs each workload's timed call twice, traced, at
full size, and takes about half a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import metrics
import run
import tracing
import workloads
from sstep_gmres import solver
from sstep_gmres.diagnostics import IterationRecord

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


# --- self-time arithmetic ---------------------------------------------------


def _tree():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    # (which holds two b's, [6, 7] and [7.5, 8])
    return [
        ["bench.call", 0.0, 10.0, -1],
        ["dense.a", 1.0, 4.0, 0],
        ["sparse.b", 2.0, 3.0, 1],
        ["dense.c", 5.0, 9.0, 0],
        ["sparse.b", 6.0, 7.0, 3],
        ["sparse.b", 7.5, 8.0, 3],
    ]


def test_self_time_is_duration_minus_children():
    assert tracing.self_times(_tree()) == [3.0, 2.0, 1.0, 2.5, 1.0, 0.5]


def test_profile_sums_by_name_and_layer():
    p = tracing.Profile(_tree(), {})
    assert p.wall_s == 10.0
    assert p.calls == {"bench.call": 1, "dense.a": 1, "sparse.b": 3, "dense.c": 1}
    assert p.total_s["sparse.b"] == 2.5
    assert p.self_s["sparse.b"] == 2.5
    assert p.self_s["dense.c"] == 2.5
    assert p.layer_self_s("dense") == 4.5
    assert p.layer_self_s("sparse") == 2.5
    assert sum(p.self_s.values()) == p.wall_s


def test_tracer_nests_spans():
    t = tracing.Tracer()
    with t.span("outer"):
        t.wrap("inner", lambda: None)()
        t.wrap("inner", lambda: None)()
    assert [s[0] for s in t.spans] == ["outer", "inner", "inner"]
    assert [s[3] for s in t.spans] == [-1, 0, 0]
    assert all(s[1] <= s[2] for s in t.spans)


# --- wrapper installation -------------------------------------------------


def _package_bindings():
    return {
        (m.__name__, attr): value
        for m in tracing._package_modules()
        for attr, value in vars(m).items()
        if callable(value)
    }


def test_wrappers_restored_after_tracing_even_on_error():
    before = _package_bindings()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracer):
            during = _package_bindings()
            raise RuntimeError("stop")
    changed = {key for key in before if during[key] is not before[key]}
    # every module that imported a traced function by name was patched
    for key in [
        ("sstep_gmres.dense", "householder_qr"),
        ("sstep_gmres.blockqr", "householder_qr"),
        ("sstep_gmres.arnoldi", "householder_qr"),
        ("sstep_gmres.sparse", "householder_qr"),
        ("sstep_gmres.solver", "spmv"),
        ("sstep_gmres", "solve"),
        ("sstep_gmres.solver", "OperatorSet"),
    ]:
        assert key in changed
    after = _package_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_solve_records_operator_applies():
    a = np.diag(np.arange(1.0, 9.0))
    tracer = tracing.Tracer()
    with tracing.installed(tracer), tracer.span(tracing.CALL_SPAN):
        result = solver.solve(a, np.ones(8), config=solver.SolverConfig(s=2))
    p = tracing.Profile(tracer.spans, tracer.counts)
    assert result.converged
    assert p.counts["solver.block_steps"] == result.block_steps
    assert p.calls["solver.backward_error"] == result.block_steps
    # each block step applies A to its s - 1 Krylov columns, its s W
    # columns and once for the backward error
    assert p.calls[tracing.OPERATOR_APPLY] == result.block_steps * 4


# --- counts repeat between traced runs --------------------------------------


def _traced_call(workload, seed, workdir):
    generated = workload.generate(seed)[0]
    inputs = workload.setup(generated, str(workdir))
    tracer = tracing.Tracer()
    with tracing.installed(tracer), tracer.span(tracing.CALL_SPAN):
        output = workload.call(generated, inputs)
    assert workload.check(generated, inputs, output, None) == []
    return tracing.Profile(tracer.spans, tracer.counts)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_between_traced_runs(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    first = _traced_call(workload, 3, tmp_path)
    second = _traced_call(workload, 3, tmp_path)
    for span in ("sparse.spmv", "dense.householder_qr"):
        assert first.calls[span] == second.calls[span]
    for count in ("solver.inner_iterations", "arnoldi.attempted_cols"):
        assert first.counts[count] == second.counts[count] > 0
    assert run.trace_problems([first, second]) == []


# --- the checks reject wrong outputs ----------------------------------------


def test_stencil_check_rejects_wrong_and_unrepeated_x():
    n, rows, cols, vals = workloads.stencil_coo(8)
    x_star = np.random.default_rng(0).standard_normal(n)
    gen = workloads.StencilProblem(
        n, rows, cols, vals, workloads.coo_matvec(n, rows, cols, vals, x_star)
    )
    inputs = workloads._stencil_setup(gen, None)
    result = workloads._stencil_call(gen, inputs)
    assert workloads._stencil_check(gen, inputs, result, None) == []
    assert workloads._stencil_check(gen, inputs, result, result) == []

    wrong = solver.SolveResult(x=result.x * (1 + 1e-9), status=result.status,
                               backward_error=result.backward_error,
                               records=result.records)
    assert any("backward error" in p for p in workloads._stencil_check(gen, inputs, wrong, None))
    assert any("differs" in p for p in workloads._stencil_check(gen, inputs, result, wrong))


def test_ls_residual_check_flags_an_increase():
    records = [
        IterationRecord(1, 2, 1.0, 1e-3, 1, 1, 1, 0, "", 1),
        IterationRecord(2, 4, 1.0, 1e-2, 1, 1, 1, 0, "", 1),
        IterationRecord(1, 2, 1.0, 1e-1, 1, 1, 1, 0, "", 2),
    ]
    assert len(workloads._ls_residual_problems(records)) == 1


# --- BENCHMARK.json and the contract ----------------------------------------


def test_benchmark_json_matches_the_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOAD_NAMES
    assert spec["end_to_end"] == [
        dict(name=m.name, unit=m.unit, better=m.better, bound=m.bound)
        for m in metrics.END_TO_END
    ]
    assert spec["per_layer"] == [
        dict(name=m.name, unit=m.unit, better=m.better) for m in metrics.PER_LAYER
    ]


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stencil-csr", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
