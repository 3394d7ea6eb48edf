"""End-to-end tests of the command line interface.

Most tests drive ``main`` in process to check exit codes and outputs;
the parser never calls sys.exit on usage errors, it reports and returns 1.
"""

import dataclasses
import os
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from sstep_gmres import cli
from sstep_gmres.cli import main
from sstep_gmres.dense import UNIT_ROUNDOFF
from sstep_gmres.diagnostics import CSV_HEADER, read_csv, write_csv
from sstep_gmres.solver import SolverConfig, solve
from sstep_gmres.sparse import (
    CsrMatrix,
    Preconditioner,
    RandSvdSpec,
    csr_from_coo,
    gen_randsvd,
    parse_matrix_market,
    right_singular_vector,
    write_matrix_market,
)

from helpers import scale_probe_system, stencil_coo

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolveCommand:
    def test_well_conditioned_system_exits_zero(self, capsys):
        code, out, err = run(
            capsys, "solve", "--randsvd", "4,1,1,7", "--rhs", "ones", "--s", "1",
            "--summary",
        )
        assert code == 0
        assert err == ""
        assert "status: " in out
        summary = dict(
            line.split(": ", 1) for line in out.strip().splitlines()
        )
        assert int(summary["block_steps"]) <= 4

    def test_stagnating_run_exits_two(self, capsys, tmp_path):
        csv_path = str(tmp_path / "out.csv")
        code, out, err = run(
            capsys, "solve", "--randsvd", "20,1e5,1,1", "--rhs", "rsv:4",
            "--s", "3", "--arnoldi", "classical", "--basis", "monomial",
            "--restart", "20", "--csv", csv_path, "--summary",
        )
        assert code == 2
        summary = dict(line.split(": ", 1) for line in out.strip().splitlines())
        assert float(summary["backward_error"]) >= 1e-10
        assert float(summary["max_cond_B_tilde"]) >= 1e8
        records = read_csv(csv_path)
        assert records[-1].stop_reason in ("key_dimension_reached", "max_iters")

    def test_iteration_cap_exits_two(self, capsys):
        code, out, err = run(
            capsys, "solve", "--randsvd", "30,1e8,3,5", "--tol", "1e-30",
            "--max-outer", "2", "--s", "2",
        )
        assert code == 2
        assert out == ""

    def test_rhs_from_file(self, capsys, tmp_path):
        rhs_path = str(tmp_path / "b.txt")
        np.savetxt(rhs_path, np.arange(1.0, 5.0))
        code, out, err = run(
            capsys, "solve", "--randsvd", "4,10,2,3",
            "--rhs", "file:%s" % rhs_path, "--summary",
        )
        assert code == 0

    def test_preconditioned_variants_run(self, capsys):
        code, _, _ = run(
            capsys, "solve", "--randsvd", "16,1e2,3,9", "--s", "2",
            "--basis", "newton", "--arnoldi", "modified", "--orth", "bmgs",
            "--precond", "jacobi", "--basis-operator", "preconditioned",
            "--diag-every", "3",
        )
        assert code == 0

    def test_diag_every_above_step_count_measures_nothing(self, capsys, tmp_path):
        # the run converges off the measurement grid, so no step is
        # measured, yet its last row still carries the stop reason
        csv_path = str(tmp_path / "out.csv")
        code, out, err = run(
            capsys, "solve", "--randsvd", "20,1e2,3,7", "--s", "2",
            "--diag-every", "1000", "--summary", "--csv", csv_path,
        )
        assert code == 0
        summary = dict(line.split(": ", 1) for line in out.strip().splitlines())
        assert summary["max_cond_B_tilde"] == "n/a"
        with open(csv_path) as fh:
            header, *rows = fh.read().splitlines()
        fields = header.split(",")
        cond_fields = ("cond_B_tilde", "cond_B_subblock", "cond_V", "ortho_loss_V")
        rows = [dict(zip(fields, row.split(","))) for row in rows]
        assert len(rows) == int(summary["block_steps"])
        assert all(row[name] == "" for row in rows for name in cond_fields)
        assert rows[-1]["stop_reason"] == summary["status"]
        assert all(row["stop_reason"] == "" for row in rows[:-1])

    def test_overflowing_operator_image_exits_one(self, capsys, tmp_path):
        # A times the unit start vector ones / 2 overflows; the run must
        # fail instead of reporting a status
        path = tmp_path / "a.mtx"
        entries = [
            "%d %d %r" % (i, j, 1.7e308 if i == j else 1.5e308)
            for i in range(1, 5)
            for j in range(1, 5)
        ]
        lines = ["%%MatrixMarket matrix coordinate real general", "4 4 16"]
        path.write_text("\n".join(lines + entries) + "\n")
        with np.errstate(over="ignore", invalid="ignore"):
            code, out, err = run(capsys, "solve", "--matrix", str(path), "--summary")
        assert code == 1
        assert out == ""
        assert "non-finite" in err

    @pytest.mark.parametrize("scale", [1e160, 1e300])
    def test_huge_system_solves_like_the_unscaled_one(self, capsys, tmp_path, scale):
        # the squares behind ||A||_F, ||x|| and ||A x - b|| overflow, the
        # norms do not; the summary reads as the unscaled system's
        a, b = scale_probe_system()
        summaries = []
        for factor in (1.0, scale):
            matrix_path = str(tmp_path / ("a%r.mtx" % factor))
            rhs_path = str(tmp_path / ("b%r.txt" % factor))
            write_matrix_market(factor * a, matrix_path)
            np.savetxt(rhs_path, factor * b)
            code, out, err = run(
                capsys, "solve", "--matrix", matrix_path,
                "--rhs", "file:%s" % rhs_path, "--summary",
            )
            assert (code, err) == (0, "")
            summaries.append(dict(line.split(": ", 1) for line in out.strip().splitlines()))
        for key in ("status", "inner_iterations", "block_steps"):
            assert summaries[1][key] == summaries[0][key]
        assert float(summaries[1]["backward_error"]) <= 50 * UNIT_ROUNDOFF

    @pytest.mark.parametrize("s", [1, 2])
    def test_matrix_near_the_float_limit_matches_the_exact_backward_error(
        self, capsys, tmp_path, s
    ):
        # diag(1e308, 5e307) squares past the float limit, and its x,
        # about 1e-308, is subnormal; the run may not warn, its backward
        # error must be the exact one of its x up to the rounding of
        # evaluating it, and its status what that value says against tol
        for diag in ((1e308, 5e307), (1.0, 0.5)):
            path = diagonal_matrix_file(tmp_path, diag)
            code, out, err = run(capsys, "solve", "--matrix", str(path), "--s", str(s), "--summary")
            assert err == ""
            got = dict(line.split(": ", 1) for line in out.strip().splitlines())
            res = solve(np.diag(diag), np.ones(2), config=SolverConfig(s=s))
            assert got["backward_error"] == repr(res.backward_error)
            exact = exact_backward_error(np.diag(diag), np.ones(2), res.x)
            assert abs(res.backward_error - exact) <= 32 * UNIT_ROUNDOFF
            tol = 2 * UNIT_ROUNDOFF  # the default n u
            assert got["status"] == (
                "breakdown_converged" if exact <= tol else "key_dimension_reached"
            )
            assert code == (0 if exact <= tol else 2)

    @pytest.mark.parametrize("k", [-1000, 1000])
    @pytest.mark.parametrize("s", [1, 2])
    def test_power_of_two_twin_runs_like_the_unscaled_matrix(self, capsys, tmp_path, s, k):
        # diag(2^k, 2^(k-1)) is diag(1, 0.5) scaled exactly: the same exit
        # code and summary, and x scaled by 2^-k to the bit
        outputs = []
        for diag in ((1.0, 0.5), (2.0**k, 2.0 ** (k - 1))):
            path = diagonal_matrix_file(tmp_path, diag)
            code, out, err = run(capsys, "solve", "--matrix", str(path), "--s", str(s), "--summary")
            assert err == ""
            outputs.append((code, out))
        assert outputs[1] == outputs[0]
        config = SolverConfig(s=s)
        twin = solve(np.diag([2.0**k, 2.0 ** (k - 1)]), np.ones(2), config=config)
        plain = solve(np.diag([1.0, 0.5]), np.ones(2), config=config)
        assert np.ldexp(twin.x, k).tobytes() == plain.x.tobytes()


def diagonal_matrix_file(tmp_path, diag):
    """A Matrix Market file holding the 2 x 2 matrix diag(diag)."""
    path = tmp_path / ("d%r.mtx" % (diag,))
    lines = ["%%MatrixMarket matrix coordinate real general", "2 2 2"]
    lines += ["1 1 %r" % diag[0], "2 2 %r" % diag[1]]
    path.write_text("\n".join(lines) + "\n")
    return path


def exact_backward_error(a, b, x):
    """||A x - b|| / (||A||_F ||x|| + ||b||), the products and sums of
    squares exact as fractions and the square roots to 40 digits."""
    a, b, x = ([Fraction(v) for v in m.ravel()] for m in (a, b, x))
    n = len(b)
    resid = [sum(a[i * n + j] * x[j] for j in range(n)) - b[i] for i in range(n)]

    def norm(v):
        squares = sum(e * e for e in v)
        return Decimal(squares.numerator) / Decimal(squares.denominator)

    with localcontext() as ctx:
        ctx.prec = 40
        value = norm(resid).sqrt() / (norm(a).sqrt() * norm(x).sqrt() + norm(b).sqrt())
    return float(value)


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        code, out, err = run(capsys, "solve", "--randsvd", "4,1,1,7", "--frobulate")
        assert code == 1
        assert "error" in err

    def test_matrix_and_randsvd_conflict(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "solve", "--matrix", "x.mtx", "--randsvd", "4,1,1,7"
        )
        assert code == 1
        assert "not allowed with" in err

    def test_rsv_requires_randsvd(self, capsys):
        path = os.path.join(FIXTURES, "identity_4.mtx")
        code, _, err = run(capsys, "solve", "--matrix", path, "--rhs", "rsv:1")
        assert code == 1
        assert "rsv" in err

    def test_malformed_randsvd(self, capsys):
        code, _, err = run(capsys, "solve", "--randsvd", "4,1,1")
        assert code == 1
        assert "N,KAPPA,MODE,SEED" in err

    def test_missing_matrix_file(self, capsys):
        code, _, err = run(capsys, "solve", "--matrix", "/nonexistent/a.mtx")
        assert code == 1
        assert err != ""

    def test_bad_rhs_form(self, capsys):
        code, _, err = run(capsys, "solve", "--randsvd", "4,1,1,7", "--rhs", "zeros")
        assert code == 1
        assert "unknown --rhs" in err

    def test_rhs_size_mismatch(self, capsys, tmp_path):
        rhs_path = str(tmp_path / "b.txt")
        np.savetxt(rhs_path, np.ones(3))
        code, _, err = run(
            capsys, "solve", "--randsvd", "4,1,1,7", "--rhs", "file:%s" % rhs_path
        )
        assert code == 1
        assert "3 entries" in err

    def test_rhs_file_of_one_line_reads_as_one_value_per_line(self, capsys, tmp_path):
        outputs = []
        for name, content in (("row.txt", "1 2 3 4\n"), ("column.txt", "1\n2\n3\n4\n")):
            (tmp_path / name).write_text(content)
            outputs.append(run(
                capsys, "solve", "--randsvd", "4,10,2,3",
                "--rhs", "file:%s" % (tmp_path / name), "--summary",
            ))
        assert outputs[0] == outputs[1] and outputs[0][0] == 0

    @pytest.mark.parametrize(
        "content, fragment",
        [
            ("1 2\n3 4\n", "holds a 2 x 2 table"),
            ("1 2\n3 4\n5 6\n7 8\n", "holds a 4 x 2 table"),
            ("1\nx\n", "could not read"),
        ],
        ids=["square-table", "tall-table", "not-numeric"],
    )
    def test_rhs_file_must_hold_one_vector(self, capsys, tmp_path, content, fragment):
        rhs_path = tmp_path / "b.txt"
        rhs_path.write_text(content)
        matrix = os.path.join(FIXTURES, "identity_4.mtx")
        code, out, err = run(
            capsys, "solve", "--matrix", matrix, "--rhs", "file:%s" % rhs_path, "--summary"
        )
        assert code == 1 and out == ""
        assert err.startswith("error: ") and fragment in err

    @pytest.mark.parametrize("content", ["", " \n\n\t\n"], ids=["empty", "blank"])
    def test_rhs_file_without_values_prints_only_the_error(self, tmp_path, content):
        # a child process, so that a warning would reach its stderr as it
        # reaches a user's, not pytest's warning capture
        rhs_path = tmp_path / "b.txt"
        rhs_path.write_text(content)
        matrix = os.path.join(FIXTURES, "identity_4.mtx")
        here = os.path.dirname(os.path.abspath(__file__))
        env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(here), "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "sstep_gmres", "solve", "--matrix", matrix,
             "--rhs", "file:%s" % rhs_path],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("error: right-hand side has 0 entries ")

    @pytest.mark.parametrize(
        "spec, fragment",
        [("rsv:x", "K must be an integer"), ("rsv:1.5", "K must be an integer"),
         ("rsv:0", "k must be in 1..4"), ("rsv:5", "k must be in 1..4")],
    )
    def test_rsv_index_must_be_a_singular_vector(self, capsys, spec, fragment):
        code, _, err = run(capsys, "solve", "--randsvd", "4,1,1,7", "--rhs", spec)
        assert code == 1
        assert fragment in err

    def test_invalid_config_value(self, capsys):
        code, _, err = run(capsys, "solve", "--randsvd", "4,1,1,7", "--s", "0")
        assert code == 1
        assert "at least 1" in err

    def test_zero_diagonal_with_jacobi_is_an_input_error(self, capsys, tmp_path):
        path = str(tmp_path / "offdiag.mtx")
        with open(path, "w", encoding="ascii") as fh:
            fh.write("%%MatrixMarket matrix coordinate real general\n")
            fh.write("2 2 2\n1 2 1.0\n2 1 1.0\n")
        code, _, err = run(capsys, "solve", "--matrix", path, "--precond", "jacobi")
        assert code == 1
        assert "error: zero diagonal entry at row 0" in err
        assert "Traceback" not in err

    def test_out_of_memory_is_an_input_error(self, capsys, monkeypatch):
        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 32.0 GiB for an array")

        monkeypatch.setattr(cli, "parse_matrix_market", too_large)
        path = os.path.join(FIXTURES, "identity_4.mtx")
        code, out, err = run(capsys, "solve", "--matrix", path)
        assert code == 1
        assert out == ""
        assert err == "error: Unable to allocate 32.0 GiB for an array\n"

    def test_infinite_kappa_rejected(self, capsys, tmp_path):
        out = str(tmp_path / "m.mtx")
        code, _, err = run(capsys, "gen", "--randsvd", "6,inf,3,1", "--out", out)
        assert code == 1
        assert "kappa must be finite" in err
        assert not os.path.exists(out)

    def test_help_lists_every_solve_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["solve", "--help"])
        assert info.value.code == 0
        text = capsys.readouterr().out
        for flag in (
            "--matrix", "--randsvd", "--rhs", "--s", "--basis", "--arnoldi",
            "--orth", "--tol", "--tolh", "--restart", "--max-outer",
            "--precond", "--basis-operator", "--csv", "--summary", "--diag-every",
        ):
            assert flag in text


# (flag, value, SolverConfig field, parsed value)
CONFIG_FLAGS = [
    ("--s", "3", "s", 3),
    ("--basis", "newton", "basis", "newton"),
    ("--arnoldi", "modified", "arnoldi", "modified"),
    ("--orth", "bmgs", "orth", "bmgs"),
    ("--tol", "1e-9", "tol", 1e-9),
    ("--tolh", "1e-12", "tol_h", 1e-12),
    ("--restart", "4", "restart", 4),
    ("--max-outer", "7", "max_outer", 7),
    ("--basis-operator", "preconditioned", "basis_operator", "preconditioned"),
    ("--diag-every", "5", "diag_every", 5),
]


class TestConfigFlags:
    """``sgmres solve`` passes SolverConfig's own defaults, and each config
    flag sets the field of its name."""

    IDENTITY = os.path.join(FIXTURES, "identity_4.mtx")

    def config_of(self, monkeypatch, capsys, *flags):
        configs = []

        def spy(a, b, config=None, preconditioner=None):
            configs.append(config)
            return solve(a, b, config=config, preconditioner=preconditioner)

        monkeypatch.setattr(cli, "solve", spy)
        code, _, err = run(capsys, "solve", "--matrix", self.IDENTITY, *flags)
        assert (code, err) == (0, "")
        [config] = configs
        return config

    def test_bare_solve_passes_the_default_config(self, monkeypatch, capsys):
        assert self.config_of(monkeypatch, capsys) == SolverConfig()

    @pytest.mark.parametrize("flag, value, field, want", CONFIG_FLAGS)
    def test_each_flag_sets_its_field(self, monkeypatch, capsys, flag, value, field, want):
        config = self.config_of(monkeypatch, capsys, flag, value)
        assert config == dataclasses.replace(SolverConfig(), **{field: want})

    def test_every_field_has_a_flag(self):
        fields = {f.name for f in dataclasses.fields(SolverConfig)}
        assert {field for _, _, field, _ in CONFIG_FLAGS} == fields


class TestGenCommand:
    def test_writes_matrix_and_sidecar(self, capsys, tmp_path):
        out = str(tmp_path / "m.mtx")
        code, text, _ = run(capsys, "gen", "--randsvd", "20,1e10,5,11", "--out", out)
        assert code == 0
        assert os.path.exists(out)
        sigma = np.loadtxt(out + ".sigma.txt")
        assert sigma.shape == (20,)
        # mode 5 draws log-uniform values inside [1/kappa, 1]
        assert np.all((1e-10 <= sigma) & (sigma <= 1.0))
        assert sigma.min() < 1e-5 < sigma.max()

    def test_gen_then_solve_matches_direct_randsvd(self, capsys, tmp_path):
        out = str(tmp_path / "m.mtx")
        assert run(capsys, "gen", "--randsvd", "24,1e3,2,13", "--out", out)[0] == 0
        csv_a = str(tmp_path / "a.csv")
        csv_b = str(tmp_path / "b.csv")
        args = ("--s", "3", "--arnoldi", "modified", "--summary")
        code_a, out_a, _ = run(
            capsys, "solve", "--randsvd", "24,1e3,2,13", "--csv", csv_a, *args
        )
        code_b, out_b, _ = run(
            capsys, "solve", "--matrix", out, "--csv", csv_b, *args
        )
        # matrix market values round-trip exactly, so the runs are identical
        assert (code_a, out_a) == (code_b, out_b)
        with open(csv_a) as fa, open(csv_b) as fb:
            assert fa.read() == fb.read()

    def test_tiny_gen(self, capsys, tmp_path):
        out = str(tmp_path / "t.mtx")
        code, _, _ = run(capsys, "gen", "--randsvd", "2,1,1,1", "--out", out)
        assert code == 0
        with open(out) as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0] == "%%MatrixMarket matrix coordinate real general"
        assert lines[1].split() == ["2", "2", "4"]
        assert len(lines) == 6


class TestInfoCommand:
    def test_identity_fixture(self, capsys):
        path = os.path.join(FIXTURES, "identity_4.mtx")
        code, out, _ = run(capsys, "info", "--matrix", path)
        assert code == 0
        got = dict(line.split(": ", 1) for line in out.strip().splitlines())
        assert got["n"] == "4"
        assert got["nnz"] == "4"
        assert got["symmetric"] == "yes"
        assert float(got["frobenius_norm"]) == 2.0
        assert float(got["cond2"]) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize(
        "entries",
        [
            # symmetric pattern, unequal mirrored values
            ["1 1 1.0", "1 2 1.0", "2 1 2.0", "2 2 1.0"],
            # a stored zero whose mirror is not stored
            ["1 1 1.0", "2 2 1.0", "1 2 0.0"],
        ],
    )
    def test_asymmetric_storage_reported(self, capsys, tmp_path, entries):
        path = tmp_path / "m.mtx"
        lines = ["%%MatrixMarket matrix coordinate real general", "2 2 %d" % len(entries)]
        path.write_text("\n".join(lines + entries) + "\n")
        code, out, _ = run(capsys, "info", "--matrix", str(path))
        assert code == 0
        got = dict(line.split(": ", 1) for line in out.strip().splitlines())
        assert got["symmetric"] == "no"

    @pytest.mark.parametrize(
        "entries", [[], ["1 1 0.0", "2 3 0.0", "3 2 -0.0"]], ids=["empty", "zeros"]
    )
    def test_matrix_without_nonzero_value_reports_infinite_cond2(
        self, capsys, tmp_path, entries
    ):
        path = tmp_path / "z.mtx"
        lines = ["%%MatrixMarket matrix coordinate real general", "3 3 %d" % len(entries)]
        path.write_text("\n".join(lines + entries) + "\n")
        code, out, err = run(capsys, "info", "--matrix", str(path))
        assert code == 0
        assert err == ""
        got = dict(line.split(": ", 1) for line in out.strip().splitlines())
        assert got["nnz"] == str(len(entries))
        assert got["frobenius_norm"] == "0.0"
        assert got["cond2"] == "inf"

    def test_frobenius_norm_near_the_float_limit(self, capsys, tmp_path):
        # sqrt(2) * 1e308 is representable, though its square is not
        path = tmp_path / "big.mtx"
        lines = ["%%MatrixMarket matrix coordinate real general", "2 2 2"]
        path.write_text("\n".join(lines + ["1 1 1e308", "2 2 1e308"]) + "\n")
        code, out, err = run(capsys, "info", "--matrix", str(path))
        assert code == 0 and err == ""
        got = dict(line.split(": ", 1) for line in out.strip().splitlines())
        assert float(got["frobenius_norm"]) == np.sqrt(2.0) * 1e308
        assert float(got["cond2"]) == 1.0

    def test_cond2_skipped_above_dense_limit(self, capsys, tmp_path):
        # a dense cond2 at n = 800 takes the better part of a minute, so
        # info stops measuring past n = 500
        n = 501
        path = tmp_path / "eye.mtx"
        entries = ["%d %d 1.0" % (i, i) for i in range(1, n + 1)]
        lines = ["%%MatrixMarket matrix coordinate real general", "%d %d %d" % (n, n, n)]
        path.write_text("\n".join(lines + entries) + "\n")
        code, out, _ = run(capsys, "info", "--matrix", str(path))
        assert code == 0
        got = dict(line.split(": ", 1) for line in out.strip().splitlines())
        assert got["n"] == "501"
        assert got["cond2"] == (
            "skipped (n = 501 exceeds the dense SVD limit of 500)"
        )

    def test_generated_matrix_condition(self, capsys, tmp_path):
        out = str(tmp_path / "m.mtx")
        run(capsys, "gen", "--randsvd", "20,1e6,1,17", "--out", out)
        code, text, _ = run(capsys, "info", "--matrix", out)
        assert code == 0
        got = dict(line.split(": ", 1) for line in text.strip().splitlines())
        assert got["symmetric"] == "no"
        assert float(got["cond2"]) == pytest.approx(1e6, rel=1e-2)


class TestDeterminism:
    def test_identical_invocations_identical_csv(self, capsys, tmp_path):
        paths = [str(tmp_path / name) for name in ("r1.csv", "r2.csv")]
        argv = [
            "solve", "--randsvd", "25,1e4,3,19", "--s", "4",
            "--basis", "chebyshev", "--arnoldi", "modified",
            "--restart", "12", "--max-outer", "4",
        ]
        for path in paths:
            assert main(argv + ["--csv", path]) in (0, 2)
        capsys.readouterr()
        with open(paths[0], "rb") as fa, open(paths[1], "rb") as fb:
            first, second = fa.read(), fb.read()
        assert first == second
        assert first.startswith(CSV_HEADER.encode("ascii"))


@pytest.fixture
def solve_calls(monkeypatch):
    """(a, b, preconditioner) of every solve that the CLI starts."""
    calls = []

    def spy(a, b, config=None, preconditioner=None):
        calls.append((a, b, preconditioner))
        return solve(a, b, config=config, preconditioner=preconditioner)

    monkeypatch.setattr(cli, "solve", spy)
    return calls


def csv_of(records, path):
    write_csv(records, path)
    with open(path, "rb") as fh:
        return fh.read()


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestMatrixStorage:
    """solve receives A as an ndarray when it stores at least n^2 / 4
    entries, and as a CsrMatrix otherwise."""

    ARGS = ("--s", "3", "--basis", "newton", "--summary")
    CONFIG = SolverConfig(s=3, basis="newton")

    def solve_file(self, capsys, tmp_path, path, *extra):
        csv_path = str(tmp_path / "cli.csv")
        code, out, err = run(
            capsys, "solve", "--matrix", path, "--csv", csv_path, *self.ARGS, *extra
        )
        assert err == ""
        summary = dict(line.split(": ", 1) for line in out.strip().splitlines())
        return code, summary, read_bytes(csv_path)

    def test_dense_file_solves_as_ndarray(self, capsys, tmp_path, solve_calls):
        path = str(tmp_path / "a.mtx")
        write_matrix_market(gen_randsvd(RandSvdSpec(30, 1e4, 3, 5))[0], path)
        code, summary, got = self.solve_file(capsys, tmp_path, path)
        [(a, _, _)] = solve_calls
        assert isinstance(a, np.ndarray)
        assert summary["matrix_storage"] == "dense"
        want = solve(parse_matrix_market(path).to_dense(), np.ones(30), config=self.CONFIG)
        assert code == (0 if want.converged else 2)
        assert got == csv_of(want.records, str(tmp_path / "want.csv"))

    def test_sparse_file_solves_as_csr(self, capsys, tmp_path, solve_calls):
        path = str(tmp_path / "stencil.mtx")
        write_matrix_market(csr_from_coo(*stencil_coo(12)), path)
        code, summary, got = self.solve_file(capsys, tmp_path, path)
        [(a, _, _)] = solve_calls
        assert isinstance(a, CsrMatrix)
        assert summary["matrix_storage"] == "csr"
        want = solve(parse_matrix_market(path), np.ones(144), config=self.CONFIG)
        assert code == (0 if want.converged else 2)
        assert got == csv_of(want.records, str(tmp_path / "want.csv"))

    @pytest.mark.parametrize(
        "n, nnz, storage",
        [(8, 15, CsrMatrix), (8, 16, np.ndarray), (7, 12, CsrMatrix), (7, 13, np.ndarray)],
    )
    def test_density_threshold(self, capsys, tmp_path, solve_calls, n, nnz, storage):
        # n^2 / 4 is 16 at n = 8 and 12.25 at n = 7
        off = [(i, j) for i in range(n) for j in range(n) if i != j][: nnz - n]
        rows = np.array(list(range(n)) + [i for i, _ in off])
        cols = np.array(list(range(n)) + [j for _, j in off])
        vals = np.concatenate([4.0 + np.arange(n), 0.1 * np.ones(nnz - n)])
        path = str(tmp_path / "m.mtx")
        write_matrix_market(csr_from_coo(n, rows, cols, vals), path)
        self.solve_file(capsys, tmp_path, path)
        [(a, _, _)] = solve_calls
        assert isinstance(a, storage)

    def test_randsvd_with_singular_vector_rhs(self, capsys, solve_calls):
        code, out, err = run(
            capsys, "solve", "--randsvd", "20,1e3,3,4", "--rhs", "rsv:2", *self.ARGS
        )
        assert err == ""
        [(a, b, _)] = solve_calls
        want_a, v, _ = gen_randsvd(RandSvdSpec(20, 1e3, 3, 4))
        assert isinstance(a, np.ndarray)
        assert a.tobytes() == want_a.tobytes()
        assert b.tobytes() == right_singular_vector(v, 2).tobytes()
        want = solve(want_a, b, config=self.CONFIG)
        assert code == (0 if want.converged else 2)
        assert "matrix_storage: dense" in out.splitlines()

    def test_jacobi_on_dense_path(self, capsys, tmp_path, solve_calls):
        path = str(tmp_path / "a.mtx")
        write_matrix_market(gen_randsvd(RandSvdSpec(30, 1e4, 3, 6))[0], path)
        _, _, got = self.solve_file(capsys, tmp_path, path, "--precond", "jacobi")
        [(_, _, prec)] = solve_calls
        a = parse_matrix_market(path).to_dense()
        want = solve(
            a, np.ones(30), config=self.CONFIG,
            preconditioner=Preconditioner(np.diag(a).copy()),
        )
        assert prec.diag.tobytes() == np.diag(a).tobytes()
        assert got == csv_of(want.records, str(tmp_path / "want.csv"))
