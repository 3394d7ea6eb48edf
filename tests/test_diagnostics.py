"""Tests for the diagnostics records and their CSV round trip."""

import io
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, strategies as st

import sstep_gmres.solver as solver_module
from sstep_gmres import dense, diagnostics
from sstep_gmres.dense import cond2, cond2_and_orthogonality_loss
from sstep_gmres.diagnostics import (
    CSV_HEADER,
    CandidateFactor,
    IterationRecord,
    csv_text,
    read_csv,
    write_csv,
)
from sstep_gmres.solver import SolverConfig, solve
from sstep_gmres.sparse import RandSvdSpec, gen_randsvd

from helpers import (
    assert_cond_within_u_kappa,
    clustered_spectrum_matrix,
    loss_of_orthogonality,
    matrix_with_cond,
    rng,
)


def sample_records():
    return [
        IterationRecord(
            outer=1,
            inner_cols=3,
            backward_error=0.1 + 1e-17,
            ls_residual_estimate=2.5,
            cond_B_tilde=float("nan"),
            cond_B_subblock=float("nan"),
            cond_V=float("nan"),
            ortho_loss_V=float("nan"),
            stop_reason="",
            restart_cycle=1,
        ),
        IterationRecord(
            outer=2,
            inner_cols=6,
            backward_error=3.0517578125e-05,
            ls_residual_estimate=1.2345678901234567e-08,
            cond_B_tilde=123456.789,
            cond_B_subblock=12.5,
            cond_V=1.0000000000000002,
            ortho_loss_V=2.220446049250313e-16,
            stop_reason="converged_backward",
            restart_cycle=2,
        ),
    ]


class TestCsvRoundTrip:
    def test_header_is_exact(self):
        text = csv_text([])
        assert text == CSV_HEADER + "\n"
        assert text.splitlines()[0] == (
            "outer,inner_cols,backward_error,ls_residual_estimate,"
            "cond_B_tilde,cond_B_subblock,cond_V,ortho_loss_V,stop_reason,"
            "restart_cycle"
        )

    def test_nan_fields_serialize_empty(self):
        text = csv_text(sample_records())
        first_row = text.splitlines()[1]
        assert ",,,," in first_row
        assert "nan" not in text

    def test_round_trip_preserves_values_bitwise(self):
        records = sample_records()
        buf = io.StringIO(csv_text(records))
        back = read_csv(buf)
        assert len(back) == len(records)
        for orig, got in zip(records, back):
            assert got.outer == orig.outer
            assert got.inner_cols == orig.inner_cols
            assert got.restart_cycle == orig.restart_cycle
            assert got.stop_reason == orig.stop_reason
            for name in (
                "backward_error",
                "ls_residual_estimate",
                "cond_B_tilde",
                "cond_B_subblock",
                "cond_V",
                "ortho_loss_V",
            ):
                a = getattr(orig, name)
                b = getattr(got, name)
                if np.isnan(a):
                    assert np.isnan(b)
                else:
                    assert a == b

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "diag.csv"
        records = sample_records()
        write_csv(records, str(path))
        # NaN fields defeat dataclass equality, so compare re-serialized text
        assert csv_text(read_csv(str(path))) == csv_text(records)

    def test_fields_parse_by_annotated_type(self):
        back = read_csv(io.StringIO(csv_text(sample_records())))
        for rec in back:
            for f in fields(IterationRecord):
                assert type(getattr(rec, f.name)) is f.type

    def test_rejects_foreign_header(self):
        with pytest.raises(ValueError, match="header"):
            read_csv(io.StringIO("outer,inner\n1,2\n"))

    def test_rejects_short_rows(self):
        bad = CSV_HEADER + "\n1,2,3\n"
        with pytest.raises(ValueError, match="10 fields"):
            read_csv(io.StringIO(bad))

    @pytest.mark.parametrize("stop_reason", ["max_iters\u00e9", "\u0665"])
    def test_rejects_non_ascii_lines(self, tmp_path, stop_reason):
        # the str field would take the text as it is
        text = csv_text(sample_records()) + "1,1,,,,,,,%s,1\n" % stop_reason
        with pytest.raises(ValueError, match="csv line 4 is not ASCII"):
            read_csv(io.StringIO(text))
        path = tmp_path / "diag.csv"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(ValueError, match="csv line 4 is not ASCII"):
            read_csv(str(path))


class TestSolverRecordsSerialize:
    def test_solver_output_round_trips(self, tmp_path):
        a = clustered_spectrum_matrix(24, 0.3, seed=50)
        b = rng(51).standard_normal(24)
        res = solve(a, b, config=SolverConfig(s=3, diag_every=2))
        path = tmp_path / "run.csv"
        write_csv(res.records, str(path))
        back = read_csv(str(path))
        assert csv_text(back) == csv_text(res.records)
        assert back[-1].stop_reason == res.status


# relative error of a factor measurement, in units of u kappa
FACTOR_C = 16


@st.composite
def chunked_matrices(draw):
    """A column-scaled matrix of prescribed condition and a random split of
    its columns into the chunks a run would append."""
    rows = draw(st.integers(2, 80))
    cols = draw(st.integers(1, min(rows, 40)))
    seed = draw(st.integers(0, 2**32 - 1))
    m = matrix_with_cond(rows, cols, 10.0 ** draw(st.floats(0.0, 12.0)), seed)
    m *= 10.0 ** rng(seed + 1).uniform(-4.0, 4.0, cols)
    cuts = draw(st.lists(st.integers(1, cols), max_size=cols))
    return m, sorted(set(cuts) | {cols})


def factor_cond2(m, uptos):
    factor = CandidateFactor()
    for upto in uptos:
        factor.extend(m, upto)
    return factor.cond2()


class TestCandidateFactor:
    @given(chunked_matrices())
    def test_agrees_with_dgejsv(self, case):
        m, uptos = case
        assert_cond_within_u_kappa(m, factor_cond2(m, uptos), FACTOR_C)

    def test_prefix_measurement_needs_no_later_columns(self):
        m = matrix_with_cond(30, 12, 1e6, seed=70)
        factor = CandidateFactor()
        factor.extend(m, 5)
        first = factor.cond2()
        m[:, 5:] = np.nan  # columns past the factor are never read
        assert first == factor_cond2(m, [5])

    def test_append_only(self):
        m = matrix_with_cond(20, 6, 1e3, seed=71)
        factor = CandidateFactor()
        factor.extend(m, 4)
        with pytest.raises(ValueError, match="append-only"):
            factor.extend(m, 3)

    def test_dependent_column_is_inf(self):
        m = rng(72).standard_normal((25, 4))
        m[:, 3] = m[:, 0] - 2.0 * m[:, 1]
        assert factor_cond2(m, [2, 4]) == np.inf

    @staticmethod
    def _replaying_measure(monkeypatch, checked):
        """Measure as the solver does, and check each factor measurement
        against a fresh factor fed the same columns in the same chunks.

        ``checked`` gets, per checked measurement, how many distinct
        factors the run has measured from so far."""
        measure = solver_module.basis_condition_numbers
        factors = []  # (factor, the column counts it was extended to)

        def replay(state, factor, valid_cols=None):
            got = measure(state, factor, valid_cols)
            seen = next((u for f, u in factors if f is factor), None)
            if seen is None:
                seen = []
                factors.append((factor, seen))
            if factor.ncols and (not seen or seen[-1] != factor.ncols):
                seen.append(factor.ncols)
                assert got[0] == factor_cond2(state.b_concat, seen)
                checked.append(len(factors))
            return got

        monkeypatch.setattr(solver_module, "basis_condition_numbers", replay)

    @given(st.integers(0, 2**16), st.integers(2, 8), st.integers(8, 20))
    def test_restart_cycle_matches_a_fresh_factor(self, seed, s, restart):
        checked = []
        with pytest.MonkeyPatch.context() as monkeypatch:
            self._replaying_measure(monkeypatch, checked)
            a, _, _ = gen_randsvd(RandSvdSpec(n=60, kappa=1e6, mode=3, seed=seed))
            cfg = SolverConfig(s=s, restart=restart, max_outer=3, diag_every=1)
            res = solve(a, np.ones(60), config=cfg)
        assert checked
        if res.cycles >= 2:
            # a later cycle measured from its own factor, not cycle 1's
            assert max(checked) >= 2

    @pytest.fixture
    def made(self, monkeypatch):
        """Every CandidateFactor the solver makes, in order."""
        made = []

        class Recorded(CandidateFactor):
            def __init__(self):
                super().__init__()
                made.append(self)

        monkeypatch.setattr(solver_module, "CandidateFactor", Recorded)
        return made

    def test_no_factor_without_measurement(self, made):
        a, _, _ = gen_randsvd(RandSvdSpec(n=80, kappa=1e6, mode=3, seed=3))
        cfg = SolverConfig(s=5, restart=20, max_outer=3, diag_every=10**6)
        solve(a, np.ones(80), config=cfg)
        assert len(made) == 3 and not any(f.allocated for f in made)

    def test_modified_candidates_allocate_no_factor(self, made):
        # the Gram path measures the modified variant's B~
        a, _, _ = gen_randsvd(RandSvdSpec(n=80, kappa=1e6, mode=3, seed=3))
        res = solve(a, np.ones(80), config=SolverConfig(s=5, arnoldi="modified"))
        assert made and res.records and not any(f.allocated for f in made)

    @given(
        st.integers(6, 30),
        st.data(),
        st.integers(1, 6),
        st.integers(1, 3),
        st.integers(0, 2**16),
    )
    def test_breakdown_measurement_never_trims(self, n, data, s, every, seed):
        # b touches k eigenvectors of a diagonal A: the Krylov space closes
        # at dimension k, mid-block for most s
        k = data.draw(st.integers(2, n - 1), label="modes")
        a = np.diag(np.arange(1.0, n + 1.0))
        b = np.zeros(n)
        b[:k] = rng(seed).standard_normal(k)
        calls = []
        extend = CandidateFactor.extend

        def checked_extend(self, b_concat, upto):
            calls.append((self.ncols, upto))
            extend(self, b_concat, upto)

        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(CandidateFactor, "extend", checked_extend)
            cfg = SolverConfig(s=min(s, n), diag_every=every)
            res = solve(a, b, config=cfg)
        assert res.status in ("breakdown_converged", "key_dimension_reached")
        assert all(upto >= held for held, upto in calls)

    def test_classical_candidates_never_reach_pivoted_qr(self, monkeypatch):
        shapes = []
        qrcp = dense._qrcp_r

        def counted(a):
            shapes.append(a.shape)
            return qrcp(a)

        monkeypatch.setattr(dense, "_qrcp_r", counted)
        a, _, _ = gen_randsvd(RandSvdSpec(n=120, kappa=1e6, mode=3, seed=1))
        cfg = SolverConfig(s=5, basis="newton", max_outer=15, diag_every=1)
        res = solve(a, np.ones(120), config=cfg)
        assert max(rec.cond_B_tilde for rec in res.records) > 1e3
        # one newest block of at most s columns per measured step
        assert len(shapes) == len(res.records)
        assert all(rows == 120 and 1 <= cols <= 5 for rows, cols in shapes)

    def test_gram_attempts_end_at_the_first_rejection(self, monkeypatch):
        verdicts = []
        gram = diagnostics.gram_cond2

        def counted(b):
            verdicts.append(gram(b))
            return verdicts[-1]

        monkeypatch.setattr(diagnostics, "gram_cond2", counted)
        a, _, _ = gen_randsvd(RandSvdSpec(n=120, kappa=1e6, mode=3, seed=1))
        cfg = SolverConfig(s=5, basis="newton", max_outer=15, diag_every=1)
        res = solve(a, np.ones(120), config=cfg)
        # one plain cycle: the factor measures every step after it
        assert res.cycles == 1 and len(verdicts) < len(res.records)
        assert verdicts[-1] is None
        assert all(v is not None for v in verdicts[:-1])


class TestBasisMeasures:
    """cond_V and ortho_loss_V share one spectrum of I - V^T V."""

    @given(
        st.integers(1, 60),
        st.integers(1, 60),
        st.floats(0.0, 8.0),
        st.integers(0, 2**32 - 1),
    )
    def test_bit_identical_to_separate_measurements(self, rows, cols, log_cond, seed):
        m = matrix_with_cond(rows, min(rows, cols), 10.0 ** log_cond, seed)
        if cols > rows:
            m = np.hstack([m, rng(seed + 1).standard_normal((rows, cols - rows))])
        assert cond2_and_orthogonality_loss(m) == (cond2(m), loss_of_orthogonality(m))

    def test_solver_basis_takes_the_shared_spectrum(self, monkeypatch):
        a, _, _ = gen_randsvd(RandSvdSpec(n=100, kappa=1e6, mode=3, seed=2))
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(e):
            calls.append(e.shape)
            return eigvalsh(e)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        res = solve(a, np.ones(100), config=SolverConfig(s=4, max_outer=5))
        # one spectrum of the (inner_cols + 1)-column V per measured step
        for rec in res.records:
            k = rec.inner_cols + 1
            assert calls.count((k, k)) == 1
            assert np.isfinite(rec.cond_V) and np.isfinite(rec.ortho_loss_V)

    def test_nonfinite_basis_rejected(self):
        q, _ = np.linalg.qr(rng(73).standard_normal((20, 5)))
        q[2, 1] = np.nan
        with pytest.raises(ValueError):
            cond2_and_orthogonality_loss(q)
