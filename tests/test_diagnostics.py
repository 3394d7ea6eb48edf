"""Tests for the diagnostics records and their CSV round trip."""

import io
from dataclasses import fields

import numpy as np
import pytest

from sstep_gmres.diagnostics import (
    CSV_HEADER,
    IterationRecord,
    csv_text,
    read_csv,
    write_csv,
)
from sstep_gmres.solver import SolverConfig, solve

from helpers import clustered_spectrum_matrix, rng


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
