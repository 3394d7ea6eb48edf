"""Per-iteration solver diagnostics and their CSV serialization.

One record is emitted per block step. Condition-number fields are
optional (skipped steps hold NaN) because a measurement is not free:
``basis_condition_numbers`` makes three ``cond2`` calls and one
``loss_of_orthogonality`` on n-row matrices with up to m columns. A
near-orthonormal matrix (V, the modified variant's candidates) costs one
GEMM, O(n m^2), and one m x m ``eigvalsh``; an ill-conditioned one (the
classical variant's candidates) costs a pivoted QR, O(n m^2), then the
inverse and the 2-norms of its m x m R factor, O(m^3). The CSV writes NaN
as an empty field and floats with repr, so a file round-trips bit for
bit.
"""

import io
from dataclasses import dataclass, fields

import numpy as np

from .blockqr import loss_of_orthogonality
from .dense import cond2

__all__ = [
    "CSV_HEADER",
    "IterationRecord",
    "basis_condition_numbers",
    "read_csv",
    "write_csv",
]

CSV_HEADER = (
    "outer,inner_cols,backward_error,ls_residual_estimate,"
    "cond_B_tilde,cond_B_subblock,cond_V,ortho_loss_V,stop_reason,"
    "restart_cycle"
)


@dataclass(frozen=True)
class IterationRecord:
    """State of the solve after one block step.

    ``outer`` counts block steps within the current restart cycle
    (1-based); ``inner_cols`` is the cycle's basis size so far. The four
    conditioning fields are NaN when measurement was skipped.
    ``stop_reason`` is empty except on the run's final record.
    """

    outer: int
    inner_cols: int
    backward_error: float
    ls_residual_estimate: float
    cond_B_tilde: float
    cond_B_subblock: float
    cond_V: float
    ortho_loss_V: float
    stop_reason: str
    restart_cycle: int


def basis_condition_numbers(state, valid_cols=None):
    """Conditioning diagnostics of the current cycle's bases.

    Returns (cond_B_tilde, cond_B_subblock, cond_V, ortho_loss_V): the
    condition numbers of all candidate blocks stacked, of the newest
    block alone, of the orthonormal basis, and || I - V^T V ||_2.

    ``valid_cols`` limits the measurement to the first that many
    candidate columns (plus the matching basis slice). The driver passes
    it after a rank-test breakdown: the final column added no direction
    and stays stored only to keep the triangular factor consistent, so
    it is not part of the bases the iteration actually searched. A
    slice left empty by the limit reports NaN.
    """
    inner = state.inner_cols if valid_cols is None else valid_cols
    b = state.b_concat[:, :inner]
    start = state.inner_cols - state.vr.block_widths[-1]
    sub = state.b_concat[:, start:inner]
    v = state.vr.q[:, : inner + 1]
    return (
        cond2(b) if b.shape[1] else np.nan,
        cond2(sub) if sub.shape[1] else np.nan,
        cond2(v),
        loss_of_orthogonality(v),
    )


def _format_value(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    f = float(value)
    if np.isnan(f):
        return ""
    return repr(f)


def write_csv(records, destination):
    """Write records to a path or text stream, schema fixed by CSV_HEADER."""
    own = isinstance(destination, (str, bytes)) or hasattr(destination, "__fspath__")
    stream = open(destination, "w", encoding="ascii") if own else destination
    try:
        stream.write(CSV_HEADER + "\n")
        for rec in records:
            row = [_format_value(getattr(rec, f.name)) for f in fields(IterationRecord)]
            stream.write(",".join(row) + "\n")
    finally:
        if own:
            stream.close()


def _parse_float(text):
    return float("nan") if text == "" else float(text)


def read_csv(source):
    """Inverse of write_csv; accepts a path or text stream."""
    own = isinstance(source, (str, bytes)) or hasattr(source, "__fspath__")
    stream = open(source, "r", encoding="ascii") if own else source
    try:
        header = stream.readline().rstrip("\n")
        if header != CSV_HEADER:
            raise ValueError("unexpected csv header: %r" % header)
        records = []
        for line in stream:
            parts = line.rstrip("\n").split(",")
            if len(parts) != 10:
                raise ValueError("expected 10 fields, got %d" % len(parts))
            records.append(
                IterationRecord(
                    outer=int(parts[0]),
                    inner_cols=int(parts[1]),
                    backward_error=_parse_float(parts[2]),
                    ls_residual_estimate=_parse_float(parts[3]),
                    cond_B_tilde=_parse_float(parts[4]),
                    cond_B_subblock=_parse_float(parts[5]),
                    cond_V=_parse_float(parts[6]),
                    ortho_loss_V=_parse_float(parts[7]),
                    stop_reason=parts[8],
                    restart_cycle=int(parts[9]),
                )
            )
        return records
    finally:
        if own:
            stream.close()


def csv_text(records):
    """The exact CSV bytes as a string, for in-memory comparisons."""
    buf = io.StringIO()
    write_csv(records, buf)
    return buf.getvalue()
