"""Per-iteration solver diagnostics and their CSV serialization.

One record is emitted per block step. Condition-number fields are
optional (skipped steps hold NaN) because a measurement is not free.
``basis_condition_numbers`` measures three matrices with n rows and up
to m columns:

- the orthonormal basis V: one GEMM, O(n m^2), and one m x m
  ``eigvalsh`` give both cond(V) and || I - V^T V ||_2;
- the newest candidate block, n x s: one ``cond2``;
- the stacked candidates B~: first ``cond2``'s Gram path, one GEMM,
  O(n m^2), which measures the modified variant's near-orthonormal B~.
  A B~ it rejects (the classical variant's, in practice) is measured
  from a ``CandidateFactor``, an append-only Householder QR of B~ that
  the solver keeps for the restart cycle. That first rejection pays
  the Gram attempt, O(n m^2) plus at most one m x m ``eigvalsh``, and
  factors the columns so far. Every later step of the cycle skips the
  Gram attempt, appends only its new columns, O(n m s), then takes
  sigma_max and sigma_min of the m x m R from one SVD, O(m^3).

The CSV writes NaN as an empty field and floats with repr, so a file
round-trips bit for bit.
"""

import io
from dataclasses import dataclass, fields

import numpy as np

from .dense import (
    cond2,
    cond2_and_orthogonality_loss,
    gram_cond2,
    project_out,
    triangular_cond2,
)
from .sparse import text_stream

__all__ = [
    "CSV_HEADER",
    "CandidateFactor",
    "IterationRecord",
    "basis_condition_numbers",
    "read_csv",
    "write_csv",
]

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


# the CSV columns are IterationRecord's fields, in order
_FIELDS = fields(IterationRecord)
CSV_HEADER = ",".join(f.name for f in _FIELDS)


class CandidateFactor:
    """Append-only Householder QR of one restart cycle's stacked candidates.

    B~ D = Q R with Q = H_1 ... H_m = I - Y T Y^T in compact WY form
    (Schreiber and Van Loan, SISC 1989): the columns of Y are the
    reflectors, T is upper triangular. D scales each column by the power
    of two 2^-e_j that brings its largest |entry| into [1/2, 1), so no
    squared norm over- or underflows. Householder QR commutes with
    power-of-two column scaling bit for bit, so R D^-1 is the R of B~
    itself, up to one common power of two that leaves cond unchanged.

    ``extend`` catches the factor up on the columns committed since the
    last call: C <- Q^T C = C - Y T^T (Y^T C), O(n m s) for s new
    columns against m old ones, then LAPACK's dgeqrf on their trailing
    rows (``np.linalg.qr``'s raw mode), whose reflectors and tau extend
    Y and T by dlarft's recurrence. Columns already factored are never
    re-read, so they must not change; within a cycle the solver only
    appends (a truncation cuts the newest block, which is measured after
    the cut). The factor reads only the candidates, never the solver's
    V or R, so the measurement stays independent of the solver's QR.
    Storage for as many columns as the candidate buffer holds, an n-row
    array and two square ones, is allocated on the first ``extend``.
    """

    def __init__(self):
        self.ncols = 0
        self._y = self._t = self._r = self._exponents = None

    @property
    def allocated(self):
        return self._y is not None

    def extend(self, b_concat, upto):
        """Factor columns ``ncols:upto`` of ``b_concat`` onto the factor."""
        m = self.ncols
        if upto < m:
            raise ValueError(
                "the factor is append-only: it holds %d columns, asked for %d" % (m, upto)
            )
        if self._y is None:
            n, capacity = b_concat.shape
            self._y = np.zeros((n, capacity), order="F")
            self._t = np.zeros((capacity, capacity), order="F")
            self._r = np.zeros((capacity, capacity), order="F")
            self._exponents = np.zeros(capacity, dtype=int)
        if upto == m:
            return
        c = b_concat[:, m:upto]
        _, exponents = np.frexp(np.abs(c).max(axis=0))
        self._exponents[m:upto] = exponents
        c = np.ldexp(c, -exponents)
        y, t = self._y, self._t
        if m:
            project_out(y[:, :m], c, t[:m, :m].T, out=c)
        # LAPACK's dgeqrf on the trailing rows: h.T holds R on and above
        # its diagonal and the reflectors below it, with v[0] = 1 implied
        h, tau = np.linalg.qr(c[m:], mode="raw")
        self._r[:m, m:upto] = c[:m]
        self._r[m:upto, m:upto] = np.triu(h.T[: upto - m])
        y[m:, m:upto] = np.tril(h.T, -1)
        for p in range(m, upto):
            # Q_p = Q_{p-1} H_p extends T by the column -tau T (Y^T v), tau
            y[p, p] = 1.0
            t[:p, p] = -tau[p - m] * (t[:p, :p] @ (y[p:, :p].T @ y[p:, p]))
            t[p, p] = tau[p - m]
        self.ncols = upto

    def cond2(self):
        """cond2 of the factored columns from their R: ``triangular_cond2``,
        the same noise floor and the same one SVD as ``cond2``'s pivoted R.
        """
        m = self.ncols
        e = self._exponents[:m]
        # R of B~ 2^-max(e): the common power of two that keeps its
        # largest column's entries below 1
        r = np.ldexp(self._r[:m, :m], (e - e.max())[None, :])
        return triangular_cond2(r, self._y.shape[0])


def _candidates_cond2(b_concat, inner, factor):
    # Once the Gram path has rejected a prefix of B~, it rejects every
    # longer one in exact arithmetic: the prefix's E = I - B~^T B~ is a
    # leading principal submatrix of the longer one's, so its entries
    # recur and its eigenvalues interlace. A cycle whose factor holds
    # columns therefore skips the Gram attempt and its O(n m^2) GEMM.
    if not factor.ncols:
        gram = gram_cond2(b_concat[:, :inner])
        if gram is not None:
            return gram
    factor.extend(b_concat, inner)
    return factor.cond2()


def basis_condition_numbers(state, factor, valid_cols=None):
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

    ``factor`` is the cycle's ``CandidateFactor``. A B~ off the Gram
    path is measured from it and extends it, and so is every later B~
    of the cycle. Its value then depends, at the rounding level
    (about u * cond), on which steps were measured: the factor takes the
    columns in the chunks that ``diag_every`` sets, and a chunk of
    columns rounds differently from the same columns added one block at
    a time. Identical settings give identical bits.
    """
    inner = state.inner_cols if valid_cols is None else valid_cols
    start = state.inner_cols - state.block_widths[-1]
    sub = state.b_concat[:, start:inner]
    v = state.q[:, : inner + 1]
    cond_bt = np.nan
    if inner:
        cond_bt = _candidates_cond2(state.b_concat, inner, factor)
    return (
        cond_bt,
        cond2(sub) if sub.shape[1] else np.nan,
        *cond2_and_orthogonality_loss(v),
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
    """Write records to a path or an open text stream (see
    ``sparse.text_stream``), schema fixed by CSV_HEADER."""
    with text_stream(destination, "w") as stream:
        stream.write(CSV_HEADER + "\n")
        for rec in records:
            row = [_format_value(getattr(rec, f.name)) for f in _FIELDS]
            stream.write(",".join(row) + "\n")


def _parse_float(text):
    return float("nan") if text == "" else float(text)


# parser of a CSV field by its annotated type in IterationRecord
_PARSERS = {int: int, float: _parse_float, str: str}


def read_csv(source):
    """Inverse of write_csv; reads a path or an open text stream (see
    ``sparse.text_stream``). A non-ASCII line raises ValueError."""
    with text_stream(source, "r") as stream:
        header = stream.readline().rstrip("\n")
        if header != CSV_HEADER:
            raise ValueError("unexpected csv header: %r" % header)
        records = []
        for lineno, line in enumerate(stream, start=2):
            if not line.isascii():
                raise ValueError("csv line %d is not ASCII" % lineno)
            parts = line.rstrip("\n").split(",")
            if len(parts) != len(_FIELDS):
                raise ValueError(
                    "expected %d fields, got %d" % (len(_FIELDS), len(parts))
                )
            records.append(
                IterationRecord(*(_PARSERS[f.type](t) for f, t in zip(_FIELDS, parts)))
            )
        return records


def csv_text(records):
    """The exact CSV bytes as a string, for in-memory comparisons."""
    buf = io.StringIO()
    write_csv(records, buf)
    return buf.getvalue()
