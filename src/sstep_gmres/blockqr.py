"""Incremental block QR: orthonormalize appended column blocks against an
existing orthonormal set while extending the shared triangular factor.

Two update schemes are provided. ``bcgsi_plus_step`` is block classical
Gram-Schmidt with a full second projection pass (two intra-block Householder
QRs), which keeps the orthogonality loss near roundoff for block condition
numbers up to ~1e8. ``bmgs_step`` is block modified Gram-Schmidt with a
single pass, cheaper in reads of the basis but with loss proportional to
the condition number of the incoming block.

Neither scheme decides rank: a column that adds no new direction still
gets an orthonormal Q column, and its small R diagonal entry is left for
the caller to test.
"""

import numpy as np

from .dense import householder_qr, project_out

__all__ = [
    "QrState",
    "bcgsi_plus_step",
    "bmgs_step",
]


class QrState:
    """Growing thin QR factorization with preallocated storage.

    ``q`` holds the orthonormal columns, ``r`` the square triangular
    factor; only the leading ``ncols`` columns/rows are meaningful.
    Appended blocks keep their widths in ``block_widths``, the one record
    of the block layout. Capacity may exceed the row count: columns past
    the rank of the appended data are committed with a small R diagonal
    entry rather than rejected up front.

    Storage is reused, not cleared, on one invariant: ``ncols`` bounds
    every read of ``q`` and ``r`` (and ``ArnoldiState.inner_cols`` every
    read of the candidates B~, the one per-column buffer that subclass
    adds), and a commit writes its columns whole, ``r``'s down to the
    last row with +0.0 below the diagonal block. Whatever an earlier
    cycle or a truncated block left past those bounds is never seen, so
    ``reset`` and a truncation clear nothing.
    """

    def __init__(self, n, max_cols):
        if max_cols < 1:
            raise ValueError("max_cols must be at least 1")
        self.n = n
        self.max_cols = max_cols
        self.q = np.zeros((n, max_cols), order="F")
        self.r = np.zeros((max_cols, max_cols), order="F")
        self.ncols = 0
        self.block_widths = []

    def reset(self):
        """Empty the factorization for a new cycle; the storage is left as it is."""
        self.ncols = 0
        self.block_widths = []

    @property
    def q_active(self):
        return self.q[:, : self.ncols]

    @property
    def r_active(self):
        return self.r[: self.ncols, : self.ncols]

    def _reserve(self, width):
        if width < 1:
            raise ValueError("block must have at least one column")
        if self.ncols + width > self.max_cols:
            raise ValueError(
                "appending %d columns exceeds capacity %d (have %d)"
                % (width, self.max_cols, self.ncols)
            )

    def _commit(self, start, q_new, r_above, r_diag):
        width = q_new.shape[1]
        self.q[:, start : start + width] = q_new
        if start:
            self.r[:start, start : start + width] = r_above
        self.r[start : start + width, start : start + width] = r_diag
        self.r[start + width :, start : start + width] = 0.0
        self.ncols = start + width
        self.block_widths.append(width)


def bcgsi_plus_step(state, x):
    """Append block x using classical Gram-Schmidt with reorthogonalization.

    Projection, intra-block QR, then a full second projection and QR; the
    triangular pieces are recombined so q r still reproduces the inputs.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    state._reserve(x.shape[1])
    p = state.ncols
    q = state.q_active

    s1, w1 = project_out(q, x)
    u, t1 = householder_qr(w1)
    s2, w2 = project_out(q, u)
    q_new, t2 = householder_qr(w2)

    state._commit(p, q_new, s1 + s2 @ t1, t2 @ t1)


def bmgs_step(state, x):
    """Append block x using modified Gram-Schmidt over previous blocks."""
    x = np.array(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    state._reserve(x.shape[1])
    p = state.ncols

    r_above = np.zeros((p, x.shape[1]))
    lo = 0
    for width in state.block_widths:
        # in place: each block's coefficients read x in its own layout
        sk, _ = project_out(state.q[:, lo : lo + width], x, out=x)
        r_above[lo : lo + width] = sk
        lo += width
    q_new, r_diag = householder_qr(x)
    state._commit(p, q_new, r_above, r_diag)

