"""Block Arnoldi steps for s-step GMRES.

Each outer step grows the orthonormal basis V by up to s columns: build a
polynomial Krylov block K from the newest basis vector, derive the
candidate block B from it, map B through the operator and the left
preconditioner (W = M^{-1} A B), then extend the shared QR factorization
[r | W_1 | ... | W_i] = V R. The candidate blocks are also the solution
directions: x = x0 + [B_1 | ... | B_i] y.

``classical_step`` feeds K directly as the candidate block. ``modified_step``
first replaces K by the Q factor of its twice-projected complement against
the previous basis columns, which keeps the accumulated candidate blocks
well conditioned regardless of the polynomial basis quality.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import build_krylov_block
from .blockqr import QrState
from .dense import UNIT_ROUNDOFF, householder_qr, project_out

__all__ = [
    "ArnoldiState",
    "OperatorSet",
    "StepReport",
    "classical_step",
    "modified_step",
    "truncate_after_breakdown",
]


@dataclass(frozen=True)
class OperatorSet:
    """Callables defining the preconditioned system, all vector -> vector.

    ``basis_op`` is the operator a classical step builds its polynomial
    Krylov blocks with; a modified step always uses ``system_op``,
    M^{-1} A (see ``modified_step``). When ``basis_op`` is the very
    object ``matvec``, or when ``basis_preconditioned`` declares that it
    returns ``left_inv(matvec(x))`` bit for bit, a classical step turns the
    images computed while building K into columns of W = M^{-1} A K and
    applies the system operator afresh only to the columns past them:
    a block of width s then costs s applies, not 2s - 1. Any other
    basis operator (a scaled one, say) gets every W column afresh.
    """

    matvec: Callable
    left_inv: Callable
    basis_op: Callable
    basis_preconditioned: bool = False

    def system_op(self, x):
        """M^{-1} A x."""
        return self.left_inv(self.matvec(x))


@dataclass
class StepReport:
    """The candidate-preparation work of one block step.

    Rank is not decided here: ``solve`` tests the fresh R diagonal
    entries of the shared factorization, the new block being
    ``block_widths[-1]`` columns wide, against the scale that R's own
    columns give W (see ``ArnoldiState``). ``projections`` and ``intra_qrs``
    count the work on top of the shared orthogonalization, so logs can
    show the near-doubling of QR cost in the modified variant.
    """

    projections: int = 0
    intra_qrs: int = 0


class ArnoldiState(QrState):
    """The factorization [r | W_1 | ... ] = V R of a restart cycle, with
    its candidate blocks.

    ``q`` and ``r`` hold V and R, and ``block_widths`` the block layout:
    the seed column's block of width 1, then one entry per committed
    step. ``b_concat`` holds the candidate blocks B_k, which span the
    solution update and feed the conditioning diagnostics. It has one
    column per inner column, bounded by ``inner_cols`` as ``ncols``
    bounds ``q`` and ``r`` (see ``QrState``). W itself is not kept: R's
    columns 1.. carry its scale, which is what the rank test reads.

    ``solve`` keeps one state per solve and calls ``reset`` before it
    seeds each cycle, so a restart never holds two bases at once.
    """

    def __init__(self, n, max_inner):
        if not 1 <= max_inner <= n:
            raise ValueError("need 1 <= max_inner <= n")
        super().__init__(n, max_inner + 1)
        self.b_concat = np.zeros((n, max_inner), order="F")

    @property
    def max_inner(self):
        return self.max_cols - 1

    @property
    def inner_cols(self):
        """Candidate columns committed so far: every basis column but the seed."""
        return max(self.ncols - 1, 0)

    def seed(self, r, orth_step):
        """Install the start residual as the first basis column.

        The QR of the single column makes R[0, 0] = ||r||, which is
        returned as beta.
        """
        if self.ncols != 0:
            raise ValueError("state is already seeded")
        orth_step(self, r)
        return self.r[0, 0]

    def b_columns(self):
        return self.b_concat[:, : self.inner_cols]


def _finish_step(state, ops, b, orth_step, w_known=(), projections=0, intra_qrs=0):
    """Commit candidate block b: W = M^{-1} A b, then extend [r | W] = V R.

    ``w_known[i]``, when given, is column i of W as already computed
    elsewhere; only the columns past them get a fresh apply.
    """
    width = b.shape[1]
    w = np.empty_like(b)
    for j in range(width):
        w[:, j] = w_known[j] if j < len(w_known) else ops.left_inv(ops.matvec(b[:, j]))
    start = state.inner_cols
    state.b_concat[:, start : start + width] = b
    orth_step(state, w)
    return StepReport(projections, intra_qrs)


def _candidate_block(state, apply_op, basis, s):
    if state.ncols == 0:
        raise ValueError("seed the state before stepping")
    room = state.max_inner - state.inner_cols
    if room <= 0:
        raise ValueError("no inner columns left; restart or stop")
    seed = state.q[:, state.ncols - 1].copy()
    return build_krylov_block(apply_op, seed, min(s, room), basis)


def _enforce_span_budget(state, attempted):
    """Roll the newest committed block back to its span-consistent prefix.

    This cut alone holds the stacked candidates B~ at sigma_min >= 1/2,
    which with unit-norm columns caps cond2(B~) at 2 sqrt(n) + sqrt(s).
    The guarantee rests on each candidate column lying in the span of
    its own block's basis columns (the seed plus the directions its
    predecessors created). That distance is only measurable after the
    block orthogonalization has committed those basis columns, so the
    check runs post-commit and cuts with the breakdown truncation, which
    keeps the factorization invariant intact. The per-column budget
    spreads the 1/2 perturbation allowance of the guarantee over the
    worst-case number of blocks and columns a cycle can commit; the
    seed column always stays (it is itself a basis column). The floor
    is checked by property tests, not at run time.
    """
    width = state.block_widths[-1]
    start = state.inner_cols - width
    budget = np.sqrt(attempted) / (20.0 * state.max_inner**1.5)
    for t in range(1, width):
        col = state.b_concat[:, start + t]
        own = state.q[:, start : start + t + 1]
        _, resid = project_out(own, col[:, None])
        if np.linalg.norm(resid) > budget:
            truncate_after_breakdown(state, start + t)
            return


def _live_width(r, rows, scale):
    """Columns of a candidate QR before its first dead pivot, at least 1.

    A pivot r[j, j] at or below 4 sqrt(rows) u ``scale`` is dead; the
    sqrt(rows) covers the noise of eliminating an exactly dependent column.
    """
    threshold = 4.0 * np.sqrt(rows) * UNIT_ROUNDOFF * scale
    dead = np.flatnonzero(np.diag(r) <= threshold)
    return max(int(dead[0]), 1) if dead.size else r.shape[0]


def classical_step(state, ops, basis, s, orth_step):
    """One s-step block using the raw polynomial block as candidate.

    ``build_krylov_block`` applies the basis operator once to each of
    K's columns but the last, in order, and leaves the results alone, so
    its recorded outputs are the operator images of k_0, k_1, ...; when
    ``ops`` marks the basis operator as the system's (see
    ``OperatorSet``), they become W's leading columns. A block of width
    s then costs s - 1 applies in K and one fresh apply for k_{s-1};
    after an early truncation every column already has its image.
    """
    images = []

    def recording_op(x):
        y = ops.basis_op(x)
        images.append(y)
        return y

    k = _candidate_block(state, recording_op, basis, s)
    if ops.basis_op is ops.matvec:
        w_known = [ops.left_inv(y) for y in images]
    elif ops.basis_preconditioned:
        w_known = images
    else:
        w_known = ()
    return _finish_step(state, ops, k, orth_step, w_known)


def modified_step(state, ops, basis, s, orth_step):
    """One s-step block with the candidate re-orthogonalized first.

    The polynomial block is projected twice against all basis columns
    except its own seed (the newest one), then replaced by its Q factor.
    Two rank decisions can narrow the block. Before the commit,
    columns from the first dead QR pivot on are dropped: past that
    point the Q factor holds no information about K, only arbitrary
    orthonormal noise. After the commit, ``_enforce_span_budget`` cuts
    the block at the first candidate column that fails to lie in the
    span of its own block's new basis columns within the per-column
    budget: such a column is dominated by projection roundoff, i.e.
    directions the basis only acquires later, and keeping it is what
    lets the accumulated candidates lose their conditioning (the cut
    uses the breakdown truncation, so the factorization invariant
    survives). The cut keeps the condition number of the stacked
    candidates at the 2 sqrt(n) + sqrt(s) level regardless of how
    degenerate the polynomial block was, while a healthy block commits
    at full width. The next block restarts the recurrence from a fresh
    seed either way. Width-1 blocks skip all of this: a lone seed
    column is already orthonormal, and the step reduces to the
    classical one bit for bit.

    K is built with ``ops.system_op`` whatever ``ops.basis_op`` is. The
    span test measures each candidate against its block's basis
    columns, which are M^{-1} A images; K built from A alone fails it
    past the seed column under any preconditioner but the identity.
    """
    k = _candidate_block(state, ops.system_op, basis, s)
    if k.shape[1] > 1:
        prev = state.q[:, : state.ncols - 1]
        # C order: the second pass's prev.T @ y rounds by y's layout
        y = np.empty(k.shape)
        project_out(prev, k, out=y)
        project_out(prev, y, out=y)
        q, r = householder_qr(y)
        # judged against K before projection, so that fully projected-out
        # columns are still recognized; the seed column enters with unit
        # norm and orthogonal to prev, so it cannot be the dead one
        q = q[:, : _live_width(r, y.shape[0], np.linalg.norm(k))]
        report = _finish_step(state, ops, q, orth_step, projections=2, intra_qrs=1)
        _enforce_span_budget(state, k.shape[1])
        return report
    return _finish_step(state, ops, k, orth_step)


def truncate_after_breakdown(state, keep_inner):
    """Shrink the cycle to its first ``keep_inner`` inner columns.

    Keeps V columns 0..keep_inner (the deficient direction's column stays,
    so [r | W] = V R still holds on the retained slice) and trims the
    block widths to match; no buffer needs a trim, by the invariant
    stated in ``QrState``. Used by ``solve`` right before the
    solution assembly of a cycle that hit a rank-deficient column, and
    by the modified step's span-budget cut.
    """
    if not 0 <= keep_inner <= state.inner_cols:
        raise ValueError("keep_inner out of range")
    state.ncols = keep_inner + 1
    widths = state.block_widths
    total = sum(widths)
    while total > state.ncols:
        drop = min(widths[-1], total - state.ncols)
        widths[-1] -= drop
        total -= drop
        if widths[-1] == 0:
            widths.pop()
