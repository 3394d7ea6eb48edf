"""Restarted s-step GMRES with pluggable bases and block orthogonalization.

Each outer (block) step appends up to s basis columns at once: a
polynomial Krylov block is built from the newest basis vector, pushed
through the operator, and orthogonalized as a block. The least squares
problem is updated by Givens rotations exactly as in standard GMRES, so
stopping logic and solution assembly are shared across step sizes; s = 1
reproduces standard GMRES column for column.

Every block step decides whether the run stops, first match wins: an
exactly rank-deficient new basis column ends the run, because the
searched space cannot grow (``breakdown_converged`` if the backward
error passes ``tol`` at that point, ``key_dimension_reached``
otherwise); otherwise a backward error at or below ``tol`` ends it as
``converged_backward``; otherwise an exhausted step or cycle budget
ends it as ``max_iters``.
"""

import math
import numbers
import operator
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .arnoldi import (
    ArnoldiState,
    OperatorSet,
    classical_step,
    modified_step,
    truncate_after_breakdown,
)
from .basis import (
    ChebyshevBasis,
    MonomialBasis,
    NewtonBasis,
    chebyshev_params,
    compute_ritz_values,
    leja_order,
)
from .blockqr import bcgsi_plus_step, bmgs_step
from .dense import UNIT_ROUNDOFF, compute_givens
from .diagnostics import IterationRecord, basis_condition_numbers
from .sparse import CsrMatrix, _reject_complex, apply_preconditioner_inverse, spmv

__all__ = [
    "CONVERGED_STATUSES",
    "SolveResult",
    "SolverConfig",
    "backward_error",
    "solve",
]

BASIS_CHOICES = ("monomial", "newton", "chebyshev")
ARNOLDI_CHOICES = ("classical", "modified")
ORTH_CHOICES = ("bcgsi+", "bmgs")
BASIS_OPERATOR_CHOICES = ("plain", "preconditioned")

STATUS_CONVERGED_BACKWARD = "converged_backward"
STATUS_BREAKDOWN_CONVERGED = "breakdown_converged"
STATUS_KEY_DIMENSION = "key_dimension_reached"
STATUS_MAX_ITERS = "max_iters"

CONVERGED_STATUSES = frozenset({STATUS_CONVERGED_BACKWARD, STATUS_BREAKDOWN_CONVERGED})


def _require_count(name, value):
    # operator.index admits Python and numpy integers but no float;
    # bool is an int subclass that no caller means as a count
    if isinstance(value, bool):
        raise ValueError("%s must be an integer, not a bool" % name)
    try:
        operator.index(value)
    except TypeError:
        raise ValueError("%s must be an integer, got %r" % (name, value))
    if value < 1:
        raise ValueError("%s must be at least 1" % name)


def _require_tolerance(name, value):
    # numbers.Real admits Python and numpy floats and integers; a string
    # or a sequence would fail inside math.isfinite with a TypeError
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError("%s must be a real number, got %r" % (name, value))
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError("%s must be finite and positive" % name)


@dataclass(frozen=True)
class SolverConfig:
    """Algorithmic knobs; tolerances left as None resolve at solve time
    to tol = n*u and tol_h = sqrt(n)*u, with u = 2^-53.

    ``max_outer`` caps block steps when no restart is set and caps
    restart cycles otherwise; left as None with a restart it defaults to
    ceil(n / restart) cycles so a stagnating run still terminates.
    ``diag_every`` gates the conditioning diagnostics: block step k of a
    cycle is measured if and only if k is a multiple of it, so a value
    above the run's step count switches them off. A measurement on m
    basis columns costs O(n m^2), plus O(m^3) for the inverse and the
    2-norms of an m x m triangular factor on the classical variant's
    candidates (see ``diagnostics``).

    ``basis_operator`` chooses the operator the classical variant builds
    its polynomial blocks with: ``plain`` is A, ``preconditioned`` is
    M^{-1} A. The modified variant always builds them with M^{-1} A, the
    operator whose images its basis holds, so the setting does not
    change its runs. Without a preconditioner the two coincide.

    Counts must be integers (numpy integers included, bool not) and
    tolerances real numbers (bool not), finite and positive; anything
    else raises ValueError.
    """

    s: int = 1
    basis: str = "monomial"
    arnoldi: str = "classical"
    orth: str = "bcgsi+"
    tol: Optional[float] = None
    tol_h: Optional[float] = None
    restart: Optional[int] = None
    max_outer: Optional[int] = None
    basis_operator: str = "plain"
    diag_every: int = 1

    def __post_init__(self):
        _require_count("s", self.s)
        _require_count("diag_every", self.diag_every)
        for name in ("restart", "max_outer"):
            if getattr(self, name) is not None:
                _require_count(name, getattr(self, name))
        if self.basis not in BASIS_CHOICES:
            raise ValueError("basis must be one of %s" % (BASIS_CHOICES,))
        if self.arnoldi not in ARNOLDI_CHOICES:
            raise ValueError("arnoldi must be one of %s" % (ARNOLDI_CHOICES,))
        if self.orth not in ORTH_CHOICES:
            raise ValueError("orth must be one of %s" % (ORTH_CHOICES,))
        if self.basis_operator not in BASIS_OPERATOR_CHOICES:
            raise ValueError(
                "basis_operator must be one of %s" % (BASIS_OPERATOR_CHOICES,)
            )
        for name in ("tol", "tol_h"):
            if getattr(self, name) is not None:
                _require_tolerance(name, getattr(self, name))


@dataclass
class SolveResult:
    """Solution, stop status, and per-step diagnostic records.

    ``candidate_projections`` and ``candidate_qr_count`` total the
    projection passes and QR factorizations spent preparing candidate
    blocks (zero for the classical variant); compared against the one
    block-orthogonalization per step both variants share, they show the
    near-doubling of QR cost in the modified variant.
    """

    x: np.ndarray
    status: str
    backward_error: float
    records: List[IterationRecord] = field(default_factory=list)
    cycles: int = 1
    block_steps: int = 0
    inner_iterations: int = 0
    candidate_projections: int = 0
    candidate_qr_count: int = 0

    @property
    def converged(self):
        return self.status in CONVERGED_STATUSES


def backward_error(matvec, a_fro, b, x):
    """Normwise relative backward error ||Ax - b|| / (||A||_F ||x|| + ||b||)."""
    resid = np.linalg.norm(matvec(x) - b)
    denom = a_fro * np.linalg.norm(x) + np.linalg.norm(b)
    if denom == 0.0:
        return 0.0 if resid == 0.0 else np.inf
    return float(resid / denom)


class _LeastSquares:
    """Givens-rotated least squares min || beta e1 - H y ||.

    Columns of H arrive a block at a time; each gets the accumulated
    rotations, then one fresh rotation zeroing its subdiagonal entry.
    |g[p]| is then the exact residual norm of the p-column problem.
    """

    def __init__(self, capacity, beta):
        self.t = np.zeros((capacity + 1, capacity), order="F")
        self.g = np.zeros(capacity + 1)
        self.g[0] = beta
        self.rotations = []
        self.ncols = 0

    def absorb_columns(self, h):
        """Absorb the next ``h.shape[1]`` columns of H.

        Column i of ``h`` holds H's column c = ncols + i in its first
        c + 2 rows; rows below are ignored. Each earlier rotation acts on
        a 2 x w row slice of the block and each fresh one on the block's
        later columns, so every entry sees the same rotations in the same
        order as when the columns arrive one at a time.
        """
        c0 = self.ncols
        width = h.shape[1]
        block = np.zeros((self.t.shape[0], width))
        rows = min(h.shape[0], c0 + width + 1)
        block[:rows] = np.triu(h[:rows], -(c0 + 1))
        for rot in self.rotations:
            i = rot.row
            block[i], block[i + 1] = rot.apply(block[i], block[i + 1])
        for j in range(width):
            c = c0 + j
            rot = compute_givens(block[c, j], block[c + 1, j], row=c)
            block[c, j:], block[c + 1, j:] = rot.apply(block[c, j:], block[c + 1, j:])
            block[c + 1, j] = 0.0
            self.rotations.append(rot)
            self.g[c], self.g[c + 1] = rot.apply(self.g[c], self.g[c + 1])
        self.t[:, c0 : c0 + width] = block
        self.ncols += width

    def absorb_column(self, h_col):
        self.absorb_columns(np.asarray(h_col)[:, None])

    @property
    def residual_estimate(self):
        return abs(self.g[self.ncols])

    def coefficients(self):
        """Back substitution; trailing negligible diagonals drop to zero."""
        p = self.ncols
        y = np.zeros(p)
        if p == 0:
            return y
        diag = np.abs(np.diag(self.t[:p, :p]))
        scale = diag.max()
        k = p
        while k > 0 and diag[k - 1] <= p * UNIT_ROUNDOFF * scale:
            k -= 1
        for i in range(k - 1, -1, -1):
            y[i] = (self.g[i] - self.t[i, i + 1 : k] @ y[i + 1 : k]) / self.t[i, i]
        return y


def _system_operators(a):
    if isinstance(a, CsrMatrix):
        return (lambda x: spmv(a, x)), a.frobenius_norm(), a.n
    _reject_complex(a, "matrix")
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return (lambda x: m @ x), float(np.linalg.norm(m)), m.shape[0]


def _resolve_basis(config, ritz_op, r, s):
    """Choose the cycle's polynomial basis from warm-up Ritz values."""
    if config.basis == "monomial" or s == 1:
        return MonomialBasis()
    ritz = compute_ritz_values(ritz_op, r, s)
    if config.basis == "newton":
        return NewtonBasis(tuple(leja_order(ritz.values)))
    params = chebyshev_params(ritz.values)
    if params.degenerate:
        return MonomialBasis()
    return ChebyshevBasis(params.center, params.focal)


def _check_finite(x):
    if not np.all(np.isfinite(x)):
        raise ArithmeticError("non-finite value encountered during solve")


def solve(a, b, x0=None, config=None, preconditioner=None):
    """Run restarted s-step GMRES on A x = b.

    ``a`` is a CsrMatrix or a square real ndarray; ``b`` and ``x0`` are
    real and finite. ``preconditioner`` applies from the left. Returns a
    SolveResult whose records hold one diagnostics row per block step.
    Raises ArithmeticError when a residual, R factor, iterate or backward
    error turns non-finite, rather than report a status for it.
    """
    config = config or SolverConfig()
    matvec, a_fro, n = _system_operators(a)
    _reject_complex(b, "right-hand side")
    b = np.asarray(b, dtype=float)
    if b.shape != (n,):
        raise ValueError("right-hand side has wrong shape")
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side must be finite")
    if x0 is None:
        x = np.zeros(n)
    else:
        _reject_complex(x0, "x0")
        x = np.array(x0, dtype=float)
        if x.shape != (n,):
            raise ValueError("x0 has wrong shape")
        if not np.all(np.isfinite(x)):
            raise ValueError("x0 must be finite")
    if preconditioner is not None and preconditioner.diag.shape != (n,):
        raise ValueError(
            "jacobi preconditioner diagonal has shape %r, but the matrix has n=%d"
            % (preconditioner.diag.shape, n)
        )
    if config.s > n:
        raise ValueError("s cannot exceed the matrix dimension")
    if config.restart is not None and config.restart > n:
        raise ValueError("restart length cannot exceed the matrix dimension")

    u = UNIT_ROUNDOFF
    tol = config.tol if config.tol is not None else n * u
    tol_h = config.tol_h if config.tol_h is not None else np.sqrt(n) * u

    left_inv = lambda x: apply_preconditioner_inverse(preconditioner, x)
    ritz_op = lambda x: left_inv(matvec(x))
    preconditioned = config.basis_operator == "preconditioned"
    ops = OperatorSet(
        matvec=matvec,
        left_inv=left_inv,
        basis_op=ritz_op if preconditioned else matvec,
        basis_preconditioned=preconditioned,
    )
    step_fn = classical_step if config.arnoldi == "classical" else modified_step
    orth_step = bcgsi_plus_step if config.orth == "bcgsi+" else bmgs_step

    max_inner = config.restart if config.restart is not None else n
    restarted = config.restart is not None
    # a plain run is one cycle; a restarted run must terminate even while
    # stagnating: without an explicit cap it gets n total inner
    # iterations, like a plain run
    max_cycles = 1
    if restarted:
        max_cycles = config.max_outer or -(-n // max_inner)
    max_steps = None if restarted else config.max_outer

    records = []
    status = None
    b_err = None
    cycle = 0
    total_steps = 0
    total_inner = 0
    total_cand_proj = 0
    total_cand_qr = 0
    basis = None

    while status is None:
        cycle += 1
        r = left_inv(b - matvec(x))
        _check_finite(r)
        if np.linalg.norm(r) == 0.0:
            status = STATUS_CONVERGED_BACKWARD
            break
        if basis is None:
            # shifts and ellipse parameters come from one warm-up pass on
            # the initial residual and are reused across restart cycles
            basis = _resolve_basis(config, ritz_op, r, config.s)
        state = ArnoldiState(n, max_inner)
        ls = _LeastSquares(max_inner, beta=state.seed(r, orth_step))
        outer = 0
        x_start = x

        while status is None and state.inner_cols < max_inner:
            outer += 1
            report = step_fn(state, ops, basis, config.s, orth_step)
            total_cand_proj += report.projections
            total_cand_qr += report.intra_qrs
            _check_finite(state.vr.r[: state.vr.ncols, : state.vr.ncols])

            # rank test on the fresh R diagonal entries: basis column c
            # added no direction if |R[c,c]| <= tol_h * ||W_1..W_c||_F
            broke_at = None
            w_cum = np.cumsum(state.w_colnorm2[: state.inner_cols])
            for c in range(report.start + 1, report.start + report.width + 1):
                if abs(state.vr.r[c, c]) <= tol_h * np.sqrt(w_cum[c - 1]):
                    broke_at = c
                    break

            absorb_upto = broke_at if broke_at is not None else state.inner_cols
            ls.absorb_columns(
                state.vr.r[: absorb_upto + 1, report.start + 1 : absorb_upto + 1]
            )
            if broke_at is not None:
                truncate_after_breakdown(state, broke_at)

            y = ls.coefficients()
            x = x_start + state.b_concat[:, : ls.ncols] @ y
            _check_finite(x)
            b_err = backward_error(matvec, a_fro, b, x)
            _check_finite(b_err)

            if broke_at is not None:
                status = (
                    STATUS_BREAKDOWN_CONVERGED
                    if b_err <= tol
                    else STATUS_KEY_DIMENSION
                )
            elif b_err <= tol:
                status = STATUS_CONVERGED_BACKWARD
            elif outer == max_steps or (
                cycle == max_cycles and state.inner_cols >= max_inner
            ):
                status = STATUS_MAX_ITERS

            if outer % config.diag_every == 0:
                # past a breakdown the last column holds no new direction,
                # so the measured bases end at the last fully valid one
                valid = broke_at - 1 if broke_at is not None else None
                cond_bt, cond_bs, cond_v, loss_v = basis_condition_numbers(
                    state, valid_cols=valid
                )
            else:
                cond_bt = cond_bs = cond_v = loss_v = np.nan
            records.append(
                IterationRecord(
                    outer=outer,
                    inner_cols=state.inner_cols,
                    backward_error=b_err,
                    ls_residual_estimate=ls.residual_estimate,
                    cond_B_tilde=cond_bt,
                    cond_B_subblock=cond_bs,
                    cond_V=cond_v,
                    ortho_loss_V=loss_v,
                    stop_reason="" if status is None else status,
                    restart_cycle=cycle,
                )
            )
            total_steps += 1

        total_inner += ls.ncols

    if b_err is None:
        b_err = backward_error(matvec, a_fro, b, x)
        _check_finite(b_err)
    return SolveResult(
        x=x,
        status=status,
        backward_error=b_err,
        records=records,
        cycles=cycle,
        block_steps=total_steps,
        inner_iterations=total_inner,
        candidate_projections=total_cand_proj,
        candidate_qr_count=total_cand_qr,
    )
