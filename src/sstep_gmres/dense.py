"""Dense kernels: Householder QR, Givens rotations, one-sided Jacobi SVD.

The solver's QR is LAPACK's (through numpy); the pivoted QR behind the
conditioning diagnostics stays in-package, so the measurements do not
share a code path with what they measure.

``cond2`` measures in one of two ways, chosen from its input. A
near-orthonormal matrix A, one with ||I - A^T A||_2 <= 1/2, gets its
condition number from the eigenvalues of the symmetric matrix
E = I - A^T A: one GEMM and one LAPACK ``dsyevd``. Everything else goes
through the pivoted R factor: sigma_max = ||R||_2 and
sigma_min = 1 / ||R^{-1}||_2, which keeps the relative accuracy of small
singular values because triangular inversion is componentwise backward
stable. The Gram path never factors A. It forms A^T A from A's entries
by a plain matrix product and diagonalizes that, so it shares no step
with the Householder QR that produced the basis it measures: whatever
orthogonality the QR lost appears in E entry by entry.
``jacobi_svd_values`` gives every singular value by one-sided Jacobi on
the same pivoted R; it is the reference ``cond2`` is tested against.

Everything downstream (block orthogonalization, the Arnoldi processes, the
least-squares update, the conditioning diagnostics) builds on this module.
All routines are deterministic for a fixed input on a fixed platform.
"""

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "UNIT_ROUNDOFF",
    "GivensRotation",
    "JacobiConvergenceError",
    "QrResult",
    "compute_givens",
    "cond2",
    "householder_qr",
    "jacobi_svd_values",
]

# Unit roundoff of binary64. Note np.finfo(float).eps is 2u.
UNIT_ROUNDOFF = 2.0 ** -53


class JacobiConvergenceError(RuntimeError):
    """One-sided Jacobi did not converge within the sweep cap.

    The best available singular values are attached as ``values`` so callers
    that only log conditioning can degrade gracefully.
    """

    def __init__(self, values, sweeps):
        super().__init__(
            "one-sided Jacobi SVD did not converge within %d sweeps" % sweeps
        )
        self.values = values
        self.sweeps = sweeps


class QrResult(NamedTuple):
    q: np.ndarray
    r: np.ndarray
    # Index of the first column whose Householder pivot fell below
    # u * ||M||_F (or the caller-supplied scale); None if full rank.
    deficient_col: "int | None"


def _as_matrix(m, name="m"):
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise ValueError("%s must be 2-dimensional, got shape %r" % (name, a.shape))
    return a


def householder_qr(m, deficiency_scale=None):
    """Thin Householder QR with a nonnegative R diagonal.

    LAPACK dgeqrf + dorgqr through ``np.linalg.qr``.

    Parameters
    ----------
    m : (rows, cols) array, rows >= cols
    deficiency_scale : float, optional
        Scale against which pivot collapse is judged. A pivot at or below
        4 * sqrt(rows) * u * deficiency_scale marks the column deficient
        (the sqrt(rows) factor covers cancellation noise from eliminating
        an exactly dependent column). Defaults to ||m||_F. The modified
        Arnoldi step passes the norm of its block as it was before
        projection so that fully projected-out columns are still
        recognized.

    Returns
    -------
    QrResult(q, r, deficient_col)
        q is rows x cols with orthonormal columns, r is cols x cols upper
        triangular with r[j, j] >= 0, and m = q @ r. deficient_col is the
        index of the first rank-deficient column, or None.
    """
    a = _as_matrix(m)
    rows, cols = a.shape
    if rows < cols:
        raise ValueError("householder_qr needs rows >= cols, got %d x %d" % (rows, cols))
    if cols == 0:
        return QrResult(np.zeros((rows, 0)), np.zeros((0, 0)), None)

    scale = float(deficiency_scale) if deficiency_scale is not None else float(np.linalg.norm(a))
    threshold = 4.0 * np.sqrt(rows) * UNIT_ROUNDOFF * scale
    q, r = np.linalg.qr(a, mode="reduced")
    # |R[j, j]| is the norm of column j's trailing part when its reflector
    # is formed, i.e. the Householder pivot.
    diag = np.diag(r)
    dead = np.flatnonzero(np.abs(diag) <= threshold)
    deficient = int(dead[0]) if dead.size else None

    # Sign convention: R diagonal nonnegative.
    d = np.where(diag < 0.0, -1.0, 1.0)
    q *= d
    r *= d[:, None]
    return QrResult(q, r, deficient)


@dataclass
class GivensRotation:
    """Plane rotation [c s; -s c] acting on rows (row, row + 1)."""

    c: float
    s: float
    row: int = 0

    def apply(self, a, b):
        """Rotate the pair (a, b); returns (c*a + s*b, -s*a + c*b)."""
        return self.c * a + self.s * b, -self.s * a + self.c * b


def compute_givens(a, b, row=0):
    """Rotation zeroing b against a; the first entry becomes hypot(a, b) >= 0.

    (a, b) = (0, 0) yields the identity rotation.
    """
    r = np.hypot(a, b)
    if r == 0.0:
        return GivensRotation(1.0, 0.0, row)
    return GivensRotation(a / r, b / r, row)


def _qrcp_r(a):
    """R factor of a column-pivoted Householder QR (values-only preprocessing).

    Column pivoting grades R: |r_kk| >= |r_kj| for j > k. That keeps the
    one-sided Jacobi iteration fast and accurate and bounds the growth of
    R^{-1} on badly scaled input; the singular values of R match those of
    ``a`` up to a backward-stable factorization.
    """
    work = np.array(a, dtype=float, order="F", copy=True)
    rows, cols = work.shape
    steps = min(rows, cols)
    for j in range(steps):
        tail = work[j:, j:]
        norms2 = np.einsum("ij,ij->j", tail, tail)
        k = int(np.argmax(norms2))
        if norms2[k] == 0.0:
            break
        if k != 0:
            work[:, [j, j + k]] = work[:, [j + k, j]]
        x = work[j:, j]
        pivot = np.sqrt(norms2[k])
        beta = -np.copysign(pivot, x[0])
        v = x.copy()
        v[0] -= beta
        vtv = v @ v
        if vtv > 0.0:
            rest = work[j:, j + 1:]
            if rest.shape[1]:
                rest -= np.outer(v, (2.0 / vtv) * (v @ rest))
        work[j, j] = beta
        work[j + 1:, j] = 0.0
    return np.triu(work[:steps, :]) if rows >= cols else work[:steps, :]


@functools.lru_cache(maxsize=4)
def _round_robin_schedule(k):
    """Tournament pairing: k-1 rounds of disjoint column pairs covering all pairs.

    Returns read-only (ip, iq), one row per round: round r pairs column
    ip[r, i] with iq[r, i]. This is the circle method: column 0 stays put
    and the others rotate by one place per round; for odd k a dummy
    column k sits out one pairing per round. A schedule takes O(k^2)
    memory and is the same for every matrix of width k, so the few most
    recent widths are cached for repeated ``jacobi_svd_values`` calls.
    """
    m = k + k % 2
    half = m // 2
    r = np.arange(m - 1)
    # in round r, seat j >= 1 holds column 1 + (j - 1 - r) mod (m - 1)
    seats = np.zeros((m - 1, m), dtype=np.intp)
    seats[:, 1:] = 1 + (r[None, :] - r[:, None]) % (m - 1)
    ip, iq = seats[:, :half], seats[:, ::-1][:, :half]
    real = (ip < k) & (iq < k)
    ip = ip[real].reshape(m - 1, -1)
    iq = iq[real].reshape(m - 1, -1)
    ip.flags.writeable = False
    iq.flags.writeable = False
    return ip, iq


def _jacobi_sweeps(w, tol, max_sweeps):
    """One-sided Jacobi on the columns of w, in place. True if converged."""
    k = w.shape[1]
    if k < 2:
        return True
    schedule = _round_robin_schedule(k)
    for _ in range(max_sweeps):
        rotations = 0
        for ip, iq in zip(*schedule):
            p = w[:, ip]
            q = w[:, iq]
            app = np.einsum("ij,ij->j", p, p)
            aqq = np.einsum("ij,ij->j", q, q)
            apq = np.einsum("ij,ij->j", p, q)
            need = np.abs(apq) > tol * np.sqrt(app) * np.sqrt(aqq)
            if not need.any():
                continue
            rotations += int(need.sum())
            app_r = app[need]
            aqq_r = aqq[need]
            apq_r = apq[need]
            tau = (aqq_r - app_r) / (2.0 * apq_r)
            t = np.sign(tau) / (np.abs(tau) + np.hypot(1.0, tau))
            # tau == 0 makes sign() vanish; the symmetric case rotates by 45 deg
            t = np.where(tau == 0.0, 1.0, t)
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            pr = p[:, need]
            qr = q[:, need]
            w[:, ip[need]] = c * pr - s * qr
            w[:, iq[need]] = s * pr + c * qr
        if rotations == 0:
            return True
    return False


# one-sided Jacobi: relative off-diagonal tolerance and sweep cap
JACOBI_TOL = 1e-15
JACOBI_MAX_SWEEPS = 60


def _require_finite(a):
    if not np.all(np.isfinite(a)):
        raise ValueError("singular values require finite entries")
    return a


def _jacobi_values_of_r(r, tol, max_sweeps):
    # Rotating the rows of the pivoted R factor (columns of R^T) converges
    # markedly faster than rotating R or the raw input and preserves the
    # relative accuracy of small values.
    w = np.array(r.T, order="F")
    converged = _jacobi_sweeps(w, tol, max_sweeps)
    sigma = np.sort(np.linalg.norm(w, axis=0))[::-1].copy()
    if not converged:
        raise JacobiConvergenceError(sigma, max_sweeps)
    return sigma


def jacobi_svd_values(m, tol=JACOBI_TOL, max_sweeps=JACOBI_MAX_SWEEPS):
    """Singular values of m (rows >= cols), descending, by one-sided Jacobi.

    The matrix is first reduced to its pivoted R factor, then Jacobi
    rotations are applied to column pairs until every off-diagonal Gram
    entry is below ``tol`` relative to its diagonal pair. Chosen over a
    bidiagonalization path for the relative accuracy of small singular
    values, which the conditioning diagnostics depend on.

    Raises JacobiConvergenceError (with best available values attached)
    if the sweep cap is exhausted.
    """
    a = _as_matrix(m)
    rows, cols = a.shape
    if rows < cols:
        raise ValueError("jacobi_svd_values needs rows >= cols, got %d x %d" % (rows, cols))
    if cols == 0:
        return np.zeros(0)
    return _jacobi_values_of_r(_qrcp_r(_require_finite(a)), tol, max_sweeps)


# the Gram path measures only while every eigenvalue of I - A^T A lies
# in [-1/2, 1/2], i.e. every squared singular value in [1/2, 3/2]
GRAM_PATH_RADIUS = 0.5


def _gram_cond2(a):
    """cond2 of a tall, finite a from the spectrum of E = I - a^T a.

    Returns None unless ||E||_2 <= GRAM_PATH_RADIUS. The entry test
    max |E_ij| <= ||E||_2 rejects most other input before ``eigvalsh``
    runs, so it then costs one GEMM. With eigenvalues e_1 <= ... <= e_k
    of E, sigma_i^2 = 1 - e_i, hence cond2 = sqrt((1 - e_1) / (1 - e_k)).
    """
    e = np.eye(a.shape[1]) - a.T @ a
    if np.abs(e).max() > GRAM_PATH_RADIUS:
        return None
    ev = np.linalg.eigvalsh(e)
    if max(-ev[0], ev[-1]) > GRAM_PATH_RADIUS:
        return None
    return float(np.sqrt((1.0 - ev[0]) / (1.0 - ev[-1])))


def cond2(m):
    """2-norm condition number sigma_max / sigma_min.

    Rank loss reports inf. A smallest singular value at or below the
    rounding-noise floor (4 * sqrt(rows) * u relative to sigma_max) is
    indistinguishable from exact dependence and also reports inf.
    Wide input is transposed first; singular values are unaffected.
    Empty, zero and non-finite input raise ValueError.

    Two measurement paths, chosen from the input:

    - Near-orthonormal input, ||I - A^T A||_2 <= 1/2: the eigenvalues of
      E = I - A^T A (one GEMM, one ``eigvalsh``) give every sigma^2 in
      [1/2, 3/2], so the result is at most sqrt(3) and never meets the
      noise floor. Rounding in A^T A moves an eigenvalue of E by at most
      rows * u * ||A||_F^2 <= 1.5 * rows * cols * u, and by about
      sqrt(rows * cols) * u <= (rows + cols) * u / 2 when the rounding
      errors are independent; ``eigvalsh`` adds a backward error of
      order cols * u. As sigma^2 >= 1/2, twice that shift bounds the
      relative error of the result. Unit-norm, nearly orthogonal
      columns (an orthonormal basis V, the modified variant's stacked
      candidates) land here.
    - Everything else: the pivoted R factor, then sigma_max = ||R||_2
      and sigma_min = 1 / ||R^{-1}||_2. R settles most rank losses by
      itself: R is triangular, so sigma_min <= min |r_kk| and
      sigma_max >= |r_11|, and a diagonal entry at or below the floor
      relative to |r_11| puts sigma_min at or below it too. Otherwise R
      is inverted. Triangular inversion is componentwise backward
      stable (Higham, Accuracy and Stability of Numerical Algorithms,
      section 8): the computed R^{-1} is the exact inverse of R + dR
      with |dR| <= c(cols) * u * |R|. A componentwise perturbation of a
      column-pivoted R moves its singular values by a relative amount
      bounded through the condition of R's row-scaled form (Demmel and
      Veselic, SIMAX 1992), the same bound that governs one-sided
      Jacobi on R^T, so sigma_min keeps the relative accuracy of
      ``jacobi_svd_values`` at a fraction of its cost. An R^{-1} that
      overflows reports inf.
    """
    a = _as_matrix(m)
    if a.size == 0 or not np.any(a):
        raise ValueError("cond2 requires a nonzero matrix")
    _require_finite(a)
    if a.shape[0] < a.shape[1]:
        a = a.T
    gram = _gram_cond2(a)
    if gram is not None:
        return gram
    ratio = 4.0 * np.sqrt(a.shape[0]) * UNIT_ROUNDOFF
    r = _qrcp_r(a)
    diag = np.abs(np.diag(r))
    if diag.min() <= ratio * diag[0]:
        return np.inf
    # r is upper triangular with a nonzero diagonal, so LU with partial
    # pivoting keeps L = I and U = r: this is back substitution against I.
    # An overflow leaves inf in r_inv; numpy raises no warning for it.
    r_inv = np.linalg.inv(r)
    if not np.all(np.isfinite(r_inv)):
        return np.inf
    sigma_max = np.linalg.norm(r, 2)
    sigma_min = 1.0 / np.linalg.norm(r_inv, 2)
    if sigma_min <= ratio * sigma_max:
        return np.inf
    return float(sigma_max / sigma_min)
