"""Dense kernels: Householder QR, the projection x - Q(Q^T x), Givens
rotations, the 2-norm condition number and a scale-safe Frobenius norm.

The solver's rank decisions are not made here: the QR returns its
factors, and what a small pivot means is up to the caller that reads it.

The solver's QR is LAPACK's dgeqrf (through numpy), with the thin Q
formed here from its reflectors in compact WY form, one GEMM; the
pivoted QR behind the conditioning diagnostics stays in-package, so the
measurements do not share a code path with what they measure. The
projection sums Q^T X over row panels of Q small enough to stay in the
L2 cache.

``cond2`` measures in one of two ways, chosen from its input. A
near-orthonormal matrix A, one with ||I - A^T A||_2 <= 1/2, gets its
condition number from the eigenvalues of the symmetric matrix
E = I - A^T A: one GEMM and one LAPACK ``dsyevd``. Everything else goes
through the column-pivoted R factor: sigma_max and sigma_min of one
``np.linalg.svd`` of R. The Gram path never factors A. It forms A^T A
from A's entries by a plain matrix product and diagonalizes that, so it
shares no step with the Householder QR that produced the basis it
measures: whatever orthogonality the QR lost appears in E entry by
entry. The tests hold ``cond2`` to a one-sided Jacobi SVD (LAPACK's
dgejsv) of the same pivoted R, outside the package.

The two halves of ``cond2`` are also public for callers that hold their
own triangular factor: ``gram_cond2`` is the Gram path alone, and
``triangular_cond2`` the tail from an R factor to the condition number
(the noise floor on R's diagonal, then one SVD of R). One SVD of a
triangular factor is the package's only route from R to a condition
number. ``cond2_and_orthogonality_loss`` measures an orthonormal
basis: cond2 and ||I - Q^T Q||_2 from one ``eigvalsh``.

All routines are deterministic for a fixed input on a fixed platform.
"""

import numpy as np

__all__ = [
    "UNIT_ROUNDOFF",
    "compute_givens",
    "cond2",
    "cond2_and_orthogonality_loss",
    "frobenius_norm",
    "gram_cond2",
    "householder_qr",
    "project_out",
    "triangular_cond2",
]

# Unit roundoff of binary64. Note np.finfo(float).eps is 2u.
UNIT_ROUNDOFF = 2.0 ** -53


def _as_matrix(m, name="m"):
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise ValueError("%s must be 2-dimensional, got shape %r" % (name, a.shape))
    return a


def householder_qr(m):
    """Thin Householder QR of m (rows >= cols) with a nonnegative R diagonal.

    LAPACK's dgeqrf through ``np.linalg.qr(mode="raw")`` gives R and the
    reflectors H_i = I - tau_i y_i y_i^T. Q = H_1 ... H_k is formed from
    them in compact WY form (Schreiber and Van Loan, SISC 1989),
    Q = E - Y T Y_1^T: E is the first k columns of the identity, Y holds
    the unit lower trapezoidal reflectors, Y_1 is its top k x k block,
    and T is upper triangular from dlarft's forward recurrence
    T[:i, i] = -tau_i T[:i, :i] (Y[i:, :i]^T Y[i:, i]), T[i, i] = tau_i.
    That is one n x k x k GEMM where LAPACK's dorgqr applies the k
    reflectors one column at a time: at 16384 x 5, 0.37 against 0.81 ms
    for ``np.linalg.qr(mode="reduced")`` (one thread, x86-64). The signs
    of Q's columns and R's rows are then flipped so that r[j, j] >= 0;
    the column signs ride in the k x k factor, so Q takes no extra pass.
    R has the bits of ``np.linalg.qr``'s R times those signs; Q agrees
    with its Q to rounding level.

    Returns (q, r): q is rows x cols with orthonormal columns and
    Fortran order, r is cols x cols upper triangular, and m = q @ r.
    Rank is not decided here; r[j, j] is the Householder pivot of column
    j, for the caller to test.
    """
    a = _as_matrix(m)
    rows, cols = a.shape
    if rows < cols:
        raise ValueError("householder_qr needs rows >= cols, got %d x %d" % (rows, cols))
    h, tau = np.linalg.qr(a, mode="raw")
    # h is numpy's own copy of a, transposed: dgeqrf's output, with R on
    # and above the diagonal and the reflectors below it
    y = h.T
    r = np.triu(y[:cols])
    t = np.zeros((cols, cols))
    for i in range(cols):
        y[:i, i] = 0.0
        y[i, i] = 1.0
        t[:i, i] = -tau[i] * (t[:i, :i] @ (y[i:, :i].T @ y[i:, i]))
        t[i, i] = tau[i]
    sign = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    q = np.empty((rows, cols), order="F")
    np.matmul(y, (t @ y[:cols].T) * -sign, out=q)
    diag = np.arange(cols)
    q[diag, diag] += sign
    r *= sign[:, None]
    return q, r


# bytes of q per panel of q^T x in ``project_out``: a panel of at most
# 1 MiB stays in a 2 MiB L2 cache while OpenBLAS streams x past it
PANEL_BYTES = 2**20


def project_out(q, x, middle=None, out=None):
    """(s, x - q s) for a tall q and a 2-d x, with s = q^T x.

    s is summed over row panels of q of at most ``PANEL_BYTES``, in row
    order: q^T x over one panel, plus each following panel's product.
    A q that no longer fits the L2 cache runs ``q.T @ x`` at 4-6 GB/s;
    at n = 16384 and a width of 5, the panels take s from 0.37 to
    0.15 ms at 16 columns and from 1.15 to 0.75 ms at 61 (one thread,
    x86-64). A q of one panel, PANEL_BYTES or less, gets the bits of
    ``q.T @ x``.

    With ``middle``, s = middle @ (q^T x) instead: the compact WY
    product (I - Y T^T Y^T) x is ``project_out(y, x, t.T)``. The product
    q s is written into a Fortran-ordered buffer, which OpenBLAS fills
    on its fast path: at n = 16384, 30 columns and a width of 5, in
    0.43 ms against 0.82 ms for the C-ordered array ``q @ s`` returns
    (one thread, x86-64), with the same bits there; not at every size,
    since at n = 32771 and widths of 12 or more the two products round
    differently. x - q s then goes into that buffer, so the result is
    F-contiguous, or into ``out``, which may be x itself. Note that
    q^T x itself rounds differently for C- and F-ordered x, so a caller
    that projects its result again fixes its layout through ``out``.
    """
    panel = max(1, PANEL_BYTES // (8 * max(q.shape[1], 1)))
    s = q[:panel].T @ x[:panel]
    for lo in range(panel, q.shape[0], panel):
        s += q[lo : lo + panel].T @ x[lo : lo + panel]
    if middle is not None:
        s = middle @ s
    qs = np.empty((q.shape[0], s.shape[1]), order="F")
    np.matmul(q, s, out=qs)
    return s, np.subtract(x, qs, out=qs if out is None else out)


def compute_givens(a, b):
    """(c, s) of the rotation [c s; -s c] that zeros b against a.

    The rotated pair is (c*a + s*b, -s*a + c*b), its first entry
    hypot(a, b) >= 0. (a, b) = (0, 0) yields the identity (1.0, 0.0).
    """
    r = np.hypot(a, b)
    if r == 0.0:
        return 1.0, 0.0
    return a / r, b / r


def _qrcp_r(a):
    """R factor of a column-pivoted Householder QR of a (rows >= cols).

    Column pivoting grades R: |r_kk| >= |r_kj| for j > k. That makes the
    rows of R the input on which the tests' reference, one-sided Jacobi
    on R^T, converges fast and accurately, and on which the SVD of R
    stays within the tests' bound of it: the SVD of an unpivoted R of
    the same badly column-scaled input misses that bound by orders of
    magnitude. The singular values of R match those of ``a`` up to a
    backward-stable factorization.
    """
    work = np.array(a, dtype=float, order="F", copy=True)
    cols = work.shape[1]
    for j in range(cols):
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
    return np.triu(work[:cols])


# the Gram path measures only while every eigenvalue of I - A^T A lies
# in [-1/2, 1/2], i.e. every squared singular value in [1/2, 3/2]
GRAM_PATH_RADIUS = 0.5


def _gram_cond2(a, a_max, spectrum=None):
    """cond2 of a tall, finite a from the spectrum of E = I - a^T a.

    Returns None unless ||E||_2 <= GRAM_PATH_RADIUS. Input that passes
    has column norms, and so entries, of at most sqrt(3/2); an entry
    ``a_max`` = max |a_ij| above 2 returns None before the GEMM, which
    could overflow at such scales. The entry test
    max |E_ij| <= ||E||_2 rejects most other input before ``eigvalsh``
    runs, so it then costs one GEMM. With eigenvalues e_1 <= ... <= e_k
    of E, sigma_i^2 = 1 - e_i, hence cond2 = sqrt((1 - e_1) / (1 - e_k)).
    A caller that has already formed E and its eigenvalues passes them
    as ``spectrum`` = (E, eigenvalues), and gets the same bits.
    """
    if a_max > 2.0:
        return None
    if spectrum is None:
        e, ev = np.eye(a.shape[1]) - a.T @ a, None
    else:
        e, ev = spectrum
    if np.abs(e).max() > GRAM_PATH_RADIUS:
        return None
    if ev is None:
        ev = np.linalg.eigvalsh(e)
    if max(-ev[0], ev[-1]) > GRAM_PATH_RADIUS:
        return None
    return float(np.sqrt((1.0 - ev[0]) / (1.0 - ev[-1])))


def _cond2_input(m):
    """The checked, tall form of cond2's input and its largest |entry|."""
    a = _as_matrix(m)
    if a.size == 0 or not np.any(a):
        raise ValueError("cond2 requires a nonzero matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("cond2 requires finite entries")
    if a.shape[0] < a.shape[1]:
        a = a.T
    return a, np.abs(a).max()


def gram_cond2(m):
    """cond2(m) when the Gram path measures m, else None.

    The same input checks and the same bits as ``cond2`` on that path;
    a caller with its own route for the rest tries this first.
    """
    return _gram_cond2(*_cond2_input(m))


def triangular_cond2(r, rows):
    """cond2 of a rows x k matrix from its k x k triangular R factor.

    The rounding-noise floor is 4 * sqrt(rows) * u: a diagonal entry at
    or below it relative to the largest diagonal entry reports inf, since
    sigma_min <= min |r_kk| and sigma_max >= max |r_kk| for a triangular
    R. Otherwise sigma_max and sigma_min come from one
    ``np.linalg.svd(r, compute_uv=False)``, and a ratio
    sigma_min / sigma_max at or below the floor reports inf too. The
    tests hold the result within 64 * (rows + k) * u (relative) of a
    one-sided Jacobi SVD for ``cond2``'s column-pivoted R, and within
    16 * u * cond for an unpivoted R such as the B~ factor's.
    """
    ratio = 4.0 * np.sqrt(rows) * UNIT_ROUNDOFF
    diag = np.abs(np.diag(r))
    if diag.min() <= ratio * diag.max():
        return np.inf
    sigma = np.linalg.svd(r, compute_uv=False)
    if sigma[-1] <= ratio * sigma[0]:
        return np.inf
    return float(sigma[0] / sigma[-1])


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
    - Everything else: the column-pivoted R factor of the input scaled
      by the power of two that brings max |a_ij| into [1/2, 1), then
      sigma_max and sigma_min of one SVD of R (``triangular_cond2``).
      The scaling is exact unless it makes entries subnormal, so the
      result does not depend on the input's scale. R settles most rank
      losses by itself: R is triangular, so sigma_min <= min |r_kk| and
      sigma_max >= max |r_kk| = |r_11|, and a diagonal entry at or
      below the floor relative to |r_11| puts sigma_min at or below it
      too. The tests hold the result within 64 * (rows + cols) * u
      (relative) of a one-sided Jacobi SVD (LAPACK's dgejsv) of the
      same R, up to cond = 1e13; the pivoting grades R's rows, the
      input on which that reference is accurate.
    """
    a, a_max = _cond2_input(m)
    gram = _gram_cond2(a, a_max)
    if gram is not None:
        return gram
    # squared column norms of the scaled input neither under- nor overflow
    _, exponent = np.frexp(a_max)
    r = _qrcp_r(np.ldexp(a, -exponent))
    return triangular_cond2(r, a.shape[0])


def cond2_and_orthogonality_loss(m):
    """cond2(m) and ||I - m^T m||_2 from one ``eigvalsh`` of E = I - m^T m.

    The loss is the largest |eigenvalue| of E. Where cond2 would take
    its Gram path on the same E, its result comes from the same
    eigenvalues, so the pair has the bits of ``cond2(m)`` and of a
    separate ``eigvalsh``. Otherwise (wide m, or E past
    GRAM_PATH_RADIUS) the condition number is a full ``cond2`` call.
    Meant for an orthonormal basis, whose two measurements share their
    spectrum.
    """
    a, a_max = _cond2_input(m)
    q = _as_matrix(m)
    e = np.eye(q.shape[1]) - q.T @ q
    ev = np.linalg.eigvalsh(e)
    loss = float(max(-ev[0], ev[-1]))
    # cond2 measures a wide m through its transpose, whose E differs
    cond = _gram_cond2(a, a_max, spectrum=(e, ev)) if a.shape == q.shape else None
    return (cond2(m) if cond is None else cond), loss


def frobenius_norm(m):
    """||m||_F, with no overflow or underflow in the squared entries.

    numpy's one-pass norm is kept when it lies in (u, inf): an overflow
    makes it inf, and above u the squares sum past 2^-106, far above the
    2^-1074 underflow can take from each. Otherwise the entries are
    scaled by the power of two that brings max |m_ij| into [1/2, 1),
    summed the same way and scaled back; where neither path over- or
    underflows the two agree to the bit. Empty or zero input gives 0.0.
    """
    x = np.asarray(m, dtype=float)
    with np.errstate(over="ignore", under="ignore"):
        nrm = np.linalg.norm(x)
    if UNIT_ROUNDOFF < nrm < np.inf:
        return float(nrm)
    x = x.ravel(order="K")
    a_max = np.abs(x).max() if x.size else 0.0
    if a_max == 0.0:
        return 0.0
    _, exponent = np.frexp(a_max)
    x = np.ldexp(x, -exponent)
    return float(np.ldexp(np.sqrt(x @ x), exponent))
