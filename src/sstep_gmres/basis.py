"""Polynomial Krylov bases (monomial, Newton with Leja-ordered shifts,
Chebyshev on a spectral ellipse), the warm-up Ritz values that
parameterize the latter two, and the one loop that builds a block.

Each basis carries its recurrence step ``next_column(w, cols, j,
prev_norm)``: from w = op(k_{j-1}) and the norm that normalized k_{j-1}
it returns the unnormalized column k_j; each class states its step.
"""

from dataclasses import dataclass, field

import numpy as np

from .dense import UNIT_ROUNDOFF, frobenius_norm
from .sparse import reject_complex

__all__ = [
    "ChebyshevBasis",
    "MonomialBasis",
    "NewtonBasis",
    "build_krylov_block",
    "chebyshev_params",
    "compute_ritz_values",
    "leja_order",
]

@dataclass(frozen=True)
class MonomialBasis:
    """p_j = x^j; the natural power basis. Its step keeps the image w."""

    def next_column(self, w, cols, j, prev_norm):
        return w


@dataclass(frozen=True)
class NewtonBasis:
    """p_j(x) = prod_{i<j} (x - shifts[i]); column j takes theta =
    shifts[(j-1) % len(shifts)]. Step: w - Re(theta) k_{j-1}.

    Complex shifts must appear in adjacent conjugate pairs so every
    column stays real: the half that closes a pair (``closes_pair``)
    also adds Im(theta)^2 / prev_norm * k_{j-2}, which completes the real
    quadratic op^2 - 2 Re(theta) op + |theta|^2 (Bai, Hu & Reichel 1994).
    """

    shifts: tuple
    closes_pair: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        shifts = tuple(complex(z) for z in self.shifts)
        if not shifts:
            raise ValueError("newton basis needs at least one shift")
        object.__setattr__(self, "shifts", shifts)
        closes = [False] * len(shifts)
        i = 0
        while i < len(shifts):
            z = shifts[i]
            if z.imag != 0.0:
                if i + 1 >= len(shifts) or shifts[i + 1] != z.conjugate():
                    raise ValueError(
                        "complex shift %r lacks an adjacent conjugate" % (z,)
                    )
                closes[i + 1] = True
                i += 2
            else:
                i += 1
        object.__setattr__(self, "closes_pair", tuple(closes))

    def next_column(self, w, cols, j, prev_norm):
        i = (j - 1) % len(self.shifts)
        # a conjugate has its partner's Re and Im^2 bit for bit
        theta = self.shifts[i]
        w = w - theta.real * cols[:, j - 1]
        if self.closes_pair[i]:
            w = w + theta.imag * theta.imag / prev_norm * cols[:, j - 2]
        return w


@dataclass(frozen=True)
class ChebyshevBasis:
    """Scaled Chebyshev polynomials on the ellipse (center d, focal
    distance c). Step: (w - d k_0) / c at j = 1, else
    (2/c)(w - d k_{j-1}) - k_{j-2} / prev_norm."""

    center: float
    focal: float

    def __post_init__(self):
        if self.focal == 0.0:
            raise ValueError(
                "degenerate ellipse (focal = 0); fall back to the monomial basis"
            )

    def next_column(self, w, cols, j, prev_norm):
        w = w - self.center * cols[:, j - 1]
        if j == 1:
            return w / self.focal
        return (2.0 / self.focal) * w - cols[:, j - 2] / prev_norm


_BASIS_KINDS = (MonomialBasis, NewtonBasis, ChebyshevBasis)


def compute_ritz_values(apply_operator, r, s):
    """Ritz values from k <= min(s, n) steps of standard Arnoldi started
    at r, as a complex array of length k.

    ``apply_operator`` must realize the preconditioned operator
    x -> M^{-1} A x. The values are the eigenvalues of the k x k Arnoldi
    Hessenberg matrix (LAPACK dgeev, whose complex values come in exact
    adjacent conjugate pairs for real input). k < min(s, n) when Arnoldi
    breaks down, its new direction below 100 u of the image's norm, as
    it usually does when r lies in an invariant subspace of dimension k;
    the k values are handed over as they are, and the Newton basis
    cycles through them.
    """
    if s < 1:
        raise ValueError("s must be positive, got %d" % s)
    reject_complex(r, "start vector")
    r = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(r)):
        raise ValueError("start vector must be finite")
    beta = frobenius_norm(r)
    if beta == 0.0:
        raise ValueError("start vector is zero")
    n = r.size
    m = min(s, n)
    v = np.zeros((n, m + 1), order="F")
    v[:, 0] = r / beta
    hess = np.zeros((m + 1, m))
    steps = 0
    for j in range(m):
        w = apply_operator(v[:, j])
        w = np.asarray(w, dtype=float)
        scale = frobenius_norm(w)
        for i in range(j + 1):
            hij = v[:, i] @ w
            w = w - hij * v[:, i]
            hess[i, j] = hij
        hnext = frobenius_norm(w)
        hess[j + 1, j] = hnext
        steps = j + 1
        if hnext <= 100.0 * UNIT_ROUNDOFF * scale:
            break
        v[:, j + 1] = w / hnext
    return np.linalg.eigvals(hess[:steps, :steps]).astype(complex)


def leja_order(values):
    """Greedy Leja ordering of a value multiset.

    The first point maximizes modulus; each further point maximizes the
    product of distances to the already chosen ones. Ties go to the
    lexicographically largest (Re, Im). A strictly complex choice pulls
    its conjugate partner in immediately after, keeping pairs adjacent.
    """
    vals = np.atleast_1d(np.asarray(values, dtype=complex))
    n = vals.size
    if n == 0:
        return vals.copy()
    remaining = list(range(n))
    order = []
    # sum of log-distances to the chosen prefix; -inf marks duplicates
    with np.errstate(divide="ignore"):
        logdist = np.zeros(n)

    def key(i, first):
        primary = abs(vals[i]) if first else logdist[i]
        return (primary, vals[i].real, vals[i].imag)

    def take(i):
        order.append(i)
        remaining.remove(i)
        with np.errstate(divide="ignore"):
            for j in remaining:
                logdist[j] += np.log(abs(vals[j] - vals[i]))

    while remaining:
        first = not order
        best = max(remaining, key=lambda i: key(i, first))
        take(best)
        z = vals[best]
        if z.imag != 0.0:
            partner = [j for j in remaining if vals[j] == z.conjugate()]
            if partner:
                take(partner[0])
    return vals[np.array(order)]


def chebyshev_params(values):
    """The pair (center d, focal distance c) of an ellipse enclosing the
    values.

    d = midpoint of the real extent, a = real semi-axis, b = largest
    |imaginary part|; c = sqrt(a^2 - b^2) when a >= b, else the real
    fallback c = a. Only the extents enter, so repeated values change
    nothing. c == 0 (all values identical, or no real spread) is a
    degenerate ellipse, on which the caller uses the monomial basis.
    """
    vals = np.atleast_1d(np.asarray(values, dtype=complex))
    if vals.size == 0:
        raise ValueError("need at least one value")
    re = vals.real
    d = 0.5 * (re.max() + re.min())
    a = 0.5 * (re.max() - re.min())
    b = np.abs(vals.imag).max()
    c = np.sqrt(a * a - b * b) if a >= b else a
    return float(d), float(c)


def build_krylov_block(apply_op, v, s, kind):
    """Krylov block [p_0(op) v, p_1(op) v, ..., p_{s-1}(op) v].

    The first column is always v itself (p_0 = 1). Each generated column
    is rescaled to unit norm, p_j(op) v / ||p_j(op) v||, and the
    recurrences carry the scale ratios so the spanned space is unchanged.
    An exactly vanishing new column (invariant subspace) truncates the
    block to its actual width.

    ``apply_op`` is called exactly once per generated column, on the
    previous column (bit for bit the block's column t on call t), in
    column order, and its result is never modified in place. A full
    block therefore applies it to columns 0..width-2, a truncated one to
    columns 0..width-1; the classical Arnoldi step relies on this to
    reuse the results as operator images of the block's columns.

    Returns an (n, width) array with width <= s.
    """
    reject_complex(v, "v")
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError("v must be a vector")
    if s < 1:
        raise ValueError("s must be positive")
    if not isinstance(kind, _BASIS_KINDS):
        raise TypeError("unknown basis kind %r" % (kind,))
    n = v.size
    cols = np.zeros((n, s), order="F")
    cols[:, 0] = v
    nrm = 1.0  # column 0 is v itself, unscaled
    for j in range(1, s):
        w = np.asarray(apply_op(cols[:, j - 1]), dtype=float)
        raw = kind.next_column(w, cols, j, nrm)
        nrm = frobenius_norm(raw)
        if nrm == 0.0:
            return cols[:, :j].copy()
        cols[:, j] = raw / nrm
    return cols
