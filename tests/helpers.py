"""Shared test utilities: seeded matrix builders, subspace comparison and
a condition-number reference.

Deliberately built on numpy.linalg and scipy's LAPACK (not on the package
under test) so the checks stay independent of the code they verify.
"""

import numpy as np
from scipy.linalg.lapack import dgejsv

UNIT_ROUNDOFF = 2.0**-53


def rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def matrix_with_cond(rows, cols, cond, seed, spread="geometric"):
    """rows x cols matrix with prescribed 2-norm condition number."""
    g = rng(seed)
    u, _ = np.linalg.qr(g.standard_normal((rows, cols)))
    v, _ = np.linalg.qr(g.standard_normal((cols, cols)))
    if spread == "geometric":
        sigma = np.geomspace(1.0, 1.0 / cond, cols)
    elif spread == "one_small":
        sigma = np.ones(cols)
        sigma[-1] = 1.0 / cond
    else:
        raise ValueError(spread)
    return (u * sigma) @ v.T


def clustered_spectrum_matrix(n, radius, seed):
    """Identity plus a scaled random perturbation.

    The eigenvalues land in a disk of roughly the given radius around 1,
    so unrestarted GMRES contracts the residual by about that factor per
    iteration and converges long before the Krylov space closes. Matrices
    with singular-value control alone tend to scatter eigenvalues around
    the origin, which forces GMRES to run all n steps.
    """
    g = rng(seed)
    return np.eye(n) + (radius / np.sqrt(n)) * g.standard_normal((n, n))


def stencil_coo(m, wind=(20.0, 10.0)):
    """Convection-diffusion -div(k grad u) + w . grad u, k = 1 + 9x.

    Unit square, zero Dirichlet boundary, m x m interior points with mesh
    width h = 1/(m+1); unknown (i, j) sits at x = (j+1)h, y = (i+1)h and
    has index i*m + j. Diffusion is conservative with k at the half
    points, the wind w is centrally differenced. Returns (n, rows, cols,
    vals), coordinate data with no duplicate entries.
    """
    h = 1.0 / (m + 1)
    i, j = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    x = (j + 1) * h
    k = lambda t: 1.0 + 9.0 * t
    k_east, k_west, k_mid = k(x + h / 2), k(x - h / 2), k(x)
    wx, wy = wind
    index = i * m + j
    rows = [index.ravel()]
    cols = [index.ravel()]
    vals = [((k_east + k_west + 2.0 * k_mid) / h**2).ravel()]
    for di, dj, coef in (
        (0, 1, -k_east / h**2 + wx / (2 * h)),
        (0, -1, -k_west / h**2 - wx / (2 * h)),
        (1, 0, -k_mid / h**2 + wy / (2 * h)),
        (-1, 0, -k_mid / h**2 - wy / (2 * h)),
    ):
        ii, jj = i + di, j + dj
        inside = (ii >= 0) & (ii < m) & (jj >= 0) & (jj < m)
        rows.append(index[inside])
        cols.append(ii[inside] * m + jj[inside])
        vals.append(coef[inside])
    return m * m, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def max_principal_angle(x, y):
    """Sine of the largest principal angle between span(x) and span(y).

    Computed from projection residuals, which stay accurate for tiny
    angles; arccos of singular values bottoms out near sqrt(eps) and
    cannot certify agreement below ~1e-8.
    """
    qx, _ = np.linalg.qr(np.asarray(x, dtype=float))
    qy, _ = np.linalg.qr(np.asarray(y, dtype=float))
    a = np.linalg.norm(qy - qx @ (qx.T @ qy), 2)
    b = np.linalg.norm(qx - qy @ (qy.T @ qx), 2)
    return float(max(a, b))


def dgejsv_cond(m):
    """sigma_max / sigma_min of m from LAPACK's dgejsv.

    dgejsv is the preconditioned one-sided Jacobi SVD of Drmac and
    Veselic (SIMAX 2008), run here with JOBA = 'C' (no singular value is
    treated as noise and zeroed) and no singular vectors. Wide input is
    transposed. Returns inf only for exact rank loss.
    """
    a = np.asarray(m, dtype=float)
    if a.shape[0] < a.shape[1]:
        a = a.T
    sva, _, _, _, _, info = dgejsv(a, joba=0, jobu=3, jobv=3)
    assert info == 0, "dgejsv failed with info %d" % info
    return np.inf if sva[-1] == 0.0 else float(sva[0] / sva[-1])


def assert_cond_within_u_kappa(m, got, c):
    """A measured cond2 of m within c u kappa (relative) of ``dgejsv_cond``.

    kappa is the reference value. A finite result must satisfy
    |got / kappa - 1| <= c u kappa. An inf result, the noise-floor
    report, is right when a value within that tolerance of kappa can
    reach the floor 1 / (4 sqrt(rows) u) that cond2 reports as inf.
    """
    rows = max(np.shape(m))
    kappa = dgejsv_cond(m)
    tol = c * UNIT_ROUNDOFF * kappa
    if np.isinf(got):
        assert kappa * (1.0 + tol) >= 1.0 / (4.0 * np.sqrt(rows) * UNIT_ROUNDOFF), kappa
    else:
        assert abs(got / kappa - 1.0) <= tol, (got, kappa, abs(got / kappa - 1.0) / tol)
