"""Shared test utilities: seeded matrix builders and subspace comparison.

Deliberately built on numpy.linalg (not on the package under test) so the
checks stay independent of the code they verify.
"""

import numpy as np


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
