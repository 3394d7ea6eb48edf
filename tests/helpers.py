"""Shared test utilities: seeded matrix builders, subspace comparison and
the references for condition numbers, singular values and orthogonality.

Deliberately built on numpy.linalg and scipy's LAPACK (not on the package
under test) so the checks stay independent of the code they verify. The
one deliberate use of package code is ``dense._qrcp_r``: the Jacobi
reference runs on the rows of the same pivoted R whose inverse ``cond2``
takes, so the two share that factor and differ only in what follows it.
The convection-diffusion stencil is the benchmark's own generator, so
tests and benchmark run the one matrix.
"""

import importlib.util
import os

import numpy as np
from scipy.linalg.lapack import dgejsv

from sstep_gmres import dense

UNIT_ROUNDOFF = 2.0**-53


def _benchmark_workloads():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(root, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# stencil_coo(m): n = m^2 convection-diffusion unknowns as COO
# (n, rows, cols, vals), wind (20, 10)
stencil_coo = _benchmark_workloads().stencil_coo


def rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def scale_probe_system():
    """(A, b): A = 4I + 0.1 randn(50) and b = randn(50), from default_rng(0).

    The system the scale tests multiply by powers of ten and of two.
    """
    g = np.random.default_rng(0)
    a = 4.0 * np.eye(50) + 0.1 * g.standard_normal((50, 50))
    return a, g.standard_normal(50)


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


def jacobi_svd_values(m):
    """Singular values of m (rows >= cols), descending, by one-sided Jacobi.

    LAPACK's dgejsv (JOBA = 'C', no singular vectors) on the rows of
    m's pivoted R factor, ``dense._qrcp_r``; the values are dgejsv's SVA
    times its documented SCALE = WORK(2) / WORK(1).
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] < a.shape[1]:
        raise ValueError("jacobi_svd_values needs rows >= cols, got shape %r" % (a.shape,))
    if not np.all(np.isfinite(a)):
        raise ValueError("singular values require finite entries")
    if a.shape[1] == 0:
        return np.zeros(0)
    sva, _, _, work, _, info = dgejsv(dense._qrcp_r(a).T, joba=0, jobu=3, jobv=3)
    assert info == 0, "dgejsv failed with info %d" % info
    return sva * (work[1] / work[0])


def loss_of_orthogonality(q):
    """|| I - Q^T Q ||_2 of the given columns, from one ``eigvalsh``."""
    q = np.asarray(q)
    if q.size == 0:
        return 0.0
    ev = np.linalg.eigvalsh(np.eye(q.shape[1]) - q.T @ q)
    return float(max(-ev[0], ev[-1]))
