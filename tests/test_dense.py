from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, strategies as st
from numpy.testing import assert_allclose

import sstep_gmres.solver as solver_module
from sstep_gmres import dense
from sstep_gmres.dense import (
    UNIT_ROUNDOFF,
    compute_givens,
    cond2,
    frobenius_norm,
    householder_qr,
    project_out,
)
from sstep_gmres.solver import SolverConfig, solve
from sstep_gmres.sparse import RandSvdSpec, gen_randsvd

from helpers import assert_cond_within_u_kappa, jacobi_svd_values, matrix_with_cond, rng


def bidiagonal_svd_oracle(m):
    """Independent reference path: LAPACK bidiagonalization + QR iteration."""
    return scipy.linalg.svd(m, compute_uv=False, lapack_driver="gesvd")


class TestHouseholderQr:
    def test_single_column(self):
        q, r = householder_qr(np.array([[3.0], [4.0]]))
        assert_allclose(r, [[5.0]], rtol=1e-15)
        assert_allclose(q, [[0.6], [0.8]], rtol=1e-15)

    def test_identity(self):
        q, r = householder_qr(np.eye(3))
        assert_allclose(q, np.eye(3), atol=1e-15)
        assert_allclose(r, np.eye(3), atol=1e-15)

    def test_seeded_gaussian_orthonormality_and_residual(self):
        m = rng(7).standard_normal((200, 20))
        q, r = householder_qr(m)
        assert np.linalg.norm(q.T @ q - np.eye(20)) <= 1e-14
        assert np.linalg.norm(q @ r - m) <= 1e-14 * np.linalg.norm(m)

    def test_r_diagonal_nonnegative_and_triangular(self):
        for seed in range(8):
            m = rng(seed).standard_normal((30, 12))
            _, r = householder_qr(m)
            assert np.all(np.diag(r) >= 0.0)
            assert_allclose(r, np.triu(r), atol=0.0)

    def test_rank_deficient_duplicate_column(self):
        v = rng(3).standard_normal((40, 1))
        m = np.hstack([v, v])
        q, r = householder_qr(m)
        # the factorization still reproduces the input
        assert np.linalg.norm(q @ r - m) <= 1e-13 * np.linalg.norm(m)

    def test_orthonormality_well_conditioned_batch(self):
        # cond2 <= 1e8, shapes up to 1000 x 100
        shapes = [(60, 6), (300, 40), (1000, 100)]
        for i, (rows, cols) in enumerate(shapes):
            m = matrix_with_cond(rows, cols, 1e8, seed=100 + i)
            q, r = householder_qr(m)
            assert np.linalg.norm(q.T @ q - np.eye(cols)) <= 1e-13
            assert np.linalg.norm(q @ r - m) <= 1e-13 * np.linalg.norm(m)

    def test_zero_width(self):
        q, r = householder_qr(np.zeros((5, 0)))
        assert q.shape == (5, 0) and r.shape == (0, 0)

    def test_wide_input_rejected(self):
        with pytest.raises(ValueError):
            householder_qr(np.ones((2, 3)))

    @pytest.mark.parametrize("func", [householder_qr, cond2], ids=lambda f: f.__name__)
    def test_vector_input_rejected(self, func):
        with pytest.raises(ValueError, match="2-dimensional"):
            func(np.ones(4))


def wy_thin_q(m, sign):
    """The WY expression householder_qr documents for its q.

    Q D = (E - Y (T Y_1^T)) D from the raw reflectors of LAPACK's dgeqrf:
    Y unit lower trapezoidal, T from dlarft's forward recurrence, and
    the signs D folded into the k x k factor, in the same operations and
    layouts as the package, so the bits must agree.
    """
    h, tau = np.linalg.qr(m, mode="raw")
    y = h.T
    k = y.shape[1]
    y[:k][np.triu_indices(k)] = 0.0
    y[np.diag_indices(k)] = 1.0
    t = np.zeros((k, k))
    for i in range(k):
        t[:i, i] = -tau[i] * (t[:i, :i] @ (y[i:, :i].T @ y[i:, i]))
        t[i, i] = tau[i]
    q = np.empty(y.shape, order="F")
    np.matmul(y, (t @ y[:k].T) * -sign, out=q)
    q[np.diag_indices(k)] += sign
    return q


class TestHouseholderQrSigns:
    """r has the bits of LAPACK's r with its negative-pivot rows flipped;
    q has the bits of the documented WY expression and lies within a few
    units of roundoff of LAPACK's q times the same signs."""

    @pytest.mark.parametrize(
        "shape,seed", [((8, 8), 1), ((8, 8), 2), ((60, 8), 3), ((4000, 5), 4), ((500, 1), 6)]
    )
    @pytest.mark.parametrize("order", "CF")
    def test_bits_of_lapack_r_and_the_wy_q(self, shape, seed, order):
        m = np.array(rng(seed).standard_normal(shape), order=order)
        if shape[1] == 1:
            # LAPACK's pivot takes the opposite sign of the first entry
            m = np.abs(m)
        q_ref, r_ref = np.linalg.qr(m, mode="reduced")
        d = np.where(np.diag(r_ref) < 0.0, -1.0, 1.0)
        assert np.any(d < 0.0)
        q, r = householder_qr(m)
        assert r.tobytes() == (r_ref * d[:, None]).tobytes()
        assert q.tobytes() == wy_thin_q(m, d).tobytes()
        # 4.6 u at most on these inputs
        assert np.linalg.norm(q - q_ref * d, 2) <= 8.0 * UNIT_ROUNDOFF


@st.composite
def qr_inputs(draw):
    """Gaussian rows x cols input, some columns zeroed or duplicated."""
    cols = draw(st.integers(0, 16))
    rows = draw(st.integers(max(cols, 1), 3000))
    m = rng(draw(st.integers(0, 2**32 - 1))).standard_normal((rows, cols))
    for j in range(cols):
        kind = draw(st.sampled_from(["keep", "zero", "copy"]))
        if kind == "zero":
            m[:, j] = 0.0
        elif kind == "copy":
            m[:, j] = m[:, draw(st.integers(0, cols - 1))]
    return m


class TestHouseholderQrProperty:
    @given(qr_inputs())
    def test_orthonormal_backward_stable_with_lapack_pivots(self, m):
        rows, cols = m.shape
        q, r = householder_qr(m)
        assert q.shape == (rows, cols) and r.shape == (cols, cols)
        # c cols u with c = 8 sqrt(rows): the rounding errors of the
        # length-rows inner products add up like a random walk. LAPACK's
        # own q reaches 2.8 cols sqrt(rows) u on such input.
        tol = 8.0 * cols * np.sqrt(rows) * UNIT_ROUNDOFF
        assert np.linalg.norm(q.T @ q - np.eye(cols), 2) <= tol
        assert np.linalg.norm(q @ r - m, 2) <= tol * np.linalg.norm(m, 2)
        assert np.array_equal(r, np.triu(r))
        assert np.all(np.diag(r) >= 0.0)
        r_ref = np.linalg.qr(m, mode="r")
        assert np.array_equal(np.diag(r), np.abs(np.diag(r_ref)))


class TestHouseholderQrContract:
    """householder_qr against scipy.linalg.qr as an independent oracle."""

    def test_pivot_magnitudes_agree_with_oracle(self):
        for seed in range(6):
            g = rng(40 + seed)
            m = g.standard_normal((120, 8)) * np.geomspace(1.0, 1e-6, 8)
            _, r = householder_qr(m)
            r_ref = scipy.linalg.qr(m, mode="economic")[1]
            diff = np.abs(np.diag(r)) - np.abs(np.diag(r_ref))
            assert np.max(np.abs(diff)) <= 8.0 * UNIT_ROUNDOFF * np.linalg.norm(m)

    def test_zero_column_in_middle_of_block(self):
        m = rng(5).standard_normal((64, 5))
        m[:, 2] = 0.0
        q, r = householder_qr(m)
        assert r[2, 2] == 0.0
        assert np.linalg.norm(q.T @ q - np.eye(5)) <= 1e-14
        assert np.linalg.norm(q @ r - m) <= 1e-14 * np.linalg.norm(m)


def rotate(a, b):
    """(a, b) rotated by the Givens pair that zeros b against a."""
    c, s = compute_givens(a, b)
    return c * a + s * b, -s * a + c * b


class TestGivens:
    def test_three_four(self):
        a, b = rotate(3.0, 4.0)
        assert_allclose(a, 5.0, rtol=1e-15)
        assert abs(b) <= 4 * np.spacing(5.0)

    def test_zero_against_one(self):
        assert compute_givens(0.0, 1.0) == (0.0, 1.0)

    def test_both_zero_identity(self):
        assert compute_givens(0.0, 0.0) == (1.0, 0.0)

    def test_first_entry_nonnegative(self):
        for a, b in [(-3.0, 4.0), (-1.0, 0.0), (2.0, -5.0), (-2e-3, -7.0)]:
            ra, rb = rotate(a, b)
            assert ra >= 0.0
            assert abs(rb) <= 4 * np.spacing(max(ra, 1.0))

    @given(
        st.floats(-1e150, 1e150, allow_nan=False),
        st.floats(-1e150, 1e150, allow_nan=False),
    )
    def test_norm_preserved_within_4_ulps(self, a, b):
        ra, rb = rotate(a, b)
        before = np.hypot(a, b)
        after = np.hypot(ra, rb)
        assert abs(after - before) <= 4 * np.spacing(max(before, np.finfo(float).tiny))

    def test_chain_preserves_vector_norm(self):
        x = rng(11).standard_normal(50)
        nrm = np.linalg.norm(x)
        y = x.copy()
        for i in range(49):
            y[i], y[i + 1] = rotate(y[i], y[i + 1])
        assert abs(np.linalg.norm(y) - nrm) <= 50 * np.spacing(nrm)


class TestJacobiSvd:
    def test_known_diagonal_under_rotation(self):
        g = rng(5)
        u, _ = np.linalg.qr(g.standard_normal((3, 3)))
        m = u @ np.diag([3.0, 2.0, 1.0])
        assert_allclose(jacobi_svd_values(m), [3.0, 2.0, 1.0], rtol=1e-14)

    def test_against_bidiagonal_oracle_30_seeded(self):
        # Well-separated spectra; relative agreement to 1e-12.
        for seed in range(30):
            rows = 20 + 7 * (seed % 5)
            cols = 5 + (seed % 7)
            m = rng(1000 + seed).standard_normal((rows, cols))
            mine = jacobi_svd_values(m)
            ref = bidiagonal_svd_oracle(m)
            assert_allclose(mine, ref, rtol=1e-12)

    def test_relative_accuracy_small_singular_values(self):
        m = matrix_with_cond(80, 12, 1e9, seed=42)
        mine = jacobi_svd_values(m)
        ref = np.geomspace(1.0, 1e-9, 12)
        assert_allclose(mine, ref, rtol=1e-8)

    def test_permutation_invariance(self):
        m = rng(9).standard_normal((40, 10))
        base = jacobi_svd_values(m)
        perm = rng(10).permutation(10)
        assert_allclose(jacobi_svd_values(m[:, perm]), base, rtol=1e-13)

    def test_orthogonal_invariance(self):
        m = rng(12).standard_normal((40, 10))
        base = jacobi_svd_values(m)
        u, _ = np.linalg.qr(rng(13).standard_normal((40, 40)))
        assert_allclose(jacobi_svd_values(u @ m), base, rtol=1e-13)

    def test_descending_order(self):
        for seed in range(5):
            s = jacobi_svd_values(rng(seed).standard_normal((25, 9)))
            assert np.all(np.diff(s) <= 0.0)

    def test_zero_column_gives_zero_value(self):
        m = np.zeros((6, 3))
        m[:, 0] = [1, 2, 3, 0, 0, 0]
        m[:, 1] = [0, 1, 0, 1, 0, 1]
        s = jacobi_svd_values(m)
        assert s[-1] == 0.0

    def test_wide_rejected(self):
        with pytest.raises(ValueError):
            jacobi_svd_values(np.ones((2, 5)))

    def test_nonfinite_rejected(self):
        m = np.ones((3, 2))
        m[0, 0] = np.nan
        with pytest.raises(ValueError):
            jacobi_svd_values(m)


def near_orthonormal(rows, cols, radius, seed):
    """U diag(sigma) V^T with every sigma^2 drawn from [1 - radius, 1 + radius]."""
    g = rng(seed)
    u, _ = np.linalg.qr(g.standard_normal((rows, cols)))
    v, _ = np.linalg.qr(g.standard_normal((cols, cols)))
    sigma = np.sqrt(1.0 - g.uniform(-radius, radius, cols))
    return (u * sigma) @ v.T


def _raise(*args):
    raise AssertionError("patched-out kernel ran")


def assert_reaches_pivoted_r(m):
    with mock.patch.object(dense, "_qrcp_r", _raise), \
            pytest.raises(AssertionError, match="patched-out kernel ran"):
        cond2(m)


def jacobi_cond(m):
    sigma = jacobi_svd_values(m if m.shape[0] >= m.shape[1] else m.T)
    return sigma[0] / sigma[-1]


def assert_agrees_with_jacobi(m, got):
    """got = cond2(m) against the Jacobi oracle under the same noise floor.

    Finite values agree to 64 (rows + cols) u. Whether the floor is met
    must agree too, unless the oracle's sigma_min / sigma_max lies
    within a factor of 4 of the floor, where rounding may decide.
    """
    rows, cols = max(m.shape), min(m.shape)
    sigma = jacobi_svd_values(m if m.shape[0] >= m.shape[1] else m.T)
    margin = sigma[-1] / sigma[0] / (4.0 * np.sqrt(rows) * UNIT_ROUNDOFF)
    want = np.inf if margin <= 1.0 else sigma[0] / sigma[-1]
    if np.isfinite(got) and np.isfinite(want):
        assert abs(got / want - 1.0) <= 64 * (rows + cols) * UNIT_ROUNDOFF
    elif not 0.25 <= margin <= 4.0:
        assert got == want, margin


def kahan(n, theta=1.2):
    """Kahan's upper triangular matrix: diag(sin^k) (I - cos * strict upper ones)."""
    s, c = np.sin(theta), np.cos(theta)
    return (s ** np.arange(n))[:, None] * (np.eye(n) - c * np.triu(np.ones((n, n)), 1))


class TestCond2:
    def test_known_diagonal(self):
        assert_allclose(cond2(np.diag([10.0, 1.0, 0.1])), 100.0, rtol=1e-13)

    def test_orthonormal_is_one(self):
        q, _ = np.linalg.qr(rng(2).standard_normal((30, 8)))
        assert abs(cond2(q) - 1.0) <= 1e-12

    def test_exact_rank_loss_is_inf(self):
        v = rng(3).standard_normal((10, 1))
        assert cond2(np.hstack([v, v])) == np.inf

    def test_zero_matrix_rejected(self):
        for m in (np.zeros((4, 2)), np.zeros((2, 4)), np.zeros((0, 2))):
            with pytest.raises(ValueError):
                cond2(m)

    def test_rank_loss_settled_by_pivoted_r(self):
        g = rng(5)
        v = g.standard_normal((30, 1))
        lost = np.hstack([g.standard_normal((30, 3)), v, 3.0 * v, g.standard_normal((30, 2))])
        assert cond2(lost) == np.inf
        assert cond2(lost.T) == np.inf
        # full rank, however ill conditioned, is measured from the pivoted
        # R and its singular values
        m = matrix_with_cond(40, 6, 1e12, seed=6)
        assert_reaches_pivoted_r(m)
        assert abs(cond2(m) / 1e12 - 1.0) <= 1e-3

    def test_prescribed_condition(self):
        m = matrix_with_cond(60, 10, 1e6, seed=21)
        assert abs(cond2(m) / 1e6 - 1.0) <= 1e-6


class TestCond2Scale:
    """cond2 does not depend on the scale of its input."""

    @pytest.mark.parametrize("scale", [1e-160, 1e-170, 1e160])
    def test_extreme_scale_measures_the_condition(self, scale):
        # the squared column norms of the pivoted QR would underflow or
        # overflow at these scales without the power-of-two scaling
        m = matrix_with_cond(20, 5, 10.0, seed=1)
        assert abs(cond2(m * scale) / 10.0 - 1.0) <= 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_unit_scale_bits_are_those_of_the_unscaled_r(self, seed):
        # scaling by a power of two is exact, so at scale 1 the result is
        # sigma_max / sigma_min of the unscaled input's pivoted R, bit for bit
        g = rng(300 + seed)
        m = matrix_with_cond(30, 8, 10.0 ** (2 + 2 * seed), seed=300 + seed)
        m *= 10.0 ** g.uniform(-3.0, 3.0, 8)
        r = dense._qrcp_r(m)
        sigma = np.linalg.svd(r, compute_uv=False)
        want = sigma[0] / sigma[-1]
        assert cond2(m) == want
        assert cond2(m.T) == want

    @given(st.integers(-1000, 1000), st.integers(0, 2**32 - 1))
    def test_power_of_two_scaling_keeps_the_bits(self, k, seed):
        m = matrix_with_cond(12, 4, 1e6, seed)
        assert cond2(np.ldexp(m, k)) == cond2(m)


class TestCond2GramPath:
    """Near-orthonormal input, ||I - A^T A||_2 <= 1/2, is measured from
    the eigenvalues of I - A^T A and never reaches the pivoted R."""

    def test_orthonormal_plus_noise_skips_the_jacobi_path(self, monkeypatch):
        g = rng(50)
        q, _ = np.linalg.qr(g.standard_normal((300, 150)))
        m = q + 1e-8 * g.standard_normal((300, 150))
        want = jacobi_cond(m)
        monkeypatch.setattr(dense, "_qrcp_r", _raise)
        got = cond2(m)
        assert 1.0 < got < 1.0 + 1e-6
        assert abs(got / want - 1.0) <= 8 * (300 + 150) * UNIT_ROUNDOFF

    @given(
        st.integers(1, 80),
        st.integers(1, 40),
        st.floats(0.0, 0.45),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    def test_agrees_with_jacobi(self, rows, cols, radius, seed, wide):
        cols = min(cols, rows)
        m = near_orthonormal(rows, cols, radius, seed)
        if wide:
            m = m.T
        want = jacobi_cond(m)
        with mock.patch.object(dense, "_qrcp_r", _raise):
            got = cond2(m)
        assert abs(got / want - 1.0) <= 8 * (rows + cols) * UNIT_ROUNDOFF

    def test_large_gram_entries_reach_pivoted_r(self):
        # 2Q: I - A^T A = -3I fails the entry test
        q, _ = np.linalg.qr(rng(51).standard_normal((40, 6)))
        assert_reaches_pivoted_r(2.0 * q)
        assert abs(cond2(2.0 * q) - 1.0) <= 1e-14

    def test_small_entries_large_norm_reach_pivoted_r(self):
        # A^T A = I - 0.6 * ones/6: every entry of I - A^T A is 0.1, yet
        # its 2-norm is 0.6, so the eigenvalue test sends it on
        k = 6
        gram = np.eye(k) - 0.6 * np.ones((k, k)) / k
        q, _ = np.linalg.qr(rng(52).standard_normal((40, k)))
        m = q @ np.linalg.cholesky(gram).T
        assert_reaches_pivoted_r(m)
        assert abs(cond2(m) / np.sqrt(1.0 / 0.4) - 1.0) <= 1e-13

    def test_rank_loss_with_small_gram_entries_is_inf(self):
        # columns of Q (I - ones/k): I - A^T A = ones/k has entries 1/4
        # but the eigenvalue 1, since one direction is lost
        k = 4
        q, _ = np.linalg.qr(rng(53).standard_normal((30, k)))
        m = q @ (np.eye(k) - np.ones((k, k)) / k)
        assert cond2(m) == np.inf

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rejected(self, bad):
        q, _ = np.linalg.qr(rng(54).standard_normal((20, 5)))
        q[3, 2] = bad
        with pytest.raises(ValueError):
            cond2(q)
        with pytest.raises(ValueError):
            cond2(q.T)


def test_unit_roundoff_value():
    assert UNIT_ROUNDOFF == pytest.approx(1.11e-16, rel=1e-2)
    assert UNIT_ROUNDOFF == np.finfo(float).eps / 2


class TestCond2PivotedRPath:
    """Input off the Gram path is measured as sigma_max / sigma_min of its
    pivoted R factor, from one SVD; one-sided Jacobi is the independent
    oracle."""

    @given(
        st.integers(1, 120),
        st.integers(1, 60),
        st.floats(0.0, 13.0),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    def test_agrees_with_jacobi(self, rows, cols, log_cond, seed, wide):
        cols = min(cols, rows)
        m = matrix_with_cond(rows, cols, 10.0 ** log_cond, seed)
        m *= 10.0 ** rng(seed + 1).uniform(-6.0, 6.0, cols)
        if wide:
            m = m.T
        got = cond2(m)
        assert_agrees_with_jacobi(m, got)

    @pytest.mark.parametrize("n, finite", [(60, True), (90, False)])
    def test_kahan_matrix(self, n, finite):
        m = kahan(n)
        got = cond2(m)
        assert np.isfinite(got) == finite
        assert_agrees_with_jacobi(m, got)

    @pytest.mark.filterwarnings("error")
    def test_huge_off_diagonal_is_inf_without_warning(self, monkeypatch):
        # unit diagonal passes the diagonal test; R^{-1} has entries
        # (1 + 1e10)^(j - i - 1), past the float range beyond j - i = 31,
        # so sigma_min is far below the noise floor
        k = 40
        r = np.eye(k) - 1e10 * np.triu(np.ones((k, k)), 1)
        monkeypatch.setattr(dense, "_qrcp_r", lambda a: r)
        assert cond2(rng(55).standard_normal((50, k))) == np.inf

    def test_classical_solve_records_agree_with_jacobi(self, monkeypatch):
        # criterion 7' matrix: the classical candidates reach cond > 1e7.
        # The reference is dgejsv, which shares no step with either route:
        # the stacked B~ is measured from the solve's append-only factor,
        # the newest block by cond2's pivoted R.
        a, _, _ = gen_randsvd(RandSvdSpec(n=200, kappa=1e10, mode=5, seed=1))
        measure = solver_module.basis_condition_numbers
        slices = []

        def capture(state, factor, valid_cols=None):
            inner = state.inner_cols if valid_cols is None else valid_cols
            start = state.inner_cols - state.block_widths[-1]
            b = state.b_concat
            slices.append((b[:, :inner].copy(), b[:, start:inner].copy()))
            return measure(state, factor, valid_cols)

        monkeypatch.setattr(solver_module, "basis_condition_numbers", capture)
        cfg = SolverConfig(s=16, arnoldi="classical", diag_every=1)
        res = solve(a, np.ones(200), config=cfg)
        monkeypatch.undo()
        assert len(slices) == len(res.records)
        assert max(rec.cond_B_tilde for rec in res.records) > 1e7
        # relative error at most c u kappa, kappa the reference value
        c = 16
        for rec, (b, sub) in zip(res.records, slices):
            assert_cond_within_u_kappa(b, rec.cond_B_tilde, c)
            assert_cond_within_u_kappa(sub, rec.cond_B_subblock, c)


class TestFrobeniusNorm:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(1, 30))
    def test_bits_match_numpy_in_range(self, seed, rows, cols):
        m = rng(seed).standard_normal((rows, cols))
        assert frobenius_norm(m) == float(np.linalg.norm(m))
        assert frobenius_norm(m.T) == float(np.linalg.norm(m.T))

    @given(st.integers(0, 2**32 - 1), st.integers(-1070, 1020))
    def test_power_of_two_scaling_is_exact(self, seed, k):
        m = rng(seed).uniform(0.5, 2.0, (6, 5)) * rng(seed + 1).choice([-1.0, 1.0], (6, 5))
        assume(np.array_equal(np.ldexp(np.ldexp(m, k), -k), m))
        assert frobenius_norm(np.ldexp(m, k)) == np.ldexp(frobenius_norm(m), k)

    def test_largest_representable_entries(self):
        assert frobenius_norm(np.diag([1e308, 1e308])) == np.sqrt(2.0) * 1e308

    @pytest.mark.parametrize("m", [np.zeros((0, 3)), np.zeros((2, 2)), np.array([-0.0])])
    def test_zero_is_zero(self, m):
        assert frobenius_norm(m) == 0.0


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def panel_sum(q, x):
    """q^T x summed over row panels of q of at most 1 MiB, in row order."""
    rows = max(1, 2**20 // (8 * max(q.shape[1], 1)))
    s = q[:rows].T @ x[:rows]
    for lo in range(rows, q.shape[0], rows):
        s += q[lo : lo + rows].T @ x[lo : lo + rows]
    return s


class TestProjectOut:
    # 40000 rows: 2 panels at p = 5, 19 at p = 61 and 46 at p = 150, the
    # last one short each time
    @pytest.mark.parametrize("n", [1, 7, 300, 16384, 40000])
    @pytest.mark.parametrize("p", [0, 1, 5, 61, 150])
    def test_bits_match_the_inline_expression(self, n, p):
        g = rng(n + p)
        # a column slice of a wider Fortran array, like the solver's basis
        q = np.asfortranarray(g.standard_normal((n, p + 2)))[:, 1 : p + 1]
        one_panel = 8 * n * p <= 2**20
        q_abs = np.abs(q)
        for width in range(1, 17):
            for order in "CF":
                x = np.array(g.standard_normal((n, width)), order=order)
                s, got = project_out(q, x)
                want = q.T @ x if one_panel else panel_sum(q, x)
                assert same_bits(s, want)
                assert same_bits(got, x - q @ want)
                assert got.flags.f_contiguous
                # each entry of s is a length-n inner product
                bound = 2.0 * n * UNIT_ROUNDOFF * (q_abs.T @ np.abs(x))
                assert np.all(np.abs(s - q.T @ x) <= bound)

    def test_empty_basis_returns_x(self):
        x = np.array([[1.5, -0.0], [np.inf, 2.0]])
        s, got = project_out(np.zeros((2, 0), order="F"), x)
        assert s.shape == (0, 2)
        assert same_bits(got, x)

    def test_middle_factor(self):
        g = rng(3)
        y = np.asfortranarray(g.standard_normal((50, 6)))
        t = np.triu(g.standard_normal((6, 6)))
        c = np.asfortranarray(g.standard_normal((50, 3)))
        s, got = project_out(y, c, t.T)
        assert same_bits(s, t.T @ (y.T @ c))
        assert same_bits(got, c - y @ (t.T @ (y.T @ c)))

    @pytest.mark.parametrize("order", "CF")
    def test_in_place_keeps_the_layout(self, order):
        g = rng(4)
        q = np.asfortranarray(g.standard_normal((40, 5)))
        x = np.array(g.standard_normal((40, 3)), order=order)
        expect = x - q @ (q.T @ x)
        _, got = project_out(q, x, out=x)
        assert got is x
        assert same_bits(x, expect)
        assert x.flags.c_contiguous == (order == "C")
