from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

import sstep_gmres.solver as solver_module
from sstep_gmres import dense
from sstep_gmres.dense import (
    UNIT_ROUNDOFF,
    GivensRotation,
    JacobiConvergenceError,
    compute_givens,
    cond2,
    householder_qr,
    jacobi_svd_values,
    _round_robin_schedule,
)
from sstep_gmres.solver import SolverConfig, solve
from sstep_gmres.sparse import RandSvdSpec, gen_randsvd

from helpers import matrix_with_cond, rng


def bidiagonal_svd_oracle(m):
    """Independent reference path: LAPACK bidiagonalization + QR iteration."""
    return scipy.linalg.svd(m, compute_uv=False, lapack_driver="gesvd")


class TestHouseholderQr:
    def test_single_column(self):
        q, r, deficient = householder_qr(np.array([[3.0], [4.0]]))
        assert_allclose(r, [[5.0]], rtol=1e-15)
        assert_allclose(q, [[0.6], [0.8]], rtol=1e-15)
        assert deficient is None

    def test_identity(self):
        q, r, deficient = householder_qr(np.eye(3))
        assert_allclose(q, np.eye(3), atol=1e-15)
        assert_allclose(r, np.eye(3), atol=1e-15)
        assert deficient is None

    def test_seeded_gaussian_orthonormality_and_residual(self):
        m = rng(7).standard_normal((200, 20))
        q, r, deficient = householder_qr(m)
        assert deficient is None
        assert np.linalg.norm(q.T @ q - np.eye(20)) <= 1e-14
        assert np.linalg.norm(q @ r - m) <= 1e-14 * np.linalg.norm(m)

    def test_r_diagonal_nonnegative_and_triangular(self):
        for seed in range(8):
            m = rng(seed).standard_normal((30, 12))
            _, r, _ = householder_qr(m)
            assert np.all(np.diag(r) >= 0.0)
            assert_allclose(r, np.triu(r), atol=0.0)

    def test_rank_deficient_duplicate_column(self):
        v = rng(3).standard_normal((40, 1))
        m = np.hstack([v, v])
        q, r, deficient = householder_qr(m)
        assert deficient == 1
        # Factorization still reproduces the input.
        assert np.linalg.norm(q @ r - m) <= 1e-13 * np.linalg.norm(m)

    def test_deficiency_scale_override(self):
        # A column of size ~1e-12 is deficient only against a large scale.
        m = np.diag([1.0, 1e-12])
        assert householder_qr(m).deficient_col is None
        assert householder_qr(m, deficiency_scale=1e6).deficient_col == 1

    def test_orthonormality_well_conditioned_batch(self):
        # cond2 <= 1e8, shapes up to 1000 x 100
        shapes = [(60, 6), (300, 40), (1000, 100)]
        for i, (rows, cols) in enumerate(shapes):
            m = matrix_with_cond(rows, cols, 1e8, seed=100 + i)
            q, r, _ = householder_qr(m)
            assert np.linalg.norm(q.T @ q - np.eye(cols)) <= 1e-13
            assert np.linalg.norm(q @ r - m) <= 1e-13 * np.linalg.norm(m)

    def test_zero_width(self):
        q, r, deficient = householder_qr(np.zeros((5, 0)))
        assert q.shape == (5, 0) and r.shape == (0, 0) and deficient is None

    def test_wide_input_rejected(self):
        with pytest.raises(ValueError):
            householder_qr(np.ones((2, 3)))


def _graded_columns(rows, norms, seed):
    """Columns with prescribed pivots: Q_0 times an upper triangle whose
    diagonal is ``norms`` and whose strict upper part is O(1)."""
    g = rng(seed)
    q0, _ = np.linalg.qr(g.standard_normal((rows, len(norms))))
    t = np.triu(g.standard_normal((len(norms), len(norms))), 1)
    t[np.diag_indices(len(norms))] = norms
    return q0 @ t


class TestHouseholderQrContract:
    """householder_qr against scipy.linalg.qr as an independent oracle."""

    def test_pivot_magnitudes_agree_with_oracle(self):
        for seed in range(6):
            g = rng(40 + seed)
            m = g.standard_normal((120, 8)) * np.geomspace(1.0, 1e-6, 8)
            _, r, _ = householder_qr(m)
            r_ref = scipy.linalg.qr(m, mode="economic")[1]
            diff = np.abs(np.diag(r)) - np.abs(np.diag(r_ref))
            assert np.max(np.abs(diff)) <= 8.0 * UNIT_ROUNDOFF * np.linalg.norm(m)

    def test_zero_column_in_middle_of_block(self):
        m = rng(5).standard_normal((64, 5))
        m[:, 2] = 0.0
        q, r, deficient = householder_qr(m)
        assert deficient == 2
        assert r[2, 2] == 0.0
        assert np.linalg.norm(q.T @ q - np.eye(5)) <= 1e-14
        assert np.linalg.norm(q @ r - m) <= 1e-14 * np.linalg.norm(m)

    @pytest.mark.parametrize(
        "norms,first",
        [
            ([1.0, 0.5, 1e-19, 1.0, 1e-19], 2),
            ([1.0, 1e-19, 1.0, 1e-19, 1.0], 1),
            ([1.0, 1.0, 1.0, 1.0, 1e-19], 4),
            ([1.0, 1e-12, 1.0, 1e-11, 1.0], None),
        ],
    )
    def test_first_pivot_at_or_below_threshold(self, norms, first):
        m = _graded_columns(40, norms, seed=11)
        threshold = 4.0 * np.sqrt(m.shape[0]) * UNIT_ROUNDOFF * np.linalg.norm(m)
        pivots = np.abs(np.diag(scipy.linalg.qr(m, mode="economic")[1]))
        # the graded pivots sit far from the threshold on either side
        assert np.all((pivots <= threshold / 10.0) | (pivots >= 10.0 * threshold))
        dead = np.flatnonzero(pivots <= threshold)
        assert (int(dead[0]) if dead.size else None) == first
        assert householder_qr(m).deficient_col == first


class TestRoundRobinSchedule:
    @pytest.mark.parametrize("k", [2, 3, 4, 7, 10, 31])
    def test_rounds_are_disjoint_and_cover_each_pair_once(self, k):
        ip, iq = _round_robin_schedule(k)
        assert ip.shape == iq.shape == (k - 1 + k % 2, k // 2)
        assert not ip.flags.writeable and not iq.flags.writeable
        pairs = []
        for p, q in zip(ip, iq):
            assert len(set(p) | set(q)) == 2 * len(p)
            pairs += [tuple(sorted(pq)) for pq in zip(p.tolist(), q.tolist())]
        assert sorted(pairs) == [(a, b) for a in range(k) for b in range(a + 1, k)]


class TestGivens:
    def test_three_four(self):
        g = compute_givens(3.0, 4.0)
        a, b = g.apply(3.0, 4.0)
        assert_allclose(a, 5.0, rtol=1e-15)
        assert abs(b) <= 4 * np.spacing(5.0)

    def test_zero_against_one(self):
        g = compute_givens(0.0, 1.0)
        assert g.c == 0.0 and g.s == 1.0

    def test_both_zero_identity(self):
        g = compute_givens(0.0, 0.0)
        assert g.c == 1.0 and g.s == 0.0

    def test_first_entry_nonnegative(self):
        for a, b in [(-3.0, 4.0), (-1.0, 0.0), (2.0, -5.0), (-2e-3, -7.0)]:
            g = compute_givens(a, b)
            ra, rb = g.apply(a, b)
            assert ra >= 0.0
            assert abs(rb) <= 4 * np.spacing(max(ra, 1.0))

    @given(
        st.floats(-1e150, 1e150, allow_nan=False),
        st.floats(-1e150, 1e150, allow_nan=False),
    )
    def test_norm_preserved_within_4_ulps(self, a, b):
        g = compute_givens(a, b)
        ra, rb = g.apply(a, b)
        before = np.hypot(a, b)
        after = np.hypot(ra, rb)
        assert abs(after - before) <= 4 * np.spacing(max(before, np.finfo(float).tiny))

    def test_chain_preserves_vector_norm(self):
        x = rng(11).standard_normal(50)
        nrm = np.linalg.norm(x)
        y = x.copy()
        for i in range(49):
            g = compute_givens(y[i], y[i + 1], row=i)
            y[i], y[i + 1] = g.apply(y[i], y[i + 1])
        assert abs(np.linalg.norm(y) - nrm) <= 50 * np.spacing(nrm)
        assert isinstance(compute_givens(1.0, 2.0, row=3), GivensRotation)


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

    def test_convergence_error_carries_values(self):
        m = rng(1).standard_normal((12, 12))
        with pytest.raises(JacobiConvergenceError) as info:
            jacobi_svd_values(m, max_sweeps=0)
        assert info.value.values.shape == (12,)


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

    def test_rank_loss_settled_by_pivoted_r(self, monkeypatch):
        monkeypatch.setattr(dense, "_jacobi_sweeps", _raise)
        g = rng(5)
        v = g.standard_normal((30, 1))
        lost = np.hstack([g.standard_normal((30, 3)), v, 3.0 * v, g.standard_normal((30, 2))])
        assert cond2(lost) == np.inf
        assert cond2(lost.T) == np.inf
        # full rank, however ill conditioned, is measured from the pivoted
        # R and its inverse, without Jacobi
        m = matrix_with_cond(40, 6, 1e12, seed=6)
        assert_reaches_pivoted_r(m)
        assert abs(cond2(m) / 1e12 - 1.0) <= 1e-3

    def test_prescribed_condition(self):
        m = matrix_with_cond(60, 10, 1e6, seed=21)
        assert abs(cond2(m) / 1e6 - 1.0) <= 1e-6


class TestCond2GramPath:
    """Near-orthonormal input, ||I - A^T A||_2 <= 1/2, is measured from
    the eigenvalues of I - A^T A and never reaches the pivoted R."""

    def test_orthonormal_plus_noise_skips_the_jacobi_path(self, monkeypatch):
        g = rng(50)
        q, _ = np.linalg.qr(g.standard_normal((300, 150)))
        m = q + 1e-8 * g.standard_normal((300, 150))
        want = jacobi_cond(m)
        monkeypatch.setattr(dense, "_qrcp_r", _raise)
        monkeypatch.setattr(dense, "_jacobi_sweeps", _raise)
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
        with mock.patch.object(dense, "_qrcp_r", _raise), \
                mock.patch.object(dense, "_jacobi_sweeps", _raise):
            got = cond2(m)
        assert abs(got / want - 1.0) <= 8 * (rows + cols) * UNIT_ROUNDOFF

    def test_large_gram_entries_reach_pivoted_r(self, monkeypatch):
        # 2Q: I - A^T A = -3I fails the entry test
        q, _ = np.linalg.qr(rng(51).standard_normal((40, 6)))
        assert_reaches_pivoted_r(2.0 * q)
        monkeypatch.setattr(dense, "_jacobi_sweeps", _raise)
        assert abs(cond2(2.0 * q) - 1.0) <= 1e-14

    def test_small_entries_large_norm_reach_pivoted_r(self, monkeypatch):
        # A^T A = I - 0.6 * ones/6: every entry of I - A^T A is 0.1, yet
        # its 2-norm is 0.6, so the eigenvalue test sends it on
        k = 6
        gram = np.eye(k) - 0.6 * np.ones((k, k)) / k
        q, _ = np.linalg.qr(rng(52).standard_normal((40, k)))
        m = q @ np.linalg.cholesky(gram).T
        assert_reaches_pivoted_r(m)
        monkeypatch.setattr(dense, "_jacobi_sweeps", _raise)
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
    """Input off the Gram path is measured as ||R||_2 ||R^{-1}||_2 of its
    pivoted R factor; one-sided Jacobi is the independent oracle."""

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
        with mock.patch.object(dense, "_jacobi_sweeps", _raise):
            got = cond2(m)
        assert_agrees_with_jacobi(m, got)

    @pytest.mark.parametrize("n, finite", [(60, True), (90, False)])
    def test_kahan_matrix(self, n, finite):
        m = kahan(n)
        with mock.patch.object(dense, "_jacobi_sweeps", _raise):
            got = cond2(m)
        assert np.isfinite(got) == finite
        assert_agrees_with_jacobi(m, got)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_inverse_is_inf(self, monkeypatch):
        # unit diagonal passes the diagonal test; R^{-1} has entries
        # (1 + 1e10)^(j - i - 1), past the float range beyond j - i = 31
        k = 40
        r = np.eye(k) - 1e10 * np.triu(np.ones((k, k)), 1)
        monkeypatch.setattr(dense, "_qrcp_r", lambda a: r)
        assert cond2(rng(55).standard_normal((50, k))) == np.inf

    def test_classical_solve_records_agree_with_jacobi(self, monkeypatch):
        # criterion 7' matrix: the classical candidates reach cond > 1e7
        a, _, _ = gen_randsvd(RandSvdSpec(n=200, kappa=1e10, mode=5, seed=1))
        measure = solver_module.basis_condition_numbers
        slices = []

        def capture(state, valid_cols=None):
            inner = state.inner_cols if valid_cols is None else valid_cols
            start = state.inner_cols - state.vr.block_widths[-1]
            b = state.b_concat
            slices.append((b[:, :inner].copy(), b[:, start:inner].copy()))
            return measure(state, valid_cols)

        monkeypatch.setattr(solver_module, "basis_condition_numbers", capture)
        monkeypatch.setattr(dense, "_jacobi_sweeps", _raise)
        cfg = SolverConfig(s=16, arnoldi="classical", diag_every=1)
        res = solve(a, np.ones(200), config=cfg)
        monkeypatch.undo()
        assert len(slices) == len(res.records)
        assert max(rec.cond_B_tilde for rec in res.records) > 1e7
        for rec, (b, sub) in zip(res.records, slices):
            assert_agrees_with_jacobi(b, rec.cond_B_tilde)
            assert_agrees_with_jacobi(sub, rec.cond_B_subblock)
