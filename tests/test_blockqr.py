"""Tests for incremental block QR with both orthogonalization schemes."""

import numpy as np
import pytest

from sstep_gmres.blockqr import QrState, bcgsi_plus_step, bmgs_step

from helpers import loss_of_orthogonality, matrix_with_cond, max_principal_angle, rng


def run_blocks(step, x, widths):
    state = QrState(x.shape[0], x.shape[1])
    lo = 0
    for w in widths:
        step(state, x[:, lo : lo + w])
        lo += w
    assert lo == x.shape[1]
    assert state.block_widths == list(widths)
    return state


def split_widths(total, w):
    widths = [w] * (total // w)
    if total % w:
        widths.append(total % w)
    return widths


class TestBcgsiPlus:
    def test_factorization_reproduces_input(self):
        x = matrix_with_cond(100, 24, 1e4, seed=1)
        state = run_blocks(bcgsi_plus_step, x, split_widths(24, 5))
        recon = state.q_active @ state.r_active
        np.testing.assert_allclose(recon, x, atol=1e-13 * np.linalg.norm(x))

    def test_orthogonality_near_roundoff_on_hard_blocks(self):
        # ill-conditioned tall blocks, several widths
        for seed, (rows, cols, cond, w) in enumerate(
            [
                (200, 30, 1e8, 5),
                (500, 60, 1e8, 10),
                (120, 24, 1e6, 2),
                (80, 16, 1e8, 1),
            ]
        ):
            x = matrix_with_cond(rows, cols, cond, seed=50 + seed)
            state = run_blocks(bcgsi_plus_step, x, split_widths(cols, w))
            assert loss_of_orthogonality(state.q_active) <= 1e-12
            for j in range(cols):
                resid = np.linalg.norm(
                    x[:, j] - state.q_active @ state.r_active[:, j]
                )
                assert resid <= 1e-12 * np.linalg.norm(x[:, j])

    def test_triangular_factor_is_upper(self):
        x = matrix_with_cond(60, 18, 1e3, seed=3)
        state = run_blocks(bcgsi_plus_step, x, [6, 6, 6])
        np.testing.assert_array_equal(
            np.tril(state.r_active, -1), np.zeros((18, 18))
        )

    def test_deficient_block_is_flagged(self):
        g = rng(7)
        x = g.standard_normal((50, 4))
        x[:, 3] = x[:, 1]  # dependent within the appended set
        state = QrState(50, 8)
        bcgsi_plus_step(state, x[:, :2])
        bcgsi_plus_step(state, x[:, 2:])
        # the dependent column shows as a negligible R diagonal entry
        diag = np.abs(np.diag(state.r_active))
        assert diag[3] <= 1e-13 * np.linalg.norm(x)
        assert diag[:3].min() >= 0.1
        # basis stays orthonormal even through the deficiency
        assert loss_of_orthogonality(state.q_active) <= 1e-13

    def test_column_already_in_span_is_flagged(self):
        g = rng(8)
        base = g.standard_normal((40, 3))
        state = QrState(40, 6)
        bcgsi_plus_step(state, base)
        new = np.column_stack([base @ np.array([1.0, -2.0, 0.5]), g.standard_normal(40)])
        bcgsi_plus_step(state, new)
        assert abs(state.r[3, 3]) <= 1e-12 * np.linalg.norm(new)
        assert abs(state.r[4, 4]) >= 0.1


class TestBmgs:
    def test_factorization_and_modest_loss(self):
        x = matrix_with_cond(200, 30, 1e2, seed=11)
        state = run_blocks(bmgs_step, x, split_widths(30, 5))
        assert loss_of_orthogonality(state.q_active) <= 1e-13
        recon = state.q_active @ state.r_active
        np.testing.assert_allclose(recon, x, atol=1e-13 * np.linalg.norm(x))

    def test_loss_scales_with_condition_number(self):
        x = matrix_with_cond(200, 30, 1e8, seed=12)
        state = run_blocks(bmgs_step, x, split_widths(30, 5))
        assert loss_of_orthogonality(state.q_active) <= 1e-10 * 1e8

    def test_spans_agree_with_bcgsi_plus(self):
        for seed in range(5):
            x = matrix_with_cond(80, 20, 1e4, seed=100 + seed)
            s1 = run_blocks(bcgsi_plus_step, x, split_widths(20, 4))
            s2 = run_blocks(bmgs_step, x, split_widths(20, 4))
            assert max_principal_angle(s1.q_active, s2.q_active) <= 1e-10


class TestQrState:
    def test_capacity_and_width_validation(self):
        state = QrState(10, 4)
        bcgsi_plus_step(state, rng(1).standard_normal((10, 3)))
        with pytest.raises(ValueError, match="exceeds capacity"):
            bcgsi_plus_step(state, rng(2).standard_normal((10, 2)))
        with pytest.raises(ValueError, match="at least one column"):
            bcgsi_plus_step(state, np.zeros((10, 0)))
        with pytest.raises(ValueError, match="max_cols"):
            QrState(3, 0)

    def test_vector_append_and_block_widths(self):
        state = QrState(20, 5)
        bcgsi_plus_step(state, rng(3).standard_normal(20))
        bcgsi_plus_step(state, rng(4).standard_normal((20, 4)))
        assert state.block_widths == [1, 4]
        assert state.ncols == 5

    def test_determinism(self):
        x = matrix_with_cond(100, 20, 1e5, seed=9)
        a = run_blocks(bcgsi_plus_step, x, split_widths(20, 5))
        b = run_blocks(bcgsi_plus_step, x, split_widths(20, 5))
        np.testing.assert_array_equal(a.q_active, b.q_active)
        np.testing.assert_array_equal(a.r_active, b.r_active)

    @pytest.mark.parametrize("step", [bcgsi_plus_step, bmgs_step])
    def test_reset_state_matches_a_fresh_one(self, step):
        # one wide block, then narrow ones: the sign flips of the wide
        # block's QR leave -0.0 below R's diagonal (bmgs commits that R
        # as it is; bcgsi+'s product of two R factors writes +0.0
        # there), and the reset keeps them; each narrow commit's +0.0
        # below its own diagonal block gives a fresh state's bits
        state = QrState(30, 8)
        step(state, rng(5).standard_normal((30, 8)))
        state.reset()
        assert (state.ncols, state.block_widths) == (0, [])
        fresh = QrState(30, 8)
        x = rng(6).standard_normal((30, 8))
        for target in (state, fresh):
            for lo in range(0, 8, 2):
                step(target, x[:, lo : lo + 2])
        assert state.block_widths == fresh.block_widths == [2, 2, 2, 2]
        assert state.q_active.tobytes() == fresh.q_active.tobytes()
        assert state.r_active.tobytes() == fresh.r_active.tobytes()

    def test_loss_of_orthogonality_empty(self):
        assert loss_of_orthogonality(np.zeros((5, 0))) == 0.0

    @pytest.mark.parametrize(
        "step,cond", [(bcgsi_plus_step, 1e2), (bmgs_step, 1e6), (bmgs_step, 1e12)]
    )
    def test_loss_of_orthogonality_is_the_spectral_norm(self, step, cond):
        x = matrix_with_cond(120, 24, cond, seed=10)
        q = run_blocks(step, x, split_widths(24, 6)).q_active
        want = np.linalg.norm(np.eye(24) - q.T @ q, 2)
        assert abs(loss_of_orthogonality(q) - want) <= 1e-12 * want
