"""Tests for the s-step GMRES driver: least squares core, stopping
statuses, restarts, preconditioning, and determinism."""

import functools
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.sparse.linalg import gmres as scipy_gmres

import sstep_gmres.arnoldi as arnoldi_module
import sstep_gmres.solver as solver_module
from sstep_gmres.arnoldi import ArnoldiState
from sstep_gmres.diagnostics import csv_text
from sstep_gmres.dense import UNIT_ROUNDOFF, compute_givens
from sstep_gmres.solver import (
    ARNOLDI_CHOICES,
    BASIS_CHOICES,
    SolveResult,
    SolverConfig,
    backward_error,
    solve,
)
from sstep_gmres.solver import _LeastSquares
from sstep_gmres.sparse import (
    Preconditioner,
    RandSvdSpec,
    csr_from_coo,
    csr_from_dense,
    gen_randsvd,
    jacobi_preconditioner,
    spmv,
)

from helpers import (
    clustered_spectrum_matrix,
    matrix_with_cond,
    rng,
    scale_probe_system,
    stencil_coo,
)


def random_hessenberg_ls(p, seed, beta=1.0):
    """Feed a random (p+1) x p Hessenberg column set through Givens."""
    g = rng(seed)
    h = np.triu(g.standard_normal((p + 1, p)), -1)
    h[np.arange(1, p + 1), np.arange(p)] += 3.0  # keep it well conditioned
    ls = _LeastSquares(p, beta)
    for c in range(p):
        ls.absorb_columns(h[: c + 2, c : c + 1])
    return h, ls


class TestLeastSquares:
    def test_matches_normal_equations_oracle(self):
        # oracle: y solves (H^T H) y = H^T (beta e1) assembled densely
        for seed in range(12):
            p = 3 + (seed % 9) * 6  # up to 57 columns
            beta = 0.5 + seed
            h, ls = random_hessenberg_ls(p, 700 + seed, beta)
            rhs = np.zeros(p + 1)
            rhs[0] = beta
            y_oracle = np.linalg.solve(h.T @ h, h.T @ rhs)
            y = ls.coefficients()
            assert np.linalg.norm(y - y_oracle) <= 1e-10 * np.linalg.norm(y_oracle)

    def test_residual_estimate_is_exact_ls_residual(self):
        h, ls = random_hessenberg_ls(12, 31, beta=2.0)
        rhs = np.zeros(13)
        rhs[0] = 2.0
        resid = np.linalg.norm(rhs - h @ ls.coefficients())
        assert ls.residual_estimate == pytest.approx(resid, rel=1e-12)

    def test_estimates_never_increase(self):
        h, ls2 = random_hessenberg_ls(1, 41)
        g = rng(42)
        p = 20
        h = np.triu(g.standard_normal((p + 1, p)), -1)
        ls = _LeastSquares(p, 1.0)
        last = 1.0
        for c in range(p):
            ls.absorb_columns(h[: c + 2, c : c + 1])
            assert ls.residual_estimate <= last + 1e-15
            last = ls.residual_estimate

    def test_zero_columns_give_zero_solution(self):
        ls = _LeastSquares(3, 5.0)
        assert ls.coefficients().size == 0

    def test_block_absorption_matches_scalar_rotations_bitwise(self):
        # reference: every column rotated entry pair by entry pair as it
        # arrives, the fresh rotation last
        p = 23
        g = rng(51)
        h = np.triu(g.standard_normal((p + 1, p)), -1)
        t_ref = np.zeros((p + 1, p))
        g_ref = np.zeros(p + 1)
        g_ref[0] = 1.5
        rotations = []

        def rotate(rot, pair):
            (c, s), (a, b) = rot, pair
            return c * a + s * b, -s * a + c * b

        for c in range(p):
            col = np.zeros(p + 1)
            col[: c + 2] = h[: c + 2, c]
            # rotation i acts on rows i and i + 1
            for i, rot in enumerate(rotations):
                col[i], col[i + 1] = rotate(rot, col[i : i + 2])
            rot = compute_givens(col[c], col[c + 1])
            col[c], col[c + 1] = rotate(rot, col[c : c + 2])
            col[c + 1] = 0.0
            rotations.append(rot)
            t_ref[:, c] = col
            g_ref[c], g_ref[c + 1] = rotate(rot, g_ref[c : c + 2])
        # blocks of uneven widths, each handed over as a slice of H whose
        # rows below the Hessenberg band must be ignored
        full = h + np.tril(g.standard_normal((p + 1, p)), -2)
        ls = _LeastSquares(p, 1.5)
        for lo, hi in ((0, 1), (1, 5), (5, 6), (6, 13), (13, 23)):
            ls.absorb_columns(full[: hi + 1, lo:hi])
        assert ls.ncols == p
        assert ls.t.tobytes() == np.asfortranarray(t_ref).tobytes()
        assert ls.g.tobytes() == g_ref.tobytes()


def assert_same_run(res, ref):
    assert (res.status, res.inner_iterations) == (ref.status, ref.inner_iterations)


class TestSolveBasics:
    def test_identity_converges_in_one_inner_step(self):
        n = 12
        b = rng(1).standard_normal(n)
        res = solve(np.eye(n), b, config=SolverConfig(s=1))
        assert res.status == "breakdown_converged"
        assert res.inner_iterations == 1
        # x = (b / ||b||) * y round trips through two roundings per entry
        np.testing.assert_allclose(res.x, b, rtol=1e-14)

    def test_diagonal_system(self):
        n = 20
        a = np.diag(np.linspace(1.0, 4.0, n))
        b = rng(2).standard_normal(n)
        res = solve(a, b)
        assert res.converged
        np.testing.assert_allclose(a @ res.x, b, atol=1e-12 * np.linalg.norm(b))

    def test_general_dense_and_csr_agree(self):
        a = clustered_spectrum_matrix(40, 0.3, seed=3)
        b = rng(4).standard_normal(40)
        cfg = SolverConfig(s=3)
        dense = solve(a, b, config=cfg)
        sparse = solve(csr_from_dense(a), b, config=cfg)
        assert dense.converged and sparse.converged
        # summation order differs between BLAS and the CSR kernel, so the
        # trajectories match only to solver accuracy, not bitwise
        diff = np.linalg.norm(dense.x - sparse.x)
        assert diff <= 1e-10 * np.linalg.norm(dense.x)

    def test_zero_initial_residual(self):
        a = matrix_with_cond(10, 10, 10.0, seed=5)
        xs = rng(6).standard_normal(10)
        res = solve(a, a @ xs, x0=xs)
        assert res.status == "converged_backward"
        assert res.block_steps == 0
        np.testing.assert_array_equal(res.x, xs)
        # x0 is copied: the result never aliases the caller's array
        assert not np.shares_memory(res.x, xs)

    def test_zero_right_hand_side_has_zero_backward_error(self):
        # ||A|| ||x|| + ||b|| is 0 at x = 0
        res = solve(np.eye(4), np.zeros(4))
        assert res.status == "converged_backward" and res.block_steps == 0
        assert res.backward_error == 0.0

    def test_zero_denominator_with_a_residual_is_infinite(self):
        shifted = lambda v: v + 1.0
        assert backward_error(shifted, 0.0, np.zeros(3), np.zeros(3)) == np.inf

    def test_backward_error_matches_reported(self):
        a = matrix_with_cond(25, 25, 1e2, seed=7)
        b = rng(8).standard_normal(25)
        res = solve(a, b, config=SolverConfig(s=2))
        check = backward_error(
            lambda v: a @ v, float(np.linalg.norm(a)), b, res.x
        )
        assert res.backward_error == pytest.approx(check, rel=1e-12)
        assert res.backward_error <= 25 * UNIT_ROUNDOFF

    def test_s_step_matches_standard_quality(self):
        a = clustered_spectrum_matrix(40, 0.3, seed=9)
        b = rng(10).standard_normal(40)
        r1 = solve(a, b, config=SolverConfig(s=1))
        r4 = solve(a, b, config=SolverConfig(s=4))
        assert r1.converged and r4.converged
        assert r4.backward_error <= 10 * max(r1.backward_error, 40 * UNIT_ROUNDOFF)

    def test_breakdown_when_rhs_spans_few_modes(self):
        # b touches three eigenvectors, so the Krylov space closes at
        # step 3 and the rank test fires with the residual already dead
        n = 10
        a = np.diag(np.arange(1.0, n + 1.0))
        b = np.zeros(n)
        b[:3] = [1.0, -2.0, 0.5]
        res = solve(a, b, config=SolverConfig(s=1))
        assert res.status == "breakdown_converged"
        assert res.inner_iterations == 3
        np.testing.assert_allclose(a @ res.x, b, atol=1e-13)

    def test_key_dimension_reached_on_inconsistent_invariant_subspace(self):
        # Krylov space closes after two steps but cannot represent b
        a = np.diag([1.0, 1.0, 0.0])
        b = np.array([1.0, 1.0, 1.0])
        res = solve(a, b, config=SolverConfig(s=1))
        assert res.status == "key_dimension_reached"
        assert not res.converged
        assert res.backward_error > 0.1

    def test_validation_errors(self):
        a = np.eye(4)
        b = np.ones(4)
        with pytest.raises(ValueError, match="wrong shape"):
            solve(a, np.ones(5))
        with pytest.raises(ValueError, match="cannot exceed"):
            solve(a, b, config=SolverConfig(s=5))
        with pytest.raises(ValueError, match="cannot exceed"):
            solve(a, b, config=SolverConfig(restart=9))
        with pytest.raises(ValueError, match="must be square"):
            solve(np.ones((3, 4)), np.ones(3))
        with pytest.raises(ValueError, match="basis must be"):
            SolverConfig(basis="legendre")
        with pytest.raises(ValueError, match="at least 1"):
            SolverConfig(s=0)

    @pytest.mark.parametrize(
        "name,value",
        [("s", 2.5), ("s", True), ("s", 2.0), ("restart", 7.5), ("restart", False),
         ("max_outer", 2.5), ("diag_every", 1.5), ("diag_every", "2")],
    )
    def test_counts_must_be_integers(self, name, value):
        # a float cap would never equal the step count, a float grid
        # measures steps off the multiples, and bool is no count
        with pytest.raises(ValueError, match="%s must be an integer" % name):
            SolverConfig(**{name: value})

    @pytest.mark.parametrize("name", ["arnoldi", "orth", "basis_operator"])
    def test_choice_fields_reject_other_values(self, name):
        with pytest.raises(ValueError, match="%s must be one of" % name):
            SolverConfig(**{name: "other"})

    @pytest.mark.parametrize("name", ["tol", "tol_h"])
    @pytest.mark.parametrize("value", [np.inf, np.nan, -1e-8, 0.0])
    def test_tolerances_must_be_finite_and_positive(self, name, value):
        with pytest.raises(ValueError, match="%s must be finite and positive" % name):
            SolverConfig(**{name: value})

    @pytest.mark.parametrize("name", ["tol", "tol_h"])
    @pytest.mark.parametrize("value", ["1e-8", [1e-8], True])
    def test_tolerances_must_be_real_numbers(self, name, value):
        with pytest.raises(ValueError, match="%s must be a real number" % name):
            SolverConfig(**{name: value})

    def test_numpy_integer_counts_accepted(self):
        a = matrix_with_cond(24, 24, 1e2, seed=27)
        b = rng(28).standard_normal(24)
        plain = solve(a, b, config=SolverConfig(s=3, restart=12, max_outer=2, diag_every=2))
        numpy_ints = SolverConfig(
            s=np.int64(3), restart=np.int32(12), max_outer=np.int16(2),
            diag_every=np.uint8(2),
        )
        res = solve(a, b, config=numpy_ints)
        assert res.x.tobytes() == plain.x.tobytes()
        assert csv_text(res.records) == csv_text(plain.records)

    @pytest.mark.parametrize("length", [1, 4])
    def test_jacobi_preconditioner_length_must_match(self, length):
        prec = Preconditioner(np.full(length, 2.0))
        with pytest.raises(ValueError, match=r"\(%d,\).*n=6" % length):
            solve(np.eye(6), np.ones(6), preconditioner=prec)

    @pytest.mark.parametrize(
        "bad", [np.ones(6), "jacobi", 2.0, np.diag(np.ones(6))],
        ids=["ndarray", "str", "float", "matrix"],
    )
    def test_preconditioner_of_another_type_rejected(self, bad):
        with pytest.raises(ValueError, match="preconditioner must be None or a Preconditioner"):
            solve(np.eye(6), np.ones(6), preconditioner=bad)

    @pytest.mark.parametrize(
        "bad", ["classical", {"s": 2}, {}, 0, SolverConfig],
        ids=["str", "dict", "empty-dict", "zero", "class"],
    )
    def test_config_of_another_type_rejected(self, bad):
        with pytest.raises(ValueError, match="config must be a SolverConfig"):
            solve(np.eye(6), np.ones(6), config=bad)

    @pytest.mark.parametrize("which", ["a", "b", "x0"])
    def test_complex_input_rejected(self, which):
        args = {"a": np.eye(3), "b": np.ones(3), "x0": np.zeros(3)}
        args[which] = args[which] + 0.5j
        with pytest.raises(ValueError, match="must be real"):
            solve(args["a"], args["b"], x0=args["x0"])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_x0_rejected_up_front(self, bad):
        with pytest.raises(ValueError, match="x0 must be finite"):
            solve(np.eye(3), np.ones(3), x0=np.array([0.0, bad, 0.0]))

    def test_nonfinite_data_rejected_or_aborts(self):
        a = np.diag([1e200, 1.0])
        b = np.ones(2)
        with np.errstate(over="ignore"):
            with pytest.raises(ArithmeticError, match="non-finite"):
                solve(a, b, x0=np.array([1e200, 0.0]))
        with pytest.raises(ValueError, match="finite"):
            solve(np.array([[np.nan, 0.0], [0.0, 1.0]]), b)

    def test_overflowing_operator_image_raises(self):
        # A times the unit start vector ones / 2 overflows, so the first
        # basis column's image is inf; the run must raise rather than
        # report a status
        a = np.full((4, 4), 1.5e308)
        np.fill_diagonal(a, 1.7e308)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ArithmeticError, match="non-finite"):
                solve(a, np.ones(4))

    @pytest.mark.parametrize("scale", [1e160, 1e300])
    def test_huge_system_solves_like_the_unscaled_one(self, scale):
        # the squares behind ||A||_F, ||x|| and ||A x - b|| overflow;
        # the norms themselves do not, so neither does the backward error
        a, b = scale_probe_system()
        ref = solve(a, b)
        assert ref.status == "converged_backward"
        assert ref.backward_error <= 50 * UNIT_ROUNDOFF
        res = solve(scale * a, scale * b)
        assert_same_run(res, ref)
        assert np.linalg.norm(res.x - ref.x) <= 50 * UNIT_ROUNDOFF * np.linalg.norm(ref.x)

    @pytest.mark.parametrize(
        "config",
        [SolverConfig(), SolverConfig(s=4, basis="newton"), SolverConfig(s=4, basis="chebyshev")],
        ids=["default", "newton", "chebyshev"],
    )
    def test_tiny_right_hand_side_solves_like_the_unscaled_one(self, config):
        # ||b 2^-600|| squares to below the smallest subnormal: a one-pass
        # norm of r reads 0, which stopped the run at x = 0 and made the
        # warm-up reject its start vector
        a, b = scale_probe_system()
        ref = solve(a, b, config=config)
        res = solve(a, np.ldexp(b, -600), config=config)
        assert_same_run(res, ref)
        assert np.ldexp(res.x, 600).tobytes() == ref.x.tobytes()
        assert res.backward_error == ref.backward_error

    def test_tiny_matrix_solves_like_the_unscaled_one(self):
        # x is about 1e160, so ||x||^2 overflows; a backward error that
        # took it so read 0 and stopped the run early, with x off by 1e-3
        a, b = scale_probe_system()
        config = SolverConfig(s=4)
        ref = solve(a, b, config=config)
        res = solve(1e-160 * a, b, config=config)
        assert_same_run(res, ref)
        x = 1e-160 * res.x
        assert np.linalg.norm(x - ref.x) <= 50 * UNIT_ROUNDOFF * np.linalg.norm(ref.x)


# the first k at which A 2^k would overflow the probe system's Newton
# shifts (Im(theta)^2) or Chebyshev ellipse (a^2 - b^2) if those squares
# were taken unscaled: past 2^512 they leave the float range
WARM_UP_OVERFLOW_K = {"newton": 515, "chebyshev": 514}


def probe_run(basis, arnoldi, storage="dense", a_exp=0, b_exp=0):
    """solve(A 2^a_exp, b 2^b_exp) on the scale probe system."""
    a, b = scale_probe_system()
    a = np.ldexp(a, a_exp)
    if storage == "csr":
        a = csr_from_dense(a)
    config = SolverConfig(s=4, basis=basis, arnoldi=arnoldi, restart=12)
    return solve(a, np.ldexp(b, b_exp), config=config)


@functools.lru_cache(maxsize=None)
def probe_reference(basis, arnoldi, storage="dense"):
    return probe_run(basis, arnoldi, storage)


class TestPowerOfTwoScaling:
    """Scaling A or b by 2^k is exact, so the run scales with it: the
    same status and inner iterations, and, while nothing it computes
    leaves the normal range, x scaled by 2^-k or 2^k to the bit and the
    same backward error."""

    @settings(max_examples=60)
    @given(
        k=st.integers(-1000, 1000),
        basis=st.sampled_from(BASIS_CHOICES),
        arnoldi=st.sampled_from(ARNOLDI_CHOICES),
        storage=st.sampled_from(["dense", "csr"]),
    )
    @example(k=-1000, basis="monomial", arnoldi="classical", storage="dense")
    @example(k=-900, basis="chebyshev", arnoldi="modified", storage="csr")
    @example(k=1000, basis="newton", arnoldi="classical", storage="dense")
    def test_scaling_b(self, k, basis, arnoldi, storage):
        ref = probe_reference(basis, arnoldi, storage)
        res = probe_run(basis, arnoldi, storage, b_exp=k)
        assert_same_run(res, ref)
        # below 2^-900 entries of x and of the update near 2^-1022 round
        # as subnormals
        if k >= -900:
            assert np.ldexp(res.x, -k).tobytes() == ref.x.tobytes()
            assert res.backward_error == ref.backward_error

    @settings(max_examples=60)
    @given(
        k=st.integers(-1000, 1000),
        basis=st.sampled_from(BASIS_CHOICES),
        arnoldi=st.sampled_from(ARNOLDI_CHOICES),
        storage=st.sampled_from(["dense", "csr"]),
    )
    def test_scaling_a(self, k, basis, arnoldi, storage):
        ref = probe_reference(basis, arnoldi, storage)
        res = probe_run(basis, arnoldi, storage, a_exp=k)
        assert_same_run(res, ref)
        # the Ritz values keep their bits only for even k well inside
        # [-459, 459]: LAPACK's dgeev rescales a Hessenberg matrix whose
        # largest entry lies outside about [2^-459, 2^459], and dlanv2
        # takes a conjugate pair's imaginary part as sqrt(|b|) sqrt(|c|),
        # which an odd power of two does not scale exactly
        if basis == "monomial" or (abs(k) <= 400 and k % 2 == 0):
            assert np.ldexp(res.x, k).tobytes() == ref.x.tobytes()
            assert res.backward_error == ref.backward_error

    @pytest.mark.parametrize(
        "basis, k",
        [
            (basis, k)
            for basis, first in sorted(WARM_UP_OVERFLOW_K.items())
            for k in (first,) + tuple(range(600, 1001, 100))
        ],
    )
    def test_scaling_a_past_the_warm_up_overflow(self, basis, k):
        ref = probe_reference(basis, "classical")
        assert_same_run(probe_run(basis, "classical", a_exp=k), ref)


class TestRestartsAndCaps:
    def test_restart_equal_to_n_matches_single_cycle(self):
        a = matrix_with_cond(20, 20, 1e2, seed=11)
        b = rng(12).standard_normal(20)
        plain = solve(a, b, config=SolverConfig(s=4))
        restarted = solve(a, b, config=SolverConfig(s=4, restart=20, max_outer=3))
        assert plain.status == restarted.status
        np.testing.assert_array_equal(plain.x, restarted.x)

    def test_restart_cycles_make_progress(self):
        a = clustered_spectrum_matrix(40, 0.4, seed=13)
        b = rng(14).standard_normal(40)
        res = solve(a, b, config=SolverConfig(s=2, restart=10, max_outer=40))
        assert res.converged
        assert res.cycles > 1
        cycles_seen = {r.restart_cycle for r in res.records}
        assert cycles_seen == set(range(1, res.cycles + 1))

    def test_max_outer_caps_block_steps_without_restart(self):
        a = matrix_with_cond(30, 30, 1e8, seed=15)
        b = rng(16).standard_normal(30)
        res = solve(a, b, config=SolverConfig(s=2, max_outer=3, tol=1e-30))
        assert res.status == "max_iters"
        assert res.block_steps == 3
        assert len(res.records) == 3
        assert res.records[-1].stop_reason == "max_iters"

    def test_max_outer_caps_cycles_with_restart(self):
        a = matrix_with_cond(30, 30, 1e8, seed=17)
        b = rng(18).standard_normal(30)
        res = solve(
            a, b, config=SolverConfig(s=2, restart=6, max_outer=4, tol=1e-30)
        )
        assert res.status == "max_iters"
        assert res.cycles == 4

    def test_restarted_solution_still_accurate(self):
        a = clustered_spectrum_matrix(50, 0.4, seed=19)
        b = rng(20).standard_normal(50)
        res = solve(a, b, config=SolverConfig(s=5, restart=15, max_outer=30))
        assert res.converged
        resid = np.linalg.norm(a @ res.x - b)
        assert resid <= 1e-10 * np.linalg.norm(b)


class TestVariantsAndPreconditioning:
    @pytest.mark.parametrize("arnoldi", ["classical", "modified"])
    @pytest.mark.parametrize("basis", ["monomial", "newton", "chebyshev"])
    def test_all_variant_combinations_converge(self, arnoldi, basis):
        a = clustered_spectrum_matrix(30, 0.3, seed=21)
        b = rng(22).standard_normal(30)
        cfg = SolverConfig(s=3, basis=basis, arnoldi=arnoldi)
        res = solve(a, b, config=cfg)
        assert res.converged, (arnoldi, basis, res.status)
        assert res.backward_error <= 30 * UNIT_ROUNDOFF

    @pytest.mark.parametrize("orth", ["bcgsi+", "bmgs"])
    def test_both_orthogonalizers(self, orth):
        a = clustered_spectrum_matrix(40, 0.3, seed=23)
        b = rng(24).standard_normal(40)
        res = solve(a, b, config=SolverConfig(s=5, orth=orth))
        assert res.converged

    def test_jacobi_preconditioning(self):
        g = rng(25)
        n = 40
        a = matrix_with_cond(n, n, 1e2, seed=25) + np.diag(g.uniform(5.0, 50.0, n))
        b = g.standard_normal(n)
        prec = jacobi_preconditioner(a)
        plain = solve(a, b, config=SolverConfig(s=2, max_outer=8, tol=1e-30))
        packed = solve(
            a, b, config=SolverConfig(s=2, max_outer=8, tol=1e-30),
            preconditioner=prec,
        )
        # both run the full budget; preconditioning must not hurt accuracy
        assert packed.backward_error <= 10 * max(plain.backward_error, 1e-15)
        full = solve(a, b, preconditioner=prec)
        assert full.converged
        assert np.linalg.norm(a @ full.x - b) <= 1e-10 * np.linalg.norm(b)

    def test_preconditioned_basis_operator(self):
        g = rng(26)
        n = 30
        a = matrix_with_cond(n, n, 1e2, seed=26) + np.diag(g.uniform(5.0, 50.0, n))
        b = g.standard_normal(n)
        prec = jacobi_preconditioner(a)
        res = solve(
            a,
            b,
            config=SolverConfig(s=3, basis_operator="preconditioned"),
            preconditioner=prec,
        )
        assert res.converged
        assert np.linalg.norm(a @ res.x - b) <= 1e-10 * np.linalg.norm(b)


class TestConditioningUnderStress:
    def run_case(self, n, kappa, mode, seed, s, basis="monomial"):
        a, _, _ = gen_randsvd(RandSvdSpec(n=n, kappa=kappa, mode=mode, seed=seed))
        cfg = SolverConfig(s=s, arnoldi="modified", basis=basis, diag_every=1)
        return solve(csr_from_dense(a), np.ones(n), config=cfg)

    def assert_bound(self, res, n, s):
        bound = 2.0 * np.sqrt(n) + np.sqrt(s)
        conds = [r.cond_B_tilde for r in res.records if not np.isnan(r.cond_B_tilde)]
        assert conds
        assert max(conds) <= bound

    def test_hard_spectrum_holds_bound_and_converges(self):
        # geometric spectrum over ten decades with a wide block: the run
        # leans on both width decisions (dead pivots and the span
        # rollback) yet must stay accurate
        for s in (8, 16):
            res = self.run_case(64, 1e8, 3, 7, s)
            assert res.status in ("converged_backward", "breakdown_converged")
            assert res.backward_error <= 1e-13
            self.assert_bound(res, 64, s)

    def test_one_small_singular_value_with_newton_basis(self):
        for s in (4, 8, 16):
            res = self.run_case(20, 1e10, 5, 46, s, basis="newton")
            assert res.status in ("converged_backward", "breakdown_converged")
            assert res.backward_error <= 1e-13
            self.assert_bound(res, 20, s)

    def test_final_record_after_breakdown_stays_within_bound(self):
        # the closing cycle ends on the rank test; the column it rejects
        # holds no search direction, so the measured bases must exclude
        # it and the recorded conditioning must still respect the bound
        res = self.run_case(20, 1e10, 5, 46, 8, basis="newton")
        last = res.records[-1]
        assert last.stop_reason == "breakdown_converged"
        assert not np.isnan(last.cond_B_tilde)
        assert last.cond_B_tilde <= 2.0 * np.sqrt(20) + np.sqrt(8)

    def test_moderate_system_fills_space_in_full_blocks(self):
        # no width cut may fire on a merely ill-conditioned system: five
        # blocks of four exhaust the space
        res = self.run_case(20, 1e5, 1, 1, 4)
        assert res.block_steps == 5
        assert res.inner_iterations == 20
        widths = np.diff([0] + [r.inner_cols for r in res.records])
        assert widths.tolist() == [4, 4, 4, 4, 4]
        self.assert_bound(res, 20, 4)


class TestRecordsAndDeterminism:
    def test_records_shape_and_gating(self):
        a = matrix_with_cond(24, 24, 1e2, seed=27)
        b = rng(28).standard_normal(24)
        res = solve(a, b, config=SolverConfig(s=3, diag_every=2, tol=1e-30, max_outer=6))
        assert len(res.records) == res.block_steps
        for rec in res.records:
            measured = not np.isnan(rec.cond_B_tilde)
            assert measured == (rec.outer % 2 == 0)
            assert rec.backward_error > 0.0
            assert rec.inner_cols == rec.outer * 3
        reasons = [r.stop_reason for r in res.records]
        assert all(r == "" for r in reasons[:-1])
        assert reasons[-1] == "max_iters"

    def test_iteration_cap_step_follows_the_grid(self):
        # the step the cap stops on is measured only on the grid
        a = matrix_with_cond(24, 24, 1e2, seed=27)
        b = rng(28).standard_normal(24)
        res = solve(a, b, config=SolverConfig(s=3, diag_every=2, tol=1e-30, max_outer=5))
        assert res.records[-1].stop_reason == "max_iters"
        measured = [not np.isnan(rec.cond_V) for rec in res.records]
        assert measured == [False, True, False, True, False]

    def test_ls_estimate_monotone_within_cycle(self):
        a = matrix_with_cond(36, 36, 1e4, seed=29)
        b = rng(30).standard_normal(36)
        res = solve(a, b, config=SolverConfig(s=3, tol=1e-30, max_outer=12))
        ests = [r.ls_residual_estimate for r in res.records]
        assert all(b2 <= a2 * (1 + 1e-12) for a2, b2 in zip(ests, ests[1:]))

    def test_bitwise_determinism(self):
        a, _, _ = gen_randsvd(RandSvdSpec(n=25, kappa=1e4, mode=1, seed=31))
        b = rng(32).standard_normal(25)
        cfg = SolverConfig(s=3, basis="newton", arnoldi="modified", restart=10, max_outer=5)
        r1 = solve(a, b, config=cfg)
        r2 = solve(a, b, config=cfg)
        np.testing.assert_array_equal(r1.x, r2.x)
        assert csv_text(r1.records) == csv_text(r2.records)


MEASUREMENT_CASES = [
    dict(s=1),
    dict(s=2),
    dict(s=3, basis="newton", arnoldi="modified"),
    dict(s=4, basis="chebyshev", restart=12),
    dict(s=3, orth="bmgs", basis_operator="preconditioned", restart=9),
    dict(s=5, arnoldi="modified", orth="bmgs"),
    dict(s=2, max_outer=5, tol=1e-30),
    dict(s=4, basis="newton", restart=8, max_outer=3, tol=1e-30),
]

def case_id(kwargs):
    return ",".join("%s=%s" % item for item in kwargs.items())


COND_FIELDS = ("cond_B_tilde", "cond_B_subblock", "cond_V", "ortho_loss_V")
RESULT_FIELDS = ("status", "backward_error", "cycles", "block_steps",
                 "inner_iterations", "candidate_projections", "candidate_qr_count")


class TestMeasurementIsPassive:
    """Conditioning diagnostics only read the cycle's bases: switching
    them on or off must leave every bit of the iteration unchanged, and a
    step is measured if and only if it lies on the ``diag_every`` grid."""

    def run(self, diag_every, **kwargs):
        a = csr_from_dense(clustered_spectrum_matrix(40, 0.4, seed=13))
        prec = jacobi_preconditioner(a) if "basis_operator" in kwargs else None
        config = SolverConfig(diag_every=diag_every, **kwargs)
        return solve(a, rng(14).standard_normal(40), config=config, preconditioner=prec)

    @staticmethod
    def iteration_fields(rec):
        return [
            repr(getattr(rec, name))
            for name in rec.__dataclass_fields__
            if name not in COND_FIELDS
        ]

    @pytest.mark.parametrize("kwargs", MEASUREMENT_CASES, ids=case_id)
    def test_diagnostics_off_matches_on_bitwise(self, monkeypatch, kwargs):
        on = self.run(1, **kwargs)

        def must_not_measure(*args, **kw):
            raise AssertionError("measured with diagnostics off")

        monkeypatch.setattr(solver_module, "basis_condition_numbers", must_not_measure)
        off = self.run(10**6, **kwargs)
        assert off.x.tobytes() == on.x.tobytes()
        for name in RESULT_FIELDS:
            assert getattr(off, name) == getattr(on, name), name
        assert [self.iteration_fields(r) for r in off.records] == [
            self.iteration_fields(r) for r in on.records
        ]
        assert all(not np.isnan(getattr(r, f)) for r in on.records for f in COND_FIELDS)
        assert all(np.isnan(getattr(r, f)) for r in off.records for f in COND_FIELDS)
        assert off.records[-1].stop_reason == off.status

    @pytest.mark.parametrize("kwargs", MEASUREMENT_CASES, ids=case_id)
    def test_measured_exactly_on_the_grid(self, kwargs):
        res = self.run(3, **kwargs)
        measured = [not np.isnan(r.cond_V) for r in res.records]
        assert measured == [r.outer % 3 == 0 for r in res.records]

    def test_convergence_off_the_grid_leaves_last_record_unmeasured(self):
        # seven blocks of five converge the run; step 7 is off a grid of 3
        res = self.run(3, s=5, arnoldi="modified", orth="bmgs")
        last = res.records[-1]
        assert res.status == "converged_backward"
        assert (last.outer, last.stop_reason) == (7, "converged_backward")
        assert all(np.isnan(getattr(last, f)) for f in COND_FIELDS)


class TestOperatorApplyCounts:
    """spmv calls per solve. A classical block of width w costs w + 1
    applies: w - 1 while building K, whose images are W's leading
    columns, one fresh apply for the last column and one for the
    backward error. A modified block of width w costs 2w. On top come s
    for the Ritz warm-up (Newton and Chebyshev) and 1 per cycle."""

    @pytest.fixture
    def spmv_calls(self, monkeypatch):
        calls = []
        spmv = solver_module.spmv

        def counting(a, x):
            calls.append(1)
            return spmv(a, x)

        monkeypatch.setattr(solver_module, "spmv", counting)
        return calls

    def run(self, arnoldi, basis, basis_operator):
        a = csr_from_dense(clustered_spectrum_matrix(60, 0.6, seed=5))
        config = SolverConfig(
            s=4, basis=basis, arnoldi=arnoldi, restart=20, basis_operator=basis_operator
        )
        res = solve(a, rng(6).standard_normal(60), config=config,
                    preconditioner=jacobi_preconditioner(a))
        assert res.status == "converged_backward"
        # no block narrowed: every width is s
        assert res.inner_iterations == 4 * res.block_steps
        return res

    @pytest.mark.parametrize(
        "basis,basis_operator,warmup",
        [("monomial", "plain", 0), ("newton", "preconditioned", 4),
         ("chebyshev", "plain", 4)],
    )
    def test_classical_block_costs_width_plus_one(
        self, spmv_calls, basis, basis_operator, warmup
    ):
        res = self.run("classical", basis, basis_operator)
        blocks = res.inner_iterations + res.block_steps
        assert len(spmv_calls) == blocks + warmup + res.cycles

    @pytest.mark.parametrize(
        "basis,basis_operator,warmup",
        [("newton", "preconditioned", 4), ("monomial", "plain", 0)],
    )
    def test_modified_block_costs_twice_its_width(
        self, spmv_calls, basis, basis_operator, warmup
    ):
        res = self.run("modified", basis, basis_operator)
        assert len(spmv_calls) == 2 * res.inner_iterations + warmup + res.cycles

    def test_modified_builds_its_basis_from_the_preconditioned_operator(self):
        # K built from A would leave the span of the M^{-1} A images the
        # basis holds, and the span budget would cut every block to one
        # column; the modified variant therefore ignores basis_operator
        plain = self.run("modified", "monomial", "plain")
        pre = self.run("modified", "monomial", "preconditioned")
        assert plain.x.tobytes() == pre.x.tobytes()
        assert csv_text(plain.records) == csv_text(pre.records)
        for name in ("status", "backward_error", "cycles", "block_steps",
                     "inner_iterations", "candidate_projections",
                     "candidate_qr_count"):
            assert getattr(plain, name) == getattr(pre, name)


class PoisonedState(ArnoldiState):
    """Fills the whole storage with NaN after each reset, so any read
    past ``ncols`` or ``inner_cols`` shows up in the results."""

    def reset(self):
        super().reset()
        for buf in (self.q, self.r, self.b_concat):
            buf.fill(np.nan)


def clustered_problem():
    a = csr_from_dense(clustered_spectrum_matrix(40, 0.4, seed=13))
    return a, rng(14).standard_normal(40)


def randsvd_problem(n, kappa, mode, seed):
    a, _, _ = gen_randsvd(RandSvdSpec(n=n, kappa=kappa, mode=mode, seed=seed))
    return a, np.ones(n)


# three forced cycles each, over both variants, both orthogonalizers and
# diagnostics on and off
FORCED_CYCLES = dict(tol=1e-30, max_outer=3)
POISON_CASES = [
    dict(s=3, basis="newton", restart=9, diag_every=1, **FORCED_CYCLES),
    dict(s=4, orth="bmgs", restart=8, diag_every=10**6, **FORCED_CYCLES),
    dict(s=3, arnoldi="modified", restart=9, diag_every=10**6, **FORCED_CYCLES),
    dict(s=4, arnoldi="modified", orth="bmgs", restart=12, diag_every=1,
         **FORCED_CYCLES),
]


class TestRestartInPlace:
    """``solve`` keeps one ArnoldiState per solve and resets it at every
    restart; the previous cycle's columns must never be read again."""

    def run_pair(self, monkeypatch, problem, **kwargs):
        a, b = problem
        config = SolverConfig(**kwargs)
        clean = solve(a, b, config=config)
        monkeypatch.setattr(solver_module, "ArnoldiState", PoisonedState)
        poisoned = solve(a, b, config=config)
        assert poisoned.x.tobytes() == clean.x.tobytes()
        assert poisoned.status == clean.status
        assert [repr(r) for r in poisoned.records] == [repr(r) for r in clean.records]
        for name in RESULT_FIELDS:
            assert getattr(poisoned, name) == getattr(clean, name), name
        return clean

    def test_one_state_serves_every_cycle(self, monkeypatch):
        created, reset = [], []

        class Recording(ArnoldiState):
            def __init__(self, *args):
                created.append(self)
                super().__init__(*args)

            def reset(self):
                reset.append(self)
                super().reset()

        monkeypatch.setattr(solver_module, "ArnoldiState", Recording)
        a, b = clustered_problem()
        res = solve(a, b, config=SolverConfig(s=2, restart=6, tol=1e-30, max_outer=4))
        assert res.cycles == 4
        assert len(created) == 1
        assert len(reset) == res.cycles
        assert all(state is created[0] for state in reset)

    @pytest.mark.parametrize("kwargs", POISON_CASES, ids=case_id)
    def test_poisoned_reset_changes_no_bit(self, monkeypatch, kwargs):
        res = self.run_pair(monkeypatch, clustered_problem(), **kwargs)
        assert res.cycles == 3

    def test_poisoned_reset_with_breakdown_truncation(self, monkeypatch):
        # the second cycle ends on the rank test and its truncation
        res = self.run_pair(
            monkeypatch, randsvd_problem(24, 1e8, 3, 2), s=6, restart=12, diag_every=1
        )
        assert res.status == "key_dimension_reached"
        assert res.cycles == 2

    def test_poisoned_reset_with_span_budget_cuts(self, monkeypatch):
        cuts = []
        truncate = arnoldi_module.truncate_after_breakdown

        def counting(state, keep_inner):
            cuts.append(keep_inner)
            return truncate(state, keep_inner)

        # the modified step's span-budget cut is the arnoldi module's
        # only caller of the truncation
        monkeypatch.setattr(arnoldi_module, "truncate_after_breakdown", counting)
        res = self.run_pair(
            monkeypatch, randsvd_problem(64, 1e8, 3, 7),
            s=8, arnoldi="modified", orth="bmgs", restart=24, diag_every=1,
        )
        assert res.cycles == 3
        assert cuts

    def test_peak_memory_is_one_state(self):
        # s = 2 keeps the block temporaries small against the n x 61
        # basis and n x 60 candidates; two states alive at a restart
        # would put the peak near twice one state
        a = csr_from_coo(*stencil_coo(64))
        b = np.ones(a.n)
        spmv(a, b)  # the CSR slot layout is built outside the measurement
        config = SolverConfig(s=2, restart=60, tol=1e-30, max_outer=3, diag_every=10**6)
        state = ArnoldiState(a.n, 60)
        one_state = sum(buf.nbytes for buf in (state.q, state.r, state.b_concat))
        del state
        tracemalloc.start()
        try:
            res = solve(a, b, config=config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.cycles == 3
        assert peak < 1.5 * one_state


# an unrestarted solve at n = 4096 whose four blocks of s = 5 commit 21
# basis columns
UNRESTARTED_RSS_GROWTH = """
import resource
import numpy as np
from helpers import stencil_coo
from sstep_gmres.solver import SolverConfig, solve
from sstep_gmres.sparse import csr_from_coo, jacobi_preconditioner, spmv

a = csr_from_coo(*stencil_coo(64))
b = np.ones(a.n)
spmv(a, b)
prec = jacobi_preconditioner(a)
config = SolverConfig(s=5, basis="newton", max_outer=4)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
res = solve(a, b, config=config, preconditioner=prec)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
assert res.block_steps == 4, res.block_steps
print(after - before)
"""


def test_unrestarted_memory_grows_with_committed_columns():
    # a child process, so that the peak resident size is this solve's
    # alone; Linux reports ru_maxrss in KiB
    here = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join([os.path.join(os.path.dirname(here), "src"), here])
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", UNRESTARTED_RSS_GROWTH],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    growth_kib = int(proc.stdout)
    assert growth_kib < 32 * 1024, growth_kib


class TestStorageSize:
    """The one ArnoldiState of a solve holds what the run can commit."""

    def state_size(self, monkeypatch, a, n, **kwargs):
        created = []

        class Recording(ArnoldiState):
            def __init__(self, *args):
                created.append(self)
                super().__init__(*args)

        monkeypatch.setattr(solver_module, "ArnoldiState", Recording)
        solve(a, np.ones(n), config=SolverConfig(**kwargs))
        (state,) = created
        assert state.b_concat.shape == (n, state.max_inner)
        assert state.q.shape == (n, state.max_inner + 1)
        return state.max_inner

    def test_capped_unrestarted_run_holds_max_outer_blocks(self, monkeypatch):
        a = csr_from_coo(*stencil_coo(64))
        assert self.state_size(monkeypatch, a, a.n, s=5, max_outer=4) == 20

    def test_other_runs_keep_their_sizes(self, monkeypatch):
        a = csr_from_coo(*stencil_coo(6))
        size = lambda **kwargs: self.state_size(monkeypatch, a, a.n, **kwargs)
        assert size(s=5, tol=1e-30) == 36
        assert size(s=5, max_outer=20, tol=1e-30) == 36
        assert size(s=5, restart=12, max_outer=2, tol=1e-30) == 12


def reference_gmres_gaps(m, b, storage, method, restart, kappa):
    """Per block step of a solve of m x = b, its restart cycle and the
    gap between its ``ls_residual_estimate`` and scipy's restarted GMRES
    residual norm after as many inner iterations, in units of
    u * kappa * ||b||.

    ``method`` is (variant, s, basis). A restart cycle that does not end
    the run holds exactly ``restart`` inner iterations, so the step's
    place in scipy's history is its cycle's offset plus its
    ``inner_cols``."""
    variant, s, basis = method
    a = csr_from_dense(m) if storage == "csr" else m
    config = SolverConfig(
        s=s, arnoldi=variant, basis=basis, restart=restart, diag_every=10**9
    )
    result = solve(a, b, config=config)
    b_norm = np.linalg.norm(b)
    history = []
    # rtol = 0 keeps scipy's inner loop from stopping before a cycle ends
    scipy_gmres(
        m, b, rtol=0.0, restart=restart, maxiter=result.cycles,
        callback=history.append, callback_type="pr_norm",
    )
    its = [(rec.restart_cycle - 1) * restart + rec.inner_cols for rec in result.records]
    assert len(history) >= its[-1]
    return [
        (
            rec.restart_cycle,
            abs(rec.ls_residual_estimate - history[it - 1] * b_norm)
            / (UNIT_ROUNDOFF * kappa * b_norm),
        )
        for rec, it in zip(result.records, its)
    ]


# The bound on the gap in restart cycle c is REFERENCE_GMRES_GAP * c.
# Each cycle starts from a residual that each solver recomputes from
# its own iterate, so a gap opened in one cycle is carried into the
# next rather than closed. Sweeps over the whole strategy below
# (CHANGES.md) found gaps up to 3.8 in the first cycle and up to 6.7 c
# in cycle c (seed 6712, the examples)
REFERENCE_GMRES_GAP = 8.0


class TestMatchesReferenceGmres:
    """s = 1 is standard GMRES: each step's least-squares residual
    estimate follows an independent implementation's, restarts included.
    The modified variant at s = 2, whose candidate blocks stay well
    conditioned, follows it at each block end too."""

    @settings(max_examples=60)
    @given(
        kappa=st.sampled_from([1e2, 1e6, 1e10]),
        mode=st.sampled_from([1, 3, 5]),
        seed=st.integers(0, 2**16),
        restart=st.sampled_from([10, 40]),
        method=st.sampled_from(
            [
                ("classical", 1, "monomial"),
                ("modified", 1, "monomial"),
                ("modified", 2, "monomial"),
                ("modified", 2, "newton"),
            ]
        ),
        storage=st.sampled_from(["dense", "csr"]),
    )
    @example(1e10, 1, 6712, 10, ("classical", 1, "monomial"), "csr")
    @example(1e10, 1, 6712, 10, ("modified", 2, "monomial"), "dense")
    def test_residual_estimates_track_scipy_gmres(
        self, kappa, mode, seed, restart, method, storage
    ):
        m, _, _ = gen_randsvd(RandSvdSpec(n=60, kappa=kappa, mode=mode, seed=seed))
        b = rng(seed).standard_normal(60)
        gaps = reference_gmres_gaps(m, b, storage, method, restart, kappa)
        assert all(gap <= REFERENCE_GMRES_GAP * cycle for cycle, gap in gaps), gaps
