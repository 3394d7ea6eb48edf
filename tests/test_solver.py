"""Tests for the s-step GMRES driver: least squares core, stopping
statuses, restarts, preconditioning, and determinism."""

import numpy as np
import pytest

import sstep_gmres.solver as solver_module
from sstep_gmres.diagnostics import csv_text
from sstep_gmres.dense import UNIT_ROUNDOFF, compute_givens
from sstep_gmres.solver import (
    SolveResult,
    SolverConfig,
    backward_error,
    solve,
)
from sstep_gmres.solver import _LeastSquares
from sstep_gmres.sparse import (
    Preconditioner,
    RandSvdSpec,
    csr_from_dense,
    gen_randsvd,
    jacobi_preconditioner,
)

from helpers import clustered_spectrum_matrix, matrix_with_cond, rng


def random_hessenberg_ls(p, seed, beta=1.0):
    """Feed a random (p+1) x p Hessenberg column set through Givens."""
    g = rng(seed)
    h = np.triu(g.standard_normal((p + 1, p)), -1)
    h[np.arange(1, p + 1), np.arange(p)] += 3.0  # keep it well conditioned
    ls = _LeastSquares(p, beta)
    for c in range(p):
        ls.absorb_column(h[: c + 2, c])
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
            ls.absorb_column(h[: c + 2, c])
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
        for c in range(p):
            col = np.zeros(p + 1)
            col[: c + 2] = h[: c + 2, c]
            for rot in rotations:
                i = rot.row
                col[i], col[i + 1] = rot.apply(col[i], col[i + 1])
            rot = compute_givens(col[c], col[c + 1], row=c)
            col[c], col[c + 1] = rot.apply(col[c], col[c + 1])
            col[c + 1] = 0.0
            rotations.append(rot)
            t_ref[:, c] = col
            g_ref[c], g_ref[c + 1] = rot.apply(g_ref[c], g_ref[c + 1])
        # blocks of uneven widths, each handed over as a slice of H whose
        # rows below the Hessenberg band must be ignored
        full = h + np.tril(g.standard_normal((p + 1, p)), -2)
        ls = _LeastSquares(p, 1.5)
        for lo, hi in ((0, 1), (1, 5), (5, 6), (6, 13), (13, 23)):
            ls.absorb_columns(full[: hi + 1, lo:hi])
        assert ls.ncols == p
        assert ls.t.tobytes() == np.asfortranarray(t_ref).tobytes()
        assert ls.g.tobytes() == g_ref.tobytes()


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

    @pytest.mark.parametrize("scale", [1e160, 1e300])
    def test_overflowing_backward_error_raises(self, scale):
        # ||A||_F and ||A x - b|| overflow, so the backward error is
        # inf / inf; that NaN must raise rather than become a status
        g = np.random.default_rng(0)
        a = 4.0 * np.eye(50) + 0.1 * g.standard_normal((50, 50))
        b = g.standard_normal(50)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ArithmeticError, match="non-finite"):
                solve(scale * a, scale * b)
        res = solve(a, b)
        assert res.status == "converged_backward"
        assert res.backward_error <= 50 * UNIT_ROUNDOFF


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
