"""Tests for the classical and modified block Arnoldi steps."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

import sstep_gmres.solver as solver_module
from sstep_gmres.arnoldi import (
    ArnoldiState,
    OperatorSet,
    _live_width,
    classical_step,
    modified_step,
    truncate_after_breakdown,
)
from sstep_gmres.basis import (
    ChebyshevBasis,
    MonomialBasis,
    NewtonBasis,
    build_krylov_block,
)
from sstep_gmres.blockqr import bcgsi_plus_step, bmgs_step
from sstep_gmres.dense import UNIT_ROUNDOFF, cond2, gram_cond2, householder_qr
from sstep_gmres.diagnostics import CandidateFactor, basis_condition_numbers
from sstep_gmres.solver import SolverConfig, _resolve_basis, solve
from sstep_gmres.sparse import (
    RandSvdSpec,
    apply_preconditioner_inverse,
    csr_from_dense,
    gen_randsvd,
    jacobi_preconditioner,
)

from helpers import (
    clustered_spectrum_matrix,
    loss_of_orthogonality,
    matrix_with_cond,
    max_principal_angle,
    rng,
)


def identity_ops(a):
    mv = lambda x: a @ x
    ident = lambda x: x
    return OperatorSet(matvec=mv, left_inv=ident, basis_op=mv)


def run_cycle(a, r, s, steps, step_fn, basis=None, ops=None, orth=bcgsi_plus_step):
    n = a.shape[0]
    state = ArnoldiState(n, s * steps)
    ops = ops or identity_ops(a)
    basis = basis or MonomialBasis()
    beta = state.seed(r, orth)
    for _ in range(steps):
        step_fn(state, ops, basis, s, orth)
    return state, beta


def hess_from_state(state):
    p = state.ncols
    return state.r[:p, 1:p]


def first_dead_r_diagonal(state, tol_h):
    """The rank test of ``solve``: first basis column c >= 1 whose |R[c, c]|
    is at most tol_h * ||W_1..W_c||_F, that norm read off R's columns
    1..c, or None."""
    w_cols = state.r[: state.ncols, 1 : state.ncols]
    w_cum = np.sqrt(np.cumsum(np.sum(w_cols * w_cols, axis=0)))
    for c in range(1, state.inner_cols + 1):
        if abs(state.r[c, c]) <= tol_h * w_cum[c - 1]:
            return c
    return None


class TestArnoldiState:
    @pytest.mark.parametrize("max_inner", [0, 7])
    def test_capacity_outside_one_to_n_rejected(self, max_inner):
        with pytest.raises(ValueError, match="1 <= max_inner <= n"):
            ArnoldiState(6, max_inner)


class TestClassicalStep:
    def test_seed_exposes_beta(self):
        a = matrix_with_cond(20, 20, 10.0, seed=1)
        r = rng(2).standard_normal(20)
        state, beta = run_cycle(a, r, 3, 2, classical_step)
        assert beta == pytest.approx(np.linalg.norm(r), rel=1e-15)
        np.testing.assert_allclose(
            state.q[:, 0], r / np.linalg.norm(r), rtol=1e-14
        )

    def test_arnoldi_relation(self):
        # [r | W] = V R implies A B = V H with H = R columns 2..p
        a = matrix_with_cond(30, 30, 1e2, seed=3)
        r = rng(4).standard_normal(30)
        state, _ = run_cycle(a, r, 4, 3, classical_step)
        v = state.q_active
        h = hess_from_state(state)
        ab = a @ state.b_columns()
        resid = np.linalg.norm(ab - v @ h)
        assert resid <= 1e-12 * np.linalg.norm(ab)

    def test_spans_explicit_krylov_space(self):
        a = matrix_with_cond(24, 24, 50.0, seed=5)
        r = rng(6).standard_normal(24)
        state, _ = run_cycle(a, r, 3, 2, classical_step)
        explicit = np.empty((24, 7), order="F")
        explicit[:, 0] = r
        for j in range(1, 7):
            explicit[:, j] = a @ explicit[:, j - 1]
        assert max_principal_angle(state.q_active, explicit) <= 1e-8

    def test_block_bookkeeping(self):
        a = matrix_with_cond(20, 20, 10.0, seed=7)
        state, _ = run_cycle(a, rng(8).standard_normal(20), 3, 2, classical_step)
        assert state.inner_cols == 6
        assert state.ncols == 7
        assert state.block_widths == [1, 3, 3]
        assert np.all(np.linalg.norm(state.r[:7, 1:7], axis=0) > 0)

    def test_last_block_capped_by_capacity(self):
        a = matrix_with_cond(12, 12, 10.0, seed=9)
        state = ArnoldiState(12, 5)
        ops = identity_ops(a)
        state.seed(rng(10).standard_normal(12), bcgsi_plus_step)
        classical_step(state, ops, MonomialBasis(), 3, bcgsi_plus_step)
        classical_step(state, ops, MonomialBasis(), 3, bcgsi_plus_step)
        assert state.block_widths == [1, 3, 2]
        assert state.inner_cols == 5
        with pytest.raises(ValueError, match="no inner columns left"):
            classical_step(state, ops, MonomialBasis(), 3, bcgsi_plus_step)

    def test_jacobi_left_preconditioning_relation(self):
        g = rng(13)
        a = matrix_with_cond(18, 18, 1e2, seed=13) + np.diag(g.uniform(2, 4, 18))
        d = np.diag(a).copy()
        mv = lambda x: a @ x
        left = lambda x: x / d
        ops = OperatorSet(mv, left, basis_op=lambda x: left(mv(x)))
        state = ArnoldiState(18, 6)
        state.seed(left(rng(14).standard_normal(18)), bcgsi_plus_step)
        classical_step(state, ops, MonomialBasis(), 3, bcgsi_plus_step)
        classical_step(state, ops, MonomialBasis(), 3, bcgsi_plus_step)
        v = state.q_active
        lhs = (a @ state.b_columns()) / d[:, None]
        resid = np.linalg.norm(lhs - v @ hess_from_state(state))
        assert resid <= 1e-12 * np.linalg.norm(lhs)

    @pytest.mark.parametrize(
        "basis",
        [MonomialBasis(), NewtonBasis((3.0 + 1.0j, 3.0 - 1.0j, 2.5)), ChebyshevBasis(3.0, 1.0)],
    )
    def test_reused_images_match_fresh_applies_bitwise(self, basis):
        # the K build's operator images become W's leading columns, for
        # the basis operator matvec itself and for one that returns
        # left_inv(matvec(.)); W applied afresh to the same K gives the
        # same bits at 2s - 1 applies per block instead of s
        g = rng(15)
        a = matrix_with_cond(18, 18, 1e2, seed=15) + np.diag(g.uniform(2, 4, 18))
        d = np.diag(a).copy()
        applies = []

        def mv(x):
            applies.append(1)
            return a @ x

        left = lambda x: x / d
        r = left(rng(16).standard_normal(18))
        for ops in (OperatorSet(mv, left, basis_op=mv),
                    OperatorSet(mv, left, basis_op=lambda x: left(mv(x)))):
            applies.clear()
            got, _ = run_cycle(a, r, 4, 3, classical_step, basis=basis, ops=ops)
            got_applies = len(applies)
            applies.clear()
            want = fresh_w_cycle(ops, r, 4, 3, basis)
            assert (got_applies, len(applies)) == (3 * 4, 3 * 7)
            assert got.b_concat.tobytes() == want.b_concat.tobytes()
            assert got.q.tobytes() == want.q.tobytes()
            assert got.r.tobytes() == want.r.tobytes()


def fresh_w_cycle(ops, r, s, steps, basis):
    """``run_cycle`` of the classical step with every W column applied
    afresh: K from ``ops.basis_op``, then W = M^{-1} A K one column at a
    time into an array of K's layout (W's layout sets how
    ``project_out`` rounds)."""
    state = ArnoldiState(r.size, s * steps)
    state.seed(r, bcgsi_plus_step)
    for _ in range(steps):
        k = build_krylov_block(ops.basis_op, state.q[:, state.ncols - 1].copy(), s, basis)
        w = np.empty_like(k)
        for j in range(k.shape[1]):
            w[:, j] = ops.system_op(k[:, j])
        state.b_concat[:, state.inner_cols : state.inner_cols + k.shape[1]] = k
        bcgsi_plus_step(state, w)
    return state


def live_width(m, scale=None):
    """``_live_width`` of m's QR, judged against ||m||_F unless ``scale``."""
    scale = np.linalg.norm(m) if scale is None else scale
    return _live_width(householder_qr(m)[1], m.shape[0], scale)


def _graded_columns(rows, norms, seed):
    """Columns with prescribed pivots: Q_0 times an upper triangle whose
    diagonal is ``norms`` and whose strict upper part is O(1)."""
    g = rng(seed)
    q0, _ = np.linalg.qr(g.standard_normal((rows, len(norms))))
    t = np.triu(g.standard_normal((len(norms), len(norms))), 1)
    t[np.diag_indices(len(norms))] = norms
    return q0 @ t


class TestDeadPivotCut:
    """The modified step keeps a candidate QR's columns up to its first
    pivot at or below 4 sqrt(rows) u ||K||_F, and at least one."""

    def test_duplicate_column(self):
        v = rng(3).standard_normal((40, 1))
        assert live_width(np.hstack([v, v])) == 1

    def test_scale_override(self):
        # a column of size ~1e-12 is dead only against a large scale
        m = np.diag([1.0, 1e-12])
        assert live_width(m) == 2
        assert live_width(m, scale=1e6) == 1

    def test_zero_column_in_middle_of_block(self):
        m = rng(5).standard_normal((64, 5))
        m[:, 2] = 0.0
        assert live_width(m) == 2

    @pytest.mark.parametrize(
        "norms,first",
        [
            ([1.0, 0.5, 1e-19, 1.0, 1e-19], 2),
            ([1.0, 1e-19, 1.0, 1e-19, 1.0], 1),
            ([1.0, 1.0, 1.0, 1.0, 1e-19], 4),
            ([1.0, 1e-12, 1.0, 1e-11, 1.0], None),
            ([1e-19, 1.0, 1.0, 1.0, 1.0], 0),
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
        # the cut keeps the columns before the first dead pivot, at least one
        assert live_width(m) == (len(norms) if first is None else max(first, 1))


class TestModifiedStep:
    def test_arnoldi_relation_and_spans(self):
        a = matrix_with_cond(24, 24, 1e3, seed=21)
        r = rng(22).standard_normal(24)
        state, _ = run_cycle(a, r, 4, 3, modified_step)
        v = state.q_active
        ab = a @ state.b_columns()
        resid = np.linalg.norm(ab - v @ hess_from_state(state))
        assert resid <= 1e-12 * np.linalg.norm(ab)
        classical, _ = run_cycle(a, r, 4, 3, classical_step)
        assert (
            max_principal_angle(v, classical.q_active) <= 1e-6
        )

    def test_candidate_blocks_stay_well_conditioned(self):
        # the re-orthogonalized candidates must respect 2 sqrt(n) + sqrt(s)
        n, s, steps = 40, 4, 6
        a = matrix_with_cond(n, n, 1e6, seed=23)
        r = rng(24).standard_normal(n)
        state = ArnoldiState(n, s * steps)
        ops = identity_ops(a)
        state.seed(r, bcgsi_plus_step)
        bound = 2.0 * np.sqrt(n) + np.sqrt(s)
        for _ in range(steps):
            modified_step(state, ops, MonomialBasis(), s, bcgsi_plus_step)
            assert cond2(state.b_columns()) <= bound

    def test_classical_candidates_degrade_for_contrast(self):
        n, s, steps = 40, 4, 6
        a = matrix_with_cond(n, n, 1e6, seed=23)
        r = rng(24).standard_normal(n)
        state, _ = run_cycle(a, r, s, steps, classical_step)
        assert cond2(state.b_columns()) > 10.0 * (2.0 * np.sqrt(n) + np.sqrt(s))

    def test_cost_counters_track_extra_work(self):
        a = matrix_with_cond(20, 20, 1e3, seed=61)
        r = rng(62).standard_normal(20)
        counts = lambda st: (st.candidate_projections, st.candidate_qrs)
        mod, _ = run_cycle(a, r, 4, 2, modified_step)
        assert counts(mod) == (2 * 2, 2 * 1)
        cla, _ = run_cycle(a, r, 4, 2, classical_step)
        assert counts(cla) == (0, 0)
        # width-1 blocks take the classical path and cost nothing extra
        one, _ = run_cycle(a, r, 1, 4, modified_step)
        assert counts(one) == (0, 0)

    def test_moderate_system_commits_full_width_blocks(self):
        # a mildly ill-conditioned system must not trigger any width cut:
        # five blocks of four fill the space and the stacked candidates
        # stay within the conditioning bound
        a, _, _ = gen_randsvd(RandSvdSpec(n=20, kappa=1e5, mode=1, seed=1))
        state, _ = run_cycle(a, np.ones(20), 4, 5, modified_step)
        assert state.block_widths == [1, 4, 4, 4, 4, 4]
        assert state.inner_cols == 20
        assert cond2(state.b_columns()) <= 2.0 * np.sqrt(20) + 2.0

    def test_minimal_polynomial_cuts_block_width(self):
        # two distinct eigenvalues: the Krylov space has dimension two, so
        # the third candidate is a combination of the first two and the
        # modified variant drops it before committing; the second
        # candidate's image adds no direction, which leaves a negligible
        # R diagonal entry for the solver's rank test to find
        n = 12
        a = np.diag(np.repeat([1.0, 2.0], n // 2))
        r = rng(63).standard_normal(n)
        tol_h = np.sqrt(n) * UNIT_ROUNDOFF
        state, _ = run_cycle(a, r, 3, 1, modified_step)
        assert state.block_widths == [1, 2]
        assert state.inner_cols == 2
        assert first_dead_r_diagonal(state, tol_h) == 2
        assert abs(state.r[2, 2]) <= 1e-12
        v = state.q_active
        ab = a @ state.b_columns()
        resid = np.linalg.norm(ab - v @ hess_from_state(state))
        assert resid <= 1e-12 * np.linalg.norm(ab)
        # the classical variant commits all three candidates and leaves
        # detection entirely to the rank test
        cstate, _ = run_cycle(a, r, 3, 1, classical_step)
        assert cstate.block_widths == [1, 3]
        assert cstate.inner_cols == 3
        assert first_dead_r_diagonal(cstate, tol_h) == 2

    def test_s_equal_one_matches_classical_bitwise(self):
        a = matrix_with_cond(20, 20, 1e4, seed=25)
        r = rng(26).standard_normal(20)
        sc, _ = run_cycle(a, r, 1, 8, classical_step)
        sm, _ = run_cycle(a, r, 1, 8, modified_step)
        np.testing.assert_array_equal(sc.q_active, sm.q_active)
        np.testing.assert_array_equal(sc.r_active, sm.r_active)
        np.testing.assert_array_equal(sc.b_columns(), sm.b_columns())

    def test_works_with_all_bases_and_both_orthogonalizers(self):
        a = matrix_with_cond(30, 30, 1e2, seed=27) + 4.0 * np.eye(30)
        r = rng(28).standard_normal(30)
        kinds = [
            MonomialBasis(),
            NewtonBasis((3.0, 4.0, 5.0)),
            ChebyshevBasis(4.0, 1.5),
        ]
        for kind in kinds:
            for orth in (bcgsi_plus_step, bmgs_step):
                state, _ = run_cycle(
                    a, r, 3, 3, modified_step, basis=kind, orth=orth
                )
                loss = loss_of_orthogonality(state.q_active)
                if orth is bcgsi_plus_step:
                    assert loss <= 1e-12
                else:
                    # single-pass BMGS loses orthogonality as the new
                    # directions shrink near convergence; the relation
                    # below still holds, which is all it promises
                    assert loss <= 1e-4
                ab = a @ state.b_columns()
                resid = np.linalg.norm(
                    ab - state.q_active @ hess_from_state(state)
                )
                assert resid <= 1e-11 * np.linalg.norm(ab)


def spectrum_matrix(problem):
    """Test matrix from ("cond", n, cond, seed), ("clustered", n, radius,
    seed) or ("randsvd", n, kappa, mode, seed)."""
    kind, n, *params = problem
    if kind == "cond":
        cond, seed = params
        return matrix_with_cond(n, n, cond, seed=seed)
    if kind == "clustered":
        radius, seed = params
        return clustered_spectrum_matrix(n, radius, seed)
    kappa, mode, seed = params
    return gen_randsvd(RandSvdSpec(n=n, kappa=kappa, mode=mode, seed=seed))[0]


spectrum_problems = st.one_of(
    st.tuples(
        st.just("cond"),
        st.integers(8, 60),
        st.sampled_from([1e2, 1e5, 1e8, 1e10]),
        st.integers(0, 2**16),
    ),
    st.tuples(
        st.just("clustered"),
        st.integers(8, 60),
        st.sampled_from([0.3, 0.6, 0.9]),
        st.integers(0, 2**16),
    ),
)


class TestCandidateConditioningProperty:
    @settings(max_examples=60)
    @given(
        problem=spectrum_problems,
        s=st.integers(2, 16),
        basis=st.sampled_from(["monomial", "newton", "chebyshev"]),
    )
    # the span budget cuts 18 of this run's 19 blocks; without the cut
    # sigma_min(B~) falls to 0.44
    @example(problem=("randsvd", 40, 1e8, 1, 1), s=8, basis="newton")
    def test_every_modified_step_keeps_sigma_min_at_half(self, problem, s, basis):
        # a cycle run the way ``solve`` runs it from x0 = 0 and b = 1: the
        # warm-up picks the basis, and the rank test ends the cycle.
        # After every step the stacked candidates B~ keep sigma_min >= 1/2
        # (measured by numpy's SVD) and hence the paper's cond2 bound.
        a = spectrum_matrix(problem)
        n = a.shape[0]
        s = min(s, n)
        r = np.ones(n)
        ops = identity_ops(a)
        poly = _resolve_basis(SolverConfig(s=s, basis=basis), ops.system_op, r, s)
        state = ArnoldiState(n, n)
        state.seed(r, bcgsi_plus_step)
        bound = 2.0 * np.sqrt(n) + np.sqrt(s)
        while state.inner_cols < n:
            modified_step(state, ops, poly, s, bcgsi_plus_step)
            b_cols = state.b_columns()
            sigma = np.linalg.svd(b_cols, compute_uv=False)
            assert sigma[-1] >= 0.5, (state.inner_cols, sigma[-1])
            assert cond2(b_cols) <= bound
            if first_dead_r_diagonal(state, np.sqrt(n) * UNIT_ROUNDOFF) is not None:
                break


# c0 of the bound below: the largest ``w_norm_excess`` seen in a sweep of
# 18000 random cases over the test's ranges was 0.84
W_NORM_C0 = 2.0


def w_norm_excess(state, w):
    """How far ||W_1..W_c||_F^2 and ||R[:, 1..c]||_F^2 differ beyond
    ||I - V^T V||_2 ||R[:, 1..c]||_F^2, in units of n u ||R[:, 1..c]||_F^2,
    maximized over c."""
    p = state.ncols
    v = state.q_active
    loss = np.linalg.norm(np.eye(p) - v.T @ v, 2)
    r_cols = state.r[:p, 1:p]
    r2 = np.cumsum(np.sum(r_cols * r_cols, axis=0))
    w2 = np.cumsum(np.sum(w * w, axis=0))
    return float(np.max((np.abs(w2 - r2) / r2 - loss) / (state.n * UNIT_ROUNDOFF)))


def run_checking_w_norms(n, cond, seed, s, step_fn, orth, jacobi):
    """A cycle run until the rank test fires or the space is full,
    yielding ``w_norm_excess`` after every block step, with W recomputed
    as M^{-1} A B from the stored candidates one column at a time, as
    the step applies the operator (a GEMM rounds differently, and where
    M^{-1} A b cancels that difference swamps the roundoff measured)."""
    a = matrix_with_cond(n, n, cond, seed=seed)
    prec = jacobi_preconditioner(a) if jacobi else None
    mv = lambda x: a @ x
    left = lambda x: apply_preconditioner_inverse(prec, x)
    ops = OperatorSet(mv, left, basis_op=mv)
    state = ArnoldiState(n, n)
    state.seed(left(rng(seed + 1).standard_normal(n)), orth)
    while state.inner_cols < n:
        step_fn(state, ops, MonomialBasis(), s, orth)
        w = np.column_stack([ops.system_op(b) for b in state.b_columns().T])
        yield w_norm_excess(state, w)
        if first_dead_r_diagonal(state, np.sqrt(n) * UNIT_ROUNDOFF) is not None:
            return


class TestRankTestScale:
    """The rank test reads ||W_1..W_c||_F off R's columns 1..c, which
    [r | W] = V R gives up to V's loss of orthogonality and roundoff."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(8, 48),
        cond=st.sampled_from([1e2, 1e6, 1e10]),
        seed=st.integers(0, 2**16),
        s=st.integers(1, 6),
        step_fn=st.sampled_from([classical_step, modified_step]),
        orth=st.sampled_from([bcgsi_plus_step, bmgs_step]),
        jacobi=st.booleans(),
    )
    def test_r_columns_carry_the_w_norms(self, n, cond, seed, s, step_fn, orth, jacobi):
        # |‖W_1..W_c‖² − ‖R[:, 1..c]‖²| <= (‖I − VᵀV‖₂ + c0 n u) ‖R[:, 1..c]‖²
        for excess in run_checking_w_norms(n, cond, seed, s, step_fn, orth, jacobi):
            assert excess <= W_NORM_C0


# c of the bound |‖b_j‖₂ − 1| <= c sqrt(n) u: the largest ratio seen in
# a sweep of 12000 random cases over the test's ranges was 1.67
UNIT_NORM_C = 4.0


def block_step_guarantees(n, cond, seed, config, jacobi, storage):
    """Solve a system as ``solve`` runs it and check, after every block
    step (the rank-test cut included), the two guarantees of
    ``ArnoldiState``. Returns one pair per step: the largest
    |‖b_j‖₂ − 1| over the committed candidates, in units of sqrt(n) u,
    and whether every block but the newest kept the width it had after
    the previous step."""
    m = matrix_with_cond(n, n, cond, seed=seed)
    prec = jacobi_preconditioner(m) if jacobi else None
    a = csr_from_dense(m) if storage == "csr" else m
    steps = []
    cycle = [None, [1]]  # the cycle's B~ factor, its widths after the last step

    def check(state, factor, valid_cols=None):
        if factor is not cycle[0]:
            cycle[:] = [factor, [1]]  # a fresh cycle holds the seed block
        norms = np.linalg.norm(state.b_columns(), axis=0)
        excess = np.max(np.abs(norms - 1.0)) / (np.sqrt(n) * UNIT_ROUNDOFF)
        widths = list(state.block_widths)
        steps.append((float(excess), widths[:-1] == cycle[1]))
        cycle[1] = widths
        return (np.nan,) * 4

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(solver_module, "basis_condition_numbers", check)
        solve(a, rng(seed + 1).standard_normal(n), config=config, preconditioner=prec)
    return steps


class TestBlockStepGuarantees:
    """Every committed candidate column has unit 2-norm, and every cut
    shortens only the newest block (see ``ArnoldiState``)."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(8, 48),
        cond=st.sampled_from([1e2, 1e6, 1e10]),
        seed=st.integers(0, 2**16),
        s=st.integers(1, 8),
        basis=st.sampled_from(["monomial", "newton", "chebyshev"]),
        arnoldi=st.sampled_from(["classical", "modified"]),
        orth=st.sampled_from(["bcgsi+", "bmgs"]),
        restart=st.sampled_from([None, 8]),
        jacobi=st.booleans(),
        storage=st.sampled_from(["dense", "csr"]),
    )
    def test_after_every_block_step(
        self, n, cond, seed, s, basis, arnoldi, orth, restart, jacobi, storage
    ):
        config = SolverConfig(
            s=s, basis=basis, arnoldi=arnoldi, orth=orth, restart=restart
        )
        steps = block_step_guarantees(n, cond, seed, config, jacobi, storage)
        assert steps
        for excess, earlier_blocks_kept in steps:
            assert excess <= UNIT_NORM_C
            assert earlier_blocks_kept


class TestBreakdownHandling:
    def test_identity_matrix_flags_first_new_column(self):
        n = 10
        a = np.eye(n)
        state = ArnoldiState(n, 3)
        b = rng(31).standard_normal(n)
        state.seed(b, bcgsi_plus_step)
        classical_step(state, identity_ops(a), MonomialBasis(), 1, bcgsi_plus_step)
        # W's only column equals the seed direction, so V column 1 is junk
        assert state.block_widths == [1, 1]
        assert first_dead_r_diagonal(state, np.sqrt(n) * UNIT_ROUNDOFF) == 1
        assert abs(state.r[1, 1]) <= 1e-12

    def test_truncate_keeps_factorization_consistent(self):
        a = matrix_with_cond(20, 20, 10.0, seed=33)
        r = rng(34).standard_normal(20)
        state, _ = run_cycle(a, r, 3, 2, classical_step)
        truncate_after_breakdown(state, 4)
        assert state.inner_cols == 4
        assert state.ncols == 5
        assert state.block_widths == [1, 3, 1]
        v = state.q_active
        ab = a @ state.b_columns()
        resid = np.linalg.norm(ab - v @ hess_from_state(state))
        assert resid <= 1e-12 * np.linalg.norm(ab)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        s=st.integers(1, 5),
        steps=st.integers(1, 4),
        cond=st.sampled_from([1e2, 1e8]),
        step_fn=st.sampled_from([classical_step, modified_step]),
        orth=st.sampled_from([bcgsi_plus_step, bmgs_step]),
        data=st.data(),
    )
    def test_truncation_keeps_layout_relation_and_newest_block(
        self, seed, s, steps, cond, step_fn, orth, data
    ):
        n = 24
        a = matrix_with_cond(n, n, cond, seed=seed)
        r = rng(seed + 1).standard_normal(n)
        state, _ = run_cycle(a, r, s, steps, step_fn, orth=orth)
        before = list(state.block_widths)
        # a cut keeps at least one column of the newest block
        first = state.inner_cols - before[-1] + 1
        k = data.draw(st.integers(first, state.inner_cols), label="keep_inner")
        truncate_after_breakdown(state, k)

        widths = state.block_widths
        assert sum(widths) == state.ncols == state.inner_cols + 1 == k + 1
        # the kept layout is the old one with the newest block cut short
        assert widths[:-1] == before[:-1]
        assert 1 <= widths[-1] <= before[-1]

        ab = a @ state.b_columns()
        resid = np.linalg.norm(ab - state.q_active @ hess_from_state(state))
        assert resid <= 64 * n * UNIT_ROUNDOFF * np.linalg.norm(ab)

        # the newest block that the diagnostics measure is the trailing
        # widths[-1] columns of the kept candidates, and B~ is all of
        # them: the Gram path, else a factor of exactly those columns
        b_cols = state.b_columns()
        cond_bt, cond_bs, _, _ = basis_condition_numbers(state, CandidateFactor())
        want_bt = gram_cond2(b_cols)
        if want_bt is None:
            factor = CandidateFactor()
            factor.extend(b_cols, k)
            want_bt = factor.cond2()
        assert cond_bt == want_bt
        assert cond_bs == cond2(b_cols[:, k - widths[-1] :])

    def test_truncate_validation(self):
        a = matrix_with_cond(12, 12, 10.0, seed=35)
        state, _ = run_cycle(a, rng(36).standard_normal(12), 2, 2, classical_step)
        with pytest.raises(ValueError, match="out of range"):
            truncate_after_breakdown(state, 9)

    def test_cut_outside_the_newest_block_rejected(self):
        a = matrix_with_cond(12, 12, 10.0, seed=35)
        state, _ = run_cycle(a, rng(36).standard_normal(12), 2, 2, classical_step)
        assert state.block_widths == [1, 2, 2]
        for keep_inner in (0, 1, 2):
            with pytest.raises(ValueError, match="out of range"):
                truncate_after_breakdown(state, keep_inner)
        assert state.block_widths == [1, 2, 2] and state.inner_cols == 4

    def test_seed_twice_and_unseeded_step_rejected(self):
        state = ArnoldiState(8, 4)
        with pytest.raises(ValueError, match="seed the state"):
            classical_step(
                state, identity_ops(np.eye(8)), MonomialBasis(), 2, bcgsi_plus_step
            )
        state.seed(np.ones(8), bcgsi_plus_step)
        with pytest.raises(ValueError, match="already seeded"):
            state.seed(np.ones(8), bcgsi_plus_step)
