import tracemalloc
import warnings

import numpy as np
import pytest

from gbtwin import qp
from gbtwin.dataset import Dataset, generate_ndc, inject_label_noise
from gbtwin.model import ModelConfig, fit
from gbtwin.qp import (
    _TILE,
    DEFAULT_MAX_SWEEPS,
    DEFAULT_TOL,
    BoxQP,
    NumericalError,
    kkt_residual,
    ridge_factorize,
    solve_box_qp,
    solve_spd,
)

from _oracles import (
    box_qp_value,
    cyclic_box_qp_reference,
    dense_grid_box_qp,
    enumerate_box_qp,
    grid_box_qp,
    two_mask_sweeps_reference,
    two_scratch_tile_symmetrize_reference,
)

# frozen result of dense_grid_box_qp(Q=[[2,1],[1,2]], upper=10, step=1e-3),
# computed once offline (the 1e8-point sweep takes a few seconds)
DENSE_GRID_2D_ARGMAX = (0.333, 0.333)
DENSE_GRID_2D_VALUE = 0.333333


def random_psd(rng, p, extra_rows=1):
    A = rng.normal(size=(p + extra_rows, p))
    return A.T @ A


class TestRidgeFactorize:
    def test_identity_gram(self):
        g = ridge_factorize(np.eye(2), delta=1.0)
        # gram is 2*I; solving it against I recovers 0.5*I
        assert np.allclose(solve_spd(g, np.eye(2)), 0.5 * np.eye(2))

    def test_ridge_only(self):
        g = ridge_factorize(np.zeros((3, 2)), delta=0.5)
        assert np.allclose(solve_spd(g, np.eye(2)), 2.0 * np.eye(2))

    def test_reconstruction(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(10, 4))
        delta = 1e-5
        g = ridge_factorize(A, delta)
        gram = A.T @ A + delta * np.eye(4)
        L = np.tril(g.factor[0])
        assert np.allclose(L @ L.T, gram, rtol=1e-8)
        # and solving against the gram returns the identity
        assert np.allclose(solve_spd(g, gram), np.eye(4), atol=1e-8)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            ridge_factorize(np.eye(2), delta=0.0)
        with pytest.raises(NumericalError, match="non-finite"):
            ridge_factorize(np.array([[np.inf, 0.0]]), delta=1.0)

    @pytest.mark.parametrize("A", [
        [[1e200, 0.0], [0.0, 1.0]],
        [[1e200, 1e200], [1e200, -1e200]],  # inf - inf in the off-diagonal
    ])
    def test_finite_matrix_whose_gram_overflows(self, A):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="Gram matrix .* overflows"):
                ridge_factorize(np.array(A), delta=1.0)

    @pytest.mark.parametrize("space,rows", [
        ("original", [[1e200, 0.0], [0.0, 1e200], [2e200, 1.0], [1.0, 2e200]]),
        ("hidden", [[1e300, 1e300], [0.5, 0.2], [-0.3, 0.4], [0.1, -0.6]]),
    ])
    def test_fit_whose_gram_overflows(self, space, rows):
        train = Dataset(np.array(rows), np.array([1.0, 1.0, -1.0, -1.0]))
        cfg = ModelConfig(granulate=False, feature_space=space, seed=0, h=5, activation=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="Gram matrix .* overflows"):
                fit(cfg, train)


class TestSolveSpd:
    def test_diagonal_solve(self):
        g = ridge_factorize(np.eye(2), delta=1.0)  # gram = 2I
        assert np.allclose(solve_spd(g, np.array([4.0, 6.0])), [2.0, 3.0])

    def test_zero_rhs(self):
        g = ridge_factorize(np.eye(3), delta=1.0)
        assert np.allclose(solve_spd(g, np.zeros(3)), 0.0)

    def test_residual_on_random_system(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(12, 5))
        g = ridge_factorize(A, 1e-3)
        rhs = rng.normal(size=5)
        x = solve_spd(g, rhs)
        gram = A.T @ A + 1e-3 * np.eye(5)
        assert np.linalg.norm(gram @ x - rhs) <= 1e-8 * max(1.0, np.linalg.norm(rhs))

    def test_recovers_known_solution(self):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(8, 4))
        g = ridge_factorize(A, 1e-4)
        x = rng.normal(size=4)
        rhs = (A.T @ A + 1e-4 * np.eye(4)) @ x
        assert np.allclose(solve_spd(g, rhs), x, atol=1e-8)

    def test_dimension_mismatch(self):
        g = ridge_factorize(np.eye(2), delta=1.0)
        with pytest.raises(ValueError):
            solve_spd(g, np.zeros(3))


class TestBoxQP:
    def test_interior_optimum(self):
        Q = np.array([[2.0]])
        sol = solve_box_qp(BoxQP(Q, 10.0))
        assert sol.alpha[0] == pytest.approx(0.5, abs=1e-10)
        assert box_qp_value(Q, 10.0, sol.alpha) == pytest.approx(0.25, abs=1e-10)
        assert sol.converged

    def test_clipped_at_upper_bound(self):
        Q = np.array([[0.05]])
        sol = solve_box_qp(BoxQP(Q, 10.0))
        assert sol.alpha[0] == 10.0  # unconstrained optimum is 20
        assert box_qp_value(Q, 10.0, sol.alpha) == pytest.approx(7.5)

    def test_two_dim_example(self):
        Q = np.array([[2.0, 1.0], [1.0, 2.0]])
        sol = solve_box_qp(BoxQP(Q, 10.0))
        # linear-system solution of Q alpha = 1
        assert np.allclose(sol.alpha, np.linalg.solve(Q, np.ones(2)), atol=1e-9)
        assert np.allclose(sol.alpha, [1 / 3, 1 / 3], atol=1e-9)
        assert abs(box_qp_value(Q, 10.0, sol.alpha) - DENSE_GRID_2D_VALUE) <= 1e-4
        live_alpha, live_val = dense_grid_box_qp(Q, 10.0, step=1e-2)
        assert abs(box_qp_value(Q, 10.0, sol.alpha) - live_val) <= 1e-3
        assert np.allclose(live_alpha, DENSE_GRID_2D_ARGMAX, atol=1e-2)

    def test_zero_diagonal_direction(self):
        Q = np.zeros((1, 1))
        sol = solve_box_qp(BoxQP(Q, 3.0))
        assert sol.alpha[0] == 3.0
        assert box_qp_value(Q, 3.0, sol.alpha) == 3.0

    def test_monotone_ascent_across_sweeps(self):
        rng = np.random.default_rng(5)
        Q = random_psd(rng, 5)
        prev = -np.inf
        for sweeps in range(1, 12):
            sol = solve_box_qp(BoxQP(Q, 1.0), tol=1e-16, max_iter=sweeps)
            value = box_qp_value(Q, 1.0, sol.alpha)
            assert value >= prev - 1e-12
            prev = value

    def test_box_feasibility_exact(self):
        rng = np.random.default_rng(6)
        for upper in (0.1, 1.0, 10.0):
            Q = random_psd(rng, 6)
            sol = solve_box_qp(BoxQP(Q, upper))
            assert np.all(sol.alpha >= 0.0) and np.all(sol.alpha <= upper)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(7)
        for i in range(20):
            p = int(rng.integers(1, 7))
            Q = random_psd(rng, p)
            upper = (0.1, 1.0, 10.0)[i % 3]
            sol = solve_box_qp(BoxQP(Q, upper))
            _, best = enumerate_box_qp(Q, upper)
            assert box_qp_value(Q, upper, sol.alpha) == pytest.approx(best, abs=1e-8)
            assert sol.kkt_residual <= 1e-6

    def test_matches_zoom_grid_oracle(self):
        rng = np.random.default_rng(8)
        for i in range(10):
            p = int(rng.integers(2, 7))
            Q = random_psd(rng, p)
            upper = (0.1, 1.0, 10.0)[i % 3]
            sol = solve_box_qp(BoxQP(Q, upper))
            _, best = grid_box_qp(Q, upper)
            assert abs(box_qp_value(Q, upper, sol.alpha) - best) <= 1e-4

    def test_non_symmetric_rejected(self):
        with pytest.raises(NumericalError, match="symmetric"):
            BoxQP(np.array([[1.0, 2.0], [0.0, 1.0]]), 1.0)

    def test_negative_diagonal_rejected(self):
        with pytest.raises(NumericalError, match="diagonal"):
            BoxQP(np.array([[-1.0]]), 1.0)

    def test_invalid_upper(self):
        with pytest.raises(ValueError):
            BoxQP(np.eye(2), 0.0)

    def test_non_convergence_reported_not_raised(self):
        rng = np.random.default_rng(9)
        Q = random_psd(rng, 8)
        sol = solve_box_qp(BoxQP(Q, 10.0), tol=1e-14, max_iter=1)
        assert not sol.converged
        assert sol.iterations == 1
        assert sol.kkt_residual > 0


class TestShrinkingAgainstReference:
    """The shrunk sweeps against the unshrunk cyclic loop in ``_oracles``."""

    @pytest.mark.parametrize("upper", [0.01, 1.0, 100.0])
    @pytest.mark.parametrize("r", [3, 10])
    @pytest.mark.parametrize("p", [50, 400])
    def test_rank_deficient_bound_heavy(self, p, r, upper):
        # rows shifted to a common side, as in a twin dual: most alphas end at 0
        rng = np.random.default_rng(1000 * p + r)
        A = rng.normal(loc=1.0, size=(p, r))
        q = BoxQP(A @ A.T, upper)
        sol = solve_box_qp(q)
        ref_alpha, _, ref_residual = cyclic_box_qp_reference(
            q.Q, upper, DEFAULT_TOL, DEFAULT_MAX_SWEEPS
        )
        assert sol.converged and ref_residual <= DEFAULT_TOL
        assert kkt_residual(q, sol.alpha) <= DEFAULT_TOL
        assert kkt_residual(q, ref_alpha) <= DEFAULT_TOL
        assert np.all(sol.alpha >= 0.0) and np.all(sol.alpha <= upper)
        ref_value = box_qp_value(q.Q, upper, ref_alpha)
        sol_value = box_qp_value(q.Q, upper, sol.alpha)
        assert abs(sol_value - ref_value) <= 1e-9 * max(1.0, abs(ref_value))

    def test_full_rank_alphas_agree(self):
        # the optimum is unique; a tol-KKT point lies within sqrt(p) tol / lambda_min
        rng = np.random.default_rng(7)
        for i in range(20):
            p = int(rng.integers(1, 7))
            Q = random_psd(rng, p)
            upper = (0.1, 1.0, 10.0)[i % 3]
            sol = solve_box_qp(BoxQP(Q, upper))
            ref_alpha, _, _ = cyclic_box_qp_reference(Q, upper, DEFAULT_TOL, DEFAULT_MAX_SWEEPS)
            bound = 2.0 * np.sqrt(p) * DEFAULT_TOL / np.linalg.eigvalsh(Q).min()
            assert np.abs(sol.alpha - ref_alpha).max() <= bound


class TestOneCoordinateRule:
    """The solver against its earlier two-mask form in ``_oracles``: the same bits.

    ``two_mask_sweeps_reference`` picks each sweep's coordinates with a
    ``movable`` mask and takes the residual through a second classification;
    the solver takes both from one held-at-a-bound rule.
    """

    @staticmethod
    def assert_same_bits(q, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_SWEEPS):
        sol = solve_box_qp(q, tol=tol, max_iter=max_iter)
        ref_alpha, ref_sweeps, ref_residual = two_mask_sweeps_reference(
            q.Q, q.upper, tol, max_iter
        )
        assert np.array_equal(sol.alpha, ref_alpha)
        assert sol.iterations == ref_sweeps
        assert sol.kkt_residual == ref_residual
        return sol

    @pytest.mark.parametrize("upper", [0.01, 1.0, 100.0])
    @pytest.mark.parametrize("r", [3, 10])
    @pytest.mark.parametrize("p", [50, 400])
    def test_rank_deficient_bound_heavy(self, p, r, upper):
        # the duals of TestShrinkingAgainstReference
        rng = np.random.default_rng(1000 * p + r)
        A = rng.normal(loc=1.0, size=(p, r))
        assert self.assert_same_bits(BoxQP(A @ A.T, upper)).converged

    def test_one_sweep(self):
        Q = random_psd(np.random.default_rng(9), 8)
        sol = self.assert_same_bits(BoxQP(Q, 10.0), tol=1e-14, max_iter=1)
        assert not sol.converged

    def test_ill_conditioned_rank_three_dual(self):
        # Q = A A' with rows on both sides of the origin and a large box: the
        # sweeps converge slowly here, so the comparison is capped at 200
        A = np.random.default_rng(0).normal(size=(400, 3))
        sol = self.assert_same_bits(BoxQP(A @ A.T, 100.0), max_iter=200)
        assert sol.iterations == 200 and not sol.converged

    def test_granulated_fit_with_exactly_zero_interior_gradients(self, monkeypatch):
        # a coordinate just stepped to its interior optimum often keeps a
        # gradient of exactly 0.0; it is not held, so the next sweep re-steps
        # it, and a rule that dropped it would change the iterates
        data = inject_label_noise(generate_ndc(200, 4, 2, 2.0, seed=0), 0.1, seed=0)
        duals = []
        solve = qp.solve_box_qp

        def capture(q, tol, max_iter):
            duals.append(q)
            return solve(q, tol, max_iter)

        rule = qp._free_and_residual
        zero_interior = []

        def spy(grad, alpha, upper):
            zero_interior.append(np.any((grad == 0.0) & (alpha > 0.0) & (alpha < upper)))
            return rule(grad, alpha, upper)

        monkeypatch.setattr(qp, "solve_box_qp", capture)
        monkeypatch.setattr(qp, "_free_and_residual", spy)
        fit(ModelConfig(granulate=True, feature_space="original", seed=0), data)
        monkeypatch.undo()
        assert len(duals) == 2 and any(zero_interior)
        for q in duals:
            self.assert_same_bits(q)

        def nonzero_only(grad, alpha, upper):
            free, residual = rule(grad, alpha, upper)
            return free & (grad != 0.0), residual

        monkeypatch.setattr(qp, "_free_and_residual", nonzero_only)
        changed = []
        for q in duals:
            sol = solve_box_qp(q)
            ref_alpha, ref_sweeps, _ = two_mask_sweeps_reference(
                q.Q, q.upper, DEFAULT_TOL, DEFAULT_MAX_SWEEPS
            )
            changed.append(sol.iterations != ref_sweeps or not np.array_equal(sol.alpha, ref_alpha))
        assert any(changed)

    def test_huge_finite_entry_is_stored_and_solved(self):
        # adding before halving would store inf and end in a NaN alpha
        q = BoxQP([[1e308, 0.0], [0.0, 1.0]], 10.0)
        assert np.array_equal(q.Q, [[1e308, 0.0], [0.0, 1.0]])
        sol = solve_box_qp(q)
        assert np.array_equal(sol.alpha, [1e-308, 1.0])
        assert sol.converged

    def test_overflowing_gradient_never_certifies(self):
        # Q alpha overflows; BLAS returns inf or NaN there, depending on
        # whether its sums use fused multiply-adds
        q = BoxQP([[1e308, -1e308], [-1e308, 1e308]], 10.0)
        with np.errstate(over="ignore", invalid="ignore"):
            assert not kkt_residual(q, [10.0, 10.0]) <= DEFAULT_TOL

    def test_nan_gradient_is_never_held(self):
        grad = np.array([np.nan, np.nan, np.nan, -1.0])
        free, residual = qp._free_and_residual(grad, np.array([0.0, 0.5, 1.0, 0.0]), 1.0)
        assert free.tolist() == [True, True, True, False]
        assert np.isnan(residual)


class TestBlockedValidation:
    """BoxQP checks and symmetrizes Q tile by tile; p is no multiple of a tile."""

    P = 2 * _TILE + 37

    def symmetric(self, seed):
        A = np.random.default_rng(seed).normal(size=(self.P, 5))
        return A @ A.T

    @pytest.mark.parametrize("where", [(-1, -1), (-1, 3), (3, -1), (-2, -30)])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_in_last_partial_tile_rejected(self, where, value):
        Q = self.symmetric(0)
        Q[where] = value
        with pytest.raises(NumericalError, match="non-finite"):
            BoxQP(Q, 1.0)

    @pytest.mark.parametrize("where", [(-1, 3), (3, -1), (-2, -30)])
    def test_asymmetric_pair_in_last_partial_tile_rejected(self, where):
        Q = self.symmetric(1)
        Q[where] += 1e-3
        with pytest.raises(NumericalError, match="symmetric"):
            BoxQP(Q, 1.0)

    def test_stored_q_is_the_symmetrized_input(self):
        Q = self.symmetric(2)
        Q += 1e-12 * np.random.default_rng(3).normal(size=Q.shape)  # within tolerance
        expected = (Q + Q.T) / 2.0
        stored = BoxQP(Q, 1.0).Q
        assert np.array_equal(stored, expected)
        assert stored.flags.c_contiguous and not stored.flags.writeable

    def test_same_bits_as_the_scratch_tile_pass(self):
        Q = self.symmetric(5)
        Q += 1e-12 * np.random.default_rng(6).normal(size=Q.shape)  # within tolerance
        expected = Q.copy()
        two_scratch_tile_symmetrize_reference(expected)
        assert np.array_equal(BoxQP(Q, 1.0).Q, expected)

    def test_peak_memory_stays_near_one_copy(self):
        # Q is symmetrized in place; only two scratch tiles are allocated
        A = np.random.default_rng(4).normal(size=(1300, 5))
        Q = A @ A.T
        tracemalloc.start()
        try:
            BoxQP(Q, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * Q.nbytes


class TestOwnership:
    """BoxQP takes over a writable C-ordered float64 Q and copies anything else."""

    def asymmetric(self):
        # within tolerance, so symmetrizing changes bits
        rng = np.random.default_rng(5)
        A = rng.normal(size=(_TILE + 9, 4))
        return A @ A.T + 1e-12 * rng.normal(size=(_TILE + 9, _TILE + 9))

    def test_writable_c_float64_is_symmetrized_in_place(self):
        Q = self.asymmetric()
        expected = (Q + Q.T) / 2.0
        q = BoxQP(Q, 1.0)
        assert np.shares_memory(q.Q, Q)
        assert np.array_equal(Q, expected)
        assert not Q.flags.writeable

    @pytest.mark.parametrize("kind", ["read-only", "int", "fortran"])
    def test_other_arrays_are_copied_untouched(self, kind):
        Q = self.asymmetric()
        if kind == "read-only":
            Q.setflags(write=False)
        elif kind == "int":
            Q = np.rint(1e3 * Q).astype(np.int64)  # symmetric: the noise rounds away
        else:
            Q = np.asfortranarray(Q)
        before = Q.copy()
        writeable = Q.flags.writeable
        q = BoxQP(Q, 1.0)
        assert not np.shares_memory(q.Q, Q)
        assert np.array_equal(Q, before)
        assert Q.flags.writeable == writeable
        assert np.array_equal(q.Q, (before + before.T) / 2.0)

    def test_list_is_copied_untouched(self):
        Q = [[2.0, 1.0], [1.0 + 1e-12, 2.0]]
        q = BoxQP(Q, 1.0)
        assert Q == [[2.0, 1.0], [1.0 + 1e-12, 2.0]]
        assert q.Q[0, 1] == q.Q[1, 0]

    @pytest.mark.parametrize("upper", [0.0, -1.0])
    def test_bad_upper_leaves_q_unchanged_and_writable(self, upper):
        Q = self.asymmetric()
        before = Q.copy()
        with pytest.raises(ValueError, match="box bound"):
            BoxQP(Q, upper)
        assert np.array_equal(Q, before)
        assert Q.flags.writeable


class TestKktResidual:
    def test_interior_optimum_near_zero(self):
        Q = np.array([[2.0, 1.0], [1.0, 2.0]])
        q = BoxQP(Q, 10.0)
        alpha = np.linalg.solve(Q, np.ones(2))
        assert kkt_residual(q, alpha) <= 1e-9

    def test_gradient_violation_at_zero(self):
        q = BoxQP(np.array([[2.0]]), 10.0)
        assert kkt_residual(q, np.zeros(1)) == pytest.approx(1.0)

    def test_clipped_optimum_zero_residual(self):
        q = BoxQP(np.array([[0.05]]), 10.0)
        assert kkt_residual(q, np.array([10.0])) == 0.0

    def test_clamps_before_evaluating(self):
        q = BoxQP(np.array([[2.0]]), 1.0)
        assert kkt_residual(q, np.array([5.0])) == kkt_residual(q, np.array([1.0]))


class TestRidgeIdentityProperty:
    def test_roundtrip_many(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            r = int(rng.integers(2, 12))
            c = int(rng.integers(1, 6))
            A = rng.normal(size=(r, c))
            delta = float(10.0 ** rng.integers(-5, 1))
            g = ridge_factorize(A, delta)
            x = rng.normal(size=c)
            rhs = (A.T @ A + delta * np.eye(c)) @ x
            assert np.allclose(solve_spd(g, rhs), x, atol=1e-8, rtol=1e-8)
