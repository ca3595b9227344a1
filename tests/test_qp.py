import functools
import multiprocessing
import os
import threading
import tracemalloc
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from gbtwin import model as md
from gbtwin import qp
from gbtwin.dataset import Dataset, generate_ndc, inject_label_noise, split_train_test
from gbtwin.model import ModelConfig, fit, predict
from gbtwin.qp import (
    _THREADED_Q_BYTES,
    _TILE,
    DEFAULT_MAX_SWEEPS,
    DEFAULT_TOL,
    BoxQP,
    LowRank,
    NumericalError,
    kkt_residual,
    ridge_factorize,
    solve_box_qp,
    solve_spd,
    whiten,
)

from _oracles import (
    box_qp_value,
    cyclic_box_qp_reference,
    dense_grid_box_qp,
    enumerate_box_qp,
    explicit_q_planes_reference,
    grid_box_qp,
    one_thread_kkt_residual_reference,
    serial_panel_outer_reference,
    two_mask_sweeps_reference,
    two_scratch_tile_symmetrize_reference,
    wrapper_ridge_factorize,
    wrapper_solve_spd,
    wrapper_whiten,
)
from _system import openblas_threads_kept, set_cpus

# frozen result of dense_grid_box_qp(Q=[[2,1],[1,2]], upper=10, step=1e-3),
# computed once offline (the 1e8-point sweep takes a few seconds)
DENSE_GRID_2D_ARGMAX = (0.333, 0.333)
DENSE_GRID_2D_VALUE = 0.333333


def random_psd(rng, p, extra_rows=1):
    A = rng.normal(size=(p + extra_rows, p))
    return A.T @ A


@functools.cache
def unequal_twin_classes():
    """2300 rows labelled +1 and 2100 labelled -1, in two separated clusters:
    a raw fit's dual 1 runs over 2100 rows and dual 2 over 2300, both at or
    above the threading bound."""
    rng = np.random.default_rng(8)
    X = np.vstack([rng.normal(loc=1.5, size=(2300, 5)), rng.normal(loc=-1.5, size=(2100, 5))])
    return Dataset(X, np.repeat([1.0, -1.0], [2300, 2100]))


@pytest.fixture
def threads_started(monkeypatch):
    """Every thread started until the test ends."""
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda t: started.append(t) or start(t))
    return started


@pytest.fixture
def thread_pools(monkeypatch):
    """The size of every thread pool qp starts until the test ends."""
    pools = []

    class Pool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(qp, "ThreadPoolExecutor", Pool)
    return pools


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
        L = np.tril(g.L)
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


class TestInputGuards:
    def test_non_square_q_rejected(self):
        with pytest.raises(ValueError, match="Q must be square"):
            BoxQP(np.ones((2, 3)), 1.0)

    @pytest.mark.parametrize("tol", [0.0, -1e-9])
    def test_non_positive_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be positive"):
            solve_box_qp(BoxQP(np.eye(2), 1.0), tol=tol)

    def test_one_dimensional_ridge_input_rejected(self):
        with pytest.raises(ValueError, match="A must be a 2-D matrix"):
            ridge_factorize(np.ones(3), 1.0)

    def test_ridge_input_without_columns_rejected(self):
        # LAPACK's solves refuse an empty factor, so it is never made
        with pytest.raises(ValueError, match="at least one column"):
            ridge_factorize(np.ones((3, 0)), 1.0)


def _plain_config(**kw):
    return ModelConfig(granulate=False, feature_space="original", seed=0, **kw)


_CONFIG_MESSAGE = "d1, d2, and delta must all be positive and finite"
# each solver parameter that must be finite and positive -> (a call taking
# its value, the rejection's message)
_FINITE_PARAMETERS = {
    "ModelConfig.d1": (lambda v: _plain_config(d1=v), _CONFIG_MESSAGE),
    "ModelConfig.d2": (lambda v: _plain_config(d2=v), _CONFIG_MESSAGE),
    "ModelConfig.delta": (lambda v: _plain_config(delta=v), _CONFIG_MESSAGE),
    "BoxQP.upper": (lambda v: BoxQP(np.eye(2), v), "box bound must be positive and finite"),
    "ridge_factorize.delta": (lambda v: ridge_factorize(np.eye(3), v),
                              "ridge delta must be positive and finite"),
    "fit_rvfl_baseline.ridge": (lambda v: md.fit_rvfl_baseline(
        5, 3, v, 0, generate_ndc(40, 3, 2, 5.0, seed=1)), "ridge must be positive and finite"),
    "solve_box_qp.tol": (lambda v: solve_box_qp(BoxQP(np.eye(2), 1.0), tol=v),
                         "tol must be positive and finite"),
}


class TestNonFiniteParameters:
    """NaN passes an ``x <= 0`` check and infinity is positive; both are refused."""

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("entry", list(_FINITE_PARAMETERS))
    def test_rejected(self, entry, value):
        call, message = _FINITE_PARAMETERS[entry]
        with pytest.raises(ValueError, match=message):
            call(value)


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

    @pytest.mark.parametrize("rhs", [3.0, np.zeros((2, 2, 2))])
    def test_rhs_neither_vector_nor_matrix_rejected(self, rhs):
        g = ridge_factorize(np.eye(2), delta=1.0)
        with pytest.raises(ValueError, match="rhs must be a vector or a matrix"):
            solve_spd(g, rhs)


class TestLapackMatchesWrappers:
    """The direct LAPACK calls give the bits scipy's Cholesky wrappers gave."""

    @pytest.mark.parametrize("c", [1, 34, 137, 237])
    @pytest.mark.parametrize("shape", ["tall", "wide"])
    def test_factor_solves_and_whitened_rows(self, c, shape):
        rng = np.random.default_rng(c)
        A = rng.normal(size=(2 * c + 3 if shape == "tall" else c // 4 + 1, c))
        g, ref = ridge_factorize(A, 1e-5), wrapper_ridge_factorize(A, 1e-5)
        assert g.c == ref.c == c
        assert np.array_equal(g.L, ref.factor[0])
        # a vector, a C-ordered matrix and a transposed (F-ordered) one
        for rhs in (rng.normal(size=c), rng.normal(size=(c, 5)), rng.normal(size=(3, c)).T):
            x = solve_spd(g, rhs)
            assert x.shape == rhs.shape and np.array_equal(x, wrapper_solve_spd(ref, rhs))
        for k in (0, 1, 300):
            rows = rng.normal(size=(k, c))
            V = whiten(g, rows)
            assert V.shape == (k, c) and np.array_equal(V, wrapper_whiten(ref, rows))

    def test_refused_factor_raises_the_same_error(self):
        # three identical rows leave the Gram matrix singular at a tiny ridge
        A = np.tile([0.2, 0.2, 1.0], (3, 1))
        with pytest.raises(NumericalError, match="ridge factorization failed") as new:
            ridge_factorize(A, 1e-300)
        with pytest.raises(NumericalError) as old:
            wrapper_ridge_factorize(A, 1e-300)
        assert str(new.value) == str(old.value)


class TestRowSpan:
    """``row_span`` and ``lift``: the QR of M' through ``dgeqrf`` and ``dormqr``."""

    @pytest.mark.parametrize("k,c", [(1, 2), (2, 13), (12, 13), (45, 236)])
    def test_rows_and_basis_reproduce_m(self, k, c):
        M = np.random.default_rng(k).normal(size=(k, c))
        span = qp.row_span(M)
        R_t = span.rows
        assert R_t.shape == (k, k) and np.array_equal(R_t, np.tril(R_t))
        U = qp.lift(span, np.eye(k))
        assert U.shape == (c, k)
        np.testing.assert_allclose(U.T @ U, np.eye(k), rtol=0, atol=1e-13)
        np.testing.assert_allclose(R_t @ U.T, M, rtol=0, atol=1e-12)
        np.testing.assert_allclose(qp.lift(span, R_t.T), M.T, rtol=0, atol=1e-12)

    def test_rank_deficient_rows_keep_an_orthonormal_basis(self):
        M = np.random.default_rng(3).normal(size=(6, 20))
        M[3:] = M[:3]
        span = qp.row_span(M)
        U = qp.lift(span, np.eye(6))
        np.testing.assert_allclose(U.T @ U, np.eye(6), rtol=0, atol=1e-13)
        np.testing.assert_allclose(span.rows @ U.T, M, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(3, 3), (4, 3), (0, 3), (3,)])
    def test_rejects_m_without_fewer_rows_than_columns(self, shape):
        with pytest.raises(ValueError, match="fewer rows than columns"):
            qp.row_span(np.ones(shape))

    def test_lift_checks_the_row_count(self):
        span = qp.row_span(np.random.default_rng(4).normal(size=(3, 5)))
        with pytest.raises(ValueError, match="3 rows"):
            qp.lift(span, np.ones((4, 2)))
        with pytest.raises(ValueError, match="3 rows"):
            qp.lift(span, np.ones(3))


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


class TestNewtonSteps:
    """A ``LowRank(V)`` dual with V p x c, p <= c, takes projected Newton steps."""

    @staticmethod
    def full_rank_dual(rng, p, upper):
        # V = A' with A (p + 1) x p: Q = A'A, the matrices of random_psd
        return BoxQP(LowRank(rng.normal(size=(p + 1, p)).T), upper)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(17)
        for i in range(30):
            p = int(rng.integers(1, 7))
            upper = (0.1, 1.0, 10.0)[i % 3]
            q = self.full_rank_dual(rng, p, upper)
            assert q.full_rank
            sol = solve_box_qp(q)
            _, best = enumerate_box_qp(q.Q, upper)
            assert box_qp_value(q.Q, upper, sol.alpha) == pytest.approx(best, abs=1e-8)
            assert sol.converged and sol.kkt_residual <= 1e-6

    def test_matches_zoom_grid_oracle(self):
        rng = np.random.default_rng(18)
        for i in range(10):
            p = int(rng.integers(2, 7))
            upper = (0.1, 1.0, 10.0)[i % 3]
            q = self.full_rank_dual(rng, p, upper)
            sol = solve_box_qp(q)
            _, best = grid_box_qp(q.Q, upper)
            assert abs(box_qp_value(q.Q, upper, sol.alpha) - best) <= 1e-4

    def test_alphas_agree_with_the_sweeps(self):
        # the bound of TestShrinkingAgainstReference::test_full_rank_alphas_agree
        rng = np.random.default_rng(19)
        for i in range(20):
            p = int(rng.integers(1, 7))
            upper = (0.1, 1.0, 10.0)[i % 3]
            q = self.full_rank_dual(rng, p, upper)
            sol = solve_box_qp(q)
            ref_alpha, _, _ = cyclic_box_qp_reference(q.Q, upper, DEFAULT_TOL, DEFAULT_MAX_SWEEPS)
            bound = 2.0 * np.sqrt(p) * DEFAULT_TOL / np.linalg.eigvalsh(q.Q).min()
            assert np.abs(sol.alpha - ref_alpha).max() <= bound

    def test_one_iteration_is_one_plain_sweep(self):
        V = np.random.default_rng(9).normal(size=(8, 9))
        q = BoxQP(LowRank(V), 10.0)
        assert q.full_rank
        sol = solve_box_qp(q, tol=1e-14, max_iter=1)
        ref_alpha, ref_sweeps, ref_residual = two_mask_sweeps_reference(q.Q, q.upper, 1e-14, 1)
        assert np.array_equal(sol.alpha, ref_alpha)
        assert sol.iterations == ref_sweeps == 1 and sol.kkt_residual == ref_residual
        assert not sol.converged

    def test_monotone_ascent_across_iterations(self):
        # a clipped Newton point can lie below the current one; it is not kept
        for seed in range(40):
            rng = np.random.default_rng(seed)
            p = int(rng.integers(2, 12))
            V = rng.normal(loc=rng.choice([0.0, 1.0]), size=(p, p + int(rng.integers(0, 4))))
            upper = float(rng.choice([0.01, 0.1, 1.0, 10.0]))
            q = BoxQP(LowRank(V), upper)
            prev = -np.inf
            for iterations in range(1, 15):
                sol = solve_box_qp(q, tol=1e-16, max_iter=iterations)
                value = box_qp_value(q.Q, upper, sol.alpha)
                assert value >= prev - 1e-12
                prev = value

    def test_a_step_that_lowers_the_objective_is_shortened(self):
        # from the point one plain sweep leaves, the clipped full Newton step
        # lowers the objective; the step is halved along the projection arc
        # until it does not, instead of being dropped
        shortened = 0
        for seed in range(60):
            rng = np.random.default_rng(seed)
            p = int(rng.integers(3, 7))
            upper = float(rng.choice([0.1, 1.0, 10.0]))
            q = BoxQP(LowRank(rng.normal(loc=1.0, size=(p, p + 1))), upper)
            alpha = solve_box_qp(q, tol=1e-16, max_iter=1).alpha
            grad = 1.0 - q.Q @ alpha
            free, residual = qp._free_and_residual(grad, alpha, upper)
            F = np.flatnonzero(free)
            if residual <= DEFAULT_TOL:
                continue
            d = np.linalg.solve(q.Q[np.ix_(F, F)], grad[F])
            full = alpha.copy()
            full[F] = np.clip(alpha[F] + d, 0.0, upper)
            start = box_qp_value(q.Q, upper, alpha)
            if box_qp_value(q.Q, upper, full) >= start:
                continue
            new, new_grad = qp._newton_step(q.Q, upper, alpha, grad, free)
            if new is alpha:  # the arc lowers the objective at every length
                continue
            shortened += 1
            assert box_qp_value(q.Q, upper, new) >= start
            np.testing.assert_allclose(new_grad, 1.0 - q.Q @ new, rtol=0, atol=1e-12)
            assert np.array_equal(new[~free], alpha[~free])
            assert any(
                np.allclose(new[F], np.clip(alpha[F] + 0.5**j * d, 0.0, upper), rtol=0, atol=1e-9)
                for j in range(1, qp._NEWTON_HALVINGS + 1)
            )
            sol = solve_box_qp(q)
            _, best = enumerate_box_qp(q.Q, upper)
            assert sol.converged
            assert box_qp_value(q.Q, upper, sol.alpha) == pytest.approx(best, abs=1e-8)
            prev = -np.inf
            for iterations in range(1, sol.iterations + 1):
                value = box_qp_value(q.Q, upper, solve_box_qp(q, max_iter=iterations).alpha)
                assert value >= prev - 1e-12
                prev = value
        assert shortened >= 10

    def test_singular_free_block_falls_back_to_the_sweeps(self, monkeypatch):
        # duplicate rows of V make Q singular, so Cholesky refuses the free block
        V = np.random.default_rng(2).normal(loc=1.0, size=(6, 10))
        V[4], V[5] = V[1], V[2]
        refused, solves = [], []
        factorize, solve = qp.dpotrf, qp.dpotrs

        def factor_spy(a, lower):
            factor, info = factorize(a, lower=lower)
            refused.append(info != 0)
            return factor, info

        def solve_spy(factor, rhs, lower):
            solves.append(1)
            return solve(factor, rhs, lower=lower)

        monkeypatch.setattr(qp, "dpotrf", factor_spy)
        monkeypatch.setattr(qp, "dpotrs", solve_spy)
        q = BoxQP(LowRank(V), 10.0)
        sol = solve_box_qp(q)
        assert q.full_rank and any(refused)
        assert len(solves) == refused.count(False)  # a refused factor is never used
        assert sol.converged and kkt_residual(q, sol.alpha) <= DEFAULT_TOL
        _, best = enumerate_box_qp(q.Q, q.upper)
        assert box_qp_value(q.Q, q.upper, sol.alpha) == pytest.approx(best, abs=1e-8)

    def test_newton_only_when_p_at_most_c(self, monkeypatch):
        steps = []
        step = qp._newton_step
        monkeypatch.setattr(qp, "_newton_step", lambda *a: steps.append(1) or step(*a))
        rng = np.random.default_rng(21)
        square = BoxQP(LowRank(rng.normal(loc=1.0, size=(12, 12))), 1.0)
        assert square.full_rank
        assert solve_box_qp(square).converged and steps
        steps.clear()
        tall = BoxQP(LowRank(rng.normal(loc=1.0, size=(13, 12))), 1.0)
        explicit = BoxQP(square.Q.copy(), 1.0)
        for q in (tall, explicit):
            assert not q.full_rank
            sol = solve_box_qp(q)
            ref_alpha, ref_sweeps, ref_residual = two_mask_sweeps_reference(
                q.Q, q.upper, DEFAULT_TOL, DEFAULT_MAX_SWEEPS
            )
            assert np.array_equal(sol.alpha, ref_alpha)
            assert sol.iterations == ref_sweeps and sol.kkt_residual == ref_residual
        assert steps == []

    def test_far_fewer_iterations_than_the_sweeps(self):
        # rows shifted to one side, as in a twin dual, slow the sweeps down
        V = np.random.default_rng(20).normal(loc=1.0, size=(20, 60))
        q = BoxQP(LowRank(V), 1.0)
        sol = solve_box_qp(q)
        _, ref_sweeps, _ = two_mask_sweeps_reference(q.Q, q.upper, DEFAULT_TOL, DEFAULT_MAX_SWEEPS)
        assert sol.converged and kkt_residual(q, sol.alpha) <= DEFAULT_TOL
        assert 4 * sol.iterations <= ref_sweeps


class TestMemoryGuard:
    """A ``LowRank`` dual whose p x p matrix exceeds physical memory is refused."""

    def test_refused_before_allocation(self, monkeypatch):
        p = 300
        monkeypatch.setattr(qp, "physical_memory_bytes", lambda: 8 * p * p - 1)
        V = np.random.default_rng(0).normal(size=(p, 5))
        tracemalloc.start()
        try:
            with pytest.raises(NumericalError, match=f"{p} x {p} dual matrix needs {8 * p * p} bytes"):
                BoxQP(LowRank(V), 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * 8 * p * p

    def test_fit_refuses_its_buffer_before_either_dual(self, monkeypatch):
        # dual 1's 2100 rows would fit; the one buffer is sized for dual 2's
        # 2300 rows, so it is refused before dual 1 is built
        p = 2300
        monkeypatch.setattr(qp, "physical_memory_bytes", lambda: 8 * p * p - 1)
        cfg = ModelConfig(granulate=False, feature_space="original", seed=0)
        data = unequal_twin_classes()
        tracemalloc.start()
        try:
            with pytest.raises(NumericalError, match=f"{p} x {p} dual matrix needs {8 * p * p} bytes"):
                fit(cfg, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * 8 * p * p

    def test_q_that_fits_is_built(self, monkeypatch):
        p = 300
        monkeypatch.setattr(qp, "physical_memory_bytes", lambda: 8 * p * p)
        V = np.random.default_rng(0).normal(size=(p, 5))
        assert BoxQP(LowRank(V), 1.0).Q.tobytes() == serial_panel_outer_reference(V).tobytes()

    def test_physical_memory_is_read_or_unknown(self):
        limit = qp.physical_memory_bytes()
        assert limit is None or limit > 0


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


class TestFactoredDual:
    """``BoxQP(LowRank(V), upper)`` builds ``V V'`` in row panels of ``_TILE`` rows."""

    C = 7
    # one row, below one panel, an exact multiple of the panel, a partial last panel
    SIZES = [1, _TILE - 5, 2 * _TILE, 2 * _TILE + 37]

    def factor(self, k, seed=0):
        return np.random.default_rng(seed).normal(size=(k, self.C))

    @pytest.mark.parametrize("k", SIZES)
    def test_exactly_symmetric_and_within_rounding_of_v_vt(self, k):
        V = self.factor(k)
        Q = BoxQP(LowRank(V), 1.0).Q
        assert Q.shape == (k, k) and Q.flags.c_contiguous and not Q.flags.writeable
        assert np.array_equal(Q, Q.T)
        # each entry is a c-term dot product: both sides are within
        # c * u * max|V_i|^2 of it, u = eps / 2
        tol = self.C * np.finfo(np.float64).eps * float(np.einsum("ij,ij->i", V, V).max())
        assert np.abs(Q - V @ V.T).max() <= tol

    @pytest.mark.parametrize("k", SIZES)
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e200, 1.5e154])
    def test_bad_row_rejected_without_warning(self, k, value):
        # 1e200 squares past the float range; 1.5e154 squares to 2.25e308,
        # finite but above the finfo.max / 4 bound on |V_i|^2
        V = self.factor(k, seed=1)
        V[-1, -1] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="Q contains non-finite entries"):
                BoxQP(LowRank(V), 1.0)

    def test_rows_at_the_bound_keep_q_finite(self):
        V = np.zeros((3, self.C))
        V[:2, 0] = np.sqrt(np.finfo(np.float64).max / 4)
        V[1, 0] *= -1.0
        V[2] = 1.0
        Q = BoxQP(LowRank(V), 1.0).Q
        assert np.all(np.isfinite(Q)) and np.array_equal(Q, Q.T)

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            BoxQP(LowRank(np.ones(3)), 1.0)
        with pytest.raises(ValueError, match="3 columns"):
            whiten(ridge_factorize(np.eye(3), 1.0), np.ones((4, 2)))

    def test_peak_memory_stays_near_one_matrix(self):
        # Q is allocated once and filled panel by panel; no k x k copy
        k = 3000
        V = self.factor(k, seed=2)
        tracemalloc.start()
        try:
            BoxQP(LowRank(V), 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 8 * k * k

    def test_whiten_factors_the_explicit_dual(self):
        rng = np.random.default_rng(3)
        near, far = rng.normal(size=(40, 6)), rng.normal(size=(30, 6))
        g = ridge_factorize(near, 1e-3)
        V = whiten(g, far)
        np.testing.assert_allclose(V @ V.T, far @ solve_spd(g, far.T), rtol=1e-12, atol=1e-12)

    def test_fit_with_huge_far_class_raises_without_warning(self):
        # the basis forms the far class's own ridge factor, for plane 2,
        # before plane 1's dual, and that Gram matrix overflows first
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 8))
        y = np.repeat([1.0, -1.0], 20)
        X[y < 0] *= 1e200
        cfg = ModelConfig(granulate=False, feature_space="original", seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="the Gram matrix of a finite matrix overflows"):
                fit(cfg, Dataset(X, y))

    def test_fit_with_huge_dual_factor_raises_without_warning(self):
        # a near class in two columns (and the ones column) has a ridge
        # factor with pivots near sqrt(delta): the far class's Gram matrix
        # stays finite, and its V, and so Q, passes the float range
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 8))
        y = np.repeat([1.0, -1.0], 20)
        X[y > 0, 2:] = 0.0
        X[y < 0] *= 1e152
        cfg = ModelConfig(granulate=False, feature_space="original", seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="Q contains non-finite entries"):
                fit(cfg, Dataset(X, y))

    @pytest.mark.parametrize("granulate,space", [
        (False, "original"),
        (True, "original"),
        (False, "enhanced"),
    ])
    def test_fit_matches_the_explicit_q_reference(self, granulate, space):
        # Q = V V' differs from far G^-1 far' in its last bits, so planes may
        # differ within criterion 3's 1e-6; labels may not
        data = inject_label_noise(generate_ndc(600, 5, 2, 2.0, seed=4), 0.05, seed=4)
        pair = split_train_test(data, 0.7, seed=4)
        cfg = ModelConfig(granulate=granulate, feature_space=space, seed=4, h=20, activation=3)
        mdl = fit(cfg, pair.train)
        basis = md.fit_basis(cfg, pair.train)
        u1, u2 = explicit_q_planes_reference(basis, cfg.d1, cfg.d2, DEFAULT_TOL, DEFAULT_MAX_SWEEPS)
        ref = replace(mdl, u1=u1, u2=u2)
        assert max(np.abs(mdl.u1 - ref.u1).max(), np.abs(mdl.u2 - ref.u2).max()) <= 1e-6
        assert np.array_equal(predict(mdl, pair.test.features), predict(ref, pair.test.features))


class TestThreadedPanels:
    """Panels of a Q of ``_THREADED_Q_BYTES`` or more run on a thread pool."""

    # below, at and above the threading bound (p = 2048) and around a panel
    SIZES = [1, _TILE - 1, _TILE, _TILE + 1, 2047, 2048, 2049, 3000]

    def test_bound_is_p_2048(self):
        assert 8 * 2047**2 < _THREADED_Q_BYTES <= 8 * 2048**2

    @pytest.mark.parametrize("c", [1, 34, 237])
    @pytest.mark.parametrize("p", SIZES)
    # None: the CPUs this process may use; 3: more threads than a 2-CPU host has
    @pytest.mark.parametrize("cpus", [None, 3])
    def test_same_bits_as_the_serial_loop(self, monkeypatch, cpus, p, c):
        if cpus is not None:
            set_cpus(monkeypatch, cpus)
        V = np.random.default_rng(p + c).normal(size=(p, c))
        Q = qp._outer_in_panels(V)
        assert Q.tobytes() == serial_panel_outer_reference(V).tobytes()
        assert np.array_equal(Q, Q.T)

    def test_no_thread_outlives_the_build(self):
        V = np.random.default_rng(0).normal(size=(2100, 5))
        before = threading.active_count()
        BoxQP(LowRank(V), 1.0)
        assert threading.active_count() == before

    # one CPU above the bound; three CPUs just below it
    @pytest.mark.parametrize("cpus,p", [(1, 2100), (3, 2047)])
    def test_serial_build_starts_no_thread(self, monkeypatch, cpus, p):
        set_cpus(monkeypatch, cpus)
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda t: started.append(t) or start(t))
        V = np.random.default_rng(1).normal(size=(p, 34))
        Q = BoxQP(LowRank(V), 1.0).Q
        assert started == []
        assert Q.tobytes() == serial_panel_outer_reference(V).tobytes()

    @pytest.mark.parametrize("cpus,workers", [(3, 3), (64, 17)])
    def test_one_thread_per_cpu_and_at_most_one_per_panel(self, monkeypatch, cpus, workers):
        # a 2100-row V has 17 panels
        set_cpus(monkeypatch, cpus)
        pools = []

        class Pool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(qp, "ThreadPoolExecutor", Pool)
        V = np.random.default_rng(2).normal(size=(2100, 3))
        Q = BoxQP(LowRank(V), 1.0).Q
        assert pools == [workers]
        assert Q.tobytes() == serial_panel_outer_reference(V).tobytes()


class TestPanelMatvec:
    """``qp._matvec`` gives ``Q @ x`` of a large Q on the panel threads.

    Each test runs on one BLAS thread, where the bits are pinned: with
    several, OpenBLAS splits the rows of ``Q @ x`` itself among them.
    """

    SIZES = TestThreadedPanels.SIZES

    @pytest.fixture(autouse=True)
    def one_blas_thread(self):
        with openblas_threads_kept():
            qp.one_blas_thread(qp.openblas_thread_controls())
            yield

    @staticmethod
    def vector(p, kind, seed=0):
        rng = np.random.default_rng(seed)
        if kind == "dense":
            return rng.normal(size=p)
        # most coordinates of a dual's alpha sit at a bound
        return np.where(rng.random(p) < 0.8, 0.0, rng.choice([0.3, 1.0], size=p))

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    @pytest.mark.parametrize("p", SIZES)
    @pytest.mark.parametrize("cpus", [None, 3])
    def test_same_bits_as_q_at_x(self, monkeypatch, cpus, p, kind):
        if cpus is not None:
            set_cpus(monkeypatch, cpus)
        Q = np.random.default_rng(p).normal(size=(p, p))
        x = self.vector(p, kind)
        assert qp._matvec(Q, x).tobytes() == (Q @ x).tobytes()

    # one CPU above the bound; three CPUs just below it
    @pytest.mark.parametrize("cpus,p", [(1, 2100), (3, 2047)])
    def test_starts_no_thread_below_the_bound_or_on_one_cpu(
        self, monkeypatch, threads_started, cpus, p
    ):
        set_cpus(monkeypatch, cpus)
        Q = np.random.default_rng(1).normal(size=(p, p))
        x = self.vector(p, "dense")
        assert qp._matvec(Q, x).tobytes() == (Q @ x).tobytes()
        assert threads_started == []

    def test_no_thread_outlives_the_call(self, monkeypatch, threads_started):
        set_cpus(monkeypatch, 2)
        Q = np.random.default_rng(2).normal(size=(2100, 2100))
        before = threading.active_count()
        qp._matvec(Q, self.vector(2100, "sparse"))
        assert len(threads_started) == 2
        assert threading.active_count() == before

    @pytest.mark.parametrize("cpus,workers", [(3, 3), (64, 17)])
    def test_one_thread_per_cpu_and_at_most_one_per_panel(
        self, monkeypatch, thread_pools, cpus, workers
    ):
        # a 2100-row Q has 17 panels
        set_cpus(monkeypatch, cpus)
        Q = np.random.default_rng(3).normal(size=(2100, 2100))
        x = self.vector(2100, "dense")
        assert qp._matvec(Q, x).tobytes() == (Q @ x).tobytes()
        assert thread_pools == [workers]

    @pytest.mark.parametrize("cpus", [None, 3])
    def test_kkt_residual_keeps_its_values(self, monkeypatch, cpus):
        if cpus is not None:
            set_cpus(monkeypatch, cpus)
        p = 2100
        q = BoxQP(LowRank(np.random.default_rng(4).normal(loc=0.5, size=(p, 34))), 1.0)
        rng = np.random.default_rng(5)
        # at the lower bound, inside the box, outside it (clamped), and sparse
        for alpha in (np.zeros(p), rng.uniform(0, 1, p), rng.uniform(-1, 2, p),
                      self.vector(p, "sparse")):
            assert kkt_residual(q, alpha) == one_thread_kkt_residual_reference(q, alpha)

    def test_solve_takes_its_fresh_gradient_on_the_panel_threads(self, monkeypatch, thread_pools):
        set_cpus(monkeypatch, 3)
        q = BoxQP(LowRank(np.random.default_rng(6).normal(loc=0.5, size=(2100, 5))), 0.01)
        thread_pools.clear()
        sol = solve_box_qp(q, tol=1e-6)
        assert thread_pools and set(thread_pools) == {3}
        set_cpus(monkeypatch, 1)
        serial = solve_box_qp(q, tol=1e-6)
        assert sol.alpha.tobytes() == serial.alpha.tobytes()
        assert (sol.iterations, sol.kkt_residual) == (serial.iterations, serial.kkt_residual)


class TestOneBufferPerFit:
    """``fit_planes`` builds both twin duals in one ``qp.dual_buffer``, sized
    for the larger: 2100 and 2300 rows here."""

    @pytest.fixture(scope="class")
    def basis(self):
        cfg = ModelConfig(granulate=False, feature_space="original", seed=0)
        basis = md.fit_basis(cfg, unequal_twin_classes())
        assert [V.shape[0] for _, _, V in basis.sides] == [2100, 2300]
        return basis

    def test_both_duals_are_built_in_one_buffer(self, monkeypatch, basis):
        buffers, duals = [], []
        dual_buffer, box_qp = qp.dual_buffer, qp.BoxQP
        monkeypatch.setattr(qp, "dual_buffer",
                            lambda p: buffers.append(dual_buffer(p)) or buffers[-1])
        monkeypatch.setattr(qp, "BoxQP", lambda *args: duals.append(box_qp(*args)) or duals[-1])
        md.fit_planes(basis, 1.0, 1.0, DEFAULT_TOL, DEFAULT_MAX_SWEEPS)
        assert [b.size for b in buffers] == [2300**2]
        assert [q.p for q in duals] == [2100, 2300]
        assert all(np.shares_memory(q.Q, buffers[0]) for q in duals)

    def test_peak_memory_stays_near_the_larger_dual(self, basis):
        tracemalloc.start()
        try:
            md.fit_planes(basis, 1.0, 1.0, DEFAULT_TOL, DEFAULT_MAX_SWEEPS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 8 * 2300**2

    def test_each_dual_has_the_bits_of_a_fresh_build(self, basis):
        d1, d2 = 0.5, 2.0
        u1, u2, diag = md.fit_planes(basis, d1, d2, DEFAULT_TOL, DEFAULT_MAX_SWEEPS)
        planes, sols = [], []
        for (gram, far, V), upper in zip(basis.sides, (d1, d2)):
            sol = solve_box_qp(BoxQP(LowRank(V), upper))
            planes.append(solve_spd(gram, far.T @ sol.alpha))
            sols.append(sol)
        assert u1.tobytes() == (-planes[0]).tobytes() and u2.tobytes() == planes[1].tobytes()
        assert diag.dual_iterations == tuple(sol.iterations for sol in sols)
        assert diag.dual_residuals == tuple(sol.kkt_residual for sol in sols)


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


class TestSystemQueries:
    @pytest.mark.parametrize("error", [ValueError, OSError])
    def test_physical_memory_unknown_where_sysconf_fails(self, monkeypatch, error):
        def sysconf(name):
            raise error(name)

        monkeypatch.setattr(os, "sysconf", sysconf)
        assert qp.physical_memory_bytes() is None

    def test_physical_memory_unknown_without_sysconf(self, monkeypatch):
        monkeypatch.delattr(os, "sysconf")
        assert qp.physical_memory_bytes() is None

    @pytest.mark.parametrize("count, cpus", [(3, 3), (None, 1)])
    def test_usable_cpus_without_an_affinity_mask(self, monkeypatch, count, cpus):
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert qp.usable_cpus() == cpus

    def test_usable_cpus_is_one_in_a_forked_child(self, monkeypatch):
        # the child inherits the faked four CPUs, and its siblings may hold them
        set_cpus(monkeypatch, 4)
        assert qp.usable_cpus() == 4
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
            assert pool.submit(qp.usable_cpus).result() == 1
