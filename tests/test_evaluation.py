import faulthandler
import math
import multiprocessing
import multiprocessing.process
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gbtwin.model
from gbtwin import evaluation, qp
from gbtwin.dataset import Dataset, kfold_indices
from gbtwin.evaluation import (
    ACTIVATION_GRID,
    D_GRID,
    H_GRID,
    NEMENYI_Q05,
    RankTable,
    benchmark_fit,
    compute_metrics,
    emit_report,
    friedman_test,
    grid_combinations,
    grid_search_cv,
    nemenyi_cd,
    rank_models,
    read_report,
)
from gbtwin.model import ModelConfig, fit, predict
from gbtwin.seeding import derive_seed

from _oracles import average_ranks_reference
from _reference_tables import (
    ACCURACY_TABLE,
    RECOMPUTED_AVG_RANKS,
    REPORTED_AVG_RANKS,
    REPORTED_RANK_ROWS,
)
from _synth import make_blobs


class TestMetrics:
    def test_perfect(self):
        m = compute_metrics([1, -1], [1, -1])
        assert (m.acc, m.precision, m.recall, m.specificity) == (1.0, 1.0, 1.0, 1.0)

    def test_total_error(self):
        y = np.array([1.0, -1.0, 1.0, -1.0])
        m = compute_metrics(y, -y)
        assert m.acc == 0.0

    def test_symmetric_confusion(self):
        m = compute_metrics([1, 1, -1, -1], [1, -1, 1, -1])
        assert m.tp == m.tn == m.fp == m.fn == 1
        assert m.acc == m.precision == m.recall == m.specificity == 0.5

    def test_counts_partition_n(self):
        rng = np.random.default_rng(0)
        yt = rng.choice([-1.0, 1.0], 50)
        yp = rng.choice([-1.0, 1.0], 50)
        m = compute_metrics(yt, yp)
        assert m.tp + m.tn + m.fp + m.fn == 50

    def test_undefined_ratios_are_none(self):
        m = compute_metrics([-1, -1], [-1, -1])  # no positives anywhere
        assert m.precision is None and m.recall is None
        assert m.specificity == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            compute_metrics([1], [1, -1])


class TestRankModels:
    def test_strict_order(self):
        rt = rank_models([[0.9, 0.8, 0.7]])
        assert rt.ranks.tolist() == [[1.0, 2.0, 3.0]]

    def test_tie_averaging(self):
        rt = rank_models([[0.9, 0.9, 0.7]])
        assert rt.ranks.tolist() == [[1.5, 1.5, 3.0]]

    def test_matches_independent_ranking(self):
        rng = np.random.default_rng(1)
        scores = np.round(rng.uniform(size=(12, 5)), 2)  # induce ties
        rt = rank_models(scores)
        ranks_ref, avg_ref = average_ranks_reference(scores)
        assert np.allclose(rt.ranks, ranks_ref)
        assert np.allclose(rt.avg_ranks, avg_ref)

    def test_reference_table_recomputation(self):
        rt = rank_models(ACCURACY_TABLE)
        assert np.allclose(rt.avg_ranks, RECOMPUTED_AVG_RANKS)
        _, avg_ref = average_ranks_reference(ACCURACY_TABLE)
        assert np.allclose(rt.avg_ranks, avg_ref)

    def test_reported_row_set_provenance(self):
        # The row set behind REPORTED_AVG_RANKS follows from the data alone:
        # of all single-row exclusions only dropping row 2 reproduces the
        # reported row to its print precision, and the full table does not.
        def matches(rows):
            _, avg = average_ranks_reference(ACCURACY_TABLE[rows])
            return np.abs(avg - REPORTED_AVG_RANKS).max() <= 0.005

        P = len(ACCURACY_TABLE)
        assert not matches(np.arange(P))
        hits = [r for r in range(P) if matches(np.delete(np.arange(P), r))]
        assert hits == [2]
        assert np.array_equal(REPORTED_RANK_ROWS, np.delete(np.arange(P), 2))

    @given(st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_row_sums_invariant(self, seed):
        rng = np.random.default_rng(seed)
        P = int(rng.integers(1, 8))
        q = int(rng.integers(2, 7))
        scores = np.round(rng.uniform(size=(P, q)), 1)
        rt = rank_models(scores)
        expected = q * (q + 1) / 2
        assert np.allclose(rt.ranks.sum(axis=1), expected)


class TestFriedman:
    def test_hand_derived_example(self):
        # 3 models, 4 datasets: ranks (1,2,3) three times and (3,2,1) once
        scores = np.array(
            [[0.9, 0.8, 0.7], [0.9, 0.8, 0.7], [0.9, 0.8, 0.7], [0.7, 0.8, 0.9]]
        )
        rt = rank_models(scores)
        assert np.allclose(rt.avg_ranks, [1.5, 2.0, 2.5])
        fr = friedman_test(rt)
        assert fr.chi2 == pytest.approx(2.0)
        assert fr.ff == pytest.approx(1.0)
        assert fr.dof == (2, 6)

    def test_all_tied_gives_zero(self):
        scores = np.full((5, 4), 0.5)
        fr = friedman_test(rank_models(scores))
        assert fr.chi2 == pytest.approx(0.0, abs=1e-12)

    def test_identical_orderings_give_infinite_ff(self):
        scores = np.tile([0.9, 0.8, 0.7, 0.6], (6, 1))
        fr = friedman_test(rank_models(scores))
        assert fr.chi2 == pytest.approx(6 * 3)  # P * (q - 1)
        assert math.isinf(fr.ff)

    def test_zero_iff_equal_avg_ranks(self):
        rng = np.random.default_rng(3)
        scores = rng.uniform(size=(6, 4))
        rt = rank_models(scores)
        fr = friedman_test(rt)
        spread = np.ptp(rt.avg_ranks)
        assert (fr.chi2 < 1e-9) == (spread < 1e-9)


class TestNemenyi:
    def test_reference_constant(self):
        assert nemenyi_cd(8, 32, 3.031) == pytest.approx(1.8561, abs=1e-4)

    def test_linear_in_q_alpha(self):
        assert nemenyi_cd(8, 32, 0.0) == 0.0

    def test_direct_evaluation(self):
        assert nemenyi_cd(2, 6, 1.0) == pytest.approx(math.sqrt(6 / 36), abs=1e-12)

    def test_monotonicity(self):
        assert nemenyi_cd(9, 32, 3.031) > nemenyi_cd(8, 32, 3.031)
        assert nemenyi_cd(8, 32, 3.2) > nemenyi_cd(8, 32, 3.031)
        assert nemenyi_cd(8, 64, 3.031) < nemenyi_cd(8, 32, 3.031)

    def test_q_table_matches_studentized_range(self):
        # Demsar's q_alpha is the studentized range quantile (infinite df) over sqrt 2
        from scipy.stats import studentized_range

        assert sorted(NEMENYI_Q05) == list(range(2, 9))
        for k, q in NEMENYI_Q05.items():
            exact = studentized_range.ppf(0.95, k, np.inf) / math.sqrt(2)
            assert q == pytest.approx(exact, abs=1e-3)


class TestGridSearch:
    def test_default_grid_size(self):
        assert len(D_GRID) == 11
        assert len(H_GRID) == 11
        assert H_GRID[0] == 3 and H_GRID[-1] == 203
        assert len(ACTIVATION_GRID) == 9
        assert len(grid_combinations()) == 1089

    def test_single_combination_returned(self):
        d = make_blobs(40, seed=1)
        template = ModelConfig(granulate=False, feature_space="original", seed=0)
        grid = {"d": [1.0], "h": [3], "activation": [2]}
        best, table = grid_search_cv(d, template, folds=3, grid=grid, seed=5)
        assert len(table) == 1
        assert best.d1 == best.d2 == 1.0

    def test_deterministic_across_runs(self):
        d = make_blobs(50, seed=2)
        template = ModelConfig(granulate=False, feature_space="original", seed=0)
        grid = {"d": [0.1, 1.0], "h": [3], "activation": [2]}
        r1 = grid_search_cv(d, template, folds=3, grid=grid, seed=7)
        r2 = grid_search_cv(d, template, folds=3, grid=grid, seed=7)
        assert r1[0] == r2[0]
        assert r1[1] == r2[1]

    def test_tie_breaks_toward_smaller_d(self):
        d = make_blobs(60, seed=3)  # cleanly separable: many combos reach 1.0
        template = ModelConfig(granulate=False, feature_space="original", seed=0)
        grid = {"d": [10.0, 0.1], "h": [3], "activation": [2]}
        best, table = grid_search_cv(d, template, folds=3, grid=grid, seed=9)
        accs = {r["d"]: r["mean_acc"] for r in table}
        if accs[10.0] == accs[0.1]:
            assert best.d1 == 0.1

    def test_single_class_folds_skipped(self):
        # one positive among ten rows: the fold holding it has a
        # single-class complement, so that fold is skipped
        feats = np.arange(10, dtype=float)[:, None]
        labs = -np.ones(10)
        labs[0] = 1.0
        d = Dataset(feats, labs)
        template = ModelConfig(granulate=False, feature_space="original", seed=0)
        grid = {"d": [1.0], "h": [3], "activation": [2]}
        _, table = grid_search_cv(d, template, folds=5, grid=grid, seed=11)
        assert table[0]["skipped_folds"] == 1
        assert len(table[0]["fold_accs"]) == 4

    def test_granulates_once_per_fold(self, monkeypatch):
        calls = []
        granulate = gbtwin.model.generate_granular_balls

        def counting(d, eta):
            calls.append(d.fingerprint())
            return granulate(d, eta)

        monkeypatch.setattr(gbtwin.model, "generate_granular_balls", counting)
        d = make_blobs(90, seed=5, spread=1.2, distance=2.0)
        template = ModelConfig(granulate=True, feature_space="enhanced",
                               seed=0, eta=0.95)
        grid = {"d": [0.1, 10.0], "h": [3, 8], "activation": [2, 3]}
        folds = 3
        _, table = grid_search_cv(d, template, folds=folds, grid=grid, seed=6)
        assert len(calls) == folds and len(set(calls)) == folds

        # every (combination, fold) fit from scratch, each granulating anew
        expected = []
        fold_sets = kfold_indices(d.n, folds, 6)
        for idx, (dd, h, act) in enumerate(grid_combinations(grid)):
            cfg = ModelConfig(granulate=True, feature_space="enhanced",
                              seed=derive_seed(6, idx), eta=0.95,
                              d1=dd, d2=dd, h=h, activation=act)
            accs = []
            for fold in fold_sets:
                cv_train = d.take(np.setdiff1d(np.arange(d.n), fold))
                cv_val = d.take(fold)
                mdl = fit(cfg, cv_train)
                accs.append(compute_metrics(cv_val.labels,
                                            predict(mdl, cv_val.features)).acc)
            expected.append({"d": dd, "h": h, "activation": act,
                             "mean_acc": float(np.mean(accs)), "fold_accs": accs,
                             "skipped_folds": 0, "seed": cfg.seed})
        assert len(calls) == folds + len(expected) * folds
        assert table == expected
        assert len({r["mean_acc"] for r in table}) > 1

    def test_best_config_is_the_winning_record_on_the_template(self):
        d = make_blobs(90, seed=5, spread=1.2, distance=2.0)
        template = ModelConfig(granulate=True, feature_space="enhanced", seed=0,
                               eta=0.95, delta=1e-3)
        grid = {"d": [0.1, 10.0], "h": [3, 8], "activation": [2, 3]}
        best, table = grid_search_cv(d, template, folds=3, grid=grid, seed=6)
        win = min(table, key=lambda r: (-r["mean_acc"], r["d"], r["h"], r["activation"]))
        assert win is not table[0]  # the seed and combination differ from the first
        assert (best.d1, best.d2, best.h, best.activation, best.seed) == (
            win["d"], win["d"], win["h"], win["activation"], win["seed"])
        assert (best.granulate, best.feature_space, best.eta, best.delta) == (
            True, "enhanced", 0.95, 1e-3)

    def test_grid_must_be_nonempty(self):
        d = make_blobs(40, seed=4)
        template = ModelConfig(granulate=False, feature_space="original", seed=0)
        with pytest.raises(ValueError):
            grid_search_cv(d, template, folds=3,
                           grid={"d": [], "h": [3], "activation": [1]}, seed=0)


def _threads_in_worker():
    return len(os.listdir("/proc/self/task"))


def _pool_grid():
    """A granulated enhanced grid search: 8 combinations x 3 folds = 24 fits."""
    d = make_blobs(90, seed=5, spread=1.2, distance=2.0)
    template = ModelConfig(granulate=True, feature_space="enhanced", seed=0, eta=0.95)
    grid = {"d": [0.1, 10.0], "h": [3, 8], "activation": [2, 3]}
    return grid_search_cv(d, template, folds=3, grid=grid, seed=6)


def _fold_sets(larger_class):
    """One fold set whose training part has ``larger_class`` rows of class +1."""
    labels = np.r_[np.ones(larger_class), -np.ones(2)]
    train = Dataset(np.zeros((labels.size, 1)), labels)
    return [(train, train)]


class TestGridSearchPool:
    @pytest.fixture
    def started(self, monkeypatch):
        """Names of the processes this process starts, in start order."""
        names = []
        start = multiprocessing.process.BaseProcess.start

        def counting(proc):
            names.append(proc.name)
            start(proc)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counting)
        return names

    @pytest.fixture
    def watchdog(self):
        """Ends a hung test run with every thread's stack instead of waiting."""
        faulthandler.dump_traceback_later(120, exit=True)
        yield
        faulthandler.cancel_dump_traceback_later()

    def test_pool_gives_the_in_process_table_and_selection(self, monkeypatch, started):
        monkeypatch.setattr(qp, "usable_cpus", lambda: 1)
        best1, table1 = _pool_grid()
        assert started == []  # one CPU: in-process, no process started
        monkeypatch.setattr(qp, "usable_cpus", lambda: 2)
        best2, table2 = _pool_grid()
        assert len(started) == 2
        assert table2 == table1
        assert best2 == best1
        assert len({r["mean_acc"] for r in table1}) > 1
        assert multiprocessing.active_children() == []

    def test_one_worker_per_job_when_jobs_are_fewer_than_cpus(self, monkeypatch, started):
        monkeypatch.setattr(qp, "usable_cpus", lambda: 8)
        d = make_blobs(40, seed=1)
        template = ModelConfig(granulate=False, feature_space="original", seed=0)
        grid = {"d": [1.0], "h": [3], "activation": [2]}
        _, table = grid_search_cv(d, template, folds=3, grid=grid, seed=5)
        assert len(started) == 3 and len(table[0]["fold_accs"]) == 3
        assert multiprocessing.active_children() == []

    def test_refused_dual_is_the_in_process_error(self, monkeypatch, started):
        # every fit's dual is refused, and no worker fits beside it in memory
        monkeypatch.setattr(qp, "_physical_memory_bytes", lambda: 8)
        errors = []
        for cpus in (1, 2):
            monkeypatch.setattr(qp, "usable_cpus", lambda: cpus)
            with pytest.raises(qp.NumericalError) as err:
                _pool_grid()
            errors.append((type(err.value), str(err.value)))
        assert started == []
        assert errors[0] == errors[1]
        assert errors[0][1].endswith("more than the 8 bytes of physical memory")

    def test_worker_error_is_the_in_process_error(self, monkeypatch, started, watchdog):
        # every fit's dual is rejected as non-finite, in the workers too
        monkeypatch.setattr(qp, "_ROW_NORM_SQ_MAX", -1.0)
        errors = []
        for cpus in (1, 2):
            monkeypatch.setattr(qp, "usable_cpus", lambda: cpus)
            with pytest.raises(qp.NumericalError) as err:
                _pool_grid()
            errors.append((type(err.value), str(err.value)))
            assert multiprocessing.active_children() == []
        assert len(started) == 2
        assert errors == [(qp.NumericalError, "Q contains non-finite entries")] * 2

    def test_error_path_does_not_hang(self, monkeypatch, watchdog):
        monkeypatch.setattr(qp, "_ROW_NORM_SQ_MAX", -1.0)
        monkeypatch.setattr(qp, "usable_cpus", lambda: 4)
        for _ in range(30):
            with pytest.raises(qp.NumericalError):
                _pool_grid()
        assert multiprocessing.active_children() == []

    def test_dead_worker_raises_instead_of_hanging(self, monkeypatch, watchdog):
        caller = os.getpid()

        def die_in_worker(*args, **kwargs):
            assert os.getpid() != caller
            os._exit(1)

        monkeypatch.setattr(evaluation, "fit", die_in_worker)
        monkeypatch.setattr(qp, "usable_cpus", lambda: 2)
        with pytest.raises(BrokenProcessPool):
            _pool_grid()
        assert multiprocessing.active_children() == []

    def test_unpinnable_openblas_runs_in_process(self, monkeypatch, started):
        assert evaluation._openblas_thread_controls()  # numpy's OpenBLAS at least
        monkeypatch.setattr(qp, "usable_cpus", lambda: 1)
        best1, table1 = _pool_grid()
        monkeypatch.setattr(evaluation, "_OPENBLAS_SETTERS", ("no_such_setter",))
        assert evaluation._openblas_thread_controls() is None
        monkeypatch.setattr(qp, "usable_cpus", lambda: 2)
        best2, table2 = _pool_grid()
        assert (best2, table2) == (best1, table1)
        assert started == []

    def test_workers_fit_in_memory_and_below_threaded_duals(self, monkeypatch):
        monkeypatch.setattr(qp, "usable_cpus", lambda: 4)
        dual = 8 * 100 * 100
        monkeypatch.setattr(qp, "_physical_memory_bytes", lambda: 3 * dual - 1)
        assert evaluation._grid_workers(_fold_sets(100), jobs=10) == 2
        assert evaluation._grid_workers(_fold_sets(100), jobs=1) == 1
        monkeypatch.setattr(qp, "_physical_memory_bytes", lambda: None)
        assert evaluation._grid_workers(_fold_sets(100), jobs=10) == 4
        # a dual built on every CPU already: in-process
        assert evaluation._grid_workers(_fold_sets(2047), jobs=10) == 4
        assert evaluation._grid_workers(_fold_sets(2048), jobs=10) == 1

    def test_worker_runs_no_blas_thread(self):
        # after a fork, setting OpenBLAS's thread count restarts its thread
        # pool, whose idle threads spin; the worker must end up with none
        np.linalg.cholesky(np.eye(512) * 2.0)  # let BLAS start its threads here
        ctx = multiprocessing.get_context("fork")
        blas = evaluation._openblas_thread_controls()
        with ProcessPoolExecutor(1, mp_context=ctx, initializer=evaluation._start_grid_worker,
                                 initargs=([], [], blas)) as pool:
            threads = pool.submit(_threads_in_worker).result()
        assert threads == 1


class TestBenchmarkFit:
    def test_row_structure(self):
        cfg = ModelConfig(granulate=True, feature_space="original", seed=1, eta=0.9)
        datasets = [make_blobs(n, seed=n) for n in (100, 200)]
        rows = benchmark_fit(cfg, datasets, repeats=1)
        assert [r["n"] for r in rows] == [100, 200]
        for row in rows:
            assert row["k"] >= 2
            assert row["fit_seconds"] >= 0.0
            assert 0.0 <= row["accuracy"] <= 1.0


class TestReportIO:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "report.json"
        emit_report({"command": "train", "value": [1, 2, 3]}, path)
        doc = read_report(path)
        assert doc["command"] == "train"
        assert doc["value"] == [1, 2, 3]
        assert doc["schema_version"] == 1

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "report.json"
        emit_report({"schema_version": 42}, path)
        with pytest.raises(ValueError, match="schema version"):
            read_report(path)
