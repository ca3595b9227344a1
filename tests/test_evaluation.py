import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gbtwin.model
from gbtwin.dataset import Dataset, kfold_indices
from gbtwin.evaluation import (
    ACTIVATION_GRID,
    D_GRID,
    H_GRID,
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

    def test_grid_must_be_nonempty(self):
        d = make_blobs(40, seed=4)
        template = ModelConfig(granulate=False, feature_space="original", seed=0)
        with pytest.raises(ValueError):
            grid_search_cv(d, template, folds=3,
                           grid={"d": [], "h": [3], "activation": [1]}, seed=0)


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
