"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

import numpy as np
import pytest

from gbtwin.dataset import (
    Dataset,
    generate_ndc,
    inject_label_noise,
    kfold_indices,
    minmax_ranges,
    normalize_minmax,
    split_train_test,
)
from gbtwin.evaluation import friedman_test, nemenyi_cd, rank_models
from gbtwin.features import enhanced_features, init_random_layer
from gbtwin.granular import generate_granular_balls, purity
from gbtwin.model import (
    ModelConfig,
    TwinModel,
    fit,
    load_model,
    predict,
    save_model,
)
from gbtwin.qp import BoxQP, solve_box_qp

from _oracles import box_qp_value, grid_box_qp, twin_planes_reference
from _reference_tables import (
    ACCURACY_TABLE,
    REPORTED_AVG_RANKS,
    REPORTED_RANK_ROWS,
)
from _synth import make_blobs, make_crossplane


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} ({detail})")
    return ok


def test_criterion_01_granular_ball_certificates():
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    checked = 0
    for i in range(200):
        n = int(rng.integers(2, 501))
        m = int(rng.integers(1, 11))
        d = Dataset(rng.normal(size=(n, m)), rng.choice([-1.0, 1.0], size=n))
        eta = (0.8, 0.9, 1.0)[i % 3]
        g = generate_granular_balls(d, eta)
        seen = np.concatenate([b.member_indices for b in g.balls])
        assert len(seen) == n and set(seen.tolist()) == set(range(n))
        for b in g.balls:
            members = d.labels[b.member_indices]
            assert b.purity == purity(members)
            if b.count == 1:
                assert b.purity == 1.0
            elif not np.all(d.features[b.member_indices] == d.features[b.member_indices][0]):
                assert b.purity >= eta
        checked += g.k
    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    assert report("1 granular-ball certificates", ok,
                  f"200 datasets, {checked} balls, {elapsed:.2f}s < 10s")


def test_criterion_02_qp_oracle_equivalence():
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    worst_gap = 0.0
    worst_res = 0.0
    for i in range(100):
        p = int(rng.integers(1, 7))
        A = rng.normal(size=(p + 1, p))
        Q = A.T @ A
        upper = (0.1, 1.0, 10.0)[i % 3]
        sol = solve_box_qp(BoxQP(Q, upper))
        _, grid_best = grid_box_qp(Q, upper)
        gap = abs(box_qp_value(Q, upper, sol.alpha) - grid_best)
        worst_gap = max(worst_gap, gap)
        worst_res = max(worst_res, sol.kkt_residual)
        assert gap <= 1e-4
        assert sol.kkt_residual <= 1e-6
    elapsed = time.perf_counter() - start
    ok = elapsed < 30.0
    assert report("2 qp oracle equivalence", ok,
                  f"100 instances, max gap {worst_gap:.2e}, "
                  f"max residual {worst_res:.2e}, {elapsed:.1f}s < 30s")


def test_criterion_03_twin_degeneration_to_reference():
    problems = [
        # features, labels, d1, d2, delta
        (np.array([[-2.0], [-1.0], [1.0], [2.0]]),
         np.array([1.0, 1.0, -1.0, -1.0]), 1.0, 1.0, 1e-5),
        (np.array([[0.0, 0.0], [1.0, 0.2], [0.4, 1.1],
                   [3.0, 3.1], [4.0, 2.8], [3.5, 4.0]]),
         np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0]), 0.5, 2.0, 1e-3),
        (np.random.default_rng(7).normal(size=(8, 2)),
         np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0]), 10.0, 0.1, 1e-4),
    ]
    worst = 0.0
    for feats, labs, d1, d2, delta in problems:
        data = Dataset(feats, labs)
        cfg = ModelConfig(granulate=False, feature_space="original", seed=0,
                          d1=d1, d2=d2, delta=delta)
        mdl = fit(cfg, data, qp_tol=1e-12)
        u1_ref, u2_ref = twin_planes_reference(feats, labs, d1, d2, delta)
        dev = max(np.abs(mdl.u1 - u1_ref).max(), np.abs(mdl.u2 - u2_ref).max())
        worst = max(worst, dev)
        assert dev <= 1e-6
    assert report("3 twin degeneration", True,
                  f"{len(problems)} problems, max coefficient deviation {worst:.2e}")


def test_criterion_04_crossplane_separability():
    start = time.perf_counter()
    data = make_crossplane(130, seed=17)
    pair = split_train_test(data, 0.7, seed=17)
    cfg = ModelConfig(granulate=True, feature_space="enhanced", seed=17,
                      eta=1.0, h=43, activation=3, d1=1.0, d2=1.0)
    mdl = fit(cfg, pair.train)
    acc = float((predict(mdl, pair.test.features) == pair.test.labels).mean())
    elapsed = time.perf_counter() - start
    ok = acc == 1.0 and elapsed < 5.0
    assert report("4 crossplane separability", ok,
                  f"test accuracy {acc:.4f}, {elapsed:.2f}s < 5s")


def test_criterion_05_nemenyi_reproduction():
    cd = nemenyi_cd(8, 32, 3.031)
    ok = abs(cd - 1.8561) <= 1e-4
    assert report("5 nemenyi critical difference", ok, f"cd {cd:.6f} vs 1.8561")


def test_criterion_06_rank_reproduction():
    # The reported average-rank row summarises 31 of the table's 32 rows
    # (REPORTED_RANK_ROWS, all but row 2; provenance in _reference_tables.py
    # and test_evaluation.py::TestRankModels::test_reported_row_set_provenance).
    # Over those rows tie-averaged ranking reproduces it to print precision;
    # the full-table recomputation is pinned in
    # test_evaluation.py::TestRankModels::test_reference_table_recomputation.
    rt = rank_models(ACCURACY_TABLE[REPORTED_RANK_ROWS])
    deviation = float(np.abs(rt.avg_ranks - REPORTED_AVG_RANKS).max())
    ok = deviation <= 0.01
    report("6 rank-row reproduction", ok,
           f"{len(REPORTED_RANK_ROWS)} datasets, "
           f"max deviation {deviation:.4f} vs required 0.01")
    assert ok, (
        f"reported average-rank row is not reproducible from the accuracy "
        f"table: max deviation {deviation:.4f} > 0.01 "
        f"(recomputed {np.round(rt.avg_ranks, 4).tolist()} vs reported "
        f"{REPORTED_AVG_RANKS.tolist()})"
    )


def test_criterion_06b_friedman_reference_example():
    scores = np.array(
        [[0.9, 0.8, 0.7], [0.9, 0.8, 0.7], [0.9, 0.8, 0.7], [0.7, 0.8, 0.9]]
    )
    fr = friedman_test(rank_models(scores))
    ok = abs(fr.chi2 - 2.0) <= 1e-12 and abs(fr.ff - 1.0) <= 1e-12
    assert report("6b friedman reference example", ok,
                  f"chi2 {fr.chi2:.6f} (want 2), ff {fr.ff:.6f} (want 1)")


def test_criterion_07_noise_robustness_trend():
    # soft criterion: reported and flagged, never hard-failed
    def medians(rate):
        ef, ts = [], []
        for s in range(11):
            data = make_blobs(600, seed=100 + s, spread=0.5, distance=3.0)
            pair = split_train_test(data, 0.7, seed=s)
            ranges = minmax_ranges(pair.train)
            train = normalize_minmax(pair.train)
            test = normalize_minmax(pair.test, ranges)
            noisy = inject_label_noise(train, rate, seed=50 + s)
            ef_mdl = fit(ModelConfig(granulate=True, feature_space="enhanced",
                                     seed=s, eta=0.75, h=43, activation=3), noisy)
            ts_mdl = fit(ModelConfig(granulate=False, feature_space="original",
                                     seed=s), noisy)
            ef.append(float((predict(ef_mdl, test.features) == test.labels).mean()))
            ts.append(float((predict(ts_mdl, test.features) == test.labels).mean()))
        return float(np.median(ef)), float(np.median(ts))

    flagged = []
    details = []
    for rate in (0.10, 0.20):
        ef_med, ts_med = medians(rate)
        details.append(f"{rate:.0%}: ef-gb {ef_med:.4f} vs tsvm {ts_med:.4f}")
        if ef_med < ts_med:
            flagged.append(rate)
    if flagged:
        print(f"ACCEPTANCE 7 noise robustness trend: FLAG "
              f"(violated at {flagged}; {'; '.join(details)})")
    else:
        report("7 noise robustness trend", True, "; ".join(details))


def test_criterion_08_scaling_speedup():
    n = 20000
    data = generate_ndc(n, 32, 2, 5.0, seed=77)
    pair = split_train_test(data, 0.7, seed=1)

    gran_cfg = ModelConfig(granulate=True, feature_space="original", seed=3,
                           d1=1.0, d2=1.0, eta=1.0)
    start = time.perf_counter()
    gran = fit(gran_cfg, pair.train)
    gran_time = time.perf_counter() - start
    k = gran.diagnostics.balls
    assert k <= n / 10

    raw_cfg = ModelConfig(granulate=False, feature_space="original", seed=3,
                          d1=1.0, d2=1.0)
    start = time.perf_counter()
    fit(raw_cfg, pair.train)
    raw_time = time.perf_counter() - start

    speedup = raw_time / gran_time
    ok = speedup >= 5.0
    assert report("8 scaling speedup", ok,
                  f"n={n}, k={k}, granulated {gran_time:.3f}s, "
                  f"raw {raw_time:.3f}s, speedup {speedup:.1f}x >= 5x")


def test_criterion_09_invariance_suite():
    checks = []

    # prediction invariance under common positive rescaling of both normals
    data = make_blobs(80, seed=30)
    mdl = fit(ModelConfig(granulate=False, feature_space="original", seed=0), data)
    probe = make_blobs(50, seed=31).features
    scaled = TwinModel(u1=123.0 * mdl.u1, u2=123.0 * mdl.u2, m=mdl.m,
                       layer=mdl.layer, config=mdl.config,
                       diagnostics=mdl.diagnostics)
    checks.append(("rescaling invariance",
                   np.array_equal(predict(mdl, probe), predict(scaled, probe))))

    # enhanced-feature original block is bit-exact
    layer = init_random_layer(4, 9, activation=2, seed=5)
    X = np.random.default_rng(6).normal(size=(20, 4))
    H = enhanced_features(layer, X)
    checks.append(("enhanced original block identity",
                   np.array_equal(H[:, 9:], X)))

    # serialization round trip preserves predictions exactly
    import tempfile
    from pathlib import Path

    ef_mdl = fit(ModelConfig(granulate=True, feature_space="enhanced",
                             seed=2, h=17), data)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(ef_mdl, path)
        back = load_model(path)
    checks.append(("serialization round trip",
                   np.array_equal(predict(ef_mdl, probe), predict(back, probe))))

    # determinism of every seeded pipeline stage
    nd1, nd2 = generate_ndc(150, 4, 3, 2.0, 9), generate_ndc(150, 4, 3, 2.0, 9)
    det = [np.array_equal(nd1.features, nd2.features)]
    s1, s2 = split_train_test(nd1, 0.7, 4), split_train_test(nd2, 0.7, 4)
    det.append(np.array_equal(s1.train.features, s2.train.features))
    no1, no2 = inject_label_noise(nd1, 0.1, 5), inject_label_noise(nd1, 0.1, 5)
    det.append(np.array_equal(no1.labels, no2.labels))
    det.append(all(np.array_equal(a, b)
                   for a, b in zip(kfold_indices(37, 5, 6), kfold_indices(37, 5, 6))))
    g1 = generate_granular_balls(nd1, 0.9)
    g2 = generate_granular_balls(nd1, 0.9)
    det.append(all(np.array_equal(a.member_indices, b.member_indices)
                   for a, b in zip(g1.balls, g2.balls)))
    l1, l2 = init_random_layer(4, 8, 3, 8), init_random_layer(4, 8, 3, 8)
    det.append(np.array_equal(l1.weights, l2.weights))
    f1 = fit(ModelConfig(granulate=True, feature_space="enhanced", seed=3, h=11), nd1)
    f2 = fit(ModelConfig(granulate=True, feature_space="enhanced", seed=3, h=11), nd1)
    det.append(np.array_equal(f1.u1, f2.u1) and np.array_equal(f1.u2, f2.u2))
    checks.append(("seeded pipeline determinism", all(det)))

    ok = all(passed for _, passed in checks)
    detail = ", ".join(f"{name}={'ok' if passed else 'BROKEN'}"
                       for name, passed in checks)
    assert report("9 invariance suite", ok, detail)
