import numpy as np
import pytest

from gbtwin.dataset import Dataset, generate_ndc, inject_label_noise, normalize_minmax
from gbtwin.granular import (
    GranularBallSet,
    centers_matrix,
    generate_granular_balls,
    majority_label,
    purity,
    two_means,
)

from _oracles import granulate_reference, lloyd_two_means_reference, min_sse_bipartition


def random_dataset(seed, n=None, m=None):
    rng = np.random.default_rng(seed)
    n = n or int(rng.integers(2, 120))
    m = m or int(rng.integers(1, 6))
    feats = rng.normal(size=(n, m))
    labs = rng.choice([-1.0, 1.0], size=n)
    if np.all(labs == labs[0]):
        labs[0] = -labs[0]
    return Dataset(feats, labs)


def check_partition(g: GranularBallSet):
    seen = np.concatenate([b.member_indices for b in g.balls])
    assert len(seen) == g.n
    assert set(seen.tolist()) == set(range(g.n))


class TestPurity:
    def test_majority_fraction(self):
        assert purity([1, 1, -1]) == pytest.approx(2 / 3)

    def test_pure(self):
        assert purity([1, 1, 1]) == 1.0

    def test_exact_tie(self):
        assert purity([1, -1]) == 0.5
        assert majority_label([1, -1]) == 1.0  # tie resolves to +1

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            purity([])


class TestTwoMeans:
    def test_two_points_always_split(self):
        a, b = two_means(np.array([[0.0], [10.0]]), [1.0, -1.0])
        assert {tuple(a.tolist()), tuple(b.tolist())} == {(0,), (1,)}

    def test_separated_blobs_match_min_sse_partition(self):
        rng = np.random.default_rng(0)
        X = np.vstack([rng.uniform(-0.5, 0.5, size=(4, 2)),
                       rng.uniform(99.5, 100.5, size=(4, 2))])
        a, b = two_means(X, [1.0, -1.0] * 4)
        got = frozenset([frozenset(a.tolist()), frozenset(b.tolist())])
        best, _ = min_sse_bipartition(X)
        assert got == best

    def test_identical_points_fall_back_to_halves(self):
        a, b = two_means(np.zeros((5, 3)), [1.0, -1.0, 1.0, -1.0, 1.0])
        assert len(a) == 3 and len(b) == 2
        assert sorted(np.concatenate([a, b]).tolist()) == [0, 1, 2, 3, 4]

    def test_class_mean_initialization_used(self):
        X = np.array([[0.0], [1.0], [10.0], [11.0]])
        labs = np.array([1.0, 1.0, -1.0, -1.0])
        a, b = two_means(X, labels=labs)
        assert sorted(a.tolist()) == [0, 1] and sorted(b.tolist()) == [2, 3]

    def test_matches_squared_distance_lloyd(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            n = int(rng.integers(4, 200))
            m = int(rng.integers(1, 8))
            X = rng.normal(size=(n, m))
            labs = rng.choice([-1.0, 1.0], size=n)
            labs[:2] = [1.0, -1.0]
            c0, c1 = X[labs > 0].mean(axis=0), X[labs < 0].mean(axis=0)
            assign, emptied = lloyd_two_means_reference(X, c0, c1)
            assert not emptied
            a, b = two_means(X, labels=labs)
            assert np.array_equal(a, np.flatnonzero(assign == 0))
            assert np.array_equal(b, np.flatnonzero(assign == 1))

    def test_empty_cluster_falls_back_to_halves(self):
        # distinct points whose class means coincide: every point ties, the
        # first assignment empties cluster 1
        X = np.array([[-1.0], [1.0], [-2.0], [2.0], [0.0]])
        labs = np.array([1.0, 1.0, -1.0, -1.0, 1.0])
        c0, c1 = X[labs > 0].mean(axis=0), X[labs < 0].mean(axis=0)
        assert np.array_equal(c0, c1)
        _, emptied = lloyd_two_means_reference(X, c0, c1)
        assert emptied
        a, b = two_means(X, labels=labs)
        assert a.tolist() == [0, 1, 2] and b.tolist() == [3, 4]

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            two_means(np.zeros((1, 2)), [1.0])

    def test_single_class_labels_rejected(self):
        X = np.array([[0.0], [1.0], [5.0]])
        for labels in ([1.0, 1.0, 1.0], [-1.0, -1.0, -1.0]):
            with pytest.raises(ValueError, match="both classes"):
                two_means(X, labels)


class TestGenerate:
    def test_single_label_dataset_one_ball(self):
        d = Dataset(np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]),
                    np.array([1.0, 1.0, 1.0]))
        g = generate_granular_balls(d, 0.9)
        assert g.k == 1
        ball = g.balls[0]
        assert ball.purity == 1.0 and ball.count == 3
        assert np.allclose(ball.center, d.features.mean(axis=0))

    def test_single_sample(self):
        d = Dataset(np.array([[7.0]]), np.array([-1.0]))
        g = generate_granular_balls(d, 1.0)
        assert g.k == 1
        assert g.balls[0].label == -1.0 and g.balls[0].count == 1

    def test_xor_layout_all_balls_pure(self):
        d = Dataset(
            np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]]),
            np.array([1.0, 1.0, -1.0, -1.0]),
        )
        g = generate_granular_balls(d, 1.0)
        check_partition(g)
        assert all(b.purity == 1.0 for b in g.balls)

    def test_eta_out_of_range(self):
        d = random_dataset(0)
        for eta in (0.5, 0.2, 1.01):
            with pytest.raises(ValueError):
                generate_granular_balls(d, eta)

    def test_partition_and_purity_certificates(self):
        for seed in range(25):
            d = random_dataset(seed)
            eta = (0.8, 0.9, 1.0)[seed % 3]
            g = generate_granular_balls(d, eta)
            check_partition(g)
            for b in g.balls:
                assert b.count == len(b.member_indices)
                members = d.labels[b.member_indices]
                assert b.purity == purity(members)
                if b.count == 1:
                    assert b.purity == 1.0
                expected_center = d.features[b.member_indices].mean(axis=0)
                assert np.allclose(b.center, expected_center, rtol=1e-10, atol=1e-12)

    def test_raising_eta_never_reduces_ball_count(self):
        for seed in range(12):
            d = random_dataset(100 + seed)
            ks = [generate_granular_balls(d, eta).k
                  for eta in (0.6, 0.75, 0.9, 1.0)]
            assert ks == sorted(ks)

    def test_compression_on_separable_blobs(self):
        d = generate_ndc(1000, 2, 2, 6.0, seed=5)
        g = generate_granular_balls(d, 1.0)
        assert g.k <= d.n / 10

    def test_identical_rows_mixed_labels_warns(self):
        d = Dataset(np.ones((4, 2)), np.array([1.0, 1.0, -1.0, -1.0]))
        with pytest.warns(UserWarning, match="identical rows"):
            g = generate_granular_balls(d, 1.0)
        check_partition(g)
        assert g.k == 1 and g.balls[0].purity == 0.5

    def test_deterministic(self):
        d = random_dataset(42)
        a = generate_granular_balls(d, 0.85)
        b = generate_granular_balls(d, 0.85)
        assert a.k == b.k
        for x, y in zip(a.balls, b.balls):
            assert np.array_equal(x.member_indices, y.member_indices)


def assert_same_balls(d, eta):
    got = generate_granular_balls(d, eta)
    ref = granulate_reference(d, eta)
    assert (got.n, got.k) == (ref.n, ref.k)
    for g, r in zip(got.balls, ref.balls):
        assert np.array_equal(g.member_indices, r.member_indices)
        assert g.center.tobytes() == r.center.tobytes()
        assert (g.label, g.purity, g.count) == (r.label, r.purity, r.count)


class TestMatchesReference:
    """Matvec centroid sums leave every ball of the copying version unchanged."""

    @pytest.fixture(scope="class")
    def two_cluster(self):
        return normalize_minmax(generate_ndc(3000, 32, 2, 5.0, seed=77))

    @pytest.mark.parametrize("eta", [0.9, 1.0])
    @pytest.mark.parametrize("rate", [0.1, 0.2])
    def test_noisy_two_cluster(self, two_cluster, rate, eta):
        assert_same_balls(inject_label_noise(two_cluster, rate, seed=7), eta)

    def test_identical_mixed_label_block(self):
        # 0.1 is inexact, so the block's two class means may differ in the
        # last bits; its rows still all fall into one Lloyd cluster
        rng = np.random.default_rng(3)
        feats = np.vstack([rng.normal(size=(120, 4)), np.full((7, 4), 0.1)])
        labs = np.concatenate([rng.choice([-1.0, 1.0], size=120),
                               [1.0, 1.0, -1.0, -1.0, -1.0, -1.0, -1.0]])
        with pytest.warns(UserWarning, match="7 identical rows") as record:
            assert_same_balls(Dataset(feats, labs), 1.0)
        assert sum("identical rows" in str(w.message) for w in record) == 2

    def test_emptied_cluster_on_distinct_rows(self):
        # rows come in +/- integer pairs that share a label, so both class
        # means are exactly 0 in any summation order and Lloyd's first
        # assignment empties a cluster of rows that are not all identical
        rng = np.random.default_rng(4)
        half = rng.integers(-5, 6, size=(60, 3)).astype(np.float64)
        feats = np.empty((120, 3))
        feats[0::2], feats[1::2] = half, -half
        d = Dataset(feats, np.repeat(rng.choice([-1.0, 1.0], size=60), 2))
        a, b = two_means(d.features, d.labels)
        assert a.tolist() == list(range(60)) and b.tolist() == list(range(60, 120))
        assert_same_balls(d, 1.0)


class TestCentersMatrix:
    def test_empty_ball_set_rejected(self):
        with pytest.raises(ValueError, match="empty granular ball set"):
            centers_matrix(GranularBallSet(balls=(), n=0))

    def test_single_ball_mean(self):
        d = Dataset(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([1.0, 1.0]))
        g = generate_granular_balls(d, 0.9)
        C, t = centers_matrix(g)
        assert C.tolist() == [[2.0, 3.0]]
        assert t.tolist() == [1.0]

    def test_row_count_matches_k(self):
        d = random_dataset(7)
        g = generate_granular_balls(d, 0.9)
        C, t = centers_matrix(g)
        assert C.shape == (g.k, d.m) and t.shape == (g.k,)

    def test_row_permutation_keeps_center_multiset(self):
        d = random_dataset(13, n=60, m=3)
        g1 = generate_granular_balls(d, 0.9)
        rng = np.random.default_rng(99)
        perm = rng.permutation(d.n)
        d2 = Dataset(d.features[perm], d.labels[perm])
        g2 = generate_granular_balls(d2, 0.9)
        c1, t1 = centers_matrix(g1)
        c2, t2 = centers_matrix(g2)
        set1 = {(round(t, 6), tuple(np.round(c, 9))) for c, t in zip(c1, t1)}
        set2 = {(round(t, 6), tuple(np.round(c, 9))) for c, t in zip(c2, t2)}
        assert set1 == set2

