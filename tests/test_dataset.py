import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbtwin.dataset import (
    DataError,
    Dataset,
    generate_ndc,
    inject_label_noise,
    kfold_indices,
    load_csv,
    load_features_csv,
    minmax_ranges,
    normalize_minmax,
    scale_minmax,
    split_train_test,
    write_csv,
)

from _oracles import linearly_separable


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_maps_positive_token(self, tmp_path):
        d = load_csv(write(tmp_path, "1,2,A\n3,4,B\n5,6,A\n"), positive_label_token="A")
        assert d.labels.tolist() == [1.0, -1.0, 1.0]
        assert d.features.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]

    def test_malformed_row_reports_line(self, tmp_path):
        with pytest.raises(DataError, match="malformed row 2"):
            load_csv(write(tmp_path, "1,2,A\n3,4,5,B\n"))

    def test_more_than_two_classes(self, tmp_path):
        with pytest.raises(DataError, match="more than two classes"):
            load_csv(write(tmp_path, "1,X\n2,Y\n3,Z\n"))

    def test_empty_file(self, tmp_path):
        with pytest.raises(DataError, match="empty"):
            load_csv(write(tmp_path, ""))

    def test_non_numeric_feature(self, tmp_path):
        with pytest.raises(DataError, match="non-numeric feature"):
            load_csv(write(tmp_path, "1,2,A\noops,4,B\n"), positive_label_token="A")

    def test_header_skipped(self, tmp_path):
        d = load_csv(write(tmp_path, "x,y,label\n1,2,1\n3,4,-1\n"), has_header=True)
        assert d.n == 2 and d.labels.tolist() == [1.0, -1.0]

    def test_label_column_index(self, tmp_path):
        d = load_csv(write(tmp_path, "A,1,2\nB,3,4\n"), label_column=0,
                     positive_label_token="A")
        assert d.labels.tolist() == [1.0, -1.0]
        assert d.features.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_positive_token_must_exist(self, tmp_path):
        with pytest.raises(DataError, match="not among labels"):
            load_csv(write(tmp_path, "1,A\n2,B\n"), positive_label_token="C")

    def test_roundtrip_through_write_csv(self, tmp_path):
        d = generate_ndc(40, 3, 2, 2.0, seed=5)
        path = tmp_path / "round.csv"
        write_csv(d, path)
        back = load_csv(path)
        assert np.array_equal(back.features, d.features)
        assert np.array_equal(back.labels, d.labels)

    def test_load_features_csv(self, tmp_path):
        X = load_features_csv(write(tmp_path, "1.5,2\n3,4\n"))
        assert X.tolist() == [[1.5, 2.0], [3.0, 4.0]]


def _table(d):
    return np.column_stack([d.features, d.labels])


# both readers, as the matrix of every column they read
READERS = {
    "load_csv": lambda path, **kw: _table(load_csv(path, **kw)),
    "load_features_csv": load_features_csv,
}


@pytest.mark.parametrize("read", READERS.values(), ids=READERS.keys())
class TestCsvReadingRules:
    @pytest.mark.parametrize("text", ["", "\n\n , \n"])
    def test_empty_file(self, tmp_path, read, text):
        with pytest.raises(DataError, match="empty file"):
            read(write(tmp_path, text))

    def test_malformed_row_names_its_line(self, tmp_path, read):
        with pytest.raises(DataError, match="malformed row 3: expected 3 columns"):
            read(write(tmp_path, "1,2,1\n\n3,4,5,-1\n"))

    def test_header_skipped(self, tmp_path, read):
        X = read(write(tmp_path, "x,y,label\n1,2,1\n3,4,-1\n"), has_header=True)
        assert X.tolist() == [[1.0, 2.0, 1.0], [3.0, 4.0, -1.0]]

    def test_blank_lines_skipped(self, tmp_path, read):
        X = read(write(tmp_path, "\n1,2,1\n\n , , \n3,4,-1\n\n"))
        assert X.tolist() == [[1.0, 2.0, 1.0], [3.0, 4.0, -1.0]]


def test_load_features_csv_non_numeric_cell_names_its_line(tmp_path):
    with pytest.raises(DataError, match="non-numeric cell at row 3"):
        load_features_csv(write(tmp_path, "1,2\n\noops,4\n"))


class TestDatasetInvariants:
    def test_rejects_bad_labels(self):
        with pytest.raises(DataError, match="labels"):
            Dataset(np.ones((2, 2)), np.array([1.0, 2.0]))

    def test_rejects_non_finite(self):
        with pytest.raises(DataError, match="non-finite"):
            Dataset(np.array([[np.nan, 1.0]]), np.array([1.0]))

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            Dataset(np.empty((0, 2)), np.empty(0))

    def test_immutable_arrays(self):
        d = Dataset(np.ones((2, 2)), np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            d.features[0, 0] = 5.0

    def test_caller_writes_do_not_reach_the_dataset(self):
        feats, labs = np.ones((3, 2)), np.array([1.0, -1.0, 1.0])
        base = np.ones((3, 2))
        view = base[:]
        view.setflags(write=False)  # read-only, but base can still write it
        d, e = Dataset(feats, labs), Dataset(view, labs)
        feats[0, 0], labs[0], base[0, 0] = 5.0, -1.0, 5.0
        assert np.array_equal(d.features, np.ones((3, 2)))
        assert np.array_equal(d.labels, [1.0, -1.0, 1.0])
        assert np.array_equal(e.features, np.ones((3, 2)))

    def test_read_only_owned_arrays_are_shared(self):
        feats, labs = np.ones((3, 2)), np.array([1.0, -1.0, 1.0])
        feats.setflags(write=False)
        labs.setflags(write=False)
        d = Dataset(feats, labs)
        assert d.features is feats and d.labels is labs
        noisy = inject_label_noise(d, 0.5, seed=0)
        assert noisy.features is feats and not noisy.labels.flags.writeable
        assert not d.take([0, 2]).features.flags.writeable

    def test_normalize_minmax_holds_one_scaled_matrix(self):
        # one 20000 x 33 matrix is 5.28 MB: tracemalloc peaked at 11.38 MB when
        # Dataset copied normalize_minmax's result, and at 5.94 MB sharing it
        rng = np.random.default_rng(0)
        d = Dataset(rng.normal(size=(20000, 33)), np.where(rng.random(20000) < 0.5, 1.0, -1.0))
        tracemalloc.start()
        try:
            out = normalize_minmax(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * d.features.nbytes
        assert not out.features.flags.writeable

    def test_take_by_mask_matches_take_by_indices(self):
        d = Dataset(np.arange(8.0).reshape(4, 2), np.array([1.0, -1.0, -1.0, 1.0]))
        mask = np.array([True, False, True, True])
        by_mask, by_idx = d.take(mask), d.take(np.flatnonzero(mask))
        assert np.array_equal(by_mask.features, by_idx.features)
        assert np.array_equal(by_mask.labels, by_idx.labels)
        assert np.array_equal(by_mask.features, d.features[[0, 2, 3]])

    def test_take_rejects_float_indices(self):
        d = Dataset(np.ones((3, 2)), np.array([1.0, -1.0, 1.0]))
        with pytest.raises(IndexError):
            d.take(np.array([0.0, 2.0]))

    def test_has_both_classes(self):
        feats = np.ones((3, 2))
        assert Dataset(feats, np.array([1.0, -1.0, 1.0])).has_both_classes
        assert not Dataset(feats, np.ones(3)).has_both_classes
        assert not Dataset(feats, -np.ones(3)).has_both_classes


class TestNormalize:
    def test_affine_rescale(self):
        d = Dataset(np.array([[2.0], [4.0], [6.0]]), np.array([1.0, -1.0, 1.0]))
        nd = normalize_minmax(d)
        assert nd.features[:, 0].tolist() == [0.0, 0.5, 1.0]

    def test_constant_column_maps_to_zero(self):
        d = Dataset(np.array([[5.0], [5.0]]), np.array([1.0, -1.0]))
        assert normalize_minmax(d).features[:, 0].tolist() == [0.0, 0.0]

    def test_extremes_stay_fixed(self):
        d = Dataset(np.array([[0.0], [1.0]]), np.array([1.0, -1.0]))
        assert normalize_minmax(d).features[:, 0].tolist() == [0.0, 1.0]

    def test_reference_ranges_may_leave_unit_interval(self):
        train = Dataset(np.array([[0.0], [2.0]]), np.array([1.0, -1.0]))
        test = Dataset(np.array([[4.0]]), np.array([1.0]))
        nt = normalize_minmax(test, minmax_ranges(train))
        assert nt.features[0, 0] == 2.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 20))
        m = int(rng.integers(1, 5))
        d = Dataset(rng.normal(size=(n, m)) * 10,
                    rng.choice([-1.0, 1.0], size=n))
        once = normalize_minmax(d)
        twice = normalize_minmax(once)
        assert np.array_equal(once.features, twice.features)


class TestScaleMinmax:
    def test_same_bits_as_subtract_then_divide(self):
        X = np.random.default_rng(3).normal(size=(50, 4)) * 100
        lo, hi = X.min(axis=0), X.max(axis=0)
        hi[1] = lo[1]  # a constant column is only shifted
        expected = (X - lo) / np.where(hi - lo > 0, hi - lo, 1.0)
        assert np.array_equal(scale_minmax(X, lo, hi), expected)

    def test_holds_one_matrix_beside_its_input(self):
        # the result is the only temporary of X's size; subtracting and then
        # dividing into a new array held two
        X = np.random.default_rng(0).normal(size=(20000, 33))
        lo, hi = X.min(axis=0), X.max(axis=0)
        tracemalloc.start()
        try:
            scale_minmax(X, lo, hi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * X.nbytes


class TestSplit:
    def test_sizes_follow_floor(self):
        d = generate_ndc(10, 2, 2, 1.0, seed=0)
        pair = split_train_test(d, 0.7, seed=3)
        assert pair.train.n == 7 and pair.test.n == 3

    def test_deterministic_and_disjoint(self):
        d = generate_ndc(30, 2, 2, 1.0, seed=0)
        a = split_train_test(d, 0.7, seed=9)
        b = split_train_test(d, 0.7, seed=9)
        assert np.array_equal(a.train.features, b.train.features)
        stacked = np.vstack([a.train.features, a.test.features])
        assert stacked.shape[0] == d.n
        # every original row appears exactly once across the two splits
        orig = {tuple(r) for r in d.features}
        assert {tuple(r) for r in stacked} == orig

    def test_ratio_bounds(self):
        d = generate_ndc(10, 2, 2, 1.0, seed=0)
        with pytest.raises(ValueError):
            split_train_test(d, 1.0, seed=0)
        with pytest.raises(ValueError):
            split_train_test(d, 0.0, seed=0)


class TestLabelNoise:
    def test_zero_rate_is_identity(self):
        d = generate_ndc(20, 2, 2, 1.0, seed=1)
        nd = inject_label_noise(d, 0.0, seed=2)
        assert np.array_equal(nd.labels, d.labels)

    def test_full_rate_flips_everything(self):
        d = Dataset(np.ones((3, 1)), np.array([1.0, -1.0, 1.0]))
        nd = inject_label_noise(d, 1.0, seed=2)
        assert nd.labels.tolist() == [-1.0, 1.0, -1.0]

    def test_exact_flip_count(self):
        d = generate_ndc(100, 2, 2, 1.0, seed=1)
        nd = inject_label_noise(d, 0.1, seed=7)
        assert int((nd.labels != d.labels).sum()) == 10

    @given(st.integers(2, 60), st.floats(0.0, 1.0), st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_flip_count_property(self, n, rate, seed):
        d = Dataset(np.arange(n, dtype=float)[:, None],
                    np.where(np.arange(n) % 2 == 0, 1.0, -1.0))
        nd = inject_label_noise(d, rate, seed)
        assert int((nd.labels != d.labels).sum()) == int(np.floor(rate * n))

    def test_rate_out_of_range(self):
        d = generate_ndc(10, 2, 2, 1.0, seed=1)
        with pytest.raises(ValueError):
            inject_label_noise(d, 1.5, seed=0)


class TestGenerateNdc:
    def test_shape_and_labels(self):
        d = generate_ndc(1000, 32, 4, 2.0, seed=3)
        assert d.features.shape == (1000, 32)
        assert set(np.unique(d.labels)) <= {-1.0, 1.0}

    def test_deterministic(self):
        a = generate_ndc(200, 5, 3, 1.0, seed=11)
        b = generate_ndc(200, 5, 3, 1.0, seed=11)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_high_separability_is_linearly_separable(self):
        d = generate_ndc(100, 2, 2, 10.0, seed=4)
        assert len(set(d.labels)) == 2
        assert linearly_separable(d.features, d.labels)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            generate_ndc(1, 2, 2, 1.0, seed=0)
        with pytest.raises(ValueError):
            generate_ndc(10, 0, 2, 1.0, seed=0)

    @pytest.mark.parametrize("separability", [-1.0, float("nan"), float("inf")])
    def test_separability_must_be_non_negative_and_finite(self, separability):
        with pytest.raises(ValueError, match="separability must be non-negative and finite"):
            generate_ndc(20, 3, 2, separability, seed=1)


class TestKfold:
    def test_even_split(self):
        folds = kfold_indices(10, 5, seed=0)
        assert sorted(len(f) for f in folds) == [2, 2, 2, 2, 2]

    def test_remainder_distribution(self):
        folds = kfold_indices(11, 5, seed=0)
        assert sorted(len(f) for f in folds) == [2, 2, 2, 2, 3]

    @given(st.integers(2, 50), st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_partition_property(self, n, seed):
        k = min(5, n)
        folds = kfold_indices(n, k, seed)
        flat = np.concatenate(folds)
        assert len(flat) == n
        assert set(flat.tolist()) == set(range(n))
        assert max(len(f) for f in folds) - min(len(f) for f in folds) <= 1

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            kfold_indices(5, 1, seed=0)
        with pytest.raises(ValueError):
            kfold_indices(5, 6, seed=0)
