import json
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gbtwin.dataset import (
    DataError,
    Dataset,
    generate_ndc,
    inject_label_noise,
    load_features_csv,
    minmax_ranges,
    normalize_minmax,
    split_train_test,
)
from gbtwin import qp
from gbtwin.cli import main as cli_main
from gbtwin.features import init_random_layer
from gbtwin.model import (
    _BLOCK_ROWS,
    _map_rows,
    _plane_distances,
    _rvfl_space,
    FitDiagnostics,
    ModelConfig,
    RVFLModel,
    TwinModel,
    decision_values,
    deserialize,
    fit,
    fit_basis,
    fit_planes,
    fit_rvfl_baseline,
    load_model,
    predict,
    save_model,
    serialize,
)

from _oracles import full_width_planes, plane_distances_reference, twin_planes_reference
from _synth import make_blobs, make_crossplane
from _system import openblas_threads_kept


FOUR_POINTS = Dataset(
    np.array([[-2.0], [-1.0], [1.0], [2.0]]),
    np.array([1.0, 1.0, -1.0, -1.0]),
)


def plain_config(**kw):
    base = dict(granulate=False, feature_space="original", seed=0)
    base.update(kw)
    return ModelConfig(**base)


def manual_twin(u1, u2, m):
    diag = FitDiagnostics(
        k1=1, k2=1, balls=None, dual_iterations=(1, 1),
        dual_residuals=(0.0, 0.0), converged=True,
    )
    cfg = plain_config()
    return TwinModel(
        u1=np.asarray(u1, float), u2=np.asarray(u2, float),
        m=m, layer=None, config=cfg, diagnostics=diag,
    )


class TestFit:
    def test_separates_four_points(self):
        mdl = fit(plain_config(), FOUR_POINTS)
        preds = predict(mdl, FOUR_POINTS.features)
        assert np.array_equal(preds, FOUR_POINTS.labels)

    def test_matches_reference_construction(self):
        cfg = plain_config(d1=1.0, d2=1.0, delta=1e-5)
        mdl = fit(cfg, FOUR_POINTS, qp_tol=1e-12)
        u1_ref, u2_ref = twin_planes_reference(
            FOUR_POINTS.features, FOUR_POINTS.labels, 1.0, 1.0, 1e-5
        )
        assert np.allclose(mdl.u1, u1_ref, atol=1e-6)
        assert np.allclose(mdl.u2, u2_ref, atol=1e-6)

    def test_single_class_rejected(self):
        single = Dataset(np.ones((3, 2)), np.ones(3))
        with pytest.raises(DataError, match="single class"):
            fit(plain_config(), single)

    def test_granulated_single_class_rejected(self):
        # duplicate rows collapse to one ball carrying one label
        single = Dataset(np.ones((4, 2)), np.ones(4))
        with pytest.raises(DataError, match="single class"):
            fit(plain_config(granulate=True, eta=0.9), single)

    def test_all_singleton_balls_reproduce_raw_fit(self):
        # alternating labels force granulation all the way to singletons
        data = Dataset(
            np.array([[0.0], [1.0], [2.0], [3.0]]),
            np.array([1.0, -1.0, 1.0, -1.0]),
        )
        raw = fit(plain_config(seed=5), data, qp_tol=1e-12)
        gran = fit(plain_config(seed=5, granulate=True, eta=1.0), data, qp_tol=1e-12)
        assert gran.diagnostics.balls == data.n
        assert np.allclose(gran.u1, raw.u1, atol=1e-8)
        assert np.allclose(gran.u2, raw.u2, atol=1e-8)

    def test_deterministic(self):
        d = make_blobs(60, seed=1)
        cfg = ModelConfig(granulate=True, feature_space="enhanced", seed=9, h=11)
        a = fit(cfg, d)
        b = fit(cfg, d)
        assert np.array_equal(a.u1, b.u1) and np.array_equal(a.u2, b.u2)

    def test_dual_feasibility_and_kkt(self):
        d = make_blobs(80, seed=2)
        for cfg in (
            plain_config(d1=0.5, d2=2.0),
            ModelConfig(granulate=True, feature_space="enhanced", seed=1, h=17),
        ):
            mdl = fit(cfg, d)
            assert mdl.diagnostics.converged
            assert max(mdl.diagnostics.dual_residuals) <= 1e-6

    def test_plane_proximity(self):
        d = make_blobs(100, seed=3)
        mdl = fit(plain_config(), d)
        z = np.hstack([d.features, np.ones((d.n, 1))])
        vals1 = np.abs(z @ mdl.u1)
        vals2 = np.abs(z @ mdl.u2)
        pos = d.labels > 0
        assert vals1[pos].mean() <= vals1[~pos].mean()
        assert vals2[~pos].mean() <= vals2[pos].mean()

    def test_label_swap_symmetry(self):
        d = make_blobs(50, seed=4)
        swapped = Dataset(d.features, -d.labels)
        cfg = plain_config(d1=1.0, d2=1.0)
        probe = make_blobs(30, seed=5).features
        a = predict(fit(cfg, d), probe)
        b = predict(fit(cfg, swapped), probe)
        assert np.array_equal(a, -b)

    def test_nonconvergence_flagged_not_raised(self):
        d = make_blobs(60, seed=6)
        mdl = fit(plain_config(), d, qp_tol=1e-15, qp_max_iter=1)
        assert not mdl.diagnostics.converged
        assert mdl.diagnostics.notes

    def test_raw_fit_holds_one_dual_matrix(self):
        # the dual over the larger class is k x k; BoxQP symmetrizes it in place
        d = normalize_minmax(
            generate_ndc(n=3000, m=8, n_clusters=2, separability=5.0, seed=5)
        )
        k = max(int(np.sum(d.labels > 0)), int(np.sum(d.labels < 0)))
        tracemalloc.start()
        try:
            fit(plain_config(seed=1), d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * k**2


class TestDecisionValues:
    def test_perpendicular_distances(self):
        mdl = manual_twin([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], m=2)
        assert decision_values(mdl, [0.0, 5.0]) == (0.0, 5.0)
        assert decision_values(mdl, [5.0, 0.0]) == (5.0, 0.0)

    def test_point_on_plane(self):
        mdl = manual_twin([1.0, 1.0, -2.0], [0.0, 1.0, 0.0], m=2)
        d1, _ = decision_values(mdl, [1.0, 1.0])  # x + y - 2 = 0 holds
        assert d1 == pytest.approx(0.0, abs=1e-12)

    def test_scaling_invariance_of_distances(self):
        mdl = manual_twin([1.0, 2.0, -1.0], [3.0, -1.0, 0.5], m=2)
        scaled = manual_twin(3.0 * mdl.u1, 3.0 * mdl.u2, m=2)
        x = [0.7, -1.3]
        assert decision_values(mdl, x) == pytest.approx(decision_values(scaled, x))

    def test_feature_count_checked(self):
        mdl = manual_twin([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], m=2)
        with pytest.raises(DataError, match="expected 2 features"):
            decision_values(mdl, [1.0, 2.0, 3.0])


class TestPredict:
    def test_nearer_plane_wins(self):
        mdl = manual_twin([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], m=2)
        X = np.array([[0.0, 5.0], [5.0, 0.0]])
        assert predict(mdl, X).tolist() == [1.0, -1.0]

    def test_tie_goes_positive(self):
        mdl = manual_twin([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], m=2)
        assert predict(mdl, np.array([[3.0, 3.0]])).tolist() == [1.0]

    def test_rescaling_invariance(self):
        d = make_blobs(60, seed=7)
        mdl = fit(plain_config(), d)
        scaled = TwinModel(
            u1=17.5 * mdl.u1, u2=17.5 * mdl.u2, m=mdl.m, layer=mdl.layer,
            config=mdl.config, diagnostics=mdl.diagnostics,
        )
        probe = make_blobs(40, seed=8).features
        assert np.array_equal(predict(mdl, probe), predict(scaled, probe))

    def test_enhanced_crossplane_accuracy(self):
        d = make_crossplane(130, seed=3)
        pair = split_train_test(d, 0.7, seed=3)
        cfg = ModelConfig(granulate=True, feature_space="enhanced", seed=3,
                          eta=1.0, h=43)
        mdl = fit(cfg, pair.train)
        acc = (predict(mdl, pair.test.features) == pair.test.labels).mean()
        assert acc == 1.0


    @pytest.mark.parametrize("space", ["original", "hidden", "enhanced"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_rejected(self, space, bad):
        d = make_blobs(40, seed=13)
        mdl = fit(plain_config(feature_space=space, h=5), d)
        X = d.features[:3].copy()
        X[1, 0] = bad
        with pytest.raises(DataError, match="non-finite"):
            predict(mdl, X)
        with pytest.raises(DataError, match="non-finite"):
            decision_values(mdl, X[1])

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_finite_row_that_overflows_the_hidden_map_rejected(self):
        d = make_blobs(40, seed=13)
        mdl = fit(plain_config(feature_space="hidden", h=5, activation=2), d)
        with pytest.raises(DataError, match="non-finite entries"):
            predict(mdl, np.array([[1.7e308, 1.7e308]]))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_finite_row_whose_distance_overflows_rejected(self):
        mdl = manual_twin([1.0, 1.0, 0.0], [0.0, 1.0, 0.0], m=2)
        X = np.array([[1e308, 1e308]])
        with pytest.raises(DataError, match="overflow"):
            predict(mdl, X)
        with pytest.raises(DataError, match="overflow"):
            decision_values(mdl, X[0])


def zero_normals(mdl, *keys):
    """``mdl`` with the normal of each named plane set to exactly zero."""
    planes = {}
    for key in keys:
        u = getattr(mdl, key).copy()
        u[:-1] = 0.0
        planes[key] = u
    return replace(mdl, **planes)


class TestZeroNormal:
    """A plane whose normal is exactly zero is at +inf from every row."""

    @pytest.fixture
    def fitted(self):
        cfg = ModelConfig(granulate=True, feature_space="enhanced", seed=4, h=13)
        return fit(cfg, make_blobs(60, seed=12))

    @pytest.mark.parametrize("via_document", [False, True])
    def test_one_zero_normal_sends_every_row_to_the_other_class(self, tmp_path, fitted, via_document):
        mdl = zero_normals(fitted, "u1")
        if via_document:
            save_model(mdl, tmp_path / "model.json")
            mdl = load_model(tmp_path / "model.json")
        assert not np.any(mdl.u1[:-1])
        probe = make_blobs(40, seed=13).features
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            labels = predict(mdl, probe)
            d1, d2 = decision_values(mdl, probe[0])
        assert np.all(labels == -1.0)
        assert d1 == np.inf
        assert d2 == decision_values(fitted, probe[0])[1]

    def test_two_zero_normals_are_a_data_error(self, fitted):
        mdl = zero_normals(fitted, "u1", "u2")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="infinitely far from both hyperplanes"):
                predict(mdl, make_blobs(40, seed=13).features)

    def test_cli_predict_with_two_zero_normals_exits_2(self, tmp_path, fitted, capsys):
        save_model(zero_normals(fitted, "u1", "u2"), tmp_path / "model.json")
        np.savetxt(tmp_path / "rows.csv", make_blobs(40, seed=13).features, delimiter=",")
        with warnings.catch_warnings(), openblas_threads_kept():
            warnings.simplefilter("error")
            code = cli_main(["predict", "--model", str(tmp_path / "model.json"),
                             "--data", str(tmp_path / "rows.csv"),
                             "--out", str(tmp_path / "labels.csv")])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("data error: input rows are infinitely far")
        assert not (tmp_path / "labels.csv").exists()

    def test_distance_past_the_float_range_is_infinite(self):
        far = manual_twin([1e-160, 0.0, 1e150], [0.0, 1.0, 0.0], m=2)
        both_far = manual_twin([1e-160, 0.0, 1e150], [0.0, 1e-160, 1e150], m=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert decision_values(far, [0.0, 0.0]) == (np.inf, 0.0)
            assert predict(far, np.zeros((1, 2))).tolist() == [-1.0]
            with pytest.raises(DataError, match="infinitely far from both hyperplanes"):
                predict(both_far, np.zeros((1, 2)))

    # acceptance criterion 3's third problem: the exact optimum of dual 1 has
    # a zero normal, and the normal the solver returns shrinks with its stop
    @pytest.mark.parametrize("stop", [
        dict(qp_tol=1e-8), dict(qp_tol=1e-12), dict(qp_tol=1e-13), dict(qp_tol=1e-14),
        dict(qp_max_iter=5),
    ], ids=["tol-1e-8", "tol-1e-12", "tol-1e-13", "tol-1e-14", "max-iter-5"])
    def test_fit_returns_a_plane_wherever_the_dual_stops(self, stop):
        rng = np.random.default_rng(7)
        data = Dataset(rng.normal(size=(8, 2)), np.array([1.0, -1.0] * 4))
        mdl = fit(plain_config(d1=10.0, d2=0.1, delta=1e-4), data, **stop)
        probe = np.random.default_rng(8).normal(size=(500, 2))
        assert np.array_equal(predict(mdl, probe), predict(zero_normals(mdl, "u1"), probe))


class TestRvflBaseline:
    def test_heavy_ridge_shrinks_weights(self):
        d = make_blobs(50, seed=9, spread=0.3, distance=2.0)
        mdl = fit_rvfl_baseline(20, 3, ridge=1e9, seed=0, train=d)
        assert np.linalg.norm(mdl.weights) <= 1e-3

    def test_separable_blobs_high_train_accuracy(self):
        d = make_blobs(100, seed=10)
        mdl = fit_rvfl_baseline(40, 3, ridge=1e-3, seed=1, train=d)
        acc = (predict(mdl, d.features) == d.labels).mean()
        assert acc >= 0.95

    def test_direct_links_width(self):
        d = make_blobs(30, seed=11, m=3)
        with_links = fit_rvfl_baseline(7, 2, ridge=1e-3, seed=0, train=d,
                                       direct_links=True)
        without = fit_rvfl_baseline(7, 2, ridge=1e-3, seed=0, train=d,
                                    direct_links=False)
        assert with_links.weights.shape == (10,)
        assert without.weights.shape == (7,)

    def test_single_class_rejected(self):
        single = Dataset(np.ones((3, 2)), np.ones(3))
        with pytest.raises(DataError):
            fit_rvfl_baseline(5, 2, ridge=1.0, seed=0, train=single)

    @pytest.mark.parametrize("direct_links", [True, False])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rows_rejected(self, direct_links, bad):
        d = make_blobs(40, seed=14)
        mdl = fit_rvfl_baseline(5, 3, ridge=1e-3, seed=0, train=d,
                                direct_links=direct_links)
        X = d.features[:3].copy()
        X[2, 1] = bad
        with pytest.raises(DataError, match="non-finite"):
            predict(mdl, X)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_finite_row_whose_score_overflows_rejected(self):
        mdl = RVFLModel(weights=np.array([0.0, 1.0, 1.0]), m=2,
                        layer=init_random_layer(2, 1, 3, seed=0),
                        direct_links=True, ridge=1.0)
        with pytest.raises(DataError, match="overflow"):
            predict(mdl, np.array([[1e308, 1e308]]))


class TestInputGuards:
    @pytest.mark.parametrize("kw, message", [
        (dict(feature_space="kernel"), "unknown feature space 'kernel'"),
        (dict(d1=0.0), "d1, d2, and delta must all be positive"),
        (dict(d2=-1.0), "d1, d2, and delta must all be positive"),
        (dict(delta=0.0), "d1, d2, and delta must all be positive"),
        (dict(eta=0.5), "eta must be in"),
        (dict(feature_space="hidden", h=0), "hidden and enhanced spaces need h >= 1"),
        (dict(feature_space="enhanced", activation=10), "activation index must be 1..9"),
    ])
    def test_model_config_rejects(self, kw, message):
        with pytest.raises(ValueError, match=message):
            plain_config(**kw)

    @pytest.mark.parametrize("ridge", [0.0, -1.0])
    def test_rvfl_non_positive_ridge_rejected(self, ridge):
        with pytest.raises(ValueError, match="ridge must be positive"):
            fit_rvfl_baseline(5, 3, ridge=ridge, seed=0, train=make_blobs(20, seed=1))

    def test_decision_values_takes_one_row(self):
        mdl = manual_twin([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], m=2)
        with pytest.raises(DataError, match="single sample row"):
            decision_values(mdl, [[0.0, 1.0], [1.0, 0.0]])

    def test_deserialize_unknown_kind(self):
        doc = serialize(manual_twin([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], m=2))
        doc["kind"] = "svm"
        with pytest.raises(ValueError, match="unknown model kind 'svm'"):
            deserialize(doc)

    def test_granulated_fit_with_single_class_balls(self):
        # 7 of 10 rows positive is pure enough at eta 0.6: one positive ball
        X = np.arange(20.0).reshape(10, 2)
        d = Dataset(X, np.array([1.0] * 7 + [-1.0] * 3))
        with pytest.raises(DataError, match="single class among granular-ball labels"):
            fit(plain_config(granulate=True, eta=0.6), d)


class TestNonFiniteConfigDocument:
    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("key", ["d1", "d2", "delta"])
    def test_load_rejects_it(self, tmp_path, key, value):
        # json writes and reads NaN and Infinity, which are not standard JSON
        path = tmp_path / "m.json"
        save_model(manual_twin([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], m=2), path)
        doc = json.loads(path.read_text())
        doc["config"][key] = float(value)
        path.write_text(json.dumps(doc))
        assert value in path.read_text()
        with pytest.raises(ValueError, match="d1, d2, and delta must all be positive and finite"):
            load_model(path)


class TestOverflowInFit:
    """A finite training row that overflows the hidden map is a DataError, and
    no overflow warning escapes first."""

    @staticmethod
    def overflowing_rows():
        d = make_blobs(40, seed=13, m=8)
        X = d.features.copy()
        X[0] = 1e308  # finite, but relu(x W + b) overflows
        return Dataset(X, d.labels)

    @pytest.mark.parametrize("space", ["hidden", "enhanced"])
    def test_twin_fit(self, space):
        cfg = plain_config(feature_space=space, h=5, activation=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="non-finite entries"):
                fit(cfg, self.overflowing_rows())

    @pytest.mark.parametrize("direct_links", [True, False])
    def test_rvfl_fit(self, direct_links):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="non-finite entries"):
                fit_rvfl_baseline(5, 2, ridge=1e-3, seed=0, train=self.overflowing_rows(),
                                  direct_links=direct_links)


class TestSerialization:
    def fitted(self, tmp_path, cfg=None):
        d = make_blobs(60, seed=12)
        cfg = cfg or ModelConfig(granulate=True, feature_space="enhanced",
                                 seed=4, h=13)
        mdl = fit(cfg, d)
        path = tmp_path / "model.json"
        save_model(mdl, path)
        return mdl, path

    def test_roundtrip_predictions_identical(self, tmp_path):
        mdl, path = self.fitted(tmp_path)
        back = load_model(path)
        probe = make_blobs(40, seed=13).features
        assert np.array_equal(predict(mdl, probe), predict(back, probe))
        assert np.array_equal(back.u1, mdl.u1)

    def test_original_space_roundtrip(self, tmp_path):
        mdl, path = self.fitted(tmp_path, plain_config())
        back = load_model(path)
        assert back.layer is None
        probe = make_blobs(40, seed=14).features
        assert np.array_equal(predict(mdl, probe), predict(back, probe))

    def test_diagnostics_roundtrip(self, tmp_path):
        mdl, path = self.fitted(tmp_path)
        assert mdl.diagnostics.converged and mdl.diagnostics.balls
        assert load_model(path).diagnostics == mdl.diagnostics

    def test_unconverged_diagnostics_roundtrip(self, tmp_path):
        mdl = fit(plain_config(), make_blobs(60, seed=6), qp_max_iter=1)
        assert not mdl.diagnostics.converged and mdl.diagnostics.notes
        path = tmp_path / "model.json"
        save_model(mdl, path)
        assert load_model(path).diagnostics == mdl.diagnostics
        assert list(json.loads(path.read_text())["diagnostics"]) == [
            "k1", "k2", "balls", "dual_iterations", "dual_residuals",
            "converged", "notes",
        ]

    def test_corrupted_checksum_rejected(self, tmp_path):
        _, path = self.fitted(tmp_path)
        doc = json.loads(path.read_text())
        doc["layer"]["checksum"] = "f" * 16
        with pytest.raises(ValueError, match="checksum"):
            deserialize(doc)

    def test_version_mismatch_rejected(self, tmp_path):
        _, path = self.fitted(tmp_path)
        doc = json.loads(path.read_text())
        doc["schema_version"] = 99
        with pytest.raises(ValueError, match="schema version"):
            deserialize(doc)

    def test_missing_layer_rejected(self, tmp_path):
        _, path = self.fitted(tmp_path)
        doc = json.loads(path.read_text())
        doc["layer"] = None
        with pytest.raises(ValueError, match="missing its random layer"):
            deserialize(doc)

    @pytest.mark.parametrize("key", ["m", "config", "layer", "u1", "u2", "diagnostics"])
    def test_missing_twin_field_named(self, tmp_path, key):
        _, path = self.fitted(tmp_path)
        doc = json.loads(path.read_text())
        del doc[key]
        with pytest.raises(ValueError, match=f"missing the '{key}' field"):
            deserialize(doc)

    @pytest.mark.parametrize("section,key", [
        ("layer", "checksum"), ("config", "feature_space"), ("diagnostics", "k1"),
        ("normalization", "hi"),
    ])
    def test_missing_nested_field_named(self, tmp_path, section, key):
        _, path = self.fitted(tmp_path)
        doc = json.loads(path.read_text())
        doc["normalization"] = {"lo": [0.0, 0.0], "hi": [1.0, 1.0]}
        del doc[section][key]
        with pytest.raises(ValueError, match=f"missing the '{key}' field"):
            deserialize(doc)

    @pytest.mark.parametrize("space,width", [
        ("original", 2), ("hidden", 13), ("enhanced", 15),
    ])
    @pytest.mark.parametrize("key", ["u1", "u2"])
    def test_plane_length_is_space_width_plus_one(self, tmp_path, space, width, key):
        _, path = self.fitted(tmp_path, ModelConfig(granulate=False, feature_space=space,
                                                    seed=4, h=13))
        doc = json.loads(path.read_text())
        assert len(doc[key]) == width + 1
        deserialize(doc)
        for bad in (doc[key][:-1], doc[key] + [0.5]):
            with pytest.raises(ValueError, match=f"'{key}' must hold {width + 1} numbers"):
                deserialize({**doc, key: bad})

    @pytest.mark.parametrize("bad", [{}, None, "1234", [None] * 3, ["1"] * 3, [True] * 3,
                                     [0.5, float("nan"), 1.0], [0.5, 1.0, float("inf")]])
    def test_plane_must_be_a_list_of_numbers(self, tmp_path, bad):
        _, path = self.fitted(tmp_path, plain_config())
        doc = json.loads(path.read_text())
        assert len(doc["u1"]) == 3
        with pytest.raises(ValueError, match="^model field 'u1' must hold 3 numbers, got "):
            deserialize({**doc, "u1": bad})

    def test_layer_width_must_match_document_m(self, tmp_path):
        _, path = self.fitted(tmp_path)
        doc = json.loads(path.read_text())
        doc["m"] = 3
        with pytest.raises(ValueError, match="random layer takes m = 2 inputs, model has m = 3"):
            deserialize(doc)

    def test_normalization_length_must_match_m(self, tmp_path):
        _, path = self.fitted(tmp_path)
        doc = json.loads(path.read_text())
        doc["normalization"] = {"lo": [0.0, 0.0, 0.0], "hi": [1.0, 1.0]}
        with pytest.raises(ValueError, match="'lo' must hold 2 numbers"):
            deserialize(doc)

    @pytest.mark.parametrize("direct_links,width", [(True, 11), (False, 9)])
    def test_rvfl_weights_length_checked(self, tmp_path, direct_links, width):
        d = make_blobs(50, seed=15)
        mdl = fit_rvfl_baseline(9, 4, ridge=1e-2, seed=3, train=d, direct_links=direct_links)
        doc = serialize(mdl)
        assert len(doc["weights"]) == width
        with pytest.raises(ValueError, match=f"'weights' must hold {width} numbers"):
            deserialize({**doc, "weights": doc["weights"][:-1]})
        doc.pop("ridge")
        with pytest.raises(ValueError, match="missing the 'ridge' field"):
            deserialize(doc)

    def test_rvfl_roundtrip(self, tmp_path):
        d = make_blobs(50, seed=15)
        mdl = fit_rvfl_baseline(9, 4, ridge=1e-2, seed=3, train=d)
        path = tmp_path / "rvfl.json"
        save_model(mdl, path)
        back = load_model(path)
        probe = make_blobs(25, seed=16).features
        assert np.array_equal(predict(mdl, probe), predict(back, probe))

    def test_normalization_travels_with_model(self, tmp_path):
        d = make_blobs(60, seed=17)
        lo, hi = d.features.min(axis=0), d.features.max(axis=0)
        span = hi - lo
        normed = Dataset((d.features - lo) / span, d.labels)
        mdl = fit(plain_config(), normed, normalization=(lo, hi))
        path = tmp_path / "norm.json"
        save_model(mdl, path)
        back = load_model(path)
        # raw-space probe must be normalized identically by both models
        probe = make_blobs(30, seed=18).features
        assert np.array_equal(predict(mdl, probe), predict(back, probe))
        doc = serialize(back)
        assert doc["normalization"] is not None

    def test_stored_range_wider_than_the_float_range(self):
        # the first column's hi - lo overflows; rows scaled by the model match
        # rows scaled by hand, with no overflow warning
        d = make_blobs(60, seed=17)
        raw = d.features.copy()
        raw[0, 0], raw[1, 0] = -1e308, 1e308
        ranges = minmax_ranges(Dataset(raw, d.labels))
        mdl = fit(plain_config(), normalize_minmax(Dataset(raw, d.labels)), normalization=ranges)
        probe = np.vstack([raw[:5], [[5e307, 0.0]]])
        scaled = normalize_minmax(Dataset(probe, np.ones(6)), ranges).features
        assert scaled[:2, 0].tolist() == [0.0, 1.0]
        plain = replace(mdl, normalization=None)
        assert np.array_equal(predict(mdl, probe), predict(plain, scaled))

    @pytest.mark.parametrize("level", ["document", "layer", "normalization", "config",
                                       "diagnostics"])
    @pytest.mark.parametrize("value", ["x", [], 1])
    def test_non_object_level_rejected(self, tmp_path, level, value):
        _, path = self.fitted(tmp_path)
        doc = json.loads(path.read_text())
        if level == "document":
            doc = value
        else:
            doc[level] = value
        with pytest.raises(ValueError, match=f"^model {level} must be a JSON object$"):
            deserialize(doc)

    @pytest.mark.parametrize("kind", ["twin", "rvfl"])
    def test_unknown_top_level_key_rejected(self, kind):
        d = make_blobs(50, seed=15)
        if kind == "rvfl":
            mdl = fit_rvfl_baseline(9, 4, ridge=1e-2, seed=3, train=d)
        else:
            mdl = fit(plain_config(), d)
        with pytest.raises(ValueError, match="^model document has an unknown field 'extra'$"):
            deserialize({**serialize(mdl), "extra": 1})

    def test_unknown_layer_key_rejected(self, tmp_path):
        _, path = self.fitted(tmp_path)
        doc = json.loads(path.read_text())
        doc["layer"]["extra"] = 1
        with pytest.raises(ValueError, match="^model layer has an unknown field 'extra'$"):
            deserialize(doc)


class TestScoringMatchesReference:
    """Both planes scored in one product agree with one matvec per plane."""

    @pytest.mark.parametrize("space", ["original", "hidden", "enhanced"])
    def test_labels_equal_distances_close(self, space):
        train = make_blobs(120, seed=31, m=3)
        mdl = fit(ModelConfig(granulate=False, feature_space=space, seed=5, h=17), train)
        rows = np.random.default_rng(32).normal(scale=2.0, size=(2000, 3))
        d1, d2, terms = plane_distances_reference(mdl, rows)
        labels = predict(mdl, rows)
        assert set(labels.tolist()) == {-1.0, 1.0}
        assert np.array_equal(labels, np.where(d1 <= d2, 1.0, -1.0))
        got = np.array([decision_values(mdl, row) for row in rows])
        # relative to the summed terms: a distance near 0 is a difference of
        # terms of order 1, where summation order alone moves it by ~1e-16
        assert np.all(np.abs(got - np.column_stack([d1, d2])) <= 1e-12 * terms)


BLOCK_EDGE_ROWS = [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 3]


class TestBlockedScoring:
    """Rows mapped and scored in blocks agree with scoring all rows at once."""

    @pytest.mark.parametrize("n", BLOCK_EDGE_ROWS)
    @pytest.mark.parametrize("space", ["original", "hidden", "enhanced"])
    def test_twin_labels_equal_distances_close(self, space, n):
        train = make_blobs(120, seed=31, m=3)
        mdl = fit(ModelConfig(granulate=False, feature_space=space, seed=5, h=17), train)
        rows = np.random.default_rng(33).normal(scale=2.0, size=(n, 3))
        d1, d2, terms = plane_distances_reference(mdl, rows)
        labels = predict(mdl, rows)
        assert labels.shape == (n,)
        assert np.array_equal(labels, np.where(d1 <= d2, 1.0, -1.0))
        got = np.column_stack(_plane_distances(mdl, rows))
        assert np.all(np.abs(got - np.column_stack([d1, d2])) <= 1e-12 * terms)

    @pytest.mark.parametrize("n", BLOCK_EDGE_ROWS)
    @pytest.mark.parametrize("direct_links", [True, False])
    def test_rvfl_labels_equal_unblocked_scores(self, direct_links, n):
        train = make_blobs(120, seed=34, m=3)
        mdl = fit_rvfl_baseline(17, 3, ridge=1e-3, seed=5, train=train,
                                direct_links=direct_links)
        rows = np.random.default_rng(35).normal(scale=2.0, size=(n, 3))
        phi = _map_rows(_rvfl_space(direct_links), mdl.layer, rows)
        scores = phi @ mdl.weights
        # no score lies within its rounding bound of 0, so no label can flip
        assert np.all(np.abs(scores) > 1e-12 * (np.abs(phi) @ np.abs(mdl.weights)))
        labels = predict(mdl, rows)
        assert labels.shape == (n,)
        assert np.array_equal(labels, np.where(scores >= 0.0, 1.0, -1.0))

    @pytest.mark.parametrize("kind", ["hidden", "enhanced", "rvfl"])
    def test_map_overflow_in_last_block_rejected(self, kind):
        d = make_blobs(40, seed=13)
        if kind == "rvfl":
            mdl = fit_rvfl_baseline(5, 2, ridge=1e-3, seed=0, train=d)
        else:
            mdl = fit(plain_config(feature_space=kind, h=5, activation=2), d)
        X = make_blobs(2 * _BLOCK_ROWS + 3, seed=36).features.copy()
        X[-1] = 1.7e308  # finite, but relu(x W + b) overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DataError, match="non-finite entries"):
                predict(mdl, X)

    def test_predict_memory_does_not_scale_with_the_mapped_width(self):
        n, m, h = 20000, 33, 203
        raw = make_blobs(300, seed=37, m=m)
        ranges = minmax_ranges(raw)
        mdl = fit(ModelConfig(granulate=False, feature_space="enhanced", seed=3, h=h),
                  normalize_minmax(raw), normalization=ranges)
        rows = make_blobs(n, seed=38, m=m).features
        tracemalloc.start()
        try:
            predict(mdl, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # only the n x m input, which min-max scaling holds twice, and the
        # n x 2 distances grow with n: about 13 MB, where the n x (h + m)
        # mapped matrix alone is 37.8 MB
        assert peak <= 8 * n * (2 * m + 2) + 2 * 2**20


class TestLegacyDocuments:
    """Model documents written by an earlier gbtwin still load and predict.

    ``data/legacy_models`` holds a ``tsvm`` document with normalization
    ranges, an ``ef-gbtsvm`` document with h = 4 and an ``rvfl`` document, all
    trained by ``gbtwin train`` on ``gen-ndc --n 80 --m 3 --clusters 4
    --separability 1.5 --seed 11`` with ``--seed 5 --hidden 4``, plus 16
    probe rows and the labels that version's ``predict`` gave them.
    """

    DIR = Path(__file__).parent / "data" / "legacy_models"

    @pytest.mark.parametrize("kind", ["tsvm", "ef-gbtsvm", "rvfl"])
    def test_load_and_predict_reproduce_labels(self, kind):
        probe = load_features_csv(self.DIR / "probe.csv")
        labels = self.DIR / "probe_labels.csv"
        column = labels.read_text().splitlines()[0].split(",").index(kind)
        expected = np.loadtxt(labels, delimiter=",", skiprows=1)[:, column]
        assert set(expected.tolist()) == {-1.0, 1.0}
        mdl = load_model(self.DIR / f"{kind}.json")
        assert np.array_equal(predict(mdl, probe), expected)

    @pytest.mark.parametrize("kind", ["tsvm", "ef-gbtsvm", "rvfl"])
    def test_resave_writes_the_same_bytes(self, tmp_path, kind):
        path = self.DIR / f"{kind}.json"
        save_model(load_model(path), tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_new_documents_keep_the_legacy_key_order(self):
        d = make_blobs(50, seed=15)
        twin = fit(ModelConfig(granulate=True, feature_space="enhanced", seed=4, h=5), d)
        rvfl = fit_rvfl_baseline(5, 3, ridge=1e-2, seed=3, train=d)
        for mdl, kind in ((twin, "ef-gbtsvm"), (twin, "tsvm"), (rvfl, "rvfl")):
            legacy = json.loads((self.DIR / f"{kind}.json").read_text())
            assert list(serialize(mdl)) == list(legacy)


class TestRowSpanFit:
    """A fit with fewer rows k than mapped columns c runs in the rows' span.

    ``full_width_planes`` fits the same two planes on the c-column rows.
    Rows are fit raw, standing for ball centres.
    """

    C = 13
    # (space, m, h), each with c = 13 mapped columns counting the ones column
    SPACES = [("original", 12, 1), ("hidden", 4, 12), ("enhanced", 4, 8)]

    @staticmethod
    def rows(k, m, duplicated=False):
        labels = np.where(np.arange(k) % 2 == 0, 1.0, -1.0)
        X = np.random.default_rng(k).normal(size=(k, m)) + 0.5 * labels[:, None]
        if duplicated:
            # every centre twice, with its label: M has rank k / 2 at most
            X[k // 2:] = X[: k // 2]
            labels[k // 2:] = labels[: k // 2]
        return Dataset(X, labels)

    @staticmethod
    def spy_row_span(monkeypatch):
        shapes = []
        row_span = qp.row_span
        monkeypatch.setattr(qp, "row_span", lambda M: shapes.append(M.shape) or row_span(M))
        return shapes

    @pytest.mark.parametrize("space,m,h", SPACES)
    @pytest.mark.parametrize("k,duplicated", [(2, False), (C - 1, False), (C - 1, True)])
    def test_agrees_with_the_full_width_fit(self, monkeypatch, space, m, h, k, duplicated):
        cfg = ModelConfig(granulate=False, feature_space=space, seed=6, h=h, activation=3)
        train = self.rows(k, m, duplicated)
        shapes = self.spy_row_span(monkeypatch)
        mdl = fit(cfg, train, qp_tol=1e-12)
        assert shapes == [(k, self.C)] and mdl.u1.shape == (self.C,)
        assert mdl.diagnostics.converged
        r1, r2 = full_width_planes(cfg, train, qp_tol=1e-12)
        for u, r in ((mdl.u1, r1), (mdl.u2, r2)):
            assert np.abs(u - r).max() <= 1e-8 * np.abs(r).max()
        probe = np.random.default_rng(1).normal(scale=2.0, size=(500, m))
        labels = predict(mdl, probe)
        assert set(labels.tolist()) == {-1.0, 1.0}
        assert np.array_equal(labels, predict(replace(mdl, u1=r1, u2=r2), probe))

    @pytest.mark.parametrize("space,m,h", SPACES)
    @pytest.mark.parametrize("k", [C, 2 * C + 2])
    def test_k_at_least_c_is_the_full_width_fit_bit_for_bit(self, monkeypatch, space, m, h, k):
        # at 2c + 2 rows both duals are over c + 1 rows, so neither takes a
        # Newton step either: the whole fit runs the earlier code
        cfg = ModelConfig(granulate=False, feature_space=space, seed=6, h=h, activation=3)
        train = self.rows(k, m)
        shapes = self.spy_row_span(monkeypatch)
        mdl = fit(cfg, train, qp_tol=1e-12)
        assert shapes == []
        r1, r2 = full_width_planes(cfg, train, qp_tol=1e-12)
        assert mdl.u1.tobytes() == r1.tobytes() and mdl.u2.tobytes() == r2.tobytes()


class TestFitStages:
    """One ``fit_basis`` serves every box: ``fit_planes`` at each (d1, d2)
    gives the bits of ``fit`` with those penalties, planes and diagnostics."""

    # (d1, d2), solved in this order on one basis; at (0.01, 100) some duals
    # stop unconverged, so the diagnostics' notes are compared too
    BOXES = [(1.0, 1.0), (0.01, 100.0), (100.0, 0.01), (0.5, 2.0), (1.0, 1.0)]
    # (n, m, h, row span): 30 rows (or 4 balls) against 41-91 columns, and
    # 400 rows (or 71 balls) against 5-13 columns
    DATA = [(30, 40, 50, True), (400, 4, 8, False)]

    @pytest.mark.parametrize("space", ["original", "hidden", "enhanced"])
    @pytest.mark.parametrize("granulate", [False, True])
    @pytest.mark.parametrize("n,m,h,spanned", DATA)
    def test_one_basis_gives_the_bits_of_each_fit(self, space, granulate, n, m, h, spanned):
        data = inject_label_noise(generate_ndc(n, m, 2, 1.0, seed=7), 0.1, seed=7)
        cfg = ModelConfig(granulate=granulate, feature_space=space, seed=7, h=h, activation=3)
        basis = fit_basis(cfg, data)
        assert (basis.span is not None) == spanned
        for d1, d2 in self.BOXES:
            u1, u2, diag = fit_planes(basis, d1, d2, 1e-10, qp.DEFAULT_MAX_SWEEPS)
            mdl = fit(replace(cfg, d1=d1, d2=d2), data, qp_tol=1e-10)
            assert u1.tobytes() == mdl.u1.tobytes() and u2.tobytes() == mdl.u2.tobytes()
            assert repr(diag) == repr(mdl.diagnostics)
