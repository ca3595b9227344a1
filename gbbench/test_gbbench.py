"""Tests of the benchmark's own arithmetic, reference predictor and metric names.

Run with ``python -m pytest gbbench``.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans as sp  # noqa: E402
import workloads  # noqa: E402
from gbtwin import dataset as ds  # noqa: E402
from gbtwin import model as md  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _tree():
    # root 0..10 holds a 1..4 (with grandchild 2..3) and b 3..6, which overlap
    return [
        sp.Span(0, "model.fit", None, 0.0, 10.0),
        sp.Span(1, "qp.ridge_factorize", 0, 1.0, 4.0),
        sp.Span(2, "qp.solve_spd", 1, 2.0, 3.0),
        sp.Span(3, "granular.generate_granular_balls", 0, 3.0, 6.0),
        sp.Span(4, "granular.two_means", 3, 5.5, 7.0),
    ]


def test_self_time_subtracts_union_of_children():
    selfs = sp.self_times(_tree())
    assert selfs[0] == pytest.approx(10.0 - 5.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(1.0)
    # the grandchild runs past its parent's end; only the covered part counts
    assert selfs[3] == pytest.approx(2.5)
    assert selfs[4] == pytest.approx(1.5)


def test_layer_self_times_sum_to_root_duration():
    tree = _tree()[:4]
    layers = sp.layer_self_times(tree)
    assert layers["qp"] == pytest.approx(3.0)
    assert layers["granular"] == pytest.approx(3.0)
    assert layers["model"] == pytest.approx(5.0)
    assert sum(layers.values()) == pytest.approx(11.0)  # b overlaps a by 1


def test_layer_metrics_of_no_spans_are_zero():
    metrics = sp.layer_metrics([])
    assert metrics.keys() == sp.PER_LAYER.keys()
    assert all(v == 0 for v in metrics.values())


def _blobs(n, m, seed):
    rng = np.random.default_rng(seed)
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    X = rng.normal(size=(n, m)) + y[:, None] * 1.5
    return ds.Dataset(X, y)


@pytest.mark.parametrize(
    "space,activation",
    [("original", 3)] + [(s, a) for s in ("hidden", "enhanced") for a in range(1, 10)],
)
def test_reference_predictor_matches_predict(space, activation):
    raw = _blobs(60, 4, seed=activation)
    ranges = ds.minmax_ranges(raw)
    cfg = md.ModelConfig(granulate=False, feature_space=space, seed=5, h=7, activation=activation)
    mdl = md.fit(cfg, ds.normalize_minmax(raw), normalization=ranges)
    probe = _blobs(200, 4, seed=100 + activation).features
    np.testing.assert_array_equal(workloads.reference_labels(mdl, probe), md.predict(mdl, probe))


def test_traced_boundaries_restore_originals():
    before = (md.fit, ds.Dataset.take)
    tracer = sp.Tracer()
    with sp.traced(tracer):
        assert md.fit is not before[0]
        raw = _blobs(40, 3, seed=1)
        md.fit(md.ModelConfig(granulate=True, feature_space="hidden", seed=1, h=5), raw)
    assert (md.fit, ds.Dataset.take) == before
    names = {s.name for s in tracer.spans}
    assert {"model.fit", "granular.generate_granular_balls", "qp.solve_box_qp"} <= names
    metrics = sp.layer_metrics(tracer.spans)
    assert metrics["model.fit_calls"] == 1
    assert metrics["qp.dual_calls"] == 2
    assert metrics["granular.calls"] == 1


def test_metric_names_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == run.END_TO_END
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared == sp.PER_LAYER


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_tail_percentile():
    assert run.tail([1.0, 2.0, 3.0]) == 2.0  # too few samples: the median
    samples = [float(i) for i in range(100)]
    assert run.tail(samples) == 89.0  # p90, with 10 samples above it
    assert run.tail(samples[:30]) == 19.0  # p66: the highest with 10 above
