"""The benchmark's four workloads: set-up, one operation, and its checks.

Every call goes through ``gbtwin``'s public modules by attribute (``md.fit``,
``ev.grid_search_cv``...), so the traced run can swap in its span wrappers.

All data comes from ``generate_ndc`` with m = 32, and the data sets are fixed
per workload. On a 2-core machine the raw dual's sweep count, and with it the
fit time, moved 2x with the data: one raw fit took 12.7-26.9 s over five
train/test splits of one data set and 11.6-17.5 s over four generator seeds.
A granulated fit took 0.63-0.93 s over five label-noise seeds, and the grid
search selected a different model with test accuracy 0.56-0.89 over nine
grid seeds. Spread like that across seeds would hide any change between two
commits. The seed argument therefore varies only what leaves the work and
the outputs alone: the order in which the predict workload's rows arrive.
``reference.json`` holds the outputs every run must reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from gbtwin import dataset as ds
from gbtwin import evaluation as ev
from gbtwin import model as md
from gbtwin import qp

M = 32

# two separable clusters: the raw-fit data of acceptance criterion 8
TWO_CLUSTER = dict(n=20000, m=M, n_clusters=2, separability=5.0, seed=77)
SPLIT_SEED = 1
NOISE_RATE = 0.1
NOISE_SEED = 7
GRID_DATA = dict(n=8000, m=M, n_clusters=8, separability=2.0, seed=78)
GRID = {"d": [1e-2, 1.0, 1e2], "h": [23, 103, 203], "activation": [1, 3, 7]}
GRID_FOLDS = 5
# at 0.9 granulation stops at 2 balls on this data and the grid search is
# ridge-bound; at 0.93 granulation does most of the work, as in the paper
GRID_ETA = 0.93
PREDICT_POOL_ROWS = 100_000
PREDICT_BATCH = 5000


def accuracy(labels, pred) -> float:
    return float(np.mean(np.asarray(labels) == np.asarray(pred)))


def fit_failures(mdl) -> list[str]:
    """A fit fails when either dual stopped short of the solver tolerance."""
    diag = mdl.diagnostics
    worst = max(diag.dual_residuals)
    if diag.converged and worst <= qp.DEFAULT_TOL:
        return []
    return [f"dual not converged (residual {worst:.3e}, iterations {diag.dual_iterations})"]


def reference_labels(mdl, X) -> np.ndarray:
    """Twin-plane labels computed without ``gbtwin.model.predict``.

    Min-max normalizes the raw rows with the model's ranges, maps them through
    the model's random layer, and assigns the class of the nearer plane.
    """
    X = np.asarray(X, dtype=np.float64)
    lo, hi = mdl.normalization
    Xn = (X - lo) / np.where(hi > lo, hi - lo, 1.0)
    space = mdl.config.feature_space
    if space == "original":
        Z = Xn
    else:
        layer = mdl.layer
        H = _ACTIVATIONS[layer.activation](Xn @ layer.weights + layer.bias)
        Z = H if space == "hidden" else np.hstack([H, Xn])
    d1 = np.abs(Z @ mdl.u1[:-1] + mdl.u1[-1]) / np.linalg.norm(mdl.u1[:-1])
    d2 = np.abs(Z @ mdl.u2[:-1] + mdl.u2[-1]) / np.linalg.norm(mdl.u2[:-1])
    return np.where(d1 <= d2, 1.0, -1.0)


_SELU_L, _SELU_A = 1.0507009873554805, 1.6732632423543772
_ACTIVATIONS = {
    1: lambda x: _SELU_L * np.where(x > 0, x, _SELU_A * np.expm1(np.minimum(x, 0))),
    2: lambda x: np.maximum(x, 0.0),
    3: lambda x: 1.0 / (1.0 + np.exp(-x)),
    4: np.sin,
    5: lambda x: (x >= 0).astype(np.float64),
    6: lambda x: np.maximum(0.0, 1.0 - np.abs(x)),
    7: lambda x: np.exp(-(x**2)),
    8: np.sign,
    9: lambda x: np.where(x > 0, x, 0.01 * x),
}


@dataclass
class State:
    train: ds.Dataset
    test: ds.Dataset
    cfg: md.ModelConfig
    extra: dict = field(default_factory=dict)


def _two_cluster_split():
    data = ds.generate_ndc(**TWO_CLUSTER)
    pair = ds.split_train_test(data, 0.7, seed=SPLIT_SEED)
    ranges = ds.minmax_ranges(pair.train)
    return pair, ranges, ds.normalize_minmax(pair.train), ds.normalize_minmax(pair.test, ranges)


def _warm_up(cfg, train):
    """One small fit, so lazy imports and BLAS start-up stay out of the timing."""
    md.predict(md.fit(cfg, train.take(np.arange(0, train.n, 40))), train.features[:10])


class Workload:
    """One named workload. ``op`` is timed; ``check`` runs outside the timing.

    ``check`` returns failure messages and the outputs that must match
    ``reference.json``. ``pass_ops`` operations make one pass, after which
    every reference output has been observed.
    """

    name = ""
    pass_ops = 1
    min_ops = 1

    def setup(self, seed: int) -> State:
        raise NotImplementedError

    def op(self, state: State, i: int):
        raise NotImplementedError

    def rows(self, state: State) -> int:
        """Input rows one operation handles."""
        return state.train.n

    def check(self, state: State, i: int, out) -> tuple[list[str], dict]:
        raise NotImplementedError


class FitRaw(Workload):
    """tsvm: raw rows in the original space; the twin duals do the work."""

    name = "fit-raw"

    def setup(self, seed):
        _, _, train, test = _two_cluster_split()
        cfg = md.ModelConfig(granulate=False, feature_space="original", seed=3)
        _warm_up(cfg, train)
        return State(train, test, cfg)

    def op(self, state, i):
        return md.fit(state.cfg, state.train)

    def check(self, state, i, out):
        acc = accuracy(state.test.labels, md.predict(out, state.test.features))
        return fit_failures(out), {"test_acc": acc}


class FitGranular(FitRaw):
    """gbtsvm at eta 0.9 on 10% flipped labels; granulation does the work."""

    name = "fit-granular"

    def setup(self, seed):
        _, _, train, test = _two_cluster_split()
        noisy = ds.inject_label_noise(train, NOISE_RATE, seed=NOISE_SEED)
        cfg = md.ModelConfig(granulate=True, feature_space="original", seed=3, eta=0.9)
        _warm_up(cfg, noisy)
        return State(noisy, test, cfg)


class GridSearch(Workload):
    """ef-gbtsvm 5-fold grid search over 27 combinations: many small fits."""

    name = "gridsearch"

    def setup(self, seed):
        data = ds.generate_ndc(**GRID_DATA)
        pair = ds.split_train_test(data, 0.7, seed=SPLIT_SEED)
        ranges = ds.minmax_ranges(pair.train)
        train = ds.normalize_minmax(pair.train)
        test = ds.normalize_minmax(pair.test, ranges)
        cfg = md.ModelConfig(granulate=True, feature_space="enhanced", seed=0, eta=GRID_ETA)
        _warm_up(cfg, train)
        return State(train, test, cfg)

    def op(self, state, i):
        return ev.grid_search_cv(state.train, state.cfg, folds=GRID_FOLDS, grid=GRID, seed=0)

    def check(self, state, i, out):
        best, table = out
        failures = []
        if len(table) != 27 or any(r["skipped_folds"] for r in table):
            failures.append("grid table incomplete")
        mdl = md.fit(best, state.train)
        acc = accuracy(state.test.labels, md.predict(mdl, state.test.features))
        selected = [best.d1, best.h, best.activation]
        return failures + fit_failures(mdl), {"test_acc": acc, "selected": selected}


class Predict(Workload):
    """A fixed ef-gbtsvm model scores held-out raw rows in 5000-row batches."""

    name = "predict"
    pass_ops = PREDICT_POOL_ROWS // PREDICT_BATCH
    # p90 needs at least 10 batches above it
    min_ops = 100

    def setup(self, seed):
        _, ranges, train, test = _two_cluster_split()
        noisy = ds.inject_label_noise(train, NOISE_RATE, seed=NOISE_SEED)
        cfg = md.ModelConfig(
            granulate=True, feature_space="enhanced", seed=3, eta=0.9, h=203, activation=3
        )
        mdl = md.fit(cfg, noisy, normalization=ranges)
        # fresh draws from the training distribution (same generator seed,
        # hence the same clusters and plane, larger n), in a seeded order
        fresh = ds.generate_ndc(**{**TWO_CLUSTER, "n": PREDICT_POOL_ROWS})
        pool = fresh.take(np.random.default_rng(seed).permutation(fresh.n))
        md.predict(mdl, pool.features[:PREDICT_BATCH])
        return State(noisy, pool, cfg, {"model": mdl, "expected": {}, "hits": {}})

    def rows(self, state):
        return PREDICT_BATCH

    def _batch(self, i):
        j = i % self.pass_ops
        return j, slice(j * PREDICT_BATCH, (j + 1) * PREDICT_BATCH)

    def op(self, state, i):
        _, rows = self._batch(i)
        return md.predict(state.extra["model"], state.test.features[rows])

    def check(self, state, i, out):
        j, rows = self._batch(i)
        mdl, expected, hits = state.extra["model"], state.extra["expected"], state.extra["hits"]
        if j not in expected:
            expected[j] = reference_labels(mdl, state.test.features[rows])
        failures = [] if np.array_equal(out, expected[j]) else [f"batch {j} differs from the reference predictor"]
        hits[j] = int(np.count_nonzero(out == state.test.labels[rows]))
        observed = {}
        if j == self.pass_ops - 1 and len(hits) == self.pass_ops:
            observed["test_acc"] = sum(hits.values()) / PREDICT_POOL_ROWS
        return failures, observed


WORKLOADS = {w.name: w for w in (FitRaw(), FitGranular(), GridSearch(), Predict())}
