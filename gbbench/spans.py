"""Span tracer for the benchmark's traced run.

``traced(tracer)`` swaps each public layer boundary of ``gbtwin`` for a
wrapper that records a span (name, start, end, parent) and restores the
originals on exit. Every boundary is patched at the name its caller resolves
at call time, so nothing inside ``src/`` changes. Spans stay in memory; the
benchmark writes them out when it ends. ``layer_metrics`` folds one unit's
spans into the per-layer metrics named in ``PER_LAYER``.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import math
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = math.nan
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """In-memory span recorder for single-threaded code."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), name, parent, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def as_records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


# ---------------------------------------------------------------------------
# observers: counts taken from a boundary's arguments and result. They run in
# a "trace.observe" child span, so their cost leaves the caller's self time.
# ---------------------------------------------------------------------------


def _fingerprint(*parts) -> str:
    h = hashlib.sha1()
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes() if isinstance(part, np.ndarray) else str(part).encode())
    return h.hexdigest()


def _observe_balls(out, d, *args, **kwargs):
    return {"balls": out.k, "input": d.fingerprint()}


def _observe_map(out, layer, X, *args, **kwargs):
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    return {"rows": X.shape[0], "input": _fingerprint(layer.checksum(), layer.activation, X)}


def _observe_boxqp(out, *args, **kwargs):
    return {"p": out.p, "q_bytes": 8 * out.p * out.p}


def _observe_dual(out, *args, **kwargs):
    return {
        "rows": int(out.alpha.shape[0]),
        "sweeps": int(out.iterations),
        "residual": float(out.kkt_residual),
        "converged": bool(out.converged),
    }


# (module, attribute path, span name, observer). The attribute is the name the
# caller resolves: model.py imports generate_granular_balls by name, and
# evaluation.py imports fit, predict, kfold_indices and split_train_test by
# name. The dataset functions the benchmark calls itself are wrapped too, so
# set-up shows up in dataset self time.
BOUNDARIES = [
    ("gbtwin.dataset", "Dataset.take", "dataset.take", None),
    ("gbtwin.dataset", "generate_ndc", "dataset.generate_ndc", None),
    ("gbtwin.dataset", "split_train_test", "dataset.split_train_test", None),
    ("gbtwin.dataset", "normalize_minmax", "dataset.normalize_minmax", None),
    ("gbtwin.dataset", "inject_label_noise", "dataset.inject_label_noise", None),
    ("gbtwin.evaluation", "kfold_indices", "dataset.kfold_indices", None),
    ("gbtwin.evaluation", "split_train_test", "dataset.split_train_test", None),
    ("gbtwin.model", "generate_granular_balls", "granular.generate_granular_balls", _observe_balls),
    ("gbtwin.granular", "two_means", "granular.two_means", None),
    ("gbtwin.features", "init_random_layer", "features.init_random_layer", None),
    ("gbtwin.features", "hidden_features", "features.hidden_features", _observe_map),
    ("gbtwin.features", "enhanced_features", "features.enhanced_features", None),
    ("gbtwin.qp", "ridge_factorize", "qp.ridge_factorize", None),
    ("gbtwin.qp", "solve_spd", "qp.solve_spd", None),
    ("gbtwin.qp", "BoxQP", "qp.BoxQP", _observe_boxqp),
    ("gbtwin.qp", "solve_box_qp", "qp.solve_box_qp", _observe_dual),
    ("gbtwin.model", "fit", "model.fit", None),
    ("gbtwin.model", "predict", "model.predict", None),
    ("gbtwin.evaluation", "fit", "model.fit", None),
    ("gbtwin.evaluation", "predict", "model.predict", None),
    ("gbtwin.evaluation", "grid_search_cv", "evaluation.grid_search_cv", None),
]


def _wrap(tracer: Tracer, name: str, fn, observe):
    @functools.wraps(fn, updated=())
    def traced_call(*args, **kwargs):
        with tracer.span(name) as s:
            out = fn(*args, **kwargs)
            if observe is not None:
                with tracer.span("trace.observe"):
                    s.attrs.update(observe(out, *args, **kwargs))
            return out

    return traced_call


@contextmanager
def traced(tracer: Tracer):
    """Route every boundary in ``BOUNDARIES`` through ``tracer`` until exit.

    A boundary that no longer exists is skipped; its metrics then read 0.
    """
    patched = []
    try:
        for module, path, name, observe in BOUNDARIES:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__.get(attr)
            if original is None:
                continue
            setattr(owner, attr, _wrap(tracer, name, original, observe))
            patched.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def _covered(lo: float, hi: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - _covered(s.start, s.end, children[s.id]) for s in spans}


def _layer_self(spans, selfs, layer):
    return sum(selfs[s.id] for s in spans if s.layer == layer)


def _entries(spans, by_id, layer):
    """Spans of ``layer`` not nested in another span of the same layer."""
    return [
        s for s in spans
        if s.layer == layer and (s.parent is None or by_id[s.parent].layer != layer)
    ]


def _has_ancestor(s, by_id, layer) -> bool:
    while s.parent is not None:
        s = by_id[s.parent]
        if s.layer == layer:
            return True
    return False


# name -> unit. REPEATABLE lists the counts that must repeat exactly between
# two traced passes on one seed.
PER_LAYER = {
    "dataset.calls": "count",
    "dataset.self_s": "s",
    "dataset.setup_self_s": "s",
    "granular.calls": "count",
    "granular.self_s": "s",
    "granular.two_means_calls": "count",
    "granular.two_means_s": "s",
    "granular.balls": "count",
    "granular.distinct_inputs": "count",
    "granular.reuse_ratio": "ratio",
    "features.calls": "count",
    "features.self_s": "s",
    "features.map_calls": "count",
    "features.rows_mapped": "count",
    "features.distinct_inputs": "count",
    "features.reuse_ratio": "ratio",
    "qp.calls": "count",
    "qp.self_s": "s",
    "qp.boxqp_s": "s",
    "qp.dual_calls": "count",
    "qp.dual_s": "s",
    "qp.dual_sweeps": "count",
    "qp.dual_rows": "count",
    "qp.q_bytes": "B-computed",
    "qp.kkt_residual_max": "residual",
    "qp.ridge_calls": "count",
    "qp.ridge_s": "s",
    "qp.solve_spd_s": "s",
    "model.fit_calls": "count",
    "model.fit_self_s": "s",
    "model.predict_calls": "count",
    "model.predict_self_s": "s",
    "evaluation.calls": "count",
    "evaluation.grid_self_s": "s",
    "evaluation.fits": "count",
    "trace.spans": "count",
    "trace.overhead_frac": "frac",
}

REPEATABLE = (
    "qp.q_bytes",
    "qp.dual_rows",
    "qp.dual_sweeps",
    "granular.balls",
    "granular.two_means_calls",
    "granular.distinct_inputs",
    "granular.reuse_ratio",
    "features.distinct_inputs",
    "features.reuse_ratio",
    "evaluation.fits",
)

LAYERS = ("dataset", "granular", "features", "qp", "model", "evaluation")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and self times of one traced unit.

    ``dataset.setup_self_s`` and ``trace.overhead_frac`` need other runs and
    are filled in by the caller; they read 0 here.
    """
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)

    def named(name):
        return [s for s in spans if s.name == name]

    def total_self(name):
        return sum(selfs[s.id] for s in named(name))

    def duration(name):
        return sum(s.end - s.start for s in named(name))

    def attr_sum(name, key):
        return sum(s.attrs[key] for s in named(name))

    def reuse(name):
        calls = named(name)
        distinct = len({s.attrs["input"] for s in calls})
        return distinct, (distinct / len(calls) if calls else 0.0)

    balls_in, balls_ratio = reuse("granular.generate_granular_balls")
    maps_in, maps_ratio = reuse("features.hidden_features")
    duals = named("qp.solve_box_qp")
    out = {
        "dataset.calls": len(_entries(spans, by_id, "dataset")),
        "dataset.self_s": _layer_self(spans, selfs, "dataset"),
        "dataset.setup_self_s": 0.0,
        "granular.calls": len(_entries(spans, by_id, "granular")),
        "granular.self_s": _layer_self(spans, selfs, "granular"),
        "granular.two_means_calls": len(named("granular.two_means")),
        "granular.two_means_s": duration("granular.two_means"),
        "granular.balls": attr_sum("granular.generate_granular_balls", "balls"),
        "granular.distinct_inputs": balls_in,
        "granular.reuse_ratio": balls_ratio,
        "features.calls": len(_entries(spans, by_id, "features")),
        "features.self_s": _layer_self(spans, selfs, "features"),
        "features.map_calls": len(named("features.hidden_features")),
        "features.rows_mapped": attr_sum("features.hidden_features", "rows"),
        "features.distinct_inputs": maps_in,
        "features.reuse_ratio": maps_ratio,
        "qp.calls": len(_entries(spans, by_id, "qp")),
        "qp.self_s": _layer_self(spans, selfs, "qp"),
        "qp.boxqp_s": total_self("qp.BoxQP"),
        "qp.dual_calls": len(duals),
        "qp.dual_s": total_self("qp.solve_box_qp"),
        "qp.dual_sweeps": attr_sum("qp.solve_box_qp", "sweeps"),
        "qp.dual_rows": attr_sum("qp.solve_box_qp", "rows"),
        "qp.q_bytes": attr_sum("qp.BoxQP", "q_bytes"),
        "qp.kkt_residual_max": max((s.attrs["residual"] for s in duals), default=0.0),
        "qp.ridge_calls": len(named("qp.ridge_factorize")),
        "qp.ridge_s": total_self("qp.ridge_factorize"),
        "qp.solve_spd_s": total_self("qp.solve_spd"),
        "model.fit_calls": len(named("model.fit")),
        "model.fit_self_s": total_self("model.fit"),
        "model.predict_calls": len(named("model.predict")),
        "model.predict_self_s": total_self("model.predict"),
        "evaluation.calls": len(_entries(spans, by_id, "evaluation")),
        "evaluation.grid_self_s": total_self("evaluation.grid_search_cv"),
        "evaluation.fits": sum(1 for s in named("model.fit") if _has_ancestor(s, by_id, "evaluation")),
        "trace.spans": len(spans),
        "trace.overhead_frac": 0.0,
    }
    return out


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    selfs = self_times(spans)
    return {layer: _layer_self(spans, selfs, layer) for layer in LAYERS}


def unconverged_duals(spans: list[Span]) -> int:
    return sum(1 for s in spans if s.name == "qp.solve_box_qp" and not s.attrs["converged"])
