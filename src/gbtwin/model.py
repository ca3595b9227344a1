"""Twin-hyperplane classifiers over granulated and randomly enhanced features.

``fit`` realizes the whole family through two switches: ``granulate`` decides
whether the solver sees ball centers or raw samples, and ``feature_space``
decides whether rows are used as-is, mapped through the random hidden layer,
or concatenated with their hidden image. Prediction assigns the class of the
nearer hyperplane measured in the same feature space the model was fit in; a
plane with an exactly zero normal is infinitely far from every row.

``fit`` runs in two stages. ``fit_basis`` does everything that does not read
the penalties d1 and d2: granulation, the random layer, the mapped rows, and
each plane's ridge factor and dual factor V. ``fit_planes`` solves the two
box-constrained duals at (d1, d2) and forms the planes, so one basis serves
every box. The basis maps its training rows in full, since the ridge Gram
matrix needs all of them. When there are fewer rows k than columns c (a
granulated fit in a wide random space), both planes are fit on the rows' k
coordinates in their row span (``qp.row_span``) and lifted back to c
columns: the same problems, on k x k instead of c x c ridge systems.
``predict`` maps and scores rows in blocks of ``_BLOCK_ROWS``, so it never
holds the n x (h + m) mapped matrix and each block stays in cache; the
blocked products may round distances differently in their last bits.

A saved model document holds ``schema_version``, ``kind``, then one key per
field of its model class. ``serialize`` and ``deserialize`` serve both model
kinds, and the reader checks every level of a document by one object rule.
"""

from __future__ import annotations

import json
from collections import namedtuple
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from . import features as ft
from . import qp
from .dataset import DataError, Dataset, scale_minmax
from .granular import centers_matrix, generate_granular_balls

MODEL_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    granulate: bool
    feature_space: str
    seed: int
    d1: float = 1.0
    d2: float = 1.0
    delta: float = qp.DEFAULT_DELTA
    eta: float = 0.9
    h: int = 103
    activation: int = 3

    def __post_init__(self):
        if self.feature_space not in ft.SPACES:
            raise ValueError(f"unknown feature space {self.feature_space!r}")
        if not all(0 < v < np.inf for v in (self.d1, self.d2, self.delta)):
            raise ValueError("d1, d2, and delta must all be positive and finite")
        if not 0.5 < self.eta <= 1.0:
            raise ValueError(f"eta must be in (0.5, 1], got {self.eta}")
        if self.feature_space != "original":
            if self.h < 1:
                raise ValueError("hidden and enhanced spaces need h >= 1")
            if self.activation not in ft.ACTIVATION_NAMES:
                raise ValueError(f"activation index must be 1..9, got {self.activation}")


@dataclass
class FitDiagnostics:
    k1: int
    k2: int
    balls: int | None
    dual_iterations: tuple[int, int]
    dual_residuals: tuple[float, float]
    converged: bool
    notes: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class TwinModel:
    m: int  # raw input feature count
    config: ModelConfig
    layer: ft.RandomLayer | None
    u1: np.ndarray  # (w1, b1), length feature-dim + 1
    u2: np.ndarray
    diagnostics: FitDiagnostics
    normalization: tuple[np.ndarray, np.ndarray] | None = None


def _map_rows(space: str, layer: ft.RandomLayer | None, X: np.ndarray) -> np.ndarray:
    if space == "original":
        return X
    if space == "hidden":
        return ft.hidden_features(layer, X)
    return ft.enhanced_features(layer, X)


# Rows that ``_scores`` maps and multiplies at a time. At the predict
# workload's width 236 (h 203 plus 33 raw columns) a 256-row block of mapped
# rows is about 480 KB, so the map and the product run in a 2 MB per-core L2.
# With 1 BLAS thread a 5000-row batch of that workload scored in a median
# 7.8 ms against 11.7 ms unblocked; 128 and 512 rows were within noise of
# 256, 64 rows (8.9 ms) and 1024 rows (8.6 ms) were slower.
_BLOCK_ROWS = 256


def _scores(space: str, layer: ft.RandomLayer | None, X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """``_map_rows(space, layer, X) @ W``, mapped and multiplied a block of rows at a time.

    Never holds the mapped matrix of all rows, only one block of it. An
    enhanced block is scored as ``hidden @ W[:h] + X @ W[h:]``, so its
    ``[hidden | X]`` rows are never concatenated; X must be finite, as the
    callers' ``_checked_input`` makes it. A finite row may overflow the map
    or the product without a warning: the map rejects a non-finite block and
    the callers check the scores.
    """
    out = np.empty((X.shape[0],) + W.shape[1:])
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(0, X.shape[0], _BLOCK_ROWS):
            block = slice(s, s + _BLOCK_ROWS)
            if space == "enhanced":
                np.matmul(ft.hidden_features(layer, X[block]), W[: layer.h], out=out[block])
                out[block] += X[block] @ W[layer.h :]
            else:
                np.matmul(_map_rows(space, layer, X[block]), W, out=out[block])
    return out


def ball_centers(train: Dataset, eta: float) -> Dataset:
    """The rows the duals see when granulating: one centre per ball.

    Each centre carries its ball's majority label. Granulation is
    deterministic and takes no seed, so one call serves every configuration
    that shares ``train`` and ``eta``.
    """
    centers = Dataset(*centers_matrix(generate_granular_balls(train, eta)))
    if not centers.has_both_classes:
        raise DataError(
            "single class among granular-ball labels; both classes are required"
        )
    return centers


# What a fit computes before it reads d1 and d2 (``fit_basis``): the random
# layer, the ball count (None for a raw fit), the row span (None when k >= c)
# and, for plane 1 then plane 2, the ridge factor of its near rows, its far
# rows and ``V = far L^-T``. It holds no p x p matrix.
FitBasis = namedtuple("FitBasis", "layer balls span sides")


def fit_basis(cfg: ModelConfig, train: Dataset) -> FitBasis:
    """Everything ``fit`` computes before the penalties d1 and d2.

    Checks that ``train`` holds both classes, granulates it to ball centers
    when ``cfg.granulate``, draws the random layer and maps the rows, with a
    ones column appended: M, k x c. When k < c, ``M' = U R`` by QR and the
    rows used are the k x k ``R'`` (``qp.row_span``); the ridge term is the
    same in every orthonormal basis, so each dual is the same problem. Plane
    1 passes near the positive rows and keeps from the negative ones, plane
    2 the other way round; each side's ridge factor ``G = L L'`` of its near
    rows and ``V = far L^-T`` give its dual's matrix ``far G^-1 far' = V V'``.
    """
    if not train.has_both_classes:
        raise DataError("single class in training data; both classes are required")
    balls = None
    if cfg.granulate:
        train = ball_centers(train, cfg.eta)
        balls = train.n
    rows, labels = train.features, train.labels

    layer = None
    if cfg.feature_space != "original":
        layer = ft.init_random_layer(train.m, cfg.h, cfg.activation, cfg.seed)
    mapped = _map_rows(cfg.feature_space, layer, rows)
    mapped = np.hstack([mapped, np.ones((mapped.shape[0], 1))])
    span = None
    if mapped.shape[0] < mapped.shape[1]:
        span = qp.row_span(mapped)
        mapped = span.rows
    pos = mapped[labels > 0]
    neg = mapped[labels < 0]

    sides = []
    for near, far in ((pos, neg), (neg, pos)):
        gram = qp.ridge_factorize(near, cfg.delta)
        sides.append((gram, far, qp.whiten(gram, far)))
    return FitBasis(layer, balls, span, tuple(sides))


def fit_planes(basis: FitBasis, d1: float, d2: float, qp_tol: float, qp_max_iter: int):
    """The two planes and ``FitDiagnostics`` of ``basis`` with box bounds d1 and d2.

    Solves one box-constrained dual per side, over ``BoxQP(LowRank(V), d)``.
    One ``qp.dual_buffer``, sized for the larger dual, serves both: each Q is
    built in it in turn, so the BoxQP of side 1 is valid only until side 2's
    build, and the memory is touched once per fit, not once per dual. A
    large Q's fresh gradients run on the panel threads of its build. A
    side's plane is ``G^-1 far' alpha``, lifted back through the row
    span when there is one; plane 1's is negated. Returns ``(u1, u2,
    diagnostics)``. One basis serves every ``(d1, d2)``: each result has the
    bits of ``fit`` with those penalties.
    """
    planes, sols = [], []
    out = qp.dual_buffer(max(V.shape[0] for _, _, V in basis.sides))
    for (gram, far, V), upper in zip(basis.sides, (d1, d2)):
        q = qp.BoxQP(qp.LowRank(V, out), upper)
        sol = qp.solve_box_qp(q, tol=qp_tol, max_iter=qp_max_iter)
        planes.append(qp.solve_spd(gram, far.T @ sol.alpha))
        sols.append(sol)
    if basis.span is not None:
        planes = qp.lift(basis.span, np.column_stack(planes)).T
    diag = FitDiagnostics(
        # each dual runs over the other class's rows
        k1=sols[1].alpha.size,
        k2=sols[0].alpha.size,
        balls=basis.balls,
        dual_iterations=tuple(sol.iterations for sol in sols),
        dual_residuals=tuple(sol.kkt_residual for sol in sols),
        converged=all(sol.converged for sol in sols),
        notes=[f"dual {i} stopped at residual {sol.kkt_residual:.3e}"
               for i, sol in enumerate(sols, 1) if not sol.converged],
    )
    # plane 1 is -G^-1 far' alpha; negating is exact, so it may follow the lift
    return -planes[0], planes[1], diag


def fit(
    cfg: ModelConfig,
    train: Dataset,
    qp_tol: float = qp.DEFAULT_TOL,
    qp_max_iter: int = qp.DEFAULT_MAX_SWEEPS,
    normalization=None,
) -> TwinModel:
    """Fit the twin hyperplanes for ``cfg`` on ``train``: ``fit_basis`` then
    ``fit_planes`` at ``cfg.d1`` and ``cfg.d2``.

    Solver non-convergence is recorded in the diagnostics rather than
    raised. Every plane is kept, since how small a vanishing normal reads
    depends on where the dual stopped; ``predict`` rules on a zero normal.
    """
    basis = fit_basis(cfg, train)
    u1, u2, diag = fit_planes(basis, cfg.d1, cfg.d2, qp_tol, qp_max_iter)
    return TwinModel(
        u1=u1,
        u2=u2,
        m=train.m,
        layer=basis.layer,
        config=cfg,
        diagnostics=diag,
        normalization=_normalization_arrays(normalization),
    )


def _normalization_arrays(normalization):
    if normalization is None:
        return None
    lo, hi = normalization
    return np.asarray(lo, dtype=np.float64), np.asarray(hi, dtype=np.float64)


def _checked_input(mdl, X) -> np.ndarray:
    """Raw rows for any model kind: width checked, normalized, then checked finite."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != mdl.m:
        raise DataError(f"expected {mdl.m} features, got {X.shape[1]}")
    if mdl.normalization is not None:
        X = scale_minmax(X, *mdl.normalization)
    # after scaling: a finite raw row can overflow once the ranges scale it
    if not np.all(np.isfinite(X)):
        raise DataError("input rows contain non-finite values")
    return X


def _plane_distances(mdl: TwinModel, X) -> tuple[np.ndarray, np.ndarray]:
    """Normalized distances ``|w . z + b| / |w|`` of raw rows to the two hyperplanes.

    Both planes are scored in one product with the stacked normals, block by
    block; the offsets are added after. A plane with an exactly zero normal,
    or whose distance passes the float range, is at +inf; a row at +inf from
    both planes, or whose ``|w . z + b|`` overflows, is a ``DataError``.
    """
    X = _checked_input(mdl, X)
    planes = np.column_stack([mdl.u1, mdl.u2])
    dist = _scores(mdl.config.feature_space, mdl.layer, X, planes[:-1])
    dist += planes[-1]
    np.abs(dist, out=dist)
    if not np.all(np.isfinite(dist)):
        raise DataError("input rows overflow the distances to the hyperplanes")
    norms = np.linalg.norm(planes[:-1], axis=0)
    if not norms.all():  # a zero normal's plane is at +inf: inf / 1, not 0 / 0
        dist[:, norms == 0] = np.inf
        norms[norms == 0] = 1.0
    with np.errstate(over="ignore"):  # so is a distance past the float range
        dist /= norms
    if np.isinf(np.minimum(dist[:, 0], dist[:, 1])).any():
        raise DataError("input rows are infinitely far from both hyperplanes, so nearer neither")
    return dist[:, 0], dist[:, 1]


def decision_values(mdl: TwinModel, x) -> tuple[float, float]:
    """Normalized distances of one raw sample to the two hyperplanes; inf for a zero normal."""
    d1, d2 = _plane_distances(mdl, x)
    if d1.shape[0] != 1:
        raise DataError("decision_values takes a single sample row")
    return float(d1[0]), float(d2[0])


def predict(mdl, X) -> np.ndarray:
    """Labels for raw sample rows; equidistant points go to +1."""
    if isinstance(mdl, RVFLModel):
        return _predict_rvfl(mdl, X)
    d1, d2 = _plane_distances(mdl, X)
    return np.where(d1 <= d2, 1.0, -1.0)


# ---------------------------------------------------------------------------
# RVFL least-squares baseline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RVFLModel:
    m: int
    direct_links: bool
    ridge: float
    layer: ft.RandomLayer
    weights: np.ndarray
    normalization: tuple[np.ndarray, np.ndarray] | None = None


def _rvfl_space(direct_links: bool) -> str:
    return "enhanced" if direct_links else "hidden"


def fit_rvfl_baseline(
    h: int,
    activation: int,
    ridge: float,
    seed: int,
    train: Dataset,
    direct_links: bool = True,
    normalization=None,
) -> RVFLModel:
    """Ridge least squares from random features to the +1/-1 targets.

    With direct links the regression runs on [hidden | original] columns,
    otherwise on the hidden block alone. Prediction takes the sign of the
    fitted linear score.
    """
    if not 0 < ridge < np.inf:
        raise ValueError(f"ridge must be positive and finite, got {ridge}")
    if not train.has_both_classes:
        raise DataError("single class in training data; both classes are required")
    layer = ft.init_random_layer(train.m, h, activation, seed)
    phi = _map_rows(_rvfl_space(direct_links), layer, train.features)
    gram = qp.ridge_factorize(phi, ridge)
    weights = qp.solve_spd(gram, phi.T @ train.labels)
    return RVFLModel(
        weights=weights,
        m=train.m,
        layer=layer,
        direct_links=direct_links,
        ridge=float(ridge),
        normalization=_normalization_arrays(normalization),
    )


def _predict_rvfl(mdl: RVFLModel, X) -> np.ndarray:
    X = _checked_input(mdl, X)
    scores = _scores(_rvfl_space(mdl.direct_links), mdl.layer, X, mdl.weights)
    if not np.all(np.isfinite(scores)):
        raise DataError("input rows overflow the RVFL scores")
    return np.where(scores >= 0.0, 1.0, -1.0)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


_KINDS = {"twin": TwinModel, "rvfl": RVFLModel}


def _json_value(value):
    """The JSON form of one model field."""
    if isinstance(value, np.ndarray):
        return [float(v) for v in value]
    if isinstance(value, ft.RandomLayer):
        return ft.layer_meta(value)
    if isinstance(value, (ModelConfig, FitDiagnostics)):
        return asdict(value)
    if isinstance(value, tuple):  # the normalization ranges
        lo, hi = value
        return {"lo": _json_value(lo), "hi": _json_value(hi)}
    return value


def serialize(mdl) -> dict:
    """Model document: everything needed to replay predictions exactly.

    It holds ``schema_version``, ``kind``, then one key per field of the
    model's class, in field order.
    """
    kind = next(name for name, cls in _KINDS.items() if isinstance(mdl, cls))
    doc = {"schema_version": MODEL_SCHEMA_VERSION, "kind": kind}
    for f in fields(mdl):
        doc[f.name] = _json_value(getattr(mdl, f.name))
    return doc


# the type a scalar field is declared with -> the JSON values it accepts
_JSON_TYPES = {"bool": bool, "str": str, "int": int, "float": (int, float)}

# keys of the objects no dataclass declares -> their scalar type, None for a list
_LAYER_FIELDS = {"seed": "int", "m": "int", "h": "int", "activation": "int", "checksum": "str"}
_NORMALIZATION_FIELDS = {"lo": None, "hi": None}


def _json_object(value, level: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"model {level} must be a JSON object")
    return value


def _object(value, schema, level: str) -> dict:
    """``value`` when it is a JSON object with every required key of
    ``schema``, no other key, and for each scalar key a JSON value of its
    declared type.

    ``schema`` is a dataclass, whose fields without a default are required,
    or a dict of required keys to scalar types. ``level`` names the object:
    ``document`` for the top level, else the key that holds it.
    """
    _json_object(value, level)
    types, optional = schema, ()
    if not isinstance(schema, dict):
        types = {f.name: f.type for f in fields(schema)}
        optional = {f.name for f in fields(schema)
                    if f.default is not MISSING or f.default_factory is not MISSING}
    for key in types:
        if key not in value and key not in optional:
            raise ValueError(f"model {level} is missing the {key!r} field")
    where = "model" if level == "document" else f"model {level}"
    for key, item in value.items():
        if key not in types:
            raise ValueError(f"model {level} has an unknown field {key!r}")
        kind = types[key]
        if kind in _JSON_TYPES and (isinstance(item, bool) != (kind == "bool")
                                    or not isinstance(item, _JSON_TYPES[kind])):
            raise ValueError(f"{where} field {key!r} must be of type {kind}, got {item!r}")
    return value


def _vector(doc: dict, key: str, length: int) -> np.ndarray:
    """``doc[key]`` when it is a JSON list of ``length`` finite numbers."""
    value = doc[key]
    if (isinstance(value, list) and len(value) == length
            and all(type(v) in (int, float) for v in value)):
        vec = np.array(value, dtype=np.float64)
        if np.all(np.isfinite(vec)):  # json reads NaN and Infinity
            return vec
    raise ValueError(f"model field {key!r} must hold {length} numbers, got {value!r:.60}")


def _layer(meta, m: int) -> ft.RandomLayer | None:
    if meta is None:
        return None
    layer = ft.layer_from_meta(_object(meta, _LAYER_FIELDS, "layer"))
    if layer.m != m:
        raise ValueError(f"random layer takes m = {layer.m} inputs, model has m = {m}")
    return layer


def deserialize(doc: dict):
    """Model from its document.

    Every level (the document, its layer, normalization, config and
    diagnostics) must be a JSON object with every required key, no unknown
    key and scalars of their declared types; a breach, or a vector that is
    not a list of as many numbers as the feature space needs, is a ValueError.
    """
    version = _json_object(doc, "document").get("schema_version")
    if version != MODEL_SCHEMA_VERSION:
        raise ValueError(f"unsupported model schema version {version!r}, "
                         f"expected {MODEL_SCHEMA_VERSION}")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    cls = _KINDS[kind]
    envelope = ("schema_version", "kind")
    values = _object({k: v for k, v in doc.items() if k not in envelope}, cls, "document")
    m = values["m"]
    layer = values["layer"] = _layer(values["layer"], m)
    if values.get("normalization") is not None:
        norm = _object(values["normalization"], _NORMALIZATION_FIELDS, "normalization")
        values["normalization"] = (_vector(norm, "lo", m), _vector(norm, "hi", m))
    if cls is RVFLModel:
        space, vectors, offset = _rvfl_space(values["direct_links"]), ("weights",), 0
    else:
        cfg = values["config"] = ModelConfig(**_object(values["config"], ModelConfig, "config"))
        for key in ("seed", "h", "activation"):
            if layer is not None and getattr(cfg, key) != getattr(layer, key):
                raise ValueError(f"model config field {key!r} disagrees with its random layer")
        diag = FitDiagnostics(**_object(values["diagnostics"], FitDiagnostics, "diagnostics"))
        diag.dual_iterations = tuple(diag.dual_iterations)
        diag.dual_residuals = tuple(diag.dual_residuals)
        values["diagnostics"] = diag
        # a plane holds one weight per feature, then its offset
        space, vectors, offset = cfg.feature_space, ("u1", "u2"), 1
    if space != "original" and layer is None:
        raise ValueError(f"model in {space!r} space is missing its random layer")
    # original and enhanced rows hold the m raw columns, hidden and enhanced the h hidden
    width = (m if space != "hidden" else 0) + (layer.h if space != "original" else 0) + offset
    for key in vectors:
        values[key] = _vector(values, key, width)
    return cls(**values)


def save_model(mdl, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(serialize(mdl), fh, indent=2)


def load_model(path):
    with open(path, encoding="utf-8") as fh:
        return deserialize(json.load(fh))
