"""Twin-hyperplane classifiers over granulated and randomly enhanced features.

``fit`` realizes the whole family through two switches: ``granulate`` decides
whether the solver sees ball centers or raw samples, and ``feature_space``
decides whether rows are used as-is, mapped through the random hidden layer,
or concatenated with their hidden image. Prediction assigns the class of the
nearer hyperplane measured in the same feature space the model was fit in.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from . import features as ft
from . import qp
from .dataset import DataError, Dataset, scale_minmax
from .granular import centers_matrix, generate_granular_balls

MODEL_SCHEMA_VERSION = 1

ZERO_NORMAL_TOL = 1e-12


class FitError(Exception):
    """Training failed to produce a usable pair of hyperplanes."""


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
        if self.d1 <= 0 or self.d2 <= 0 or self.delta <= 0:
            raise ValueError("d1, d2, and delta must all be positive")
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
    u1: np.ndarray  # (w1, b1), length feature-dim + 1
    u2: np.ndarray
    m: int  # raw input feature count
    layer: ft.RandomLayer | None
    config: ModelConfig
    diagnostics: FitDiagnostics
    normalization: tuple[np.ndarray, np.ndarray] | None = None


def _map_rows(space: str, layer: ft.RandomLayer | None, X: np.ndarray) -> np.ndarray:
    if space == "original":
        return X
    if space == "hidden":
        return ft.hidden_features(layer, X)
    return ft.enhanced_features(layer, X)


def ball_centers(train: Dataset, eta: float) -> Dataset:
    """The rows the duals see when granulating: one centre per ball.

    Each centre carries its ball's majority label. Granulation is
    deterministic and takes no seed, so one call serves every configuration
    that shares ``train`` and ``eta``.
    """
    rows, labels = centers_matrix(generate_granular_balls(train, eta))
    if not (np.any(labels > 0) and np.any(labels < 0)):
        raise DataError(
            "single class among granular-ball labels; both classes are required"
        )
    return Dataset(rows, labels)


def _plane(near, far, upper, delta, qp_tol, qp_max_iter):
    """Plane through the ``near`` rows, kept from the ``far`` rows by one dual.

    Rows carry a trailing column of ones. Factorizes the ridge Gram matrix of
    the near rows, solves the box-constrained dual over the far rows, and
    returns ``(G^-1 far' alpha, dual solution)``; the caller fixes the sign.
    """
    gram = qp.ridge_factorize(near, delta)
    q = far @ qp.solve_spd(gram, far.T)
    sol = qp.solve_box_qp(qp.BoxQP(q, upper), tol=qp_tol, max_iter=qp_max_iter)
    return qp.solve_spd(gram, far.T @ sol.alpha), sol


def fit(
    cfg: ModelConfig,
    train: Dataset,
    qp_tol: float = qp.DEFAULT_TOL,
    qp_max_iter: int = qp.DEFAULT_MAX_SWEEPS,
    normalization=None,
) -> TwinModel:
    """Fit the twin hyperplanes for ``cfg`` on ``train``.

    Pipeline: optional granulation to ball centers, feature mapping, then one
    box-constrained dual per plane. Solver non-convergence is recorded in the
    diagnostics rather than raised; a degenerate zero plane normal is an
    error because prediction would divide by zero.
    """
    balls = None
    if cfg.granulate:
        train = ball_centers(train, cfg.eta)
        balls = train.n
    rows, labels = train.features, train.labels
    if not (np.any(labels > 0) and np.any(labels < 0)):
        raise DataError("single class in training data; both classes are required")

    layer = None
    if cfg.feature_space != "original":
        layer = ft.init_random_layer(train.m, cfg.h, cfg.activation, cfg.seed)
    mapped = _map_rows(cfg.feature_space, layer, rows)

    pos = mapped[labels > 0]
    neg = mapped[labels < 0]
    aug_pos = np.hstack([pos, np.ones((pos.shape[0], 1))])
    aug_neg = np.hstack([neg, np.ones((neg.shape[0], 1))])

    u1, sol1 = _plane(aug_pos, aug_neg, cfg.d1, cfg.delta, qp_tol, qp_max_iter)
    u1 = -u1
    u2, sol2 = _plane(aug_neg, aug_pos, cfg.d2, cfg.delta, qp_tol, qp_max_iter)

    if np.linalg.norm(u1[:-1]) <= ZERO_NORMAL_TOL or np.linalg.norm(u2[:-1]) <= ZERO_NORMAL_TOL:
        raise FitError(
            "degenerate zero hyperplane normal; lower delta or raise d1/d2"
        )

    notes = []
    if not sol1.converged:
        notes.append(f"dual 1 stopped at residual {sol1.kkt_residual:.3e}")
    if not sol2.converged:
        notes.append(f"dual 2 stopped at residual {sol2.kkt_residual:.3e}")
    diag = FitDiagnostics(
        k1=pos.shape[0],
        k2=neg.shape[0],
        balls=balls,
        dual_iterations=(sol1.iterations, sol2.iterations),
        dual_residuals=(sol1.kkt_residual, sol2.kkt_residual),
        converged=sol1.converged and sol2.converged,
        notes=notes,
    )
    return TwinModel(
        u1=u1,
        u2=u2,
        m=train.m,
        layer=layer,
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
    """Normalized distances of raw rows to the two hyperplanes.

    Both planes are scored in one product with the stacked normals; the
    offsets are added after.
    """
    mapped = _map_rows(mdl.config.feature_space, mdl.layer, _checked_input(mdl, X))
    planes = np.column_stack([mdl.u1, mdl.u2])
    dist = mapped @ planes[:-1]
    dist += planes[-1]
    np.abs(dist, out=dist)
    dist /= np.linalg.norm(planes[:-1], axis=0)
    if not np.all(np.isfinite(dist)):
        raise DataError("input rows overflow the distances to the hyperplanes")
    return dist[:, 0], dist[:, 1]


def decision_values(mdl: TwinModel, x) -> tuple[float, float]:
    """Normalized distances of one raw sample to the two hyperplanes."""
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
    weights: np.ndarray
    m: int
    layer: ft.RandomLayer
    direct_links: bool
    ridge: float
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
    if ridge <= 0:
        raise ValueError("ridge must be positive")
    if not (np.any(train.labels > 0) and np.any(train.labels < 0)):
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
    phi = _map_rows(_rvfl_space(mdl.direct_links), mdl.layer, X)
    scores = phi @ mdl.weights
    if not np.all(np.isfinite(scores)):
        raise DataError("input rows overflow the RVFL scores")
    return np.where(scores >= 0.0, 1.0, -1.0)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def serialize(mdl) -> dict:
    """Model document: everything needed to replay predictions exactly."""
    norm = None
    if mdl.normalization is not None:
        lo, hi = mdl.normalization
        norm = {"lo": [float(v) for v in lo], "hi": [float(v) for v in hi]}
    if isinstance(mdl, RVFLModel):
        return {
            "schema_version": MODEL_SCHEMA_VERSION,
            "kind": "rvfl",
            "m": mdl.m,
            "direct_links": mdl.direct_links,
            "ridge": mdl.ridge,
            "layer": ft.layer_meta(mdl.layer),
            "weights": [float(v) for v in mdl.weights],
            "normalization": norm,
        }
    return {
        "schema_version": MODEL_SCHEMA_VERSION,
        "kind": "twin",
        "m": mdl.m,
        "config": asdict(mdl.config),
        "layer": None if mdl.layer is None else ft.layer_meta(mdl.layer),
        "u1": [float(v) for v in mdl.u1],
        "u2": [float(v) for v in mdl.u2],
        "diagnostics": asdict(mdl.diagnostics),
        "normalization": norm,
    }


def _require(doc: dict, keys, where: str) -> None:
    for key in keys:
        if key not in doc:
            raise ValueError(f"{where} is missing the {key!r} field")


def _record(cls, values: dict, where: str):
    """``cls(**values)`` once every field without a default is present."""
    _require(values, [f.name for f in fields(cls) if f.default is MISSING
                      and f.default_factory is MISSING], where)
    return cls(**values)


def _vector(doc: dict, key: str, length: int) -> np.ndarray:
    vec = np.asarray(doc[key], dtype=np.float64)
    if vec.shape != (length,):
        raise ValueError(
            f"model field {key!r} must hold {length} numbers, got shape {vec.shape}"
        )
    return vec


def _space_width(space: str, m: int, layer: ft.RandomLayer | None) -> int:
    if space == "original":
        return m
    return layer.h + (m if space == "enhanced" else 0)


def _layer_field(doc: dict, m: int) -> ft.RandomLayer | None:
    if doc["layer"] is None:
        return None
    _require(doc["layer"], ("seed", "m", "h", "activation", "checksum"), "model layer")
    layer = ft.layer_from_meta(doc["layer"])
    if layer.m != m:
        raise ValueError(f"random layer takes m = {layer.m} inputs, model has m = {m}")
    return layer


def deserialize(doc: dict):
    """Model from its document; a missing or mis-sized field is a ValueError."""
    version = doc.get("schema_version")
    if version != MODEL_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported model schema version {version!r}, "
            f"expected {MODEL_SCHEMA_VERSION}"
        )
    kind = doc.get("kind")
    if kind not in ("twin", "rvfl"):
        raise ValueError(f"unknown model kind {kind!r}")
    if kind == "rvfl":
        _require(doc, ("m", "direct_links", "ridge", "layer", "weights"), "model document")
    else:
        _require(doc, ("m", "config", "layer", "u1", "u2", "diagnostics"), "model document")
    m = int(doc["m"])
    layer = _layer_field(doc, m)
    norm = doc.get("normalization")
    norm_arrays = None
    if norm is not None:
        _require(norm, ("lo", "hi"), "model normalization")
        norm_arrays = (_vector(norm, "lo", m), _vector(norm, "hi", m))
    if kind == "rvfl":
        if layer is None:
            raise ValueError("rvfl model is missing its random layer")
        direct_links = bool(doc["direct_links"])
        width = _space_width(_rvfl_space(direct_links), m, layer)
        return RVFLModel(
            weights=_vector(doc, "weights", width),
            m=m,
            layer=layer,
            direct_links=direct_links,
            ridge=float(doc["ridge"]),
            normalization=norm_arrays,
        )
    cfg = _record(ModelConfig, doc["config"], "model config")
    if cfg.feature_space != "original" and layer is None:
        raise ValueError(
            f"model in {cfg.feature_space!r} space is missing its random layer"
        )
    dd = dict(doc["diagnostics"])
    for key in ("dual_iterations", "dual_residuals"):
        if key in dd:
            dd[key] = tuple(dd[key])
    width = _space_width(cfg.feature_space, m, layer) + 1
    return TwinModel(
        u1=_vector(doc, "u1", width),
        u2=_vector(doc, "u2", width),
        m=m,
        layer=layer,
        config=cfg,
        diagnostics=_record(FitDiagnostics, dd, "model diagnostics"),
        normalization=norm_arrays,
    )


def save_model(mdl, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(serialize(mdl), fh, indent=2)


def load_model(path):
    with open(path, encoding="utf-8") as fh:
        return deserialize(json.load(fh))
