"""Twin-hyperplane classifiers over granulated and randomly enhanced features.

``fit`` realizes the whole family through two switches: ``granulate`` decides
whether the solver sees ball centers or raw samples, and ``feature_space``
decides whether rows are used as-is, mapped through the random hidden layer,
or concatenated with their hidden image. Prediction assigns the class of the
nearer hyperplane measured in the same feature space the model was fit in.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import features as ft
from . import qp
from .dataset import DataError, Dataset
from .granular import centers_matrix, generate_granular_balls

MODEL_SCHEMA_VERSION = 1

FEATURE_SPACES = ("original", "hidden", "enhanced")

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
        if self.feature_space not in FEATURE_SPACES:
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

    @property
    def w1(self) -> np.ndarray:
        return self.u1[:-1]

    @property
    def b1(self) -> float:
        return float(self.u1[-1])

    @property
    def w2(self) -> np.ndarray:
        return self.u2[:-1]

    @property
    def b2(self) -> float:
        return float(self.u2[-1])


def _map_rows(space: str, layer: ft.RandomLayer | None, X: np.ndarray) -> np.ndarray:
    if space == "original":
        return X
    if space == "hidden":
        return ft.hidden_features(layer, X).values
    return ft.enhanced_features(layer, X).values


def ball_centers(train: Dataset, eta: float, seed: int) -> Dataset:
    """The rows the duals see when granulating: one centre per ball.

    Each centre carries its ball's majority label. Granulation does not
    depend on ``seed``, so one call serves every configuration that shares
    ``train`` and ``eta``.
    """
    rows, labels = centers_matrix(generate_granular_balls(train, eta, seed))
    if not (np.any(labels > 0) and np.any(labels < 0)):
        raise DataError(
            "single class among granular-ball labels; both classes are required"
        )
    return Dataset(rows, labels)


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
        train = ball_centers(train, cfg.eta, cfg.seed)
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

    gram_pos = qp.ridge_factorize(aug_pos, cfg.delta)
    q1 = aug_neg @ qp.solve_spd(gram_pos, aug_neg.T)
    sol1 = qp.solve_box_qp(qp.BoxQP(q1, cfg.d1), tol=qp_tol, max_iter=qp_max_iter)
    u1 = -qp.solve_spd(gram_pos, aug_neg.T @ sol1.alpha)
    del q1

    gram_neg = qp.ridge_factorize(aug_neg, cfg.delta)
    q2 = aug_pos @ qp.solve_spd(gram_neg, aug_pos.T)
    sol2 = qp.solve_box_qp(qp.BoxQP(q2, cfg.d2), tol=qp_tol, max_iter=qp_max_iter)
    u2 = qp.solve_spd(gram_neg, aug_pos.T @ sol2.alpha)
    del q2

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


def _apply_normalization(mdl, X):
    if getattr(mdl, "normalization", None) is None:
        return X
    lo, hi = mdl.normalization
    span = np.where(hi - lo > 0, hi - lo, 1.0)
    return (X - lo) / span


def _checked_input(mdl, X) -> np.ndarray:
    """Raw rows for any model kind: width and finiteness checked, normalized."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != mdl.m:
        raise DataError(f"expected {mdl.m} features, got {X.shape[1]}")
    if not np.all(np.isfinite(X)):
        raise DataError("input rows contain non-finite values")
    return _apply_normalization(mdl, X)


def _mapped_input(mdl, X) -> np.ndarray:
    return _map_rows(mdl.config.feature_space, mdl.layer, _checked_input(mdl, X))


def decision_values(mdl: TwinModel, x) -> tuple[float, float]:
    """Normalized distances of one raw sample to the two hyperplanes."""
    mapped = _mapped_input(mdl, x)
    if mapped.shape[0] != 1:
        raise DataError("decision_values takes a single sample row")
    z = np.append(mapped[0], 1.0)
    d1 = abs(float(z @ mdl.u1)) / float(np.linalg.norm(mdl.w1))
    d2 = abs(float(z @ mdl.u2)) / float(np.linalg.norm(mdl.w2))
    return d1, d2


def predict(mdl, X) -> np.ndarray:
    """Labels for raw sample rows; equidistant points go to +1."""
    if isinstance(mdl, RVFLModel):
        return _predict_rvfl(mdl, X)
    mapped = _mapped_input(mdl, X)
    z = np.hstack([mapped, np.ones((mapped.shape[0], 1))])
    d1 = np.abs(z @ mdl.u1) / np.linalg.norm(mdl.w1)
    d2 = np.abs(z @ mdl.u2) / np.linalg.norm(mdl.w2)
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
    if direct_links:
        phi = ft.enhanced_features(layer, train.features).values
    else:
        phi = ft.hidden_features(layer, train.features).values
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
    if mdl.direct_links:
        phi = ft.enhanced_features(mdl.layer, X).values
    else:
        phi = ft.hidden_features(mdl.layer, X).values
    scores = phi @ mdl.weights
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
        "diagnostics": {
            "k1": mdl.diagnostics.k1,
            "k2": mdl.diagnostics.k2,
            "balls": mdl.diagnostics.balls,
            "dual_iterations": list(mdl.diagnostics.dual_iterations),
            "dual_residuals": list(mdl.diagnostics.dual_residuals),
            "converged": mdl.diagnostics.converged,
            "notes": list(mdl.diagnostics.notes),
        },
        "normalization": norm,
    }


def deserialize(doc: dict):
    version = doc.get("schema_version")
    if version != MODEL_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported model schema version {version!r}, "
            f"expected {MODEL_SCHEMA_VERSION}"
        )
    norm = doc.get("normalization")
    norm_arrays = None
    if norm is not None:
        norm_arrays = (
            np.asarray(norm["lo"], dtype=np.float64),
            np.asarray(norm["hi"], dtype=np.float64),
        )
    if doc.get("kind") == "rvfl":
        return RVFLModel(
            weights=np.asarray(doc["weights"], dtype=np.float64),
            m=int(doc["m"]),
            layer=ft.layer_from_meta(doc["layer"]),
            direct_links=bool(doc["direct_links"]),
            ridge=float(doc["ridge"]),
            normalization=norm_arrays,
        )
    if doc.get("kind") != "twin":
        raise ValueError(f"unknown model kind {doc.get('kind')!r}")
    cfg = ModelConfig(**doc["config"])
    layer = None
    if doc["layer"] is not None:
        layer = ft.layer_from_meta(doc["layer"])
    if cfg.feature_space != "original" and layer is None:
        raise ValueError(
            f"model in {cfg.feature_space!r} space is missing its random layer"
        )
    dd = doc["diagnostics"]
    diag = FitDiagnostics(
        k1=int(dd["k1"]),
        k2=int(dd["k2"]),
        balls=dd["balls"],
        dual_iterations=tuple(dd["dual_iterations"]),
        dual_residuals=tuple(dd["dual_residuals"]),
        converged=bool(dd["converged"]),
        notes=list(dd["notes"]),
    )
    return TwinModel(
        u1=np.asarray(doc["u1"], dtype=np.float64),
        u2=np.asarray(doc["u2"], dtype=np.float64),
        m=int(doc["m"]),
        layer=layer,
        config=cfg,
        diagnostics=diag,
        normalization=norm_arrays,
    )


def save_model(mdl, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(serialize(mdl), fh, indent=2)


def load_model(path):
    with open(path, encoding="utf-8") as fh:
        return deserialize(json.load(fh))
