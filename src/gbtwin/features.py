"""Frozen random hidden layer and the feature spaces it induces.

A layer drawn once from a seed maps rows through ``phi(X W + bias)``; the
enhanced space appends the original columns after the hidden block. The same
layer instance must map training rows and prediction rows. Neither map ever
returns a non-finite matrix, and neither lets an overflow warning escape: a
finite row that overflows the map is a ``DataError``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .dataset import DataError

SELU_LAMBDA = 1.0507009873554805
SELU_ALPHA = 1.6732632423543772

ACTIVATION_NAMES = {
    1: "selu",
    2: "relu",
    3: "sigmoid",
    4: "sine",
    5: "hardlim",
    6: "tribas",
    7: "radbas",
    8: "sign",
    9: "leaky_relu",
}

SPACES = ("original", "hidden", "enhanced")


def activate(kind: int, x):
    """Apply activation ``kind`` (1-9) elementwise to a copy of ``x``.

    Conventions pinned here: hardlim(0) = 1, sign(0) = 0, leaky slope 0.01.
    """
    if kind not in ACTIVATION_NAMES:
        raise ValueError(f"activation index must be 1..9, got {kind}")
    out = np.array(x, dtype=np.float64, ndmin=1)
    _activate_in_place(kind, out)
    if np.ndim(x) == 0:
        return float(out[0])
    return out


def _activate_in_place(kind: int, z: np.ndarray) -> None:
    """Overwrite the float64 array ``z`` with activation ``kind`` of itself."""
    if kind == 1:
        neg = np.minimum(z, 0.0)
        np.expm1(neg, out=neg)
        neg *= SELU_ALPHA
        np.copyto(z, neg, where=~(z > 0.0))
        z *= SELU_LAMBDA
    elif kind == 2:
        np.maximum(z, 0.0, out=z)
    elif kind == 3:
        # 1 / (1 + exp(-z)) through numpy's vectorized exp; exp(1000) = inf
        # gives exactly 0, so the overflow is the intended result
        np.negative(z, out=z)
        with np.errstate(over="ignore", under="ignore"):
            np.exp(z, out=z)
        z += 1.0
        np.reciprocal(z, out=z)
    elif kind == 4:
        np.sin(z, out=z)
    elif kind == 5:
        z[...] = z >= 0.0
    elif kind == 6:
        np.abs(z, out=z)
        np.subtract(1.0, z, out=z)
        np.maximum(0.0, z, out=z)
    elif kind == 7:
        # exp(-z^2); z^2 = inf for |z| > 1.34e154 gives exactly 0, so the
        # overflow is the intended result
        with np.errstate(over="ignore"):
            np.square(z, out=z)
        np.negative(z, out=z)
        np.exp(z, out=z)
    elif kind == 8:
        np.sign(z, out=z)
    else:
        np.multiply(z, 0.01, out=z, where=z < 0.0)


@dataclass(frozen=True)
class RandomLayer:
    """Immutable input-to-hidden map: weights, bias, and activation index."""

    weights: np.ndarray  # m x h, i.i.d. uniform on [-1, 1]
    bias: np.ndarray  # length h
    activation: int
    seed: int

    def __post_init__(self):
        self.weights.setflags(write=False)
        self.bias.setflags(write=False)

    @property
    def m(self) -> int:
        return self.weights.shape[0]

    @property
    def h(self) -> int:
        return self.weights.shape[1]

    def checksum(self) -> str:
        hsh = hashlib.sha256()
        hsh.update(self.weights.tobytes())
        hsh.update(self.bias.tobytes())
        return hsh.hexdigest()[:16]


def init_random_layer(m: int, h: int, activation: int, seed: int) -> RandomLayer:
    if m < 1 or h < 1:
        raise ValueError(f"need m >= 1 and h >= 1, got m={m}, h={h}")
    if activation not in ACTIVATION_NAMES:
        raise ValueError(f"activation index must be 1..9, got {activation}")
    rng = np.random.default_rng(seed)
    weights = rng.uniform(-1.0, 1.0, size=(m, h))
    bias = rng.uniform(-1.0, 1.0, size=h)
    return RandomLayer(weights=weights, bias=bias, activation=activation, seed=seed)


def _check_finite(values: np.ndarray) -> None:
    # a finite row can still overflow, e.g. relu on rows near the float max
    if not np.all(np.isfinite(values)):
        raise DataError("feature matrix contains non-finite entries")


def hidden_features(layer: RandomLayer, X) -> np.ndarray:
    """Map rows to the hidden space: phi(X W + bias)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != layer.m:
        raise ValueError(f"expected {layer.m} feature columns, got {X.shape[1]}")
    # a finite row may overflow here; the finiteness check rejects it, so the
    # map never lets the overflow warning escape
    with np.errstate(over="ignore", invalid="ignore"):
        Z = X @ layer.weights
        Z += layer.bias
        _activate_in_place(layer.activation, Z)
    _check_finite(Z)
    return Z


def enhanced_features(layer: RandomLayer, X) -> np.ndarray:
    """Concatenate hidden block and original columns: [Z | X]."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    Z = hidden_features(layer, X)
    _check_finite(X)
    return np.hstack([Z, X])


def layer_meta(layer: RandomLayer) -> dict:
    """Persistable description; weights are regenerable from the seed."""
    return {
        "seed": layer.seed,
        "m": layer.m,
        "h": layer.h,
        "activation": layer.activation,
        "checksum": layer.checksum(),
    }


def layer_from_meta(meta: dict) -> RandomLayer:
    layer = init_random_layer(
        int(meta["m"]), int(meta["h"]), int(meta["activation"]), int(meta["seed"])
    )
    if layer.checksum() != meta["checksum"]:
        raise ValueError(
            "random layer checksum mismatch: stored weights do not match the seed"
        )
    return layer
