"""Seeded synthetic datasets shared across tests."""

import numpy as np

from gbtwin.dataset import Dataset


def make_crossplane(n=130, seed=0, gap=2.0, jitter=0.03):
    """Two non-parallel line segments separated by a vertical gap.

    Class +1 runs along y = x for x in [0, 1]; class -1 along y = 1 + gap - x.
    The slopes cross but the segments do not, so the classes stay linearly
    separable while keeping the crossed-planes geometry.
    """
    rng = np.random.default_rng(seed)
    n_pos = n // 2
    n_neg = n - n_pos
    t_pos = rng.uniform(0.0, 1.0, n_pos)
    t_neg = rng.uniform(0.0, 1.0, n_neg)
    pos = np.column_stack([t_pos, t_pos]) + jitter * rng.normal(size=(n_pos, 2))
    neg = np.column_stack([t_neg, 1.0 + gap - t_neg]) + jitter * rng.normal(
        size=(n_neg, 2)
    )
    feats = np.vstack([pos, neg])
    labs = np.concatenate([np.ones(n_pos), -np.ones(n_neg)])
    order = rng.permutation(n)
    return Dataset(feats[order], labs[order])


def make_blobs(n, seed, spread=0.4, distance=4.0, m=2):
    """Two symmetric Gaussian blobs, one per class."""
    rng = np.random.default_rng(seed)
    n_pos = n // 2
    n_neg = n - n_pos
    center = np.zeros(m)
    center[0] = distance / 2.0
    pos = rng.normal(size=(n_pos, m)) * spread + center
    neg = rng.normal(size=(n_neg, m)) * spread - center
    feats = np.vstack([pos, neg])
    labs = np.concatenate([np.ones(n_pos), -np.ones(n_neg)])
    order = rng.permutation(n)
    return Dataset(feats[order], labs[order])
