"""Purity-driven granulation: recursive 2-means splitting of a labeled dataset.

The whole dataset starts as one ball. Any ball whose majority-label fraction
falls below the purity threshold is split in two by Lloyd's algorithm and the
pieces are re-examined, until every ball is pure enough or can no longer be
divided. Each surviving ball is summarized by its centroid, majority label,
and purity.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset

LLOYD_MAX_ITER = 100


@dataclass(frozen=True)
class GranularBall:
    member_indices: np.ndarray  # sorted row indices into the source dataset
    center: np.ndarray
    label: float
    purity: float
    count: int


@dataclass(frozen=True)
class GranularBallSet:
    balls: tuple[GranularBall, ...]
    n: int

    @property
    def k(self) -> int:
        return len(self.balls)


def purity(labels) -> float:
    """Majority-label fraction of a non-empty label collection."""
    labs = np.asarray(labels, dtype=np.float64)
    if labs.size == 0:
        raise ValueError("purity of an empty ball is undefined")
    pos = int(np.count_nonzero(labs > 0))
    return max(pos, labs.size - pos) / labs.size


def majority_label(labels) -> float:
    """Most frequent label; exact ties resolve to +1."""
    labs = np.asarray(labels, dtype=np.float64)
    pos = int(np.count_nonzero(labs > 0))
    return 1.0 if pos >= labs.size - pos else -1.0


def two_means(points, labels):
    """Split points into two non-empty groups with Lloyd's algorithm, k = 2.

    Initialization is deterministic: one centroid per class mean, so
    ``labels`` must hold both classes, as every ball granulation splits does.
    If Lloyd's iteration empties a cluster the points are split into two
    halves by index order instead, so both returned index arrays are always
    non-empty.
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise ValueError("two_means needs at least 2 points")
    n = pts.shape[0]
    labs = np.asarray(labels, dtype=np.float64)
    if not (np.any(labs > 0) and np.any(labs < 0)):
        raise ValueError("two_means needs labels of both classes")
    c0 = pts[labs > 0].mean(axis=0)
    c1 = pts[labs < 0].mean(axis=0)

    # With k = 2, x is nearer c1 than c0 exactly when
    # x . (c1 - c0) > (|c1|^2 - |c0|^2) / 2, so one matvec assigns every
    # point; ties go to cluster 0. Centroids come from one masked sum.
    total = pts.sum(axis=0)
    assign = None
    for _ in range(LLOYD_MAX_ITER):
        new = pts @ (c1 - c0) > 0.5 * (c1 @ c1 - c0 @ c0)
        n1 = int(np.count_nonzero(new))
        if n1 == 0 or n1 == n:
            cut = (n + 1) // 2
            return np.arange(cut), np.arange(cut, n)
        if assign is not None and np.array_equal(new, assign):
            break
        assign = new
        s1 = pts[assign].sum(axis=0)
        c0 = (total - s1) / (n - n1)
        c1 = s1 / n1
    return np.flatnonzero(~assign), np.flatnonzero(assign)


def generate_granular_balls(d: Dataset, eta: float) -> GranularBallSet:
    """Granulate a dataset until every ball reaches purity ``eta``.

    Singletons are final regardless of eta. A ball of identical rows with
    mixed labels cannot split; it is finalized with its majority label and a
    warning. The member indices of the returned balls partition the dataset's
    rows.
    """
    if not 0.5 < eta <= 1.0:
        raise ValueError(f"purity threshold must be in (0.5, 1], got {eta}")
    feats, labs = d.features, d.labels
    balls: list[GranularBall] = []
    queue: deque[np.ndarray] = deque([np.arange(d.n)])
    while queue:
        idx = queue.popleft()
        members = labs[idx]
        if idx.size > 1 and purity(members) < eta:
            block = feats[idx]
            if np.all(block == block[0]):
                warnings.warn(
                    f"ball of {idx.size} identical rows with mixed labels "
                    "finalized below the purity threshold",
                    stacklevel=2,
                )
            else:
                a, b = two_means(block, members)
                queue.append(idx[a])
                queue.append(idx[b])
                continue
        balls.append(
            GranularBall(
                member_indices=idx,
                center=feats[idx].mean(axis=0),
                label=majority_label(members),
                purity=purity(members),
                count=int(idx.size),
            )
        )
    return GranularBallSet(
        balls=tuple(balls),
        n=d.n,
    )


def centers_matrix(g: GranularBallSet) -> tuple[np.ndarray, np.ndarray]:
    """Stack ball centers into a k x m matrix with the matching label vector."""
    if g.k == 0:
        raise ValueError("empty granular ball set")
    C = np.vstack([b.center for b in g.balls])
    t = np.array([b.label for b in g.balls])
    return C, t

