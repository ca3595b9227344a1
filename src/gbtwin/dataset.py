"""Dataset ingestion, synthesis, normalization, splitting, and corruption.

Datasets are immutable after construction and every stochastic operation
takes an explicit integer seed; there is no hidden global RNG state.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass

import numpy as np


class DataError(Exception):
    """Malformed input data or an operation that would corrupt a dataset."""


def _read_only(a) -> np.ndarray:
    """``a`` itself if it is a read-only float64 array owning its data, else a read-only copy.

    A writable array, or a view whose base someone may still write through,
    is copied, so the caller's later writes cannot reach a Dataset.
    """
    if not (
        type(a) is np.ndarray
        and a.dtype == np.float64
        and a.flags.owndata
        and not a.flags.writeable
    ):
        a = np.array(a, dtype=np.float64, copy=True)
        a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Dataset:
    """Labeled sample matrix with labels in {+1, -1}.

    A read-only float64 array that owns its data is shared, not copied; any
    other features or labels are copied into one. Either way the stored
    arrays are read-only.
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        feats = _read_only(self.features)
        labs = _read_only(self.labels)
        if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
            raise DataError("features must be a non-empty 2-D matrix")
        if labs.shape != (feats.shape[0],):
            raise DataError(
                f"labels length {labs.shape} does not match {feats.shape[0]} rows"
            )
        if not np.all(np.isfinite(feats)):
            raise DataError("features contain non-finite values")
        if not np.all((labs == 1.0) | (labs == -1.0)):
            raise DataError("labels must be exactly +1 or -1")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def m(self) -> int:
        return self.features.shape[1]

    def fingerprint(self) -> str:
        """Short content hash of features and labels."""
        h = hashlib.sha256()
        h.update(self.features.tobytes())
        h.update(self.labels.tobytes())
        return h.hexdigest()[:16]

    @property
    def has_both_classes(self) -> bool:
        return bool(np.any(self.labels > 0) and np.any(self.labels < 0))

    def take(self, indices) -> "Dataset":
        """Row subset by an integer index array or a boolean row mask."""
        idx = np.asarray(indices)
        rows = self.features[idx], self.labels[idx]
        for a in rows:  # fresh arrays, handed over rather than copied
            a.setflags(write=False)
        return Dataset(*rows)


@dataclass(frozen=True)
class SplitPair:
    train: Dataset
    test: Dataset


def _read_rows(path, has_header: bool) -> tuple[list[list[str]], list[int]]:
    """Stripped cells of every non-blank row and the row's 1-based line.

    Skips the first line when ``has_header``. Rejects a file with no data row
    and a row whose width differs from the first data row's.
    """
    rows = []
    line_numbers = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if lineno == 1 and has_header:
                continue
            if not row or all(cell.strip() == "" for cell in row):
                continue
            rows.append([cell.strip() for cell in row])
            line_numbers.append(lineno)
    if not rows:
        raise DataError(f"empty file: {path}")

    width = len(rows[0])
    for row, lineno in zip(rows, line_numbers):
        if len(row) != width:
            raise DataError(f"malformed row {lineno}: expected {width} columns")
    return rows, line_numbers


def load_csv(
    path,
    has_header: bool = False,
    label_column="last",
    positive_label_token: str = "1",
) -> Dataset:
    """Read a comma-separated file into a Dataset.

    The label column (default: last) must hold at most two distinct tokens;
    ``positive_label_token`` maps to +1, the other token to -1. All remaining
    cells must parse as numbers. Row numbers in errors are 1-based physical
    lines.
    """
    rows, line_numbers = _read_rows(path, has_header)
    width = len(rows[0])
    if width < 2:
        raise DataError("need at least one feature column and one label column")

    col = width - 1 if label_column == "last" else int(label_column)
    if col < 0:
        col += width
    if not 0 <= col < width:
        raise DataError(f"label column {label_column} out of range for width {width}")

    tokens = sorted({row[col] for row in rows})
    if len(tokens) > 2:
        raise DataError(f"more than two classes in label column: {tokens}")
    if positive_label_token not in tokens and len(tokens) == 2:
        raise DataError(
            f"positive label token {positive_label_token!r} not among labels {tokens}"
        )

    feature_cols = [j for j in range(width) if j != col]
    feats = np.empty((len(rows), len(feature_cols)))
    labs = np.empty(len(rows))
    for i, (row, lineno) in enumerate(zip(rows, line_numbers)):
        for k, j in enumerate(feature_cols):
            try:
                feats[i, k] = float(row[j])
            except ValueError:
                raise DataError(
                    f"non-numeric feature {row[j]!r} at row {lineno}, column {j + 1}"
                ) from None
        labs[i] = 1.0 if row[col] == positive_label_token else -1.0
    return Dataset(feats, labs)


def load_features_csv(path, has_header: bool = False) -> np.ndarray:
    """Read an unlabeled feature matrix (all columns numeric).

    ``nan`` and ``inf`` tokens are read as such: ``model.predict`` is the one
    place that rejects non-finite rows.
    """
    rows, line_numbers = _read_rows(path, has_header)
    feats = np.empty((len(rows), len(rows[0])))
    for i, (row, lineno) in enumerate(zip(rows, line_numbers)):
        try:
            feats[i] = [float(cell) for cell in row]
        except ValueError:
            raise DataError(f"non-numeric cell at row {lineno}") from None
    return feats


def write_csv(d: Dataset, path) -> None:
    """Write features plus a trailing +1/-1 label column."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for x, y in zip(d.features, d.labels):
            writer.writerow([repr(float(v)) for v in x] + [str(int(y))])


def minmax_ranges(d: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Per-column (min, max) of the features."""
    return d.features.min(axis=0), d.features.max(axis=0)


def scale_minmax(X, lo, hi) -> np.ndarray:
    """Map columns from [lo, hi] to [0, 1]; a column with hi <= lo is only shifted."""
    span = hi - lo
    safe = np.where(span > 0, span, 1.0)
    with np.errstate(over="ignore"):  # overflow gives inf; callers check finiteness
        out = X - lo
        out /= safe  # in place, so only one temporary of X's size is held
    return out


def normalize_minmax(d: Dataset, ranges=None) -> Dataset:
    """Rescale each column to [0, 1]; constant columns map to 0.

    When ``ranges`` is given (fitted on another dataset, typically the
    training split) those bounds are reused and the result may leave [0, 1].
    """
    if ranges is None:
        lo, hi = minmax_ranges(d)
    else:
        lo, hi = np.asarray(ranges[0], float), np.asarray(ranges[1], float)
    scaled = scale_minmax(d.features, lo, hi)
    scaled.setflags(write=False)  # nothing else holds it, so Dataset shares it
    return Dataset(scaled, d.labels)


def split_train_test(d: Dataset, ratio: float, seed: int) -> SplitPair:
    """Seeded uniform split; train receives floor(ratio * n) rows."""
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must be in (0, 1), got {ratio}")
    if d.n < 2:
        raise DataError("need at least 2 rows to split")
    n_train = math.floor(ratio * d.n)
    if n_train == 0 or n_train == d.n:
        raise ValueError(f"ratio {ratio} leaves an empty split for n={d.n}")
    perm = np.random.default_rng(seed).permutation(d.n)
    train_idx = np.sort(perm[:n_train])
    test_idx = np.sort(perm[n_train:])
    return SplitPair(d.take(train_idx), d.take(test_idx))


def inject_label_noise(d: Dataset, rate: float, seed: int) -> Dataset:
    """Sign-flip the labels of exactly floor(rate * n) distinct random rows."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"noise rate must be in [0, 1], got {rate}")
    count = math.floor(rate * d.n)
    labs = d.labels.copy()
    if count:
        idx = np.random.default_rng(seed).choice(d.n, size=count, replace=False)
        labs[idx] = -labs[idx]
    labs.setflags(write=False)
    return Dataset(d.features, labs)


def generate_ndc(
    n: int, m: int, n_clusters: int, separability: float, seed: int
) -> Dataset:
    """Synthesize normally-distributed clusters with a planted linear labeling.

    Cluster means and scales are seeded-random; each cluster takes the label
    of its mean under a random hyperplane, and means are pushed away from that
    plane by ``separability`` standard deviations. A fraction of labels
    nearest the plane, shrinking exponentially with separability, is flipped.
    """
    if n < 2 or m < 1 or n_clusters < 1:
        raise ValueError("need n >= 2, m >= 1, n_clusters >= 1")
    if not 0 <= separability < math.inf:
        raise ValueError("separability must be non-negative and finite")
    rng = np.random.default_rng(seed)
    means = rng.uniform(-1.0, 1.0, size=(n_clusters, m))
    scales = rng.uniform(0.05, 0.2, size=n_clusters)
    normal = rng.normal(size=m)
    normal /= np.linalg.norm(normal)
    offset = -float(np.median(means @ normal))

    side = np.where(means @ normal + offset >= 0.0, 1.0, -1.0)
    means = means + (side * separability * scales)[:, None] * normal

    assignment = rng.integers(0, n_clusters, size=n)
    feats = means[assignment] + rng.normal(size=(n, m)) * scales[assignment][:, None]
    labs = side[assignment].copy()

    flip = math.floor(n * 0.5 * math.exp(-separability))
    if flip:
        order = np.argsort(np.abs(feats @ normal + offset), kind="stable")
        labs[order[:flip]] = -labs[order[:flip]]

    return Dataset(feats, labs)


def kfold_indices(n: int, k: int, seed: int) -> list[np.ndarray]:
    """Seeded partition of {0..n-1} into k folds with sizes differing by <= 1."""
    if not 2 <= k <= n:
        raise ValueError(f"k must satisfy 2 <= k <= n, got k={k}, n={n}")
    perm = np.random.default_rng(seed).permutation(n)
    return [np.sort(fold) for fold in np.array_split(perm, k)]
