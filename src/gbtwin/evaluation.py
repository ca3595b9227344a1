"""Metrics, cross-validated grid search, rank statistics, and fit timing."""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, replace

import numpy as np

from .dataset import Dataset, kfold_indices, split_train_test
from .model import ModelConfig, ball_centers, fit, predict
from .seeding import derive_seed

REPORT_SCHEMA_VERSION = 1

# default search grids: d = 10^-5 .. 10^5, h = 3 .. 203 step 20, activations 1..9
D_GRID = [10.0**e for e in range(-5, 6)]
H_GRID = list(range(3, 204, 20))
ACTIVATION_GRID = list(range(1, 10))
DEFAULT_GRID = {"d": D_GRID, "h": H_GRID, "activation": ACTIVATION_GRID}


@dataclass(frozen=True)
class Metrics:
    tp: int
    tn: int
    fp: int
    fn: int
    acc: float
    specificity: float | None
    precision: float | None
    recall: float | None


def compute_metrics(y_true, y_pred) -> Metrics:
    """Confusion counts and ratio metrics with +1 as the positive class.

    Ratios with a zero denominator are reported as None, never coerced.
    """
    yt = np.asarray(y_true, dtype=np.float64)
    yp = np.asarray(y_pred, dtype=np.float64)
    if yt.shape != yp.shape or yt.ndim != 1 or yt.size == 0:
        raise ValueError("y_true and y_pred must be equal-length non-empty vectors")
    tp = int(np.count_nonzero((yt > 0) & (yp > 0)))
    tn = int(np.count_nonzero((yt < 0) & (yp < 0)))
    fp = int(np.count_nonzero((yt < 0) & (yp > 0)))
    fn = int(np.count_nonzero((yt > 0) & (yp < 0)))

    def ratio(num, den):
        return num / den if den else None

    return Metrics(
        tp=tp,
        tn=tn,
        fp=fp,
        fn=fn,
        acc=(tp + tn) / yt.size,
        specificity=ratio(tn, tn + fp),
        precision=ratio(tp, tp + fp),
        recall=ratio(tp, tp + fn),
    )


# ---------------------------------------------------------------------------
# rank statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RankTable:
    scores: np.ndarray  # P datasets x q models
    ranks: np.ndarray  # per-row ranks, 1 = best, ties averaged
    avg_ranks: np.ndarray  # length q


@dataclass(frozen=True)
class FriedmanResult:
    chi2: float
    ff: float
    dof: tuple[int, int]


def rank_models(scores) -> RankTable:
    """Rank models per dataset: highest score gets rank 1, ties averaged."""
    # scipy.stats takes most of a second to import; only ranking needs it
    from scipy.stats import rankdata

    S = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    if S.shape[0] < 1 or S.shape[1] < 2:
        raise ValueError("need at least 1 dataset row and 2 model columns")
    ranks = np.vstack([rankdata(-row, method="average") for row in S])
    return RankTable(scores=S, ranks=ranks, avg_ranks=ranks.mean(axis=0))


def friedman_test(rt: RankTable) -> FriedmanResult:
    """Friedman chi-squared over average ranks plus its F-statistic form."""
    P, q = rt.scores.shape
    if P < 2:
        raise ValueError("friedman test needs at least 2 dataset rows")
    chi2 = (12.0 * P / (q * (q + 1))) * (
        float((rt.avg_ranks**2).sum()) - q * (q + 1) ** 2 / 4.0
    )
    denom = P * (q - 1) - chi2
    ff = np.inf if denom <= 0 else (P - 1) * chi2 / denom
    return FriedmanResult(chi2=chi2, ff=float(ff), dof=(q - 1, (P - 1) * (q - 1)))


def nemenyi_cd(q: int, P: int, q_alpha: float) -> float:
    """Critical average-rank difference q_alpha * sqrt(q(q+1) / (6P))."""
    if q < 2 or P < 1:
        raise ValueError("need q >= 2 models and P >= 1 datasets")
    if q_alpha < 0:
        raise ValueError("q_alpha must be non-negative")
    return q_alpha * np.sqrt(q * (q + 1) / (6.0 * P))


# ---------------------------------------------------------------------------
# cross-validated grid search
# ---------------------------------------------------------------------------


def grid_combinations(grid: dict | None = None) -> list[tuple[float, int, int]]:
    """Enumerate (d, h, activation) combinations in deterministic order."""
    g = DEFAULT_GRID if grid is None else grid
    ds, hs, acts = g["d"], g["h"], g["activation"]
    if not ds or not hs or not acts:
        raise ValueError("grid must be non-empty in every dimension")
    return [
        (float(d), int(h), int(a)) for d, h, a in itertools.product(ds, hs, acts)
    ]


def grid_search_cv(
    train: Dataset,
    template: ModelConfig,
    folds: int = 5,
    grid: dict | None = None,
    seed: int = 0,
):
    """Picking d1 = d2 = d, h, activation by mean k-fold CV accuracy.

    Every combination gets an independent derived seed, so results do not
    depend on evaluation order. Granulation is deterministic and takes no
    seed, so with ``template.granulate`` each fold's CV-training part is
    granulated once and every combination is fit on its ball centres. Folds
    whose CV-training part is single-class are skipped and counted in every
    combination's record. Ties in mean accuracy break toward smaller d, then
    smaller h, then lower activation index. Returns (best config, table of
    per-combination records).
    """
    if folds < 2:
        raise ValueError("folds must be >= 2")
    cfgs = [
        replace(
            template,
            granulate=False,
            d1=d,
            d2=d,
            h=h,
            activation=act,
            seed=derive_seed(seed, idx),
        )
        for idx, (d, h, act) in enumerate(grid_combinations(grid))
    ]
    accs = [[] for _ in cfgs]
    skipped = 0
    all_idx = np.arange(train.n)
    for fold in kfold_indices(train.n, folds, seed):
        mask = np.ones(train.n, dtype=bool)
        mask[fold] = False
        cv_train = train.take(all_idx[mask])
        if not (np.any(cv_train.labels > 0) and np.any(cv_train.labels < 0)):
            skipped += 1
            continue
        if template.granulate:
            cv_train = ball_centers(cv_train, template.eta)
        cv_val = train.take(fold)
        for cfg, fold_accs in zip(cfgs, accs):
            mdl = fit(cfg, cv_train)
            fold_accs.append(compute_metrics(cv_val.labels, predict(mdl, cv_val.features)).acc)
    table = [
        {
            "d": cfg.d1,
            "h": cfg.h,
            "activation": cfg.activation,
            "mean_acc": float(np.mean(fold_accs)) if fold_accs else float("nan"),
            "fold_accs": fold_accs,
            "skipped_folds": skipped,
            "seed": cfg.seed,
        }
        for cfg, fold_accs in zip(cfgs, accs)
    ]
    scored = [r for r in table if not np.isnan(r["mean_acc"])]
    if not scored:
        raise ValueError("every grid combination was skipped; dataset too degenerate")
    best = min(scored, key=lambda r: (-r["mean_acc"], r["d"], r["h"], r["activation"]))
    best_cfg = replace(
        template,
        d1=best["d"],
        d2=best["d"],
        h=best["h"],
        activation=best["activation"],
        seed=best["seed"],
    )
    return best_cfg, table


# ---------------------------------------------------------------------------
# fit timing
# ---------------------------------------------------------------------------


def benchmark_fit(
    cfg: ModelConfig,
    datasets,
    repeats: int = 3,
):
    """Wall-clock fit timing over datasets of increasing size.

    Each dataset is split 70/30, the model is fit ``repeats`` times on the
    training part (median time reported), and accuracy is measured on the
    held-out part. ``k`` is the row count the dual solvers actually saw:
    granular balls when granulating, otherwise training samples.
    """
    rows = []
    for d in datasets:
        pair = split_train_test(d, 0.7, cfg.seed)
        times = []
        mdl = None
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            mdl = fit(cfg, pair.train)
            times.append(time.perf_counter() - start)
        acc = compute_metrics(pair.test.labels, predict(mdl, pair.test.features)).acc
        k = mdl.diagnostics.balls if cfg.granulate else pair.train.n
        rows.append(
            {
                "n": d.n,
                "k": int(k),
                "fit_seconds": float(np.median(times)),
                "accuracy": acc,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# report files
# ---------------------------------------------------------------------------


def emit_report(report: dict, path) -> None:
    """Write a schema-versioned JSON report."""
    doc = dict(report)
    doc.setdefault("schema_version", REPORT_SCHEMA_VERSION)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)


def read_report(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    version = doc.get("schema_version")
    if version != REPORT_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported report schema version {version!r}, "
            f"expected {REPORT_SCHEMA_VERSION}"
        )
    return doc
