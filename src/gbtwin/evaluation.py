"""Metrics, cross-validated grid search, rank statistics, and fit timing."""

from __future__ import annotations

import itertools
import json
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import qp
from .dataset import DataError, Dataset, kfold_indices, split_train_test
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


# Nemenyi q_alpha at alpha = 0.05 by model count (Demsar 2006, Table 5a)
NEMENYI_Q05 = {2: 1.960, 3: 2.343, 4: 2.569, 5: 2.728, 6: 2.850, 7: 2.949, 8: 3.031}


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


def grid_combinations(grid: dict) -> list[tuple[float, int, int]]:
    """Enumerate (d, h, activation) combinations in deterministic order.

    Every axis must hold at least one value and, once converted to a float
    d or an int h and activation, repeat none: a repeated value would fit
    every fold twice and give two identical records.
    """
    combos = [
        (float(d), int(h), int(a))
        for d, h, a in itertools.product(grid["d"], grid["h"], grid["activation"])
    ]
    if not combos or len(set(combos)) < len(combos):
        raise ValueError("grid must be non-empty in every dimension and repeat no value")
    return combos


# (cfgs, fold sets) of the grid search a worker process scores for; set by
# its initializer and inherited through fork, not pickled
_grid_work = None
# jobs handed to a worker at a time; on the benchmark's 135-fit grid any
# value from 3 to 27 ran within noise of the others
_GRID_CHUNK = 9


def _start_grid_worker(cfgs, fold_sets, blas) -> None:
    """Keep the grid search's work and set every OpenBLAS to one thread."""
    global _grid_work
    _grid_work = cfgs, fold_sets
    qp.one_blas_thread(blas)


def _score(job, cfgs, fold_sets) -> float:
    """Validation accuracy of job ``(fold, combination)``, fit from scratch."""
    fold, combo = job
    cv_train, cv_val = fold_sets[fold]
    return compute_metrics(cv_val.labels, predict(fit(cfgs[combo], cv_train), cv_val.features)).acc


def _score_in_worker(job) -> float:
    return _score(job, *_grid_work)


def _grid_workers(fold_sets, jobs: int) -> int:
    """Worker processes to score a grid search's fits on; below 2, none.

    One per CPU ``qp.usable_cpus`` gives this process, at most one per fit,
    and no more than the physical memory holds of the largest dual matrix a
    fit builds (8 p^2 bytes, p the larger class of a fold's training part),
    since each worker holds its own and builds it on one thread; the caller
    drops its kept dual buffer before forking, so none is left uncounted.
    No worker runs where fork is unavailable.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    p = max(max(np.count_nonzero(t.labels > 0), np.count_nonzero(t.labels < 0))
            for t, _ in fold_sets)
    workers = min(qp.usable_cpus(), jobs)
    limit = qp.physical_memory_bytes()
    if limit is not None:
        workers = min(workers, limit // max(8 * p * p, 1))
    return workers


def grid_search_cv(
    train: Dataset,
    template: ModelConfig,
    folds: int = 5,
    grid: dict | None = None,
    seed: int = 0,
):
    """Picking d1 = d2 = d, h, activation by mean k-fold CV accuracy.

    An axis of ``grid`` (or ``grid`` itself) that is missing or None takes
    its ``DEFAULT_GRID`` value; a key other than d, h and activation is a
    ``ValueError``, as is an axis that is empty or repeats a value. In the
    original space, which has no hidden layer, the h and activation axes are
    checked and then replaced by the template's values: each d is fit once,
    in the given order.

    Every combination gets an independent derived seed, so results do not
    depend on evaluation order. Granulation is deterministic and takes no
    seed, so with ``template.granulate`` each fold's CV-training part is
    granulated once and every combination is fit on its ball centres. Folds
    whose CV-training part is single-class are skipped and counted in every
    combination's record; when every fold is, a ``DataError`` is raised
    before any fit. Ties in mean accuracy break toward smaller d, then
    smaller h, then lower activation index. Returns (best config, table of
    per-combination records).

    The folds are split and granulated here; the (fold, combination) fits
    are then scored on a pool of forked worker processes, one per CPU the
    process may use (``_grid_workers`` says how many), each on one BLAS
    thread and, as ``qp.usable_cpus`` is 1 there, starting no thread pool
    or process of its own. With fewer than two, or where the thread count
    of a loaded OpenBLAS cannot be set (``qp.openblas_thread_controls``),
    the same fits run in-process. Every fit is independent and takes the
    same inputs as in-process, so every table and selection is bit for bit
    the in-process one. The error raised is that of the first failing fit
    in job order (fold-major), with its type and message; after it the fits
    not yet handed out are dropped and the workers finish their own. A
    worker that dies without raising (killed by a signal, say) raises
    ``BrokenProcessPool``. No worker outlives the call.
    """
    if folds < 2:
        raise ValueError("folds must be >= 2")
    if train.n < folds:
        raise DataError(f"{folds} folds need at least {folds} training rows, got {train.n}")
    unknown = sorted(set(grid or {}) - set(DEFAULT_GRID))
    if unknown:
        raise ValueError(f"unknown grid axis {unknown}; the axes are d, h and activation")
    grid = {**DEFAULT_GRID, **{axis: v for axis, v in (grid or {}).items() if v is not None}}
    combos = grid_combinations(grid)
    if template.feature_space == "original":
        # no hidden layer reads h or activation, so each d is fit once, at the template's
        combos = list(dict.fromkeys((d, template.h, template.activation) for d, _, _ in combos))
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
        for idx, (d, h, act) in enumerate(combos)
    ]
    fold_sets = []
    skipped = 0
    for fold in kfold_indices(train.n, folds, seed):
        mask = np.ones(train.n, dtype=bool)
        mask[fold] = False
        cv_train = train.take(mask)
        if not cv_train.has_both_classes:
            skipped += 1
            continue
        if template.granulate:
            cv_train = ball_centers(cv_train, template.eta)
        fold_sets.append((cv_train, train.take(fold)))
    if not fold_sets:
        raise DataError("every grid combination was skipped; dataset too degenerate")
    jobs = list(itertools.product(range(len(fold_sets)), range(len(cfgs))))
    workers = _grid_workers(fold_sets, len(jobs))
    blas = qp.openblas_thread_controls() if workers >= 2 else None
    if blas is None:
        scores = [_score(job, cfgs, fold_sets) for job in jobs]
    else:
        # so _grid_workers' memory rule counts every p x p matrix in memory
        qp.release_dual_buffer()
        # with fork, the executor starts every worker before its own thread
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, mp_context=ctx, initializer=_start_grid_worker,
                                 initargs=(cfgs, fold_sets, blas)) as pool:
            scores = list(pool.map(_score_in_worker, jobs, chunksize=_GRID_CHUNK))
    # jobs run fold-major, so combination i's fold scores are every len(cfgs)-th
    accs = [scores[i::len(cfgs)] for i in range(len(cfgs))]
    table = [
        {
            "d": cfg.d1,
            "h": cfg.h,
            "activation": cfg.activation,
            "mean_acc": float(np.mean(fold_accs)),
            "fold_accs": fold_accs,
            "skipped_folds": skipped,
            "seed": cfg.seed,
        }
        for cfg, fold_accs in zip(cfgs, accs)
    ]
    best = min(range(len(table)), key=lambda i: (-table[i]["mean_acc"], table[i]["d"],
                                                 table[i]["h"], table[i]["activation"]))
    return replace(cfgs[best], granulate=template.granulate), table


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
    held-out part. ``k`` is the row count the dual solvers saw, as the fit
    reports it: granular balls when granulating, otherwise training samples.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    rows = []
    for d in datasets:
        pair = split_train_test(d, 0.7, cfg.seed)
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            mdl = fit(cfg, pair.train)
            times.append(time.perf_counter() - start)
        acc = compute_metrics(pair.test.labels, predict(mdl, pair.test.features)).acc
        rows.append(
            {
                "n": d.n,
                "k": mdl.diagnostics.k1 + mdl.diagnostics.k2,
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
