"""Command-line entry point for reproducible experiment runs.

Every stochastic subcommand demands an explicit ``--seed``; reports embed the
fully resolved run configuration so a run can be replayed from its artifacts.
Flags may also come from a ``key = value`` config file (flags win).

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import evaluation as ev
from . import model as md
from .dataset import (
    DataError,
    generate_ndc,
    inject_label_noise,
    load_csv,
    load_features_csv,
    minmax_ranges,
    normalize_minmax,
    split_train_test,
    write_csv,
)
from .qp import NumericalError
from .seeding import derive_seed

NOISE_RATES = (0.0, 0.05, 0.10, 0.15, 0.20)

TWIN_VARIANTS = {
    "tsvm": (False, "original"),
    "gbtsvm": (True, "original"),
    "hf-tsvm": (False, "hidden"),
    "hf-gbtsvm": (True, "hidden"),
    "ef-tsvm": (False, "enhanced"),
    "ef-gbtsvm": (True, "enhanced"),
}
BASELINE_VARIANTS = {"rvfl": True, "rvfl-wodl": False}  # value: direct links
ABLATION_VARIANTS = ("tsvm", "gbtsvm", "hf-tsvm", "hf-gbtsvm", "ef-tsvm", "ef-gbtsvm")
COMPARE_VARIANTS = ABLATION_VARIANTS + ("rvfl", "rvfl-wodl")


class UsageError(Exception):
    pass


class CliParser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want exit code 1
        raise UsageError(message)


def _parse_bool(raw: str) -> bool:
    val = raw.strip().lower()
    if val in ("1", "true", "yes", "on"):
        return True
    if val in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"cannot parse boolean value {raw!r}")


def _parse_float_list(raw: str) -> list[float]:
    return [float(v) for v in raw.split(",") if v.strip()]


def _parse_int_list(raw: str) -> list[int]:
    return [int(v) for v in raw.split(",") if v.strip()]


# flag name -> (parser for config-file strings, default, help)
OPTIONS = {
    "data": (str, None, "input CSV path"),
    "data-dir": (str, None, "directory of input CSV files"),
    "model": (str, None, "model JSON path"),
    "out": (str, None, "output path"),
    "report": (str, None, "report JSON path (default derived from --out)"),
    "csv": (str, None, "optional flat CSV export path"),
    "seed": (int, None, "master seed (required for stochastic commands)"),
    "variant": (str, "ef-gbtsvm", "model variant name"),
    "variants": (str, ",".join(COMPARE_VARIANTS), "comma-separated variant names"),
    "eta": (float, 0.9, "granular-ball purity threshold in (0.5, 1]"),
    "d1": (float, 1.0, "penalty bound of the first dual"),
    "d2": (float, 1.0, "penalty bound of the second dual"),
    "delta": (float, 1e-5, "ridge regularization"),
    "hidden": (int, 103, "hidden node count"),
    "activation": (int, 3, "activation index 1..9"),
    "ridge": (float, 1e-3, "ridge for the RVFL baselines"),
    "folds": (int, 5, "cross-validation folds"),
    "ratio": (float, 0.7, "train fraction of the split"),
    "noise-rate": (float, 0.0, "label noise rate in [0, 1]"),
    "has-header": (_parse_bool, False, "input CSV has a header row"),
    "label-column": (str, "last", "label column index or 'last'"),
    "positive-label": (str, "1", "token mapped to class +1"),
    "n": (int, 1000, "sample count"),
    "m": (int, 32, "feature count"),
    "clusters": (int, 2, "cluster count"),
    "separability": (float, 4.0, "cluster separability knob"),
    "sizes": (_parse_int_list, [1000, 5000, 20000], "comma-separated sample counts"),
    "grid-d": (_parse_float_list, None, "override penalty grid"),
    "grid-h": (_parse_int_list, None, "override hidden-node grid"),
    "grid-act": (_parse_int_list, None, "override activation grid"),
    "q-alpha": (float, 3.031, "studentized-range constant for the critical difference"),
    "repeats": (int, 3, "timing repetitions per point"),
    "config": (str, None, "key = value config file; flags override it"),
}

BOOL_FLAGS = {"has-header"}

COMMANDS: dict[str, dict] = {
    "train": {
        "options": [
            "data", "out", "report", "seed", "variant", "eta", "d1", "d2",
            "delta", "hidden", "activation", "ridge", "has-header",
            "label-column", "positive-label", "config",
        ],
        "required": ["data", "out", "seed"],
    },
    "predict": {
        "options": ["model", "data", "out", "has-header", "config"],
        "required": ["model", "data", "out"],
    },
    "gridsearch": {
        "options": [
            "data", "out", "csv", "seed", "variant", "eta", "delta", "folds",
            "ratio", "grid-d", "grid-h", "grid-act", "has-header",
            "label-column", "positive-label", "config",
        ],
        "required": ["data", "out", "seed"],
    },
    "noise-sweep": {
        "options": [
            "data", "out", "report", "seed", "variant", "eta", "d1", "d2",
            "delta", "hidden", "activation", "ridge", "ratio", "has-header",
            "label-column", "positive-label", "config",
        ],
        "required": ["data", "out", "seed"],
    },
    "gen-ndc": {
        "options": ["out", "seed", "n", "m", "clusters", "separability", "config"],
        "required": ["out", "seed"],
    },
    "scale-bench": {
        "options": [
            "out", "csv", "seed", "variant", "sizes", "m", "clusters",
            "separability", "eta", "d1", "d2", "delta", "hidden", "activation",
            "repeats", "config",
        ],
        "required": ["out", "seed"],
    },
    "compare": {
        "options": [
            "data-dir", "out", "seed", "variants", "eta", "d1", "d2", "delta",
            "hidden", "activation", "ridge", "ratio", "q-alpha", "has-header",
            "label-column", "positive-label", "config",
        ],
        "required": ["data-dir", "out", "seed"],
    },
    "ablate": {
        "options": [
            "data", "out", "seed", "eta", "d1", "d2", "delta", "hidden",
            "activation", "ratio", "has-header", "label-column",
            "positive-label", "config",
        ],
        "required": ["data", "out", "seed"],
    },
}


def build_parser() -> CliParser:
    parser = CliParser(prog="gbtwin", description=__doc__)
    subs = parser.add_subparsers(dest="command", parser_class=CliParser)
    for name, spec in COMMANDS.items():
        sub = subs.add_parser(name)
        for opt in spec["options"]:
            flag = f"--{opt}"
            dest = opt.replace("-", "_")
            _, _, help_text = OPTIONS[opt]
            if opt in BOOL_FLAGS:
                sub.add_argument(flag, dest=dest, action="store_true", default=None,
                                 help=help_text)
            else:
                sub.add_argument(flag, dest=dest, type=str, default=None,
                                 help=help_text)
    return parser


def _load_config_file(path: str) -> dict[str, str]:
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise UsageError(f"config line {lineno} is not 'key = value': {line!r}")
        key, _, raw = stripped.partition("=")
        values[key.strip()] = raw.strip()
    return values


def resolve_options(args, command: str) -> dict:
    """Merge flags over config-file values over defaults; reject unknown keys."""
    spec = COMMANDS[command]
    resolved = {}
    file_values = {}
    if getattr(args, "config", None):
        file_values = _load_config_file(args.config)
        for key in file_values:
            if key not in spec["options"] or key == "config":
                raise UsageError(f"unknown config key {key!r} for command {command}")
    for opt in spec["options"]:
        if opt == "config":
            continue
        parse, default, _ = OPTIONS[opt]
        raw_flag = getattr(args, opt.replace("-", "_"))
        if raw_flag is not None:
            value = raw_flag if opt in BOOL_FLAGS else parse(raw_flag)
        elif opt in file_values:
            value = _parse_bool(file_values[opt]) if opt in BOOL_FLAGS else parse(
                file_values[opt]
            )
        else:
            value = default
        resolved[opt] = value
    for opt in spec["required"]:
        if resolved.get(opt) is None:
            raise UsageError(f"--{opt} is required for {command}")
    return resolved


def _run_config(command: str, opts: dict) -> dict:
    return {"command": command, **{k: v for k, v in opts.items() if k != "config"}}


def _twin_config(opts: dict, variant: str, seed: int) -> md.ModelConfig:
    granulate, space = TWIN_VARIANTS[variant]
    return md.ModelConfig(
        granulate=granulate,
        feature_space=space,
        seed=seed,
        d1=opts["d1"],
        d2=opts["d2"],
        delta=opts["delta"],
        eta=opts["eta"],
        h=opts["hidden"],
        activation=opts["activation"],
    )


def _fit_variant(variant: str, opts: dict, train, seed: int, normalization=None):
    if variant in TWIN_VARIANTS:
        cfg = _twin_config(opts, variant, seed)
        return md.fit(cfg, train, normalization=normalization)
    if variant in BASELINE_VARIANTS:
        return md.fit_rvfl_baseline(
            h=opts["hidden"],
            activation=opts["activation"],
            ridge=opts["ridge"],
            seed=seed,
            train=train,
            direct_links=BASELINE_VARIANTS[variant],
            normalization=normalization,
        )
    raise UsageError(
        f"unknown variant {variant!r}; choose from "
        f"{sorted(TWIN_VARIANTS) + sorted(BASELINE_VARIANTS)}"
    )


def _load_dataset(opts: dict):
    return load_csv(
        opts["data"],
        has_header=opts["has-header"],
        label_column=opts["label-column"],
        positive_label_token=opts["positive-label"],
    )


def _report_path(opts: dict) -> str:
    return opts["report"] or f"{opts['out']}.report.json"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_train(opts: dict) -> int:
    data = _load_dataset(opts)
    ranges = minmax_ranges(data)
    train = normalize_minmax(data)
    start = time.perf_counter()
    mdl = _fit_variant(opts["variant"], opts, train, opts["seed"], normalization=ranges)
    fit_seconds = time.perf_counter() - start
    md.save_model(mdl, opts["out"])
    metrics = ev.compute_metrics(data.labels, md.predict(mdl, data.features))
    report = {
        "command": "train",
        "run_config": _run_config("train", opts),
        "variant": opts["variant"],
        "train_metrics": metrics.as_dict(),
        "timings": {"fit_seconds": fit_seconds},
    }
    if isinstance(mdl, md.TwinModel):
        report["diagnostics"] = md.serialize(mdl)["diagnostics"]
    ev.emit_report(report, _report_path(opts))
    print(f"trained {opts['variant']}: train acc {metrics.acc:.4f}, "
          f"model -> {opts['out']}")
    return 0


def cmd_predict(opts: dict) -> int:
    mdl = md.load_model(opts["model"])
    X = load_features_csv(opts["data"], has_header=opts["has-header"])
    labels = md.predict(mdl, X)
    with open(opts["out"], "w", encoding="utf-8") as fh:
        for y in labels:
            fh.write(f"{int(y)}\n")
    print(f"predicted {len(labels)} rows -> {opts['out']}")
    return 0


def cmd_gen_ndc(opts: dict) -> int:
    data = generate_ndc(
        opts["n"], opts["m"], opts["clusters"], opts["separability"], opts["seed"]
    )
    write_csv(data, opts["out"])
    print(f"generated {data.n} x {data.m} dataset -> {opts['out']}")
    return 0


def cmd_gridsearch(opts: dict) -> int:
    variant = opts["variant"]
    if variant not in TWIN_VARIANTS:
        raise UsageError("gridsearch supports the twin variants only")
    data = _load_dataset(opts)
    pair = split_train_test(data, opts["ratio"], opts["seed"])
    ranges = minmax_ranges(pair.train)
    train = normalize_minmax(pair.train)

    template = md.ModelConfig(
        granulate=TWIN_VARIANTS[variant][0],
        feature_space=TWIN_VARIANTS[variant][1],
        seed=opts["seed"],
        delta=opts["delta"],
        eta=opts["eta"],
    )
    grid = {
        "d": opts["grid-d"] or ev.D_GRID,
        "h": opts["grid-h"] or ev.H_GRID,
        "activation": opts["grid-act"] or ev.ACTIVATION_GRID,
    }
    if template.feature_space == "original":
        # hidden layer is unused; collapse those grid axes unless overridden
        grid["h"] = opts["grid-h"] or [template.h]
        grid["activation"] = opts["grid-act"] or [template.activation]

    best_cfg, table = ev.grid_search_cv(
        train, template, folds=opts["folds"], grid=grid, seed=opts["seed"]
    )
    final = md.fit(best_cfg, train, normalization=ranges)
    metrics = ev.compute_metrics(pair.test.labels, md.predict(final, pair.test.features))
    report = {
        "command": "gridsearch",
        "run_config": _run_config("gridsearch", opts),
        "variant": variant,
        "best_config": asdict(best_cfg),
        "cv_table": table,
        "test_metrics": metrics.as_dict(),
    }
    ev.emit_report(report, opts["out"])
    if opts["csv"]:
        with open(opts["csv"], "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["d", "h", "activation", "mean_acc", "skipped_folds"])
            for row in table:
                writer.writerow(
                    [row["d"], row["h"], row["activation"], row["mean_acc"],
                     row["skipped_folds"]]
                )
    print(f"gridsearch {variant}: best d={best_cfg.d1:g} h={best_cfg.h} "
          f"act={best_cfg.activation}, test acc {metrics.acc:.4f}")
    return 0


def cmd_noise_sweep(opts: dict) -> int:
    data = _load_dataset(opts)
    pair = split_train_test(data, opts["ratio"], opts["seed"])
    ranges = minmax_ranges(pair.train)
    train = normalize_minmax(pair.train)
    test = normalize_minmax(pair.test, ranges)
    rows = []
    for i, rate in enumerate(NOISE_RATES):
        noisy = inject_label_noise(train, rate, derive_seed(opts["seed"], i))
        mdl = _fit_variant(opts["variant"], opts, noisy, opts["seed"])
        acc = ev.compute_metrics(test.labels, md.predict(mdl, test.features)).acc
        rows.append({"rate": rate, "accuracy": acc})
    with open(opts["out"], "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rate", "accuracy"])
        for row in rows:
            writer.writerow([row["rate"], row["accuracy"]])
    report = {
        "command": "noise-sweep",
        "run_config": _run_config("noise-sweep", opts),
        "variant": opts["variant"],
        "sweep": rows,
    }
    ev.emit_report(report, _report_path(opts))
    summary = ", ".join(f"{r['rate']:.0%}:{r['accuracy']:.3f}" for r in rows)
    print(f"noise sweep {opts['variant']}: {summary}")
    return 0


def cmd_scale_bench(opts: dict) -> int:
    variant = opts["variant"]
    if variant not in TWIN_VARIANTS:
        raise UsageError("scale-bench supports the twin variants only")
    datasets = [
        generate_ndc(n, opts["m"], opts["clusters"], opts["separability"],
                     derive_seed(opts["seed"], i))
        for i, n in enumerate(opts["sizes"])
    ]
    cfg = _twin_config(opts, variant, opts["seed"])
    tables = {variant: ev.benchmark_fit(cfg, datasets, repeats=opts["repeats"])}
    if cfg.granulate:
        raw_name = [k for k, v in TWIN_VARIANTS.items()
                    if v == (False, cfg.feature_space)][0]
        raw_cfg = replace(cfg, granulate=False)
        tables[raw_name] = ev.benchmark_fit(raw_cfg, datasets, repeats=opts["repeats"])
    report = {
        "command": "scale-bench",
        "run_config": _run_config("scale-bench", opts),
        "tables": tables,
    }
    ev.emit_report(report, opts["out"])
    if opts["csv"]:
        with open(opts["csv"], "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["variant", "n", "k", "fit_seconds", "accuracy"])
            for name, rows in tables.items():
                for row in rows:
                    writer.writerow(
                        [name, row["n"], row["k"], row["fit_seconds"],
                         row["accuracy"]]
                    )
    for name, rows in tables.items():
        for row in rows:
            print(f"{name}: n={row['n']} k={row['k']} "
                  f"fit={row['fit_seconds']:.3f}s acc={row['accuracy']:.4f}")
    return 0


def cmd_compare(opts: dict) -> int:
    variants = [v.strip() for v in opts["variants"].split(",") if v.strip()]
    for v in variants:
        if v not in TWIN_VARIANTS and v not in BASELINE_VARIANTS:
            raise UsageError(f"unknown variant {v!r}")
    paths = sorted(Path(opts["data-dir"]).glob("*.csv"))
    if not paths:
        raise DataError(f"no CSV files in {opts['data-dir']}")
    matrix = []
    for di, path in enumerate(paths):
        data = load_csv(
            path,
            has_header=opts["has-header"],
            label_column=opts["label-column"],
            positive_label_token=opts["positive-label"],
        )
        pair = split_train_test(data, opts["ratio"], derive_seed(opts["seed"], di))
        ranges = minmax_ranges(pair.train)
        train = normalize_minmax(pair.train)
        test = normalize_minmax(pair.test, ranges)
        row = []
        for v in variants:
            mdl = _fit_variant(v, opts, train, derive_seed(opts["seed"], di))
            row.append(
                ev.compute_metrics(test.labels, md.predict(mdl, test.features)).acc
            )
        matrix.append(row)
    rt = ev.rank_models(np.asarray(matrix))
    report = {
        "command": "compare",
        "run_config": _run_config("compare", opts),
        "datasets": [p.name for p in paths],
        "variants": variants,
        "accuracy_matrix": matrix,
        "avg_ranks": [float(r) for r in rt.avg_ranks],
        "nemenyi_cd": float(
            ev.nemenyi_cd(len(variants), len(paths), opts["q-alpha"])
        ),
    }
    if len(paths) >= 2:
        fr = ev.friedman_test(rt)
        report["friedman"] = {"chi2": fr.chi2, "ff": fr.ff, "dof": list(fr.dof)}
    ev.emit_report(report, opts["out"])
    order = np.argsort(rt.avg_ranks)
    ranking = ", ".join(f"{variants[j]}={rt.avg_ranks[j]:.2f}" for j in order)
    print(f"compare over {len(paths)} datasets, avg ranks: {ranking}")
    return 0


def cmd_ablate(opts: dict) -> int:
    data = _load_dataset(opts)
    pair = split_train_test(data, opts["ratio"], opts["seed"])
    ranges = minmax_ranges(pair.train)
    train = normalize_minmax(pair.train)
    test = normalize_minmax(pair.test, ranges)
    rows = []
    for variant in ABLATION_VARIANTS:
        mdl = _fit_variant(variant, opts, train, opts["seed"])
        metrics = ev.compute_metrics(test.labels, md.predict(mdl, test.features))
        rows.append({"variant": variant, **metrics.as_dict()})
    report = {
        "command": "ablate",
        "run_config": _run_config("ablate", opts),
        "rows": rows,
    }
    ev.emit_report(report, opts["out"])
    for row in rows:
        print(f"{row['variant']:>10s}: acc {row['acc']:.4f}")
    return 0


HANDLERS = {
    "train": cmd_train,
    "predict": cmd_predict,
    "gridsearch": cmd_gridsearch,
    "noise-sweep": cmd_noise_sweep,
    "gen-ndc": cmd_gen_ndc,
    "scale-bench": cmd_scale_bench,
    "compare": cmd_compare,
    "ablate": cmd_ablate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            raise UsageError("missing subcommand")
        opts = resolve_options(args, args.command)
        return HANDLERS[args.command](opts)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, md.FitError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
