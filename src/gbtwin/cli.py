"""Command-line entry point for reproducible experiment runs.

Every stochastic subcommand demands an explicit ``--seed``; reports embed the
fully resolved run configuration so a run can be replayed from its artifacts.
Flags may also come from a ``key = value`` config file; its values pass
through the same parsers as flags, and flags win.

``main`` sets every loaded OpenBLAS to one thread before any command and
never restores it, so a saved model does not depend on
``OPENBLAS_NUM_THREADS``. Importing this module leaves BLAS as it is.

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
from .qp import NumericalError, one_blas_thread, openblas_thread_controls
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
COMPARE_VARIANTS = tuple(TWIN_VARIANTS) + tuple(BASELINE_VARIANTS)


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
    raise argparse.ArgumentTypeError(f"cannot parse boolean value {raw!r}")


def _nonempty(values: list, raw: str) -> list:
    """``values`` of a comma-separated flag, which must name at least one."""
    if not values:
        raise argparse.ArgumentTypeError(f"needs at least one value, got {raw!r}")
    return values


def _parse_float_list(raw: str) -> list[float]:
    return _nonempty([float(v) for v in raw.split(",") if v.strip()], raw)


def _parse_int_list(raw: str) -> list[int]:
    return _nonempty([int(v) for v in raw.split(",") if v.strip()], raw)


def _variant_names(raw: str) -> list[str]:
    return [v.strip() for v in raw.split(",") if v.strip()]


def _parse_variants(raw: str) -> str:
    """Accept two or more distinct known names; keep the text the report records."""
    names = _variant_names(raw)
    unknown = sorted(set(names) - set(COMPARE_VARIANTS))
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown variants {unknown}")
    if len(names) < 2 or len(set(names)) != len(names):
        raise argparse.ArgumentTypeError("need two or more distinct variant names")
    return raw


# flag name -> (parser of the flag's value, default, help)
OPTIONS = {
    "data": (str, None, "input CSV path"),
    "data-dir": (str, None, "directory of input CSV files"),
    "model": (str, None, "model JSON path"),
    "out": (str, None, "output path"),
    "report": (str, None, "report JSON path (default derived from --out)"),
    "csv": (str, None, "optional flat CSV export path"),
    "seed": (int, None, "master seed (required for stochastic commands)"),
    "variant": (str, "ef-gbtsvm", "model variant name"),
    "variants": (_parse_variants, ",".join(COMPARE_VARIANTS),
                 "comma-separated distinct variant names"),
    "eta": (float, md.ModelConfig.eta, "granular-ball purity threshold in (0.5, 1]"),
    "d1": (float, md.ModelConfig.d1, "penalty bound of the first dual"),
    "d2": (float, md.ModelConfig.d2, "penalty bound of the second dual"),
    "delta": (float, md.ModelConfig.delta, "ridge regularization"),
    "hidden": (int, md.ModelConfig.h, "hidden node count"),
    "activation": (int, md.ModelConfig.activation, "activation index 1..9"),
    "ridge": (float, 1e-3, "ridge for the RVFL baselines"),
    "folds": (int, 5, "cross-validation folds"),
    "ratio": (float, 0.7, "train fraction of the split"),
    "has-header": (_parse_bool, False, "input CSV has a header row"),
    "label-column": (str, "last", "label column index or 'last'"),
    "positive-label": (str, "1", "token mapped to class +1"),
    "n": (int, 1000, "sample count"),
    "m": (int, 32, "feature count"),
    "clusters": (int, 2, "cluster count"),
    "separability": (float, 4.0, "cluster separability knob"),
    "sizes": (_parse_int_list, [1000, 5000, 20000], "comma-separated sample counts"),
    "grid-d": (_parse_float_list, None, "override penalty grid"),
    "grid-h": (_parse_int_list, None, "override hidden-node grid; tsvm, gbtsvm only check it"),
    "grid-act": (_parse_int_list, None, "override activation grid; tsvm, gbtsvm only check it"),
    "repeats": (int, 3, "timing repetitions per point"),
    "config": (str, None, "key = value config file; flags override it"),
}

# model flag -> the ModelConfig field it sets; the keys are the model-flag group
_MODEL_FIELDS = {
    "eta": "eta", "d1": "d1", "d2": "d2", "delta": "delta", "hidden": "h",
    "activation": "activation",
}
# the flags that say how to read a labelled CSV
_CSV_FLAGS = ("has-header", "label-column", "positive-label")

# command -> offered options, required options and the --variant choices
COMMANDS: dict[str, dict] = {
    "train": {
        "options": [
            "data", "out", "report", "seed", "variant", *_MODEL_FIELDS, "ridge",
            *_CSV_FLAGS, "config",
        ],
        "required": ["data", "out", "seed"],
        "choices": {"variant": COMPARE_VARIANTS},
    },
    "predict": {
        "options": ["model", "data", "out", "has-header", "config"],
        "required": ["model", "data", "out"],
    },
    "gridsearch": {
        "options": [
            "data", "out", "csv", "seed", "variant", "eta", "delta", "folds",
            "ratio", "grid-d", "grid-h", "grid-act", *_CSV_FLAGS, "config",
        ],
        "required": ["data", "out", "seed"],
        "choices": {"variant": tuple(TWIN_VARIANTS)},
    },
    "noise-sweep": {
        "options": [
            "data", "out", "report", "seed", "variant", *_MODEL_FIELDS, "ridge",
            "ratio", *_CSV_FLAGS, "config",
        ],
        "required": ["data", "out", "seed"],
        "choices": {"variant": COMPARE_VARIANTS},
    },
    "gen-ndc": {
        "options": ["out", "seed", "n", "m", "clusters", "separability", "config"],
        "required": ["out", "seed"],
    },
    "scale-bench": {
        "options": [
            "out", "csv", "seed", "variant", "sizes", "m", "clusters",
            "separability", *_MODEL_FIELDS, "repeats", "config",
        ],
        "required": ["out", "seed"],
        "choices": {"variant": tuple(TWIN_VARIANTS)},
    },
    "compare": {
        "options": [
            "data-dir", "out", "seed", "variants", *_MODEL_FIELDS, "ridge",
            "ratio", *_CSV_FLAGS, "config",
        ],
        "required": ["data-dir", "out", "seed"],
    },
    "ablate": {
        "options": [
            "data", "out", "seed", *_MODEL_FIELDS, "ratio", *_CSV_FLAGS, "config",
        ],
        "required": ["data", "out", "seed"],
    },
}


def build_parser() -> CliParser:
    parser = CliParser(prog="gbtwin", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True, parser_class=CliParser)
    for name, spec in COMMANDS.items():
        sub = subs.add_parser(name)
        for opt in spec["options"]:
            parse, default, help_text = OPTIONS[opt]
            # a bare --has-header means yes; --has-header=no parses too
            bare = {"nargs": "?", "const": True} if parse is _parse_bool else {}
            sub.add_argument(
                f"--{opt}", dest=opt, type=parse, default=default, help=help_text,
                required=opt in spec["required"],
                choices=spec.get("choices", {}).get(opt), **bare,
            )
    return parser


def _with_config_flags(argv: list[str]) -> list[str]:
    """Insert a ``--config`` file's ``key = value`` lines as ``--key=value`` flags.

    They go before the user's flags, so argparse's last-wins rule lets a flag
    override the file. Unknown keys and a nested ``config`` key are rejected.
    """
    pre = CliParser(add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv[1:])[0].config
    if path is None or argv[0] not in COMMANDS:
        return argv
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    flags = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise UsageError(f"config line {lineno} is not 'key = value': {line!r}")
        key, _, raw = (part.strip() for part in stripped.partition("="))
        if key not in COMMANDS[argv[0]]["options"] or key == "config":
            raise UsageError(f"unknown config key {key!r} for command {argv[0]}")
        flags.append(f"--{key}={raw}")
    return argv[:1] + flags + argv[1:]


def _twin_config(opts: dict, variant: str, seed: int) -> md.ModelConfig:
    """The variant's config from the model flags the command offers; the rest keep defaults."""
    granulate, space = TWIN_VARIANTS[variant]
    given = {field: opts[flag] for flag, field in _MODEL_FIELDS.items() if flag in opts}
    return md.ModelConfig(granulate=granulate, feature_space=space, seed=seed, **given)


def _fit_variant(variant: str, opts: dict, train, seed: int, normalization=None):
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
    return md.fit(_twin_config(opts, variant, seed), train, normalization=normalization)


def _load_dataset(path, opts: dict):
    return load_csv(
        path,
        has_header=opts["has-header"],
        label_column=opts["label-column"],
        positive_label_token=opts["positive-label"],
    )


def _normalized_split(data, opts: dict, seed: int):
    """Seeded train/test split, both min-max scaled by the train ranges."""
    pair = split_train_test(data, opts["ratio"], seed)
    ranges = minmax_ranges(pair.train)
    return normalize_minmax(pair.train), normalize_minmax(pair.test, ranges)


def _report_path(opts: dict) -> str:
    return opts["report"] or f"{opts['out']}.report.json"


def _write_report(opts: dict, path, fields: dict) -> None:
    """Write a report headed by the command and its resolved run_config."""
    ev.emit_report({"command": opts["command"], "run_config": opts, **fields}, path)


def _write_table(path, columns, records) -> None:
    """Write a CSV with a header of ``columns`` and one line per record."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for record in records:
            writer.writerow([record[c] for c in columns])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_train(opts: dict) -> int:
    data = _load_dataset(opts["data"], opts)
    ranges = minmax_ranges(data)
    train = normalize_minmax(data)
    start = time.perf_counter()
    mdl = _fit_variant(opts["variant"], opts, train, opts["seed"], normalization=ranges)
    fit_seconds = time.perf_counter() - start
    md.save_model(mdl, opts["out"])
    metrics = ev.compute_metrics(data.labels, md.predict(mdl, data.features))
    report = {
        "variant": opts["variant"],
        "train_metrics": asdict(metrics),
        "timings": {"fit_seconds": fit_seconds},
    }
    if isinstance(mdl, md.TwinModel):
        report["diagnostics"] = asdict(mdl.diagnostics)
    _write_report(opts, _report_path(opts), report)
    print(f"trained {opts['variant']}: train acc {metrics.acc:.4f}, "
          f"model -> {opts['out']}")
    return 0


def cmd_predict(opts: dict) -> int:
    mdl = md.load_model(opts["model"])
    X = load_features_csv(opts["data"], has_header=opts["has-header"])
    labels = md.predict(mdl, X)
    np.savetxt(opts["out"], labels, fmt="%d")
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
    data = _load_dataset(opts["data"], opts)
    train, test = _normalized_split(data, opts, opts["seed"])

    template = _twin_config(opts, variant, opts["seed"])
    # an axis not given takes grid_search_cv's default
    grid = {"d": opts["grid-d"], "h": opts["grid-h"], "activation": opts["grid-act"]}
    best_cfg, table = ev.grid_search_cv(
        train, template, folds=opts["folds"], grid=grid, seed=opts["seed"]
    )
    final = md.fit(best_cfg, train)
    metrics = ev.compute_metrics(test.labels, md.predict(final, test.features))
    _write_report(opts, opts["out"], {
        "variant": variant,
        "best_config": asdict(best_cfg),
        "cv_table": table,
        "test_metrics": asdict(metrics),
    })
    if opts["csv"]:
        _write_table(
            opts["csv"], ["d", "h", "activation", "mean_acc", "skipped_folds"], table
        )
    print(f"gridsearch {variant}: best d={best_cfg.d1:g} h={best_cfg.h} "
          f"act={best_cfg.activation}, test acc {metrics.acc:.4f}")
    return 0


def cmd_noise_sweep(opts: dict) -> int:
    data = _load_dataset(opts["data"], opts)
    train, test = _normalized_split(data, opts, opts["seed"])
    rows = []
    for i, rate in enumerate(NOISE_RATES):
        noisy = inject_label_noise(train, rate, derive_seed(opts["seed"], i))
        mdl = _fit_variant(opts["variant"], opts, noisy, opts["seed"])
        acc = ev.compute_metrics(test.labels, md.predict(mdl, test.features)).acc
        rows.append({"rate": rate, "accuracy": acc})
    _write_table(opts["out"], ["rate", "accuracy"], rows)
    _write_report(opts, _report_path(opts), {"variant": opts["variant"], "sweep": rows})
    summary = ", ".join(f"{r['rate']:.0%}:{r['accuracy']:.3f}" for r in rows)
    print(f"noise sweep {opts['variant']}: {summary}")
    return 0


def cmd_scale_bench(opts: dict) -> int:
    variant = opts["variant"]
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
    _write_report(opts, opts["out"], {"tables": tables})
    if opts["csv"]:
        _write_table(
            opts["csv"],
            ["variant", "n", "k", "fit_seconds", "accuracy"],
            [{"variant": name, **row} for name, rows in tables.items() for row in rows],
        )
    for name, rows in tables.items():
        for row in rows:
            print(f"{name}: n={row['n']} k={row['k']} "
                  f"fit={row['fit_seconds']:.3f}s acc={row['accuracy']:.4f}")
    return 0


def cmd_compare(opts: dict) -> int:
    variants = _variant_names(opts["variants"])
    paths = sorted(Path(opts["data-dir"]).glob("*.csv"))
    if not paths:
        raise DataError(f"no CSV files in {opts['data-dir']}")
    matrix = []
    for di, path in enumerate(paths):
        data = _load_dataset(path, opts)
        train, test = _normalized_split(data, opts, derive_seed(opts["seed"], di))
        row = []
        for v in variants:
            mdl = _fit_variant(v, opts, train, derive_seed(opts["seed"], di))
            row.append(
                ev.compute_metrics(test.labels, md.predict(mdl, test.features)).acc
            )
        matrix.append(row)
    rt = ev.rank_models(np.asarray(matrix))
    q_alpha = ev.NEMENYI_Q05[len(variants)]
    report = {
        "datasets": [p.name for p in paths],
        "variants": variants,
        "accuracy_matrix": matrix,
        "avg_ranks": [float(r) for r in rt.avg_ranks],
        "nemenyi_cd": float(ev.nemenyi_cd(len(variants), len(paths), q_alpha)),
    }
    if len(paths) >= 2:
        fr = ev.friedman_test(rt)
        report["friedman"] = {"chi2": fr.chi2, "ff": fr.ff, "dof": list(fr.dof)}
    _write_report(opts, opts["out"], report)
    order = np.argsort(rt.avg_ranks)
    ranking = ", ".join(f"{variants[j]}={rt.avg_ranks[j]:.2f}" for j in order)
    print(f"compare over {len(paths)} datasets, avg ranks: {ranking}")
    return 0


def cmd_ablate(opts: dict) -> int:
    data = _load_dataset(opts["data"], opts)
    train, test = _normalized_split(data, opts, opts["seed"])
    rows = []
    for variant in TWIN_VARIANTS:
        mdl = _fit_variant(variant, opts, train, opts["seed"])
        metrics = ev.compute_metrics(test.labels, md.predict(mdl, test.features))
        rows.append({"variant": variant, **asdict(metrics)})
    _write_report(opts, opts["out"], {"rows": rows})
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
    argv = sys.argv[1:] if argv is None else list(argv)
    one_blas_thread(openblas_thread_controls() or ())
    try:
        opts = vars(build_parser().parse_args(_with_config_flags(argv)))
        del opts["config"]  # the run_config holds the values the file supplied
        return HANDLERS[opts["command"]](opts)
    except (UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (OSError, DataError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
