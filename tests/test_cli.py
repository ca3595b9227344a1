import json
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import gbtwin
from gbtwin import qp
from gbtwin.cli import COMMANDS, HANDLERS, OPTIONS, main
from gbtwin.dataset import generate_ndc, write_csv
from gbtwin.evaluation import nemenyi_cd, read_report
from gbtwin.model import _BLOCK_ROWS, ModelConfig, load_model, predict


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def blob_csv(tmp_path):
    path = tmp_path / "blobs.csv"
    write_csv(generate_ndc(120, 3, 2, 5.0, seed=21), path)
    return path


class TestStartup:
    def test_import_leaves_scipy_stats_unloaded(self):
        # scipy.stats costs most of a second to import; only rank_models needs it
        src = str(Path(gbtwin.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, gbtwin, gbtwin.cli; print('scipy.stats' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"


class TestTrainPredict:
    def test_gen_train_predict_pipeline(self, tmp_path):
        data = tmp_path / "x.csv"
        model = tmp_path / "model.json"
        labels_out = tmp_path / "labels.csv"
        assert run("gen-ndc", "--n", 200, "--m", 4, "--seed", 7,
                   "--out", data) == 0
        assert run("train", "--variant", "ef-gbtsvm", "--data", data,
                   "--seed", 7, "--out", model) == 0
        report = read_report(f"{model}.report.json")
        assert report["command"] == "train"
        assert report["run_config"]["seed"] == 7
        assert report["train_metrics"]["acc"] >= 0.9

        feats = tmp_path / "feats.csv"
        rows = generate_ndc(30, 4, 2, 5.0, seed=8).features
        np.savetxt(feats, rows, delimiter=",")
        assert run("predict", "--model", model, "--data", feats,
                   "--out", labels_out) == 0
        written = [int(v) for v in labels_out.read_text().split()]
        mdl = load_model(model)
        assert written == [int(v) for v in predict(mdl, rows)]

    def test_predict_feature_mismatch_is_data_error(self, tmp_path, blob_csv, capsys):
        model = tmp_path / "model.json"
        assert run("train", "--variant", "tsvm", "--data", blob_csv,
                   "--seed", 1, "--out", model) == 0
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,2.0\n")  # model expects 3 features
        assert run("predict", "--model", model, "--data", bad,
                   "--out", tmp_path / "y.csv") == 2
        assert "expected 3 features" in capsys.readouterr().err

    @pytest.mark.parametrize("variant", ["tsvm", "ef-gbtsvm", "rvfl"])
    def test_predict_non_finite_is_data_error(self, tmp_path, blob_csv, capsys, variant):
        model = tmp_path / "model.json"
        assert run("train", "--variant", variant, "--data", blob_csv,
                   "--seed", 1, "--out", model) == 0
        bad = tmp_path / "bad.csv"
        bad.write_text("0.1,0.2,0.3\n0.4,nan,0.6\n")
        assert run("predict", "--model", model, "--data", bad,
                   "--out", tmp_path / "y.csv") == 2
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("variant", ["tsvm", "hf-tsvm", "ef-tsvm", "rvfl"])
    def test_predict_overflowing_row_is_data_error(self, tmp_path, capsys, variant):
        # a finite raw row that the stored ranges scale past the float range
        data = tmp_path / "x.csv"
        model = tmp_path / "model.json"
        assert run("gen-ndc", "--n", 300, "--m", 5, "--seed", 7, "--out", data) == 0
        assert run("train", "--variant", variant, "--data", data, "--seed", 7,
                   "--activation", 2, "--out", model) == 0
        bad = tmp_path / "bad.csv"
        bad.write_text(",".join(["1.7e308"] * 5) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run("predict", "--model", model, "--data", bad,
                       "--out", tmp_path / "y.csv") == 2
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("variant", ["hf-tsvm", "ef-tsvm", "rvfl"])
    def test_predict_row_overflowing_the_map_in_last_block(self, tmp_path, capsys, variant):
        # columns span exactly [0, 1], so the stored ranges leave rows as they
        # are and only relu(x W + b) overflows the last row
        rng = np.random.default_rng(3)
        train = np.vstack([np.zeros(5), np.ones(5), rng.random((198, 5))])
        data = tmp_path / "x.csv"
        data.write_text("".join(
            ",".join(repr(float(v)) for v in row) + (",1\n" if row.sum() > 2.5 else ",-1\n")
            for row in train
        ))
        model = tmp_path / "model.json"
        assert run("train", "--variant", variant, "--data", data, "--seed", 7,
                   "--activation", 2, "--out", model) == 0
        rows = rng.random((2 * _BLOCK_ROWS + 3, 5))
        rows[-1] = 1.7e308
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run("predict", "--model", model, "--data", bad,
                       "--out", tmp_path / "y.csv") == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["data error: feature matrix contains non-finite entries"]

    def test_train_single_class_is_data_error(self, tmp_path):
        path = tmp_path / "single.csv"
        path.write_text("1,2,1\n3,4,1\n5,6,1\n")
        code = run("train", "--variant", "tsvm", "--data", path,
                   "--seed", 1, "--out", tmp_path / "m.json")
        assert code == 2

    def test_gridsearch_with_every_combination_skipped_is_data_error(self, tmp_path, capsys):
        # with seed 2 the held-out split takes the only -1 row, so every
        # CV-training part is single-class and every combination is skipped
        rows = np.random.default_rng(0).normal(size=(21, 3))
        path = tmp_path / "one_negative.csv"
        path.write_text("".join(
            ",".join(repr(float(v)) for v in row) + (",-1\n" if i == 5 else ",1\n")
            for i, row in enumerate(rows)
        ))
        code = run("gridsearch", "--variant", "tsvm", "--folds", 2, "--seed", 2,
                   "--data", path, "--out", tmp_path / "g.json")
        assert code == 2
        assert "data error: every grid combination was skipped" in capsys.readouterr().err

    @pytest.mark.parametrize("rows, message", [
        (["0.5,0.2,1"], "need at least 2 rows to split"),
        (["0.5,0.2,1", "0.1,0.9,-1"], "2 folds need at least 2 training rows, got 1"),
    ])
    def test_gridsearch_on_too_few_rows_is_data_error(self, tmp_path, capsys, rows, message):
        path = tmp_path / "tiny.csv"
        path.write_text("\n".join(rows) + "\n")
        code = run("gridsearch", "--variant", "tsvm", "--folds", 2, "--seed", 1,
                   "--data", path, "--out", tmp_path / "g.json")
        assert code == 2
        assert f"data error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "g.json").exists()

    def test_rvfl_variant_trains(self, tmp_path, blob_csv):
        model = tmp_path / "rvfl.json"
        assert run("train", "--variant", "rvfl", "--data", blob_csv,
                   "--seed", 2, "--out", model) == 0
        doc = json.loads(model.read_text())
        assert doc["kind"] == "rvfl"


class TestBrokenModelDocuments:
    """A malformed model document is one usage-error line, not a traceback."""

    @pytest.fixture
    def model_doc(self, tmp_path, blob_csv):
        model = tmp_path / "model.json"
        assert run("train", "--variant", "ef-gbtsvm", "--data", blob_csv,
                   "--seed", 1, "--out", model) == 0
        return json.loads(model.read_text())

    def predict_with(self, tmp_path, doc, capsys):
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        feats = tmp_path / "feats.csv"
        np.savetxt(feats, generate_ndc(20, 3, 2, 5.0, seed=22).features, delimiter=",")
        capsys.readouterr()
        code = run("predict", "--model", broken, "--data", feats,
                   "--out", tmp_path / "y.csv")
        return code, capsys.readouterr().err

    def test_missing_u1(self, tmp_path, model_doc, capsys):
        del model_doc["u1"]
        code, err = self.predict_with(tmp_path, model_doc, capsys)
        assert code == 1
        assert err.splitlines() == ["usage error: model document is missing the 'u1' field"]

    def test_u1_one_entry_short(self, tmp_path, model_doc, capsys):
        model_doc["u1"] = model_doc["u1"][:-1]
        code, err = self.predict_with(tmp_path, model_doc, capsys)
        assert code == 1
        assert len(err.splitlines()) == 1
        assert err.startswith("usage error: model field 'u1' must hold")

    @staticmethod
    def legacy_ef_gbtsvm():
        path = Path(__file__).parent / "data" / "legacy_models" / "ef-gbtsvm.json"
        return json.loads(path.read_text())

    @pytest.mark.parametrize("record", ["config", "diagnostics"])
    def test_unknown_key(self, tmp_path, capsys, record):
        doc = self.legacy_ef_gbtsvm()
        doc[record]["extra"] = 1
        code, err = self.predict_with(tmp_path, doc, capsys)
        assert code == 1
        assert err.splitlines() == [f"usage error: model {record} has an unknown field 'extra'"]

    def test_unknown_top_level_key(self, tmp_path, capsys):
        doc = self.legacy_ef_gbtsvm()
        doc["extra"] = 1
        code, err = self.predict_with(tmp_path, doc, capsys)
        assert code == 1
        assert err.splitlines() == ["usage error: model document has an unknown field 'extra'"]

    def test_array_document(self, tmp_path, capsys):
        code, err = self.predict_with(tmp_path, [self.legacy_ef_gbtsvm()], capsys)
        assert code == 1
        assert err.splitlines() == ["usage error: model document must be a JSON object"]

    @pytest.mark.parametrize("level", ["layer", "normalization", "config", "diagnostics"])
    def test_string_level(self, tmp_path, capsys, level):
        doc = self.legacy_ef_gbtsvm()
        doc[level] = "x"
        code, err = self.predict_with(tmp_path, doc, capsys)
        assert code == 1
        assert err.splitlines() == [f"usage error: model {level} must be a JSON object"]

    def test_string_penalty(self, tmp_path, capsys):
        doc = self.legacy_ef_gbtsvm()
        doc["config"]["d1"] = "1"
        code, err = self.predict_with(tmp_path, doc, capsys)
        assert code == 1
        assert err.splitlines() == ["usage error: model config field 'd1' must be of type float, got '1'"]

    def test_null_feature_count(self, tmp_path, capsys):
        doc = self.legacy_ef_gbtsvm()
        doc["m"] = None
        code, err = self.predict_with(tmp_path, doc, capsys)
        assert code == 1
        assert err.splitlines() == ["usage error: model field 'm' must be of type int, got None"]

    def test_config_disagrees_with_layer(self, tmp_path, capsys):
        doc = self.legacy_ef_gbtsvm()
        doc["config"].update(h=50, activation=1, seed=9)
        code, err = self.predict_with(tmp_path, doc, capsys)
        assert code == 1
        assert err.splitlines() == [
            "usage error: model config field 'seed' disagrees with its random layer"
        ]


class TestUsageErrors:
    def test_unknown_subcommand(self):
        assert run("frobnicate") == 1

    def test_unknown_flag(self, tmp_path):
        assert run("gen-ndc", "--n", 10, "--seed", 1,
                   "--out", tmp_path / "x.csv", "--bogus", 3) == 1

    def test_missing_seed_is_usage_error(self, tmp_path, blob_csv):
        assert run("train", "--variant", "tsvm", "--data", blob_csv,
                   "--out", tmp_path / "m.json") == 1

    def test_predict_needs_no_seed(self, tmp_path, blob_csv):
        model = tmp_path / "m.json"
        run("train", "--variant", "tsvm", "--data", blob_csv, "--seed", 3,
            "--out", model)
        feats = tmp_path / "f.csv"
        np.savetxt(feats, generate_ndc(10, 3, 2, 5.0, seed=4).features,
                   delimiter=",")
        assert run("predict", "--model", model, "--data", feats,
                   "--out", tmp_path / "y.csv") == 0

    def test_unknown_variant(self, tmp_path, blob_csv):
        assert run("train", "--variant", "megasvm", "--data", blob_csv,
                   "--seed", 1, "--out", tmp_path / "m.json") == 1

    @pytest.mark.parametrize("variants", ["tsvm,tsvm", "tsvm", "tsvm,megasvm"])
    def test_variants_must_be_two_distinct_known_names(self, tmp_path, blob_csv, variants):
        out = tmp_path / "compare.json"
        assert run("compare", "--data-dir", blob_csv.parent, "--seed", 1,
                   "--variants", variants, "--out", out) == 1
        assert not out.exists()

    def test_missing_file_is_data_error(self, tmp_path):
        assert run("train", "--variant", "tsvm", "--data", tmp_path / "nope.csv",
                   "--seed", 1, "--out", tmp_path / "m.json") == 2


class TestConfigFile:
    def test_file_supplies_values_flags_override(self, tmp_path, blob_csv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 5\nvariant = tsvm\n# comment line\n\nd1 = 2.0\n")
        model = tmp_path / "m.json"
        assert run("train", "--data", blob_csv, "--out", model,
                   "--config", cfg, "--variant", "gbtsvm") == 0
        report = read_report(f"{model}.report.json")
        assert report["run_config"]["seed"] == 5
        assert report["run_config"]["variant"] == "gbtsvm"  # flag wins
        assert report["run_config"]["d1"] == 2.0

    def test_unknown_key_rejected(self, tmp_path, blob_csv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 5\nwarp_factor = 9\n")
        assert run("train", "--data", blob_csv, "--out", tmp_path / "m.json",
                   "--config", cfg) == 1

    @pytest.mark.parametrize("line", ["config = other.cfg", "seed = abc"])
    def test_nested_config_and_bad_value_rejected(self, tmp_path, blob_csv, line):
        # a file value is parsed even where a flag overrides it
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"variant = tsvm\n{line}\n")
        assert run("train", "--data", blob_csv, "--seed", 5, "--out", tmp_path / "m.json",
                   "--config", cfg) == 1

    def test_file_values_take_the_flag_parsers(self, tmp_path):
        data = tmp_path / "headed.csv"
        write_csv(generate_ndc(60, 2, 2, 5.0, seed=3), data)
        data.write_text("x1,x2,y\n" + data.read_text())
        cfg = tmp_path / "run.cfg"
        cfg.write_text("has-header = yes\nlabel-column = -1\nvariant = tsvm\n")
        model = tmp_path / "m.json"
        assert run("train", "--data", data, "--seed", 1, "--out", model,
                   "--config", cfg) == 0
        rc = read_report(f"{model}.report.json")["run_config"]
        assert rc["has-header"] is True and rc["label-column"] == "-1"

    def test_run_config_golden(self, tmp_path, blob_csv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 5\nd2 = 0.5\nhas-header = no\n")
        model = tmp_path / "m.json"
        assert run("train", "--data", blob_csv, "--out", model, "--variant", "tsvm",
                   "--config", cfg) == 0
        rc = read_report(f"{model}.report.json")["run_config"]
        expected = {
            "command": "train",
            "data": str(blob_csv),
            "out": str(model),
            "report": None,
            "seed": 5,
            "variant": "tsvm",
            "eta": 0.9,
            "d1": 1.0,
            "d2": 0.5,
            "delta": 1e-05,
            "hidden": 103,
            "activation": 3,
            "ridge": 0.001,
            "has-header": False,
            "label-column": "last",
            "positive-label": "1",
        }
        # JSON text tells 1.0 from 1 and false from 0
        assert json.dumps(rc, sort_keys=True) == json.dumps(expected, sort_keys=True)


class TestOptionTables:
    def test_every_option_is_offered_and_declared(self):
        offered = {opt for spec in COMMANDS.values() for opt in spec["options"]}
        assert offered == set(OPTIONS)
        assert set(HANDLERS) == set(COMMANDS)

    def test_model_flag_defaults_are_model_config_defaults(self):
        defaults = {f.name: f.default for f in fields(ModelConfig)}
        for flag, name in [("eta", "eta"), ("d1", "d1"), ("d2", "d2"), ("delta", "delta"),
                           ("hidden", "h"), ("activation", "activation")]:
            assert OPTIONS[flag][1] == defaults[name]
            assert type(OPTIONS[flag][1]) is type(defaults[name])

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert f"usage: gbtwin {command}" in capsys.readouterr().out


class TestExperimentCommands:
    def test_gridsearch_small_grid(self, tmp_path, blob_csv):
        out = tmp_path / "grid.json"
        csv_out = tmp_path / "grid.csv"
        assert run("gridsearch", "--data", blob_csv, "--seed", 3,
                   "--variant", "ef-gbtsvm", "--folds", 3,
                   "--grid-d", "0.1,1", "--grid-h", "11", "--grid-act", "2,3",
                   "--out", out, "--csv", csv_out) == 0
        report = read_report(out)
        assert len(report["cv_table"]) == 4
        assert report["best_config"]["d1"] in (0.1, 1.0)
        assert csv_out.read_text().startswith("d,h,activation")

    def test_noise_sweep_counts(self, tmp_path, blob_csv):
        out = tmp_path / "noise.csv"
        assert run("noise-sweep", "--data", blob_csv, "--seed", 4,
                   "--variant", "gbtsvm", "--out", out) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "rate,accuracy"
        assert len(lines) == 6  # header + rates 0, .05, .10, .15, .20
        rates = [float(line.split(",")[0]) for line in lines[1:]]
        assert rates == [0.0, 0.05, 0.10, 0.15, 0.20]

    def test_ablate_six_rows(self, tmp_path, blob_csv):
        out = tmp_path / "ablate.json"
        assert run("ablate", "--data", blob_csv, "--seed", 5, "--out", out) == 0
        report = read_report(out)
        variants = [row["variant"] for row in report["rows"]]
        assert variants == ["tsvm", "gbtsvm", "hf-tsvm", "hf-gbtsvm",
                            "ef-tsvm", "ef-gbtsvm"]

    def test_compare_emits_rank_statistics(self, tmp_path):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        for i in range(3):
            write_csv(generate_ndc(90, 2, 2, 4.0, seed=30 + i),
                      data_dir / f"d{i}.csv")
        out = tmp_path / "compare.json"
        assert run("compare", "--data-dir", data_dir, "--seed", 6,
                   "--variants", "tsvm,gbtsvm,ef-gbtsvm", "--out", out) == 0
        report = read_report(out)
        assert np.asarray(report["accuracy_matrix"]).shape == (3, 3)
        assert len(report["avg_ranks"]) == 3
        assert "friedman" in report
        # Demsar's q_0.05 for 3 models, not the 8-model 3.031
        assert report["nemenyi_cd"] == pytest.approx(nemenyi_cd(3, 3, 2.343), abs=1e-12)
        assert "q-alpha" not in report["run_config"]

    def test_scale_bench_smoke(self, tmp_path):
        out = tmp_path / "bench.json"
        csv_out = tmp_path / "bench.csv"
        assert run("scale-bench", "--sizes", "200,400", "--m", 2, "--seed", 8,
                   "--variant", "gbtsvm", "--repeats", 1,
                   "--out", out, "--csv", csv_out) == 0
        report = read_report(out)
        assert set(report["tables"]) == {"gbtsvm", "tsvm"}
        assert [r["n"] for r in report["tables"]["gbtsvm"]] == [200, 400]
        assert csv_out.read_text().startswith("variant,n,k,fit_seconds")

    def test_reports_embed_run_config(self, tmp_path, blob_csv):
        out = tmp_path / "noise.csv"
        run("noise-sweep", "--data", blob_csv, "--seed", 4,
            "--variant", "tsvm", "--out", out)
        report = read_report(f"{out}.report.json")
        rc = report["run_config"]
        assert rc["command"] == "noise-sweep"
        assert rc["variant"] == "tsvm" and rc["seed"] == 4
        assert "config" not in rc


class TestExitCodes:
    @pytest.mark.parametrize("delta", ["1e-20", "1e-30", "1e-300"])
    def test_ridge_factorization_failure_is_numerical_failure(self, tmp_path, capsys, delta):
        # three identical positive rows leave the near Gram singular at a tiny ridge
        data = tmp_path / "dup.csv"
        data.write_text("0.2,0.2,1\n" * 3 + "0.9,0.1,-1\n0.1,0.9,-1\n0.0,0.0,-1\n")
        model = tmp_path / "m.json"
        assert run("train", "--variant", "tsvm", "--delta", delta, "--data", data,
                   "--seed", 1, "--out", model) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("numerical failure: ridge factorization failed")
        assert not model.exists()

    def test_dual_larger_than_memory_is_numerical_failure(
        self, tmp_path, blob_csv, capsys, monkeypatch
    ):
        # the limit is lowered so that no dual fits; nothing large is allocated
        monkeypatch.setattr(qp, "_physical_memory_bytes", lambda: 8)
        model = tmp_path / "m.json"
        assert run("train", "--variant", "tsvm", "--data", blob_csv, "--seed", 1,
                   "--out", model) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("numerical failure: the ")
        assert err[0].endswith("more than the 8 bytes of physical memory")
        assert not model.exists()

    def test_gridsearch_dual_larger_than_memory_is_numerical_failure(
        self, tmp_path, blob_csv, capfd, monkeypatch
    ):
        # no worker fits beside the refused dual, so the fits run in-process
        monkeypatch.setattr(qp, "_physical_memory_bytes", lambda: 8)
        monkeypatch.setattr(qp, "usable_cpus", lambda: 2)
        out = tmp_path / "grid.json"
        assert run("gridsearch", "--data", blob_csv, "--seed", 3, "--variant", "tsvm",
                   "--folds", 3, "--grid-d", "0.1,1", "--out", out) == 3
        err = capfd.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("numerical failure: the ")
        assert err[0].endswith("more than the 8 bytes of physical memory")
        assert not out.exists()

    def test_gridsearch_worker_error_is_numerical_failure(self, tmp_path, blob_csv, capfd,
                                                          monkeypatch):
        # every fit runs in a worker process; its error reaches main, and
        # the workers print nothing of their own
        monkeypatch.setattr(qp, "_ROW_NORM_SQ_MAX", -1.0)
        monkeypatch.setattr(qp, "usable_cpus", lambda: 2)
        out = tmp_path / "grid.json"
        assert run("gridsearch", "--data", blob_csv, "--seed", 3, "--variant", "tsvm",
                   "--folds", 3, "--grid-d", "0.1,1", "--out", out) == 3
        err = capfd.readouterr().err.splitlines()
        assert err == ["numerical failure: Q contains non-finite entries"]
        assert not out.exists()

    def test_bad_boolean_is_usage_error(self, tmp_path, blob_csv, capsys):
        assert run("train", "--variant", "tsvm", "--data", blob_csv, "--seed", 1,
                   "--out", tmp_path / "m.json", "--has-header=maybe") == 1
        assert "cannot parse boolean value 'maybe'" in capsys.readouterr().err

    def test_unreadable_config_is_usage_error(self, tmp_path, blob_csv, capsys):
        assert run("train", "--variant", "tsvm", "--data", blob_csv, "--seed", 1,
                   "--out", tmp_path / "m.json", "--config", tmp_path / "none.cfg") == 1
        assert "usage error: cannot read config file" in capsys.readouterr().err

    def test_config_line_without_equals_is_usage_error(self, tmp_path, blob_csv, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# seeds\nseed 5\n")
        assert run("train", "--variant", "tsvm", "--data", blob_csv,
                   "--out", tmp_path / "m.json", "--config", cfg) == 1
        assert "config line 2 is not 'key = value'" in capsys.readouterr().err

    def test_compare_on_empty_directory_is_data_error(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        out = tmp_path / "compare.json"
        assert run("compare", "--data-dir", empty, "--seed", 1, "--out", out) == 2
        assert capsys.readouterr().err.startswith("data error: no CSV files in")
        assert not out.exists()


class TestNonFiniteFlags:
    @pytest.mark.parametrize("variant, flag, value", [
        ("tsvm", "--d1", "nan"), ("tsvm", "--d1", "inf"), ("tsvm", "--d2", "nan"),
        ("tsvm", "--delta", "inf"), ("tsvm", "--delta", "nan"), ("rvfl", "--ridge", "nan"),
        ("rvfl", "--ridge", "inf"),
    ])
    def test_train_is_usage_error(self, tmp_path, blob_csv, capsys, variant, flag, value):
        model = tmp_path / "m.json"
        assert run("train", "--variant", variant, "--data", blob_csv, "--seed", 1,
                   "--out", model, flag, value) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("usage error: ") and "positive and finite" in err[0]
        assert not model.exists()

    def test_predict_refuses_a_model_with_a_nan_penalty(self, tmp_path, blob_csv, capsys):
        model = tmp_path / "m.json"
        assert run("train", "--variant", "tsvm", "--data", blob_csv, "--seed", 1,
                   "--out", model) == 0
        doc = json.loads(model.read_text())
        doc["config"]["d1"] = float("nan")
        model.write_text(json.dumps(doc))
        feats = tmp_path / "f.csv"
        np.savetxt(feats, generate_ndc(10, 3, 2, 5.0, seed=4).features, delimiter=",")
        out = tmp_path / "y.csv"
        capsys.readouterr()
        assert run("predict", "--model", model, "--data", feats, "--out", out) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("usage error: ")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_gen_ndc_separability_is_usage_error(self, tmp_path, capsys, value):
        out = tmp_path / "d.csv"
        assert run("gen-ndc", "--n", 20, "--m", 3, "--seed", 1, "--separability", value,
                   "--out", out) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["usage error: separability must be non-negative and finite"]
        assert not out.exists()



class TestModelFlagsReachTheConfig:
    def test_train_saves_every_model_flag(self, tmp_path, blob_csv):
        model = tmp_path / "m.json"
        assert run("train", "--variant", "ef-gbtsvm", "--data", blob_csv, "--seed", 2,
                   "--out", model, "--eta", 0.8, "--d1", 0.5, "--d2", 2.0,
                   "--delta", 1e-3, "--hidden", 17, "--activation", 2) == 0
        cfg = json.loads(model.read_text())["config"]
        assert cfg == {"granulate": True, "feature_space": "enhanced", "seed": 2,
                       "d1": 0.5, "d2": 2.0, "delta": 1e-3, "eta": 0.8, "h": 17,
                       "activation": 2}

    def test_gridsearch_keeps_defaults_for_flags_it_does_not_offer(self, tmp_path, blob_csv):
        out = tmp_path / "grid.json"
        assert run("gridsearch", "--variant", "tsvm", "--data", blob_csv, "--seed", 3,
                   "--folds", 3, "--grid-d", "0.5", "--eta", 0.8, "--delta", 1e-3,
                   "--out", out) == 0
        best = read_report(out)["best_config"]
        defaults = {f.name: f.default for f in fields(ModelConfig)}
        assert (best["eta"], best["delta"]) == (0.8, 1e-3)
        assert (best["d1"], best["d2"]) == (0.5, 0.5)  # the grid sets both
        assert (best["h"], best["activation"]) == (defaults["h"], defaults["activation"])
