import dataclasses
import json
import os
import re
import subprocess
import sys

import pytest

import fsstgnn
import fsstgnn.neural
from fsstgnn import cli, filtering, pipeline
from fsstgnn.data import synthesize_dataset
from fsstgnn.filtering import FilterConfig, filter_windows
from fsstgnn.linalg import TimeSeriesPanel
from fsstgnn.pipeline import ExperimentConfig

# A non-default value for every config field, as text and as parsed.
SAMPLES = {
    "model": ("lstm", "lstm"),
    "graph_kind": ("ones", "ones"),
    "method": ("glasso", "glasso"),
    "alpha": ("0.25", 0.25),
    "lam": ("0.2", 0.2),
    "max_clique": ("5", 5),
    "mfcf_gain_threshold": ("0.01", 0.01),
    "cv_folds": ("3", 3),
    "lookback": ("7", 7),
    "train_fraction": ("0.7", 0.7),
    "seeds": ("3,5", (3, 5)),
    "lstm_hidden": ("8", 8),
    "embed_dim": ("5", 5),
    "gat_heads": ("2", 2),
    "mlp_hidden": ("6", 6),
    "activation": ("relu", "relu"),
    "learning_rate": ("0.01", 0.01),
    "epochs": ("7", 7),
    "patience": ("3", 3),
    "batch_size": ("16", 16),
    "val_fraction": ("0.2", 0.2),
    "use_differences": ("yes", True),
}
# Flags and config-file keys not named after their field.
FLAGS = {"graph_kind": "--graph", "method": "--filter", "lam": "--lambda",
         "mfcf_gain_threshold": "--threshold"}
FILE_KEYS = {"method": "filter_method", "lam": "lambda"}
CONFIG_FIELDS = ([(ExperimentConfig, f) for f in dataclasses.fields(ExperimentConfig)
                  if f.name != "filter"]
                 + [(FilterConfig, f) for f in dataclasses.fields(FilterConfig)])


def evaluate_with_checkpoint(tmp_path, body):
    csv = tmp_path / "sales.csv"
    assert cli.main(["gen-data", "--stores", "4", "--items", "1", "--days", "60",
                     "--out", str(csv)]) == 0
    ckpt = tmp_path / "ckpt"
    ckpt.mkdir()
    (ckpt / "item1_seed0.ckpt").write_text("fsstgnn-checkpoint 2 0123456789ab\n1\n" + body)
    return cli.main(["evaluate", "--input", str(csv), "--checkpoints", str(ckpt),
                     "--model", "lstm", "--seeds", "0"])


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    csv = tmp_path_factory.mktemp("data") / "sales.csv"
    assert cli.main(["gen-data", "--stores", "4", "--items", "1", "--days", "80",
                     "--out", str(csv)]) == 0
    return csv


@pytest.mark.parametrize("command", ["gen-data", "filter", "train", "evaluate", "sweep"])
def test_every_command_prints_its_help(command, capsys):
    # the help formatter %-formats every help string, so a stray % in one would crash here
    with pytest.raises(SystemExit) as stop:
        cli.main([command, "--help"])
    assert stop.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: fsstgnn {command}")


class TestExitCodes:
    @pytest.mark.parametrize("flags, config_text", [
        *[pytest.param([flag, value], None, id=f"{flag} {value}") for flag, value in [
            ("--lstm-hidden", "0"), ("--lstm-hidden", "-2"), ("--embed-dim", "0"),
            ("--gat-heads", "0"), ("--mlp-hidden", "0"), ("--learning-rate", "0"),
            ("--learning-rate", "-1"), ("--learning-rate", "nan"), ("--learning-rate", "inf"),
        ]],
        pytest.param([], "activation = sigmoid\n", id="activation = sigmoid"),
    ])
    def test_invalid_model_setting_is_a_usage_error(self, small_csv, tmp_path, capsys,
                                                    flags, config_text):
        argv = ["train", "--input", str(small_csv), "--seeds", "0", "--epochs", "1", *flags]
        if config_text is not None:
            path = tmp_path / "run.cfg"
            path.write_text(config_text)
            argv += ["--config", str(path)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("flags", [["--method", "mfcf", "--threshold", "nan"],
                                       ["--method", "glasso", "--lambda", "nan"]],
                             ids=["threshold nan", "lambda nan"])
    def test_nan_filter_parameter_is_a_usage_error(self, small_csv, tmp_path, capsys, flags):
        argv = ["filter", "--input", str(small_csv), "--item", "1", "--out", str(tmp_path / "w"), *flags]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err and "nan" in err
        assert not list(tmp_path.iterdir())

    def test_differences_of_two_rows_are_a_usage_error(self, tmp_path, capsys):
        # refused before the input is read: the file does not exist
        argv = ["train", "--input", str(tmp_path / "missing.csv"), "--use-differences",
                "--lookback", "2"]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: use_differences needs lookback >= 3") and "Traceback" not in err

    def test_glasso_that_does_not_converge_is_a_numeric_error(self, small_csv, tmp_path, capsys,
                                                              monkeypatch):
        monkeypatch.setattr(filtering, "GLASSO_MAX_SWEEPS", 1)
        argv = ["filter", "--input", str(small_csv), "--item", "1", "--method", "glasso",
                "--lambda", "0.1", "--out", str(tmp_path / "w")]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric error: graphical lasso did not converge in 1 sweeps")
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())

    def test_repeated_seed_is_a_usage_error(self, small_csv, capsys):
        argv = ["train", "--input", str(small_csv), "--model", "lstm", "--seeds", "1,2,1",
                "--epochs", "1"]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: seeds must be distinct; 1") and "Traceback" not in err

    def test_negative_seed_is_a_usage_error(self, small_csv, capsys):
        argv = ["train", "--input", str(small_csv), "--model", "lstm", "--seeds", "-1", "--epochs", "1"]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: seeds must be >= 0, got -1") and "Traceback" not in err

    @pytest.mark.parametrize("flags", [["--lookback", "200"], ["--lookback", "200", "--model", "lstm"],
                                       ["--lookback", "70"]],
                             ids=["longer than the panel", "lstm", "longer than the training rows"])
    def test_lookback_beyond_the_training_rows_is_a_data_error(self, small_csv, capsys, monkeypatch,
                                                               flags):
        # refused before any window is filtered: 64 of the 80 rows train
        filtered = []
        monkeypatch.setattr(pipeline, "filter_windows", lambda *args: filtered.append(args))
        argv = ["train", "--input", str(small_csv), "--seeds", "0", "--epochs", "1", *flags]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: training segment of 64 rows cannot fit lookback {flags[1]}")
        assert "Traceback" not in err and not filtered

    def test_sweep_whose_segments_do_not_fit_is_a_data_error(self, small_csv, capsys, monkeypatch):
        # no axis changes the look-back or the splits, so this is refused before any value runs
        filtered = []
        monkeypatch.setattr(pipeline, "filter_windows", lambda *args: filtered.append(args))
        argv = ["sweep", "--input", str(small_csv), "--seeds", "0", "--epochs", "1", "--lookback", "70",
                "--axis", "graph-kind", "--values", "ones,correlation"]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and not filtered
        assert err.startswith("data error: training segment of 64 rows cannot fit lookback 70")
        assert "Traceback" not in err

    def test_sweep_row_that_fails_at_run_time_is_marked(self, small_csv, capsys):
        argv = ["sweep", "--input", str(small_csv), *SMALL_RUN, "--seeds", "0", "--max-clique", "5",
                "--axis", "filter-method", "--values", "mfcf,empirical"]
        assert cli.main(argv) == 0
        table = capsys.readouterr().out.splitlines()
        assert "FAILED: need at least max_clique=5 series" in table[3]
        assert "FAILED" not in table[4] and "±" in table[4]

    @pytest.mark.parametrize("fraction, code", [("0.995", 2), ("0.98", 0)])
    def test_validation_that_holds_out_every_training_target_is_a_data_error(
            self, tmp_path, capsys, monkeypatch, fraction, code):
        # 96 of 120 rows train, so lookback 14 leaves 82 training targets: 0.995 holds out
        # all of them and 0.98 all but 2
        csv = tmp_path / "sales.csv"
        assert cli.main(["gen-data", "--stores", "4", "--items", "1", "--days", "120",
                         "--out", str(csv)]) == 0
        capsys.readouterr()
        filtered = []

        def counted(*args):
            filtered.append(args)
            return filter_windows(*args)

        monkeypatch.setattr(pipeline, "filter_windows", counted)
        argv = ["train", "--input", str(csv), *SMALL_RUN, "--lookback", "14", "--seeds", "0",
                "--val-fraction", fraction]
        assert cli.main(argv) == code
        out, err = capsys.readouterr()
        if code:
            assert out == "" and not filtered
            assert err.startswith("data error: val_fraction 0.995 holds out all 82 training targets")
        else:
            assert err == "" and filtered and "nan" not in out.lower()

    @pytest.mark.parametrize("method, parameter", [("glasso", "lambda"), ("shrinkage", "alpha")])
    def test_filter_without_its_parameter_is_a_usage_error(self, small_csv, tmp_path, capsys,
                                                          method, parameter):
        argv = ["filter", "--input", str(small_csv), "--item", "1", "--method", method,
                "--out", str(tmp_path / "w")]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {method} needs {parameter} (--{parameter})")
        assert "Traceback" not in err and not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flag, value, message", [
        ("--seed", "-1", "seed must be >= 0, got -1"),
        ("--noise-scale", "-1", "noise_scale must be >= 0, got -1"),
        # a non-finite level would be cast to a garbage integer sales count
        ("--factor-loading", "nan", "factor_loading must be finite, got nan"),
        ("--noise-scale", "inf", "noise_scale must be finite, got inf"),
    ], ids=["seed -1", "noise-scale -1", "factor-loading nan", "noise-scale inf"])
    def test_invalid_generator_setting_is_a_usage_error(self, tmp_path, capsys, flag, value, message):
        csv = tmp_path / "sales.csv"
        argv = ["gen-data", "--stores", "4", "--items", "1", "--days", "40", "--out", str(csv), flag, value]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and "Traceback" not in err
        assert not csv.exists()

    @pytest.mark.parametrize("run, axis, values, named", [
        ([], "graph-kind", "ones,bogus", "value 'bogus'"),
        ([], "sparsity", "0.01,0.01", "values 0.01 and 0.01"),
        (["--model", "lstm"], "filter-method", "mfcf,empirical", "values 'mfcf' and 'empirical'"),
        (["--model", "lstm"], "graph-kind", "ones,zeros", "values 'ones' and 'zeros'"),
        (["--graph", "ones"], "sparsity", "0.01,0.05", "values 0.01 and 0.05"),
        (["--filter", "empirical"], "sparsity", "0.01", "value 0.01"),
    ], ids=["bogus", "repeated", "lstm-filters", "lstm-graphs", "ones-graph-sparsity", "empirical-sparsity"])
    def test_sweep_value_without_a_config_of_its_own_is_a_usage_error(self, small_csv, capsys, monkeypatch,
                                                                       run, axis, values, named):
        # refused before anything is filtered or trained
        calls = []
        monkeypatch.setattr(pipeline, "filter_windows", lambda *args: calls.append(args))
        monkeypatch.setattr(pipeline, "run_experiment", lambda *args, **kwargs: calls.append(args))
        argv = ["sweep", "--input", str(small_csv), *SMALL_RUN, "--seeds", "0", *run,
                "--axis", axis, "--values", values]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: sweep {named}") and "Traceback" not in err and not calls

    def test_corrupt_checkpoint_is_a_data_error(self, tmp_path, capsys):
        assert evaluate_with_checkpoint(tmp_path, "w 1 x\n1.0\n") == 2
        assert "data error: line 3:" in capsys.readouterr().err

    def test_non_finite_checkpoint_value_is_a_data_error(self, tmp_path, capsys):
        assert evaluate_with_checkpoint(tmp_path, "w 1 1\nnan\n") == 2
        assert "data error: line 4:" in capsys.readouterr().err

    def test_missing_checkpoint_is_an_io_error(self, small_csv, tmp_path, capsys):
        assert cli.main(["evaluate", "--input", str(small_csv), "--checkpoints", str(tmp_path),
                         "--model", "lstm", "--seeds", "0"]) == 2
        assert capsys.readouterr().err.startswith("i/o error: ")


def run_cli(*argv):
    """``python -m fsstgnn`` in a fresh process that imports this source tree."""
    src = os.path.dirname(os.path.dirname(fsstgnn.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "fsstgnn", *argv], env=env, capture_output=True)


SMALL_RUN = ["--lookback", "7", "--epochs", "2", "--lstm-hidden", "4", "--embed-dim", "4",
             "--mlp-hidden", "4"]


class TestCliContracts:
    def test_train_output_is_reproducible_and_evaluate_rescores_it(self, small_csv, tmp_path):
        ckpt, trained, scored = tmp_path / "ckpt", tmp_path / "trained.jsonl", tmp_path / "scored.jsonl"
        train = ["train", "--input", str(small_csv), "--seeds", "0,1", *SMALL_RUN,
                 "--checkpoints", str(ckpt), "--records", str(trained)]
        first = run_cli(*train)
        assert first.returncode == 0, first.stderr
        first_records = trained.read_bytes()
        second = run_cli(*train)
        assert second.returncode == 0, second.stderr
        assert second.stdout == first.stdout
        assert trained.read_bytes() == first_records
        evaluated = run_cli("evaluate", "--input", str(small_csv), "--seeds", "0,1", *SMALL_RUN,
                            "--checkpoints", str(ckpt), "--records", str(scored))
        assert evaluated.returncode == 0, evaluated.stderr
        assert scored.read_bytes() == first_records

    def test_checkpoint_is_scored_only_under_its_config(self, small_csv, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        common = ["--input", str(small_csv), *SMALL_RUN, "--checkpoints", str(ckpt)]
        assert cli.main(["train", *common, "--seeds", "0,1", "--graph", "inverse-correlation"]) == 0
        capsys.readouterr()
        assert cli.main(["evaluate", *common, "--seeds", "0,1", "--graph", "correlation"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint ") and "Traceback" not in err
        assert len(set(re.findall(r"\b[0-9a-f]{12}\b", err))) == 2
        assert cli.main(["evaluate", *common, "--seeds", "1", "--graph", "inverse-correlation"]) == 0

    def test_settings_the_filter_does_not_read_do_not_block_evaluate(self, small_csv, tmp_path, capsys):
        ckpt, trained, scored = tmp_path / "ckpt", tmp_path / "trained.jsonl", tmp_path / "scored.jsonl"
        common = ["--input", str(small_csv), *SMALL_RUN, "--seeds", "0", "--checkpoints", str(ckpt),
                  "--filter", "glasso"]
        assert cli.main(["train", *common, "--lambda", "0.1", "--threshold", "0.05",
                         "--records", str(trained)]) == 0
        assert cli.main(["evaluate", *common, "--lambda", "0.1", "--records", str(scored)]) == 0
        assert scored.read_bytes() == trained.read_bytes()
        capsys.readouterr()
        # a setting glasso reads still guards the checkpoints
        assert cli.main(["evaluate", *common, "--lambda", "0.2"]) == 1
        assert capsys.readouterr().err.startswith("error: checkpoint ")

    @pytest.mark.parametrize("run", [["--model", "lstm"], ["--graph", "ones"]], ids=["lstm", "ones-graph"])
    def test_filter_settings_of_a_run_without_a_filter_do_not_block_evaluate(self, small_csv, tmp_path, run):
        ckpt, trained, scored = tmp_path / "ckpt", tmp_path / "trained.jsonl", tmp_path / "scored.jsonl"
        common = ["--input", str(small_csv), *SMALL_RUN, "--seeds", "0", "--checkpoints", str(ckpt), *run]
        assert cli.main(["train", *common, "--threshold", "0.05", "--records", str(trained)]) == 0
        assert cli.main(["evaluate", *common, "--records", str(scored)]) == 0
        assert scored.read_bytes() == trained.read_bytes()

    @pytest.mark.parametrize("run, labels", [
        (["--model", "lstm", "--filter", "glasso"], ["/", "/"]),
        (["--graph", "ones", "--filter", "shrinkage"], ["ones", "/"]),
        (["--filter", "glasso", "--lambda", "0.1"], ["inverse-correlation", "glasso"]),
    ], ids=["lstm", "ones-graph", "glasso"])
    def test_records_name_the_graph_and_filter_the_table_shows(self, small_csv, tmp_path, capsys,
                                                                run, labels):
        records = tmp_path / "r.jsonl"
        assert cli.main(["train", "--input", str(small_csv), *SMALL_RUN, "--seeds", "0,1", *run,
                         "--records", str(records)]) == 0
        assert capsys.readouterr().out.splitlines()[2].split()[:2] == labels
        written = [json.loads(line) for line in records.read_text().splitlines()]
        assert [[r["graph"], r["filter"]] for r in written] == [labels, labels]

    def test_graph_kind_sweep_labels_the_filter_of_each_row(self, small_csv, capsys):
        common = ["--input", str(small_csv), *SMALL_RUN, "--seeds", "0", "--filter", "mfcf"]
        assert cli.main(["sweep", *common, "--axis", "graph-kind", "--values", "ones,correlation"]) == 0
        table = capsys.readouterr().out.splitlines()
        assert [line.split()[:2] for line in table[3:]] == [["ones", "/"], ["correlation", "mfcf"]]
        # the same label as a train run of that graph alone
        assert cli.main(["train", *common, "--graph", "ones"]) == 0
        assert capsys.readouterr().out.splitlines()[2].split()[:2] == ["ones", "/"]

    @pytest.mark.parametrize("run, axis, values, labels", [
        (["--graph", "ones"], "sparsity", "0.01", [["ones", "/"]]),
        ([], "sparsity", "0.05,0.01", [["inverse-correlation", "mfcf@0.01"],
                                       ["inverse-correlation", "mfcf@0.05"]]),
        (["--model", "lstm"], "filter-method", "glasso", [["/", "/"]]),
        (["--model", "lstm"], "graph-kind", "ones", [["/", "/"]]),
    ], ids=["ones-graph-sparsity", "mfcf-sparsity", "lstm-filter", "lstm-graph"])
    def test_sweep_labels_each_row_from_its_own_config(self, small_csv, tmp_path, capsys,
                                                       run, axis, values, labels):
        records = tmp_path / "r.jsonl"
        assert cli.main(["sweep", "--input", str(small_csv), *SMALL_RUN, "--seeds", "0", *run,
                         "--axis", axis, "--values", values, "--records", str(records)]) == 0
        table = capsys.readouterr().out.splitlines()
        # a sparsity sweep orders its rows by realized sparsity
        assert sorted(line.split()[:2] for line in table[3:-1]) == labels
        # the records carry the labels of a train run, without the sweep value
        written = [json.loads(line) for line in records.read_text().splitlines()]
        assert sorted([r["graph"], r["filter"]] for r in written) == [
            [graph, filt.split("@")[0]] for graph, filt in labels]

    def test_sweep_output_is_reproducible_and_independent_of_jobs(self, small_csv, tmp_path):
        records = tmp_path / "sweep.jsonl"
        argv = ["sweep", "--input", str(small_csv), "--seeds", "0,1", *SMALL_RUN,
                "--axis", "filter-method", "--values", "mfcf,glasso,empirical", "--records", str(records)]
        outputs = []
        for jobs in ("1", "1", "2"):
            done = run_cli(*argv, "--jobs", jobs)
            assert done.returncode == 0, done.stderr
            outputs.append((done.stdout, records.read_bytes()))
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_mape_over_no_terms_is_null(self, tmp_path, capsys):
        dataset = synthesize_dataset(4, 1, 80, seed=0)
        values = dataset.panel(1).values.copy()
        values[64:] = 0.0                       # the whole test segment
        csv, records = tmp_path / "zero.csv", tmp_path / "r.jsonl"
        dataclasses.replace(dataset, panels={1: TimeSeriesPanel(values)}).to_csv(csv)
        assert cli.main(["train", "--input", str(csv), *SMALL_RUN, "--seeds", "0,1",
                         "--records", str(records)]) == 0
        assert capsys.readouterr().out.splitlines()[2].split()[-1] == "n/a"
        written = [json.loads(line) for line in records.read_text().splitlines()]
        assert [(r["mape"], r["mape_excluded"]) for r in written] == [(None, 16 * 4)] * 2


def _flag_and_text(name) -> list:
    flag = FLAGS.get(name, "--" + name.replace("_", "-"))
    text, value = SAMPLES[name]
    return [flag] if value is True else [flag, text]


# Per run, each field that relevant() resets because the run does not read it.
UNREAD = [
    *[(["--model", "lstm"], name) for name in ("graph_kind", "embed_dim", "gat_heads", "activation",
                                               "use_differences", "method", "max_clique")],
    (["--model", "fsst-gcn"], "gat_heads"),
    *[(["--graph", "ones"], name) for name in ("method", "alpha", "lam", "max_clique",
                                               "mfcf_gain_threshold", "cv_folds", "use_differences")],
]


class TestRelevantSettings:
    @pytest.mark.parametrize("run, name", UNREAD, ids=[f"{run[1]}-{name}" for run, name in UNREAD])
    def test_a_setting_the_run_does_not_read_changes_nothing(self, small_csv, tmp_path, run, name):
        ckpt = tmp_path / "ckpt"
        default, changed, scored = (tmp_path / f"{f}.jsonl" for f in ("default", "changed", "scored"))
        common = ["--input", str(small_csv), *SMALL_RUN, "--seeds", "0", *run]
        assert cli.main(["train", *common, "--records", str(default)]) == 0
        assert cli.main(["train", *common, *_flag_and_text(name), "--checkpoints", str(ckpt),
                         "--records", str(changed)]) == 0
        assert changed.read_bytes() == default.read_bytes()
        assert cli.main(["evaluate", *common, "--checkpoints", str(ckpt), "--records", str(scored)]) == 0
        assert scored.read_bytes() == default.read_bytes()

    @pytest.mark.parametrize("run, name", [(["--model", "lstm"], "lstm_hidden"),
                                           (["--model", "fsst-gcn"], "activation"),
                                           (["--model", "fsst-gat"], "gat_heads"),
                                           (["--model", "fsst-gcn"], "use_differences")],
                             ids=["lstm-lstm_hidden", "fsst-gcn-activation", "fsst-gat-gat_heads",
                                  "fsst-gcn-use_differences"])
    def test_a_setting_the_run_reads_still_blocks_evaluate(self, small_csv, tmp_path, capsys, run, name):
        ckpt = tmp_path / "ckpt"
        common = ["--input", str(small_csv), *SMALL_RUN, "--seeds", "0", *run, "--checkpoints", str(ckpt)]
        assert cli.main(["train", *common, *_flag_and_text(name)]) == 0
        capsys.readouterr()
        assert cli.main(["evaluate", *common]) == 1
        assert capsys.readouterr().err.startswith("error: checkpoint ")


class TestExperimentConfig:
    def test_flags_override_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("filter_method = glasso\nlambda = 0.2\nseeds = 3,4\n"
                        "use_differences = yes\nepochs = 7\n")
        args = cli.build_parser().parse_args(
            ["train", "--input", "x.csv", "--config", str(path), "--seeds", "5", "--cv-folds", "3"])
        config = cli.build_experiment_config(args)
        assert config == ExperimentConfig(
            filter=FilterConfig(method="glasso", lam=0.2, cv_folds=3),
            seeds=(5,), use_differences=True, epochs=7,
        )

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("owner, field", CONFIG_FIELDS, ids=[f.name for _, f in CONFIG_FIELDS])
    def test_every_field_is_reachable(self, tmp_path, owner, field, source):
        text, value = SAMPLES[field.name]
        argv = ["train", "--input", "x.csv"]
        if source == "flag":
            argv.append(FLAGS.get(field.name, "--" + field.name.replace("_", "-")))
            if field.type is not bool:
                argv.append(text)
        else:
            path = tmp_path / "run.cfg"
            path.write_text(f"{FILE_KEYS.get(field.name, field.name)} = {text}\n")
            argv += ["--config", str(path)]
        base = ExperimentConfig()
        expected = (dataclasses.replace(base, **{field.name: value}) if owner is ExperimentConfig
                    else dataclasses.replace(base, filter=dataclasses.replace(
                        base.filter, **{field.name: value})))
        assert cli.build_experiment_config(cli.build_parser().parse_args(argv)) == expected


@pytest.mark.parametrize("package", [fsstgnn, fsstgnn.neural], ids=lambda p: p.__name__)
def test_every_export_resolves(package):
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert missing == []
