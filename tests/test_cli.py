from fsstgnn import cli
from fsstgnn.filtering import FilterConfig
from fsstgnn.pipeline import ExperimentConfig


def evaluate_with_checkpoint(tmp_path, body):
    csv = tmp_path / "sales.csv"
    assert cli.main(["gen-data", "--stores", "4", "--items", "1", "--days", "60",
                     "--out", str(csv)]) == 0
    ckpt = tmp_path / "ckpt"
    ckpt.mkdir()
    (ckpt / "item1_seed0.ckpt").write_text("fsstgnn-checkpoint 1\n1\n" + body)
    return cli.main(["evaluate", "--input", str(csv), "--checkpoints", str(ckpt),
                     "--model", "lstm", "--seeds", "0"])


class TestExitCodes:
    def test_corrupt_checkpoint_is_a_data_error(self, tmp_path, capsys):
        assert evaluate_with_checkpoint(tmp_path, "w 1 x\n1.0\n") == 2
        assert "data error: line 3:" in capsys.readouterr().err

    def test_non_finite_checkpoint_value_is_a_data_error(self, tmp_path, capsys):
        assert evaluate_with_checkpoint(tmp_path, "w 1 1\nnan\n") == 2
        assert "data error: line 4:" in capsys.readouterr().err


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
