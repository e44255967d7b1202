import gzip
import json

import pytest

from kanfed import cli
from kanfed.cli import main
from kanfed.config import (
    ExperimentConfig,
    derive_trial_seed,
    desk_preset,
    dump_config,
    load_config,
)
from kanfed.errors import ConfigurationError
from kanfed.federation import FederationConfig
from kanfed.metrics import read_logs, scan_logs, strip_timing


class TestConfig:
    def test_defaults_match_experiment_settings(self):
        cfg = ExperimentConfig()
        assert cfg.trials_per_model == 15
        assert cfg.n_clients == 100
        assert cfg.labels_per_client == 2
        assert cfg.fed.n_rounds == 100
        assert cfg.fed.clients_per_round_fraction == 0.10
        assert cfg.fed.local_epochs == 5
        assert cfg.fed.batch_size == 64
        assert cfg.fed.lr == 0.1
        assert cfg.fed.client_momentum == 0.9
        assert cfg.fed.server_momentum == 0.9

    def test_dump_load_round_trip(self):
        cfg = desk_preset(ExperimentConfig(master_seed=7, models=("mlp",)))
        assert load_config(dump_config(cfg)) == cfg

    def test_dump_text_pinned(self):
        fed = FederationConfig(n_rounds=7, clients_per_round_fraction=0.25, local_epochs=2,
                               batch_size=32, lr=0.05, client_momentum=0.5,
                               server_momentum=0.8, server_lr=0.7, parallel_clients=2)
        cfg = ExperimentConfig(models=("rbf_kan", "mlp"), trials_per_model=4, master_seed=9,
                               data_dir="d d", out_dir="o", n_clients=50,
                               labels_per_client=3, fed=fed)
        assert dump_config(cfg) == (
            "models = rbf_kan,mlp\n"
            "trials_per_model = 4\n"
            "master_seed = 9\n"
            "data_dir = d d\n"
            "out_dir = o\n"
            "n_clients = 50\n"
            "labels_per_client = 3\n"
            "fed.n_rounds = 7\n"
            "fed.clients_per_round_fraction = 0.25\n"
            "fed.local_epochs = 2\n"
            "fed.batch_size = 32\n"
            "fed.lr = 0.05\n"
            "fed.client_momentum = 0.5\n"
            "fed.server_momentum = 0.8\n"
            "fed.server_lr = 0.7\n"
            "fed.parallel_clients = 2\n"
        )
        assert load_config(dump_config(cfg)) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError):
            load_config("nonsense = 1\n")
        with pytest.raises(ConfigurationError):
            load_config("fed.nonsense = 1\n")

    def test_repeated_key_rejected(self):
        # the later value would otherwise win without a word
        with pytest.raises(ConfigurationError, match="config lines 2 and 4 both set fed.lr$"):
            load_config("master_seed = 3\nfed.lr = 0.1\n\nfed.lr = 5\n")

    @pytest.mark.parametrize("line", ["fed.lr = abc", "fed.n_rounds = 1.5", "n_clients = ten"])
    def test_bad_value_rejected(self, line):
        key = line.partition(" =")[0]
        with pytest.raises(ConfigurationError, match=f"config line 2: {key} = "):
            load_config(f"master_seed = 3\n{line}\n")

    @pytest.mark.parametrize("line", [
        "fed.lr = nan", "fed.lr = -0.5", "fed.server_lr = -1", "fed.server_lr = inf",
        "fed.client_momentum = inf", "fed.client_momentum = 1.0",
        "fed.server_momentum = -0.1", "fed.server_momentum = nan",
        "n_clients = -3", "n_clients = 0",
        "labels_per_client = 0", "labels_per_client = 11",
        "fed.parallel_clients = 0", "fed.parallel_clients = -2",
        "models = ", "models = mlp,mlp",
    ])
    def test_nonsense_value_rejected(self, line):
        key = line.partition(" =")[0].removeprefix("fed.")
        with pytest.raises(ConfigurationError, match=f"^{key} must be"):
            load_config(f"master_seed = 3\n{line}\n")

    def test_labels_per_client_bounds_allowed(self):
        # 1 and 10 (every label) are the ends of the range the partitioner deals
        for k in (1, 10):
            assert load_config(f"labels_per_client = {k}\n").labels_per_client == k

    def test_zero_step_and_momentum_allowed(self):
        cfg = load_config("fed.lr = 0.0\nfed.server_lr = 0\nfed.client_momentum = 0\n")
        assert cfg.fed.lr == cfg.fed.server_lr == cfg.fed.client_momentum == 0.0

    def test_desk_preset(self):
        cfg = desk_preset(ExperimentConfig())
        assert cfg.trials_per_model == 3
        assert cfg.fed.n_rounds == 30
        assert cfg.fed.lr == 0.1  # other settings untouched

    def test_trial_seeds_distinct_and_stable(self):
        s1 = derive_trial_seed(42, "mlp", 0)
        assert s1 == derive_trial_seed(42, "mlp", 0)
        assert s1 != derive_trial_seed(42, "mlp", 1)
        assert s1 != derive_trial_seed(42, "spline_kan", 0)
        assert s1 != derive_trial_seed(43, "mlp", 0)


def run_cli(*argv):
    return main(list(argv))


class TestRun:
    def test_dump_config_defaults(self, capsys):
        assert run_cli("run", "--dump-config", "--preset", "desk") == 0
        out = capsys.readouterr().out
        assert "fed.lr = 0.1" in out
        assert "fed.n_rounds = 30" in out
        assert "trials_per_model = 3" in out

    def test_smoke_and_resume(self, synth_idx_dir, tmp_path, capsys):
        out_dir = tmp_path / "runs"
        args = (
            "run", "--models", "mlp", "--trials", "1", "--rounds", "2",
            "--data-dir", str(synth_idx_dir), "--out-dir", str(out_dir), "--seed", "5",
        )
        assert run_cli(*args) == 0
        log = out_dir / "mlp_trial00.jsonl"
        trial = read_logs(log)
        assert len(trial.records) == 2
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert "mlp_trial00.jsonl" in manifest["completed"]
        before = log.read_bytes()
        capsys.readouterr()
        assert run_cli(*args) == 0
        assert "skip" in capsys.readouterr().out
        assert log.read_bytes() == before

    def test_resume_with_other_settings_refused(self, synth_idx_dir, tmp_path, capsys):
        out_dir = tmp_path / "runs"
        args = (
            "run", "--models", "mlp", "--trials", "1",
            "--data-dir", str(synth_idx_dir), "--out-dir", str(out_dir), "--seed", "5",
        )
        assert run_cli(*args, "--rounds", "1") == 0
        before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        capsys.readouterr()
        assert run_cli(*args, "--rounds", "2") == 1
        assert "fed.n_rounds" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before

    def test_failed_log_write_leaves_no_partial_log(self, synth_idx_dir, tmp_path, monkeypatch):
        out_dir = tmp_path / "runs"
        run_trial = cli.run_trial

        def unserializable_second_trial(*args, trial_id, **kwargs):
            trial = run_trial(*args, trial_id=trial_id, **kwargs)
            if trial_id.endswith(":1"):
                trial.records[-1].sampled_clients = [object()]  # json.dumps fails here
            return trial

        monkeypatch.setattr(cli, "run_trial", unserializable_second_trial)
        with pytest.raises(TypeError):
            run_cli(
                "run", "--models", "mlp", "--trials", "2", "--rounds", "2",
                "--data-dir", str(synth_idx_dir), "--out-dir", str(out_dir),
            )
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["completed"] == ["mlp_trial00.jsonl"]
        assert [t.trial_id for t in scan_logs(out_dir)["mlp"]] == ["mlp:0"]
        assert sorted(p.name for p in out_dir.iterdir()) == ["manifest.json", "mlp_trial00.jsonl"]

    @pytest.mark.parametrize("text", ['{"completed": [', '[]'])
    def test_corrupt_manifest_exit_2(self, synth_idx_dir, tmp_path, capsys, text):
        out_dir = tmp_path / "runs"
        out_dir.mkdir()
        (out_dir / "manifest.json").write_text(text)
        code = run_cli(
            "run", "--models", "mlp", "--trials", "1", "--rounds", "1",
            "--data-dir", str(synth_idx_dir), "--out-dir", str(out_dir),
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("data error:") and "manifest.json" in err
        assert sorted(p.name for p in out_dir.iterdir()) == ["manifest.json"]

    def test_missing_data_dir_exit_2(self, tmp_path):
        code = run_cli(
            "run", "--models", "mlp", "--trials", "1", "--rounds", "1",
            "--data-dir", str(tmp_path / "none"), "--out-dir", str(tmp_path / "o"),
        )
        assert code == 2

    @pytest.mark.parametrize("dump", [False, True])
    def test_bad_config_value_exit_1(self, tmp_path, capsys, dump):
        path = tmp_path / "exp.cfg"
        path.write_text("fed.lr = abc\n")
        assert run_cli("run", "--config", str(path), *(["--dump-config"] * dump)) == 1
        assert "usage error: config line 1: fed.lr = 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("dump", [False, True])
    def test_nonsense_config_value_exit_1(self, tmp_path, capsys, dump):
        path = tmp_path / "exp.cfg"
        path.write_text("fed.lr = nan\n")
        assert run_cli("run", "--config", str(path), *(["--dump-config"] * dump)) == 1
        assert "usage error: lr must be finite and >= 0, got nan" in capsys.readouterr().err

    @pytest.mark.parametrize("dump", [False, True])
    def test_unrunnable_config_value_exit_1(self, tmp_path, capsys, dump):
        path = tmp_path / "exp.cfg"
        path.write_text("labels_per_client = 11\n")
        assert run_cli("run", "--config", str(path), *(["--dump-config"] * dump)) == 1
        assert ("usage error: labels_per_client must be in [1, 10], got 11"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("flag", [("--parallel-clients", "parallel_clients"),
                                      ("--trials", "trials_per_model"),
                                      ("--rounds", "n_rounds")])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_nonpositive_flag_exit_1(self, capsys, flag, value):
        # a zero flag is applied and refused, not dropped as if it were absent
        assert run_cli("run", "--dump-config", flag[0], value) == 1
        assert f"usage error: {flag[1]} must be positive" in capsys.readouterr().err

    def test_empty_models_flag_exit_1(self, capsys):
        # an empty list is applied and refused, not dropped as if it were absent
        assert run_cli("run", "--dump-config", "--models", "") == 1
        assert "usage error: models must be" in capsys.readouterr().err

    def test_usage_error_exit_1(self):
        with pytest.raises(SystemExit) as e:
            run_cli("run", "--preset", "bogus")
        assert e.value.code == 1


class TestPartition:
    def test_partition_outputs(self, synth_idx_dir, tmp_path, capsys):
        out_dir = tmp_path / "p"
        assert run_cli(
            "partition", "--data-dir", str(synth_idx_dir), "--out-dir", str(out_dir)
        ) == 0
        assert (out_dir / "partition.csv").exists()
        assert (out_dir / "partition.json").exists()
        out = capsys.readouterr().out
        assert "mean=60.0" in out  # 6,000 samples over 100 clients


class TestReport:
    def test_report_from_logs(self, synth_idx_dir, tmp_path, capsys):
        out_dir = tmp_path / "runs"
        assert run_cli(
            "run", "--models", "mlp,spline_kan", "--trials", "2", "--rounds", "2",
            "--data-dir", str(synth_idx_dir), "--out-dir", str(out_dir), "--seed", "9",
        ) == 0
        capsys.readouterr()
        assert run_cli("report", str(out_dir)) == 0
        out = capsys.readouterr().out
        assert "Test accuracy" in out
        assert (out_dir / "report" / "accuracy_by_round.csv").exists()

    def test_report_missing_dir_exit_3(self, tmp_path):
        assert run_cli("report", str(tmp_path / "nope")) == 3


class TestFetchData:
    def test_checksum_rejected(self, tmp_path):
        mirror = tmp_path / "mirror"
        mirror.mkdir()
        for name in [
            "train-images-idx3-ubyte.gz",
            "train-labels-idx1-ubyte.gz",
            "t10k-images-idx3-ubyte.gz",
            "t10k-labels-idx1-ubyte.gz",
        ]:
            (mirror / name).write_bytes(gzip.compress(b"not mnist"))
        code = run_cli(
            "fetch-data", "--data-dir", str(tmp_path / "data"),
            "--mirror", mirror.as_uri(),
        )
        assert code == 2
