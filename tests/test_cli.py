import gzip
import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from kanfed import cli, data, numerics
from kanfed.cli import main
from kanfed.config import (
    ExperimentConfig,
    derive_trial_seed,
    dump_config,
    load_config,
)
from kanfed.errors import ConfigurationError
from kanfed.federation import FederationConfig, run_trial
from kanfed.metrics import read_logs, scan_logs, strip_timing, write_logs
from kanfed.models import default_config
from kanfed.numerics import RngStream


class TestConfig:
    def test_defaults_match_experiment_settings(self):
        cfg = ExperimentConfig()
        assert cfg.trials_per_model == 15
        assert cfg.n_rounds == cfg.fed.n_rounds == 100
        assert cfg.lr == cfg.fed.lr == 0.1
        # the rest of the paper's protocol is fixed, not a setting
        assert (data.N_CLIENTS, data.LABELS_PER_CLIENT) == (100, 2)
        assert cfg.fed.clients_per_round_fraction == 0.10
        assert cfg.fed.local_epochs == 5
        assert cfg.fed.batch_size == 64
        assert cfg.fed.client_momentum == 0.9
        assert cfg.fed.server_momentum == 0.9

    def test_dump_load_round_trip(self):
        # a line is a comment only where `#` comes first, so a path may hold one
        cfg = ExperimentConfig(master_seed=7, models=("mlp",), trials_per_model=3,
                               out_dir="runs#2", n_rounds=30)
        assert load_config(dump_config(cfg)) == cfg
        assert load_config("# saved\n  # by hand\n" + dump_config(cfg)) == cfg

    def test_dump_text_pinned(self):
        cfg = ExperimentConfig(models=("rbf_kan", "mlp"), trials_per_model=4, master_seed=9,
                               data_dir="d d", out_dir="o", n_rounds=7, lr=0.05)
        assert dump_config(cfg) == (
            "models = rbf_kan,mlp\n"
            "trials_per_model = 4\n"
            "master_seed = 9\n"
            "data_dir = d d\n"
            "out_dir = o\n"
            "n_rounds = 7\n"
            "lr = 0.05\n"
        )
        assert load_config(dump_config(cfg)) == cfg
        assert cfg.fed == FederationConfig(n_rounds=7, lr=0.05)

    def test_unknown_key_rejected(self):
        # the paper's protocol is fixed, so none of its other values is a key;
        # the server step is its momentum buffer, unscaled: no server lr to set
        for key in ("nonsense", "fed.nonsense", "fed.server_lr", "n_clients",
                    "labels_per_client", "fed.clients_per_round_fraction", "fed.local_epochs",
                    "fed.batch_size", "fed.client_momentum", "fed.server_momentum",
                    "fed.parallel_clients", "fed.n_rounds", "fed.lr"):
            with pytest.raises(ConfigurationError, match=f"^config line 1: unknown key '{key}'$"):
                load_config(f"{key} = 1\n")

    def test_repeated_key_rejected(self):
        # the later value would otherwise win without a word
        with pytest.raises(ConfigurationError, match="config lines 2 and 4 both set lr$"):
            load_config("master_seed = 3\nlr = 0.1\n\nlr = 5\n")

    @pytest.mark.parametrize("line", ["lr = abc", "n_rounds = 1.5", "trials_per_model = ten"])
    def test_bad_value_rejected(self, line):
        key = line.partition(" =")[0]
        with pytest.raises(ConfigurationError, match=f"config line 2: {key} = "):
            load_config(f"master_seed = 3\n{line}\n")

    @pytest.mark.parametrize("line", [
        "lr = nan", "lr = -0.5", "lr = inf", "n_rounds = -3", "n_rounds = 0",
        "trials_per_model = 0",
        "models = ", "models = mlp,mlp", "data_dir = ", "out_dir = ''",
    ])
    def test_nonsense_value_rejected(self, line):
        # n_rounds and lr are checked by the FederationConfig they build
        key = line.partition(" =")[0]
        with pytest.raises(ConfigurationError, match=f"^{key} must be"):
            load_config(f"master_seed = 3\n{line}\n")

    def test_zero_step_and_momentum_allowed(self):
        # lr is a key; the momenta are the protocol's, fixed but still checked
        assert load_config("lr = 0.0\n").fed.lr == 0.0
        fed = FederationConfig(client_momentum=0.0, server_momentum=0.0)
        assert fed.client_momentum == fed.server_momentum == 0.0

    def test_desk_preset(self, capsys):
        # the desk-scale comparison is two flags, not a preset
        assert run_cli("run", "--dump-config", "--trials", "3", "--rounds", "30") == 0
        desk = replace(ExperimentConfig(), trials_per_model=3, n_rounds=30)
        assert capsys.readouterr().out == dump_config(desk)

    @pytest.mark.parametrize("flag,text,key,dumped", [
        ("--models", " mlp , rbf_kan ", "models", "mlp,rbf_kan"),
        ("--trials", "3", "trials_per_model", "3"),
        ("--rounds", "7", "n_rounds", "7"),
        ("--seed", "5", "master_seed", "5"),
        ("--data-dir", "d2", "data_dir", "d2"),
        ("--out-dir", "o2", "out_dir", "o2"),
    ])
    def test_flag_replaces_file_line(self, tmp_path, capsys, flag, text, key, dumped):
        # a flag sets one key; every other key keeps the file's value
        file_cfg = ExperimentConfig(models=("spline_kan",), trials_per_model=4, master_seed=9,
                                    data_dir="d", out_dir="o", n_rounds=2, lr=0.05)
        path = tmp_path / "exp.cfg"
        path.write_text(dump_config(file_cfg))
        assert run_cli("run", "--config", str(path), flag, text, "--dump-config") == 0
        expected = [f"{key} = {dumped}" if line.startswith(f"{key} = ") else line
                    for line in dump_config(file_cfg).splitlines()]
        assert capsys.readouterr().out.splitlines() == expected

    @pytest.mark.parametrize("out_dir", ["'runs'", '"runs"', "runs ", " runs"])
    def test_quotes_and_end_blanks_round_trip(self, capsys, out_dir):
        # the dump quotes such a value, the reader strips one pair of quotes,
        # and a flag's text is read as it is
        cfg = ExperimentConfig(out_dir=out_dir)
        assert load_config(dump_config(cfg)) == cfg
        assert run_cli("run", "--out-dir", out_dir, "--dump-config") == 0
        assert load_config(capsys.readouterr().out) == cfg

    def test_trial_seeds_distinct_and_stable(self):
        s1 = derive_trial_seed(42, "mlp", 0)
        assert s1 == derive_trial_seed(42, "mlp", 0)
        assert s1 != derive_trial_seed(42, "mlp", 1)
        assert s1 != derive_trial_seed(42, "spline_kan", 0)
        assert s1 != derive_trial_seed(43, "mlp", 0)


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def synth_mirror(synth_idx_dir, tmp_path, monkeypatch):
    """A directory of the gzipped synthetic IDX files and nothing else, under
    the MNIST archive names; `data.MNIST_FILES` holds their md5s."""
    mirror = tmp_path / "mirror"
    mirror.mkdir()
    md5s = {}
    for name in data.MNIST_FILES:
        blob = gzip.compress((synth_idx_dir / name.removesuffix(".gz")).read_bytes(), 1)
        (mirror / name).write_bytes(blob)
        md5s[name] = hashlib.md5(blob).hexdigest()
    monkeypatch.setattr(data, "MNIST_FILES", md5s)
    return mirror


class TestRun:
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

    @pytest.mark.parametrize("blas, workers", [(1, 3), ("unpinned", 0)])
    def test_manifest_records_workers_and_blas_threads(self, synth_idx_dir, tmp_path,
                                                       monkeypatch, blas, workers):
        # four usable CPUs: three workers beside the parent, or none where BLAS
        # is unpinned, since its thread count could then differ between them
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        monkeypatch.setattr(numerics, "BLAS_THREADS", blas)
        out_dir = tmp_path / "runs"
        assert run_cli(
            "run", "--models", "mlp", "--trials", "1", "--rounds", "1",
            "--data-dir", str(synth_idx_dir), "--out-dir", str(out_dir),
        ) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert (manifest["workers"], manifest["blas_threads"]) == (workers, blas)

    def test_log_seed_names_the_split(self, synth_idx_dir, tmp_path):
        # the summary seed rebuilds the trial's split; retraining on it
        # reproduces the log
        out_dir = tmp_path / "runs"
        assert run_cli(
            "run", "--models", "mlp", "--trials", "1", "--rounds", "1",
            "--data-dir", str(synth_idx_dir), "--out-dir", str(out_dir), "--seed", "5",
        ) == 0
        log = out_dir / "mlp_trial00.jsonl"
        seed = read_logs(log).seed
        train, test = data.load_mnist(synth_idx_dir)
        parts = data.pathological_partition(train, 100, 2, RngStream(seed))
        fed = FederationConfig(n_rounds=1)
        trial = run_trial(default_config("mlp"), fed, train, test, parts, seed, trial_id="mlp:0")
        write_logs(trial, tmp_path / "again.jsonl")
        assert strip_timing(tmp_path / "again.jsonl") == strip_timing(log)

    def test_rerun_of_removed_log_listed_once(self, synth_idx_dir, tmp_path, capsys):
        out_dir = tmp_path / "runs"
        args = (
            "run", "--models", "mlp", "--trials", "1", "--rounds", "1",
            "--data-dir", str(synth_idx_dir), "--out-dir", str(out_dir), "--seed", "5",
        )
        assert run_cli(*args) == 0
        (out_dir / "mlp_trial00.jsonl").unlink()
        capsys.readouterr()
        assert run_cli(*args) == 0
        assert "done mlp_trial00.jsonl" in capsys.readouterr().out  # retrained, not skipped
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["completed"] == ["mlp_trial00.jsonl"]

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
        assert "other settings (n_rounds)" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before

    def test_resume_with_other_spellings_of_the_dirs(self, synth_idx_dir, tmp_path,
                                                    monkeypatch, capsys):
        out_dir = tmp_path / "runs"
        args = ("run", "--models", "mlp", "--trials", "2", "--rounds", "1", "--seed", "5")
        assert run_cli(*args, "--data-dir", str(synth_idx_dir), "--out-dir", str(out_dir)) == 0
        before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        monkeypatch.chdir(tmp_path)
        for data_dir, out in ((str(synth_idx_dir), "runs/."),
                              (f"{synth_idx_dir}/../{synth_idx_dir.name}", "./runs"),
                              (str(synth_idx_dir), str(out_dir) + "/")):
            capsys.readouterr()
            assert run_cli(*args, "--data-dir", data_dir, "--out-dir", out) == 0
            assert capsys.readouterr().out.splitlines() == [
                "skip mlp_trial00.jsonl (already complete)",
                "skip mlp_trial01.jsonl (already complete)",
            ]
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before

    def test_resume_with_a_copy_of_the_data_refused(self, synth_idx_dir, tmp_path, capsys):
        out_dir = tmp_path / "runs"
        args = ("run", "--models", "mlp", "--trials", "1", "--rounds", "1",
                "--out-dir", str(out_dir), "--seed", "5")
        assert run_cli(*args, "--data-dir", str(synth_idx_dir)) == 0
        copy = shutil.copytree(synth_idx_dir, tmp_path / "copy")
        capsys.readouterr()
        assert run_cli(*args, "--data-dir", str(copy)) == 1
        assert "other settings (data_dir)" in capsys.readouterr().err

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

    @pytest.mark.parametrize("text", ['{"completed": [', '[]', '{"completed": [], "config": 5}',
                                      '\xff{"completed": []}'])
    def test_corrupt_manifest_exit_2(self, synth_idx_dir, tmp_path, capsys, text):
        out_dir = tmp_path / "runs"
        out_dir.mkdir()
        # in Latin-1, "\xff" is one byte that is not UTF-8
        (out_dir / "manifest.json").write_text(text, encoding="latin-1")
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

    def test_archives_only_data_dir_exit_2(self, synth_mirror, tmp_path, capsys):
        code = run_cli(
            "run", "--models", "mlp", "--trials", "1", "--rounds", "1",
            "--data-dir", str(synth_mirror), "--out-dir", str(tmp_path / "runs"),
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("data error:")
        assert f"kanfed fetch-data --data-dir {synth_mirror}" in err

    def test_empty_test_split_exit_2(self, synth_idx_dir, tmp_path, capsys):
        data_dir = tmp_path / "mnist"
        data_dir.mkdir()
        for name in ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"):
            (data_dir / name).write_bytes((synth_idx_dir / name).read_bytes())
        (data_dir / "t10k-images-idx3-ubyte").write_bytes(struct.pack(">IIII", 0x803, 0, 28, 28))
        (data_dir / "t10k-labels-idx1-ubyte").write_bytes(struct.pack(">II", 0x801, 0))
        out_dir = tmp_path / "runs"
        code = run_cli(
            "run", "--models", "mlp", "--trials", "1", "--rounds", "1",
            "--data-dir", str(data_dir), "--out-dir", str(out_dir),
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("data error:") and "t10k-images-idx3-ubyte: holds no images" in err
        assert not out_dir.exists()  # refused before any trial ran

    def test_non_28x28_images_exit_2(self, tmp_path, capsys):
        # 32x32 sets big enough to partition, so only the image size is wrong
        data_dir = tmp_path / "mnist"
        data_dir.mkdir()
        for n, split in ((6000, "train"), (1000, "t10k")):
            (data_dir / f"{split}-images-idx3-ubyte").write_bytes(
                struct.pack(">IIII", 0x803, n, 32, 32) + bytes(n * 32 * 32))
            (data_dir / f"{split}-labels-idx1-ubyte").write_bytes(
                struct.pack(">II", 0x801, n) + bytes(i % 10 for i in range(n)))
        out_dir = tmp_path / "runs"
        code = run_cli(
            "run", "--models", "mlp", "--trials", "1", "--rounds", "1",
            "--data-dir", str(data_dir), "--out-dir", str(out_dir),
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("data error:") and "train-images-idx3-ubyte: images are 32x32" in err
        assert not out_dir.exists()  # refused before any partition ran

    @pytest.mark.parametrize("dump", [False, True])
    def test_bad_config_value_exit_1(self, tmp_path, capsys, dump):
        path = tmp_path / "exp.cfg"
        path.write_text("lr = abc\n")
        assert run_cli("run", "--config", str(path), *(["--dump-config"] * dump)) == 1
        assert "usage error: config line 1: lr = 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("dump", [False, True])
    def test_nonsense_config_value_exit_1(self, tmp_path, capsys, dump):
        path = tmp_path / "exp.cfg"
        path.write_text("lr = nan\n")
        assert run_cli("run", "--config", str(path), *(["--dump-config"] * dump)) == 1
        assert "usage error: lr must be finite and >= 0, got nan" in capsys.readouterr().err

    @pytest.mark.parametrize("dump", [False, True])
    def test_unrunnable_config_value_exit_1(self, tmp_path, capsys, dump):
        path = tmp_path / "exp.cfg"
        path.write_text("models = mlp,cnn\n")
        assert run_cli("run", "--config", str(path), *(["--dump-config"] * dump)) == 1
        assert "usage error: unknown model kind 'cnn'" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["none.cfg", "a-dir", "latin1.cfg"])
    def test_unreadable_config_file_exit_1(self, tmp_path, capsys, name):
        # a file that is missing, a directory or not UTF-8 is named, with no traceback
        (tmp_path / "a-dir").mkdir()
        (tmp_path / "latin1.cfg").write_bytes("out_dir = caf\u00e9\n".encode("latin-1"))
        path = tmp_path / name
        assert run_cli("run", "--config", str(path), "--dump-config") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: config file {path}: ") and "Traceback" not in err

    @pytest.mark.parametrize("flag", [("--trials", "trials_per_model"),
                                      ("--rounds", "n_rounds")])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_nonpositive_flag_exit_1(self, capsys, flag, value):
        # a zero flag is applied and refused, not dropped as if it were absent
        assert run_cli("run", "--dump-config", flag[0], value) == 1
        assert f"usage error: {flag[1]} must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,key", [("--trials", "trials_per_model"),
                                          ("--rounds", "n_rounds"), ("--seed", "master_seed")])
    def test_bad_flag_value_exit_1(self, capsys, flag, key):
        # a flag's text is read as a config line's value is, and named by its key
        assert run_cli("run", "--dump-config", flag, "x") == 1
        assert f"usage error: {key} = 'x' is not a valid int" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--data-dir", "--out-dir"])
    def test_empty_dir_flag_exit_1(self, capsys, flag):
        # an empty path is applied and refused, not dropped as if it were absent
        assert run_cli("run", "--dump-config", flag, "") == 1
        name = flag[2:].replace("-", "_")
        assert f"usage error: {name} must be a path, got an empty one" in capsys.readouterr().err

    def test_empty_models_flag_exit_1(self, capsys):
        # an empty list is applied and refused, not dropped as if it were absent
        assert run_cli("run", "--dump-config", "--models", "") == 1
        assert "usage error: models must be" in capsys.readouterr().err

    def test_partition_subcommand_gone_exit_1(self, capsys):
        with pytest.raises(SystemExit) as e:
            run_cli("partition")
        assert e.value.code == 1
        assert "invalid choice: 'partition'" in capsys.readouterr().err

    def test_env_does_not_set_directories(self, monkeypatch, capsys):
        # a directory comes from its flag, then the config file, then the default
        monkeypatch.setenv("KANFED_DATA_DIR", "env-data")
        monkeypatch.setenv("KANFED_OUT_DIR", "env-runs")
        assert run_cli("run", "--dump-config") == 0
        assert capsys.readouterr().out == dump_config(ExperimentConfig())


SRC = Path(__file__).resolve().parent.parent / "src"
# `kanfed run ARGS` in a new process; with "1" first, on one usable CPU
RUN_IN_CHILD = """import os, sys
if sys.argv[1] == "1":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from kanfed.cli import main
sys.exit(main(["run"] + sys.argv[2:]))
"""


CHILD_MODELS = ("mlp", "rbf_kan")


@pytest.fixture(scope="module")
def child_runs(synth_idx_dir, tmp_path_factory):
    """One short trial of each of `CHILD_MODELS`, run by three new processes:
    OPENBLAS_NUM_THREADS 1 and 2 on every usable CPU, and 2 on one CPU. Each
    gives its logs, timing stripped, and its manifest. A log is JSON text,
    since the RBF-KAN's losses go NaN and NaN equals nothing."""
    out = {}
    for blas, one_cpu in (("1", False), ("2", False), ("2", True)):
        out_dir = tmp_path_factory.mktemp(f"blas{blas}-{'one' if one_cpu else 'all'}")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": blas, "PYTHONPATH": str(SRC)}
        subprocess.run(
            [sys.executable, "-c", RUN_IN_CHILD, "1" if one_cpu else "all",
             "--models", ",".join(CHILD_MODELS), "--trials", "1", "--rounds", "2",
             "--seed", "3", "--data-dir", str(synth_idx_dir), "--out-dir", str(out_dir)],
            env=env, check=True, timeout=300,
        )
        logs = {kind: json.dumps(strip_timing(out_dir / f"{kind}_trial00.jsonl"))
                for kind in CHILD_MODELS}
        out[blas, one_cpu] = (logs, json.loads((out_dir / "manifest.json").read_text()))
    return out


def test_logs_independent_of_blas_thread_env(child_runs):
    # kanfed sets BLAS to one thread itself; OpenBLAS splits a product
    # differently on 1 and on 2 threads, so without that these logs differ
    one, two = child_runs["1", False], child_runs["2", False]
    assert one[0] == two[0]
    assert one[1]["blas_threads"] == two[1]["blas_threads"] == 1


def test_logs_independent_of_worker_count(child_runs):
    (all_log, all_manifest), (one_log, one_manifest) = child_runs["2", False], child_runs["2", True]
    assert one_log == all_log
    assert one_manifest["workers"] == 0
    assert all_manifest["workers"] == min(len(os.sched_getaffinity(0)), 10) - 1


@pytest.mark.parametrize("argv", [
    ("fetch-data", "--out-dir", "d"),
    ("fetch-data", "--seed", "3"),
    ("report", "--data-dir", "x"),
    ("report", "--out-dir", "x"),
    ("run", "--parallel-clients", "1"),
    ("run", "--preset", "desk"),
])
def test_flag_the_subcommand_ignores_exit_1(tmp_path, capsys, argv):
    # each subcommand declares only the shared flags it reads, so one it
    # would drop without a word is a usage error; `run` declares none that
    # is gone: a round's clients train on every usable CPU, with no count to
    # set, and the desk-scale comparison is two flags, not a preset
    command, flag, value = argv
    rest = {"fetch-data": ["--data-dir", str(tmp_path / "data"),
                           "--mirror", (tmp_path / "none").as_uri()],
            "report": [str(tmp_path / "logs")],
            "run": ["--dump-config"]}[command]
    with pytest.raises(SystemExit) as e:
        run_cli(command, *rest, flag, value)
    assert e.value.code == 1
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


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

    def test_report_on_a_file_exit_3(self, tmp_path, capsys):
        log = tmp_path / "mlp_trial00.jsonl"
        log.write_text("")
        assert run_cli("report", str(log)) == 3
        assert capsys.readouterr().err == f"error: {log} is not a directory\n"

    def test_empty_log_dir_exit_1(self, tmp_path, monkeypatch, capsys):
        # an empty LOG_DIR is refused, not taken for the config's out_dir
        monkeypatch.chdir(tmp_path)
        assert run_cli("report", "") == 1
        assert "usage error: LOG_DIR must be a path, got an empty one" in capsys.readouterr().err


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

    def test_unpacks_raw_files_once(self, synth_idx_dir, synth_mirror, tmp_path):
        data_dir = tmp_path / "data"
        argv = ("fetch-data", "--data-dir", str(data_dir), "--mirror", synth_mirror.as_uri())
        assert run_cli(*argv) == 0
        raw = [name.removesuffix(".gz") for name in data.MNIST_FILES]
        for name in raw:
            assert (data_dir / name).read_bytes() == (synth_idx_dir / name).read_bytes()
        train, test = data.load_mnist(data_dir)
        assert len(train) == 6000 and len(test) == 1000
        before = {name: (data_dir / name).stat() for name in raw}
        shutil.rmtree(synth_mirror)  # the archives' checksums match, so nothing is downloaded
        assert run_cli(*argv) == 0
        for name in raw:
            st = (data_dir / name).stat()
            assert (st.st_ino, st.st_mtime_ns) == (before[name].st_ino, before[name].st_mtime_ns)

    def test_unreachable_mirror_exit_2(self, tmp_path, capsys):
        mirror = (tmp_path / "nonexistent").as_uri()
        code = run_cli("fetch-data", "--data-dir", str(tmp_path / "data"), "--mirror", mirror)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("data error:") and mirror in err
