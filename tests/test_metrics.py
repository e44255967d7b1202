import json
import math
import tracemalloc

import numpy as np
import pytest

from kanfed import cli
from kanfed.data import Dataset, normalize
from kanfed.errors import DataError, ReportError
from kanfed.metrics import (
    RoundRecord,
    TrialSummary,
    evaluate,
    read_logs,
    scan_logs,
    strip_timing,
    write_atomic,
    write_logs,
)
from kanfed.models import (
    ModelConfig,
    ModelState,
    default_config,
    forward,
    init_params,
    param_count,
)
from kanfed.numerics import RngStream

from conftest import make_synth_dataset


def make_trial(trial_id="t0", model="mlp", seed=1, n_rounds=3):
    gen = RngStream(seed).gen
    records = [
        RoundRecord(
            round=r,
            test_acc=float(gen.uniform(0, 1)),
            test_loss=float(gen.uniform(0, 3)),
            train_acc=float(gen.uniform(0, 1)),
            train_loss=float(gen.uniform(0, 3)),
            elapsed_s=float(gen.uniform(0, 10)),
            sampled_clients=[int(c) for c in gen.choice(100, 3, replace=False)],
        )
        for r in range(1, n_rounds + 1)
    ]
    return TrialSummary(trial_id, model, seed, records, total_time_s=12.345678901234567)


class TestEvaluate:
    def test_constant_zero_logit_model(self):
        cfg = ModelConfig(kind="mlp", layer_widths=(4, 3, 10))
        state = ModelState(cfg, np.zeros(param_count(cfg)))
        test = Dataset(
            images=RngStream(1).gen.uniform(-1, 1, (50, 4)),
            labels=np.array([0] * 20 + [5] * 30),
        )
        acc, loss = evaluate(state, test)
        assert acc == 20 / 50  # argmax tie goes to class 0
        assert abs(loss - math.log(10)) < 1e-12

    def test_perfect_model_fixture(self):
        # identity-ish model: one weight row per class picks a distinctive pixel
        cfg = ModelConfig(kind="mlp", layer_widths=(10, 10, 10))
        state = ModelState(cfg, np.zeros(param_count(cfg)))
        state.view("l0.weight")[:] = np.eye(10) * 100.0
        state.view("l1.weight")[:] = np.eye(10)
        labels = np.arange(10)
        images = np.eye(10)
        acc, _ = evaluate(state, Dataset(images=images, labels=labels))
        assert acc == 1.0

    def test_batch_size_invariance(self):
        test = normalize(make_synth_dataset(500, 41))
        state = init_params(ModelConfig(kind="spline_kan", layer_widths=(784, 8, 10)), RngStream(42))
        a = evaluate(state, test, batch_size=64)
        b = evaluate(state, test, batch_size=1000)
        assert a[0] == b[0]
        assert abs(a[1] - b[1]) < 1e-12

    @pytest.mark.parametrize("kind", ["spline_kan", "rbf_kan"])
    def test_holds_one_batch_at_a_time(self, kind):
        # three 512-row batches: evaluate's peak is about one batch's forward,
        # not two, so each batch's cache is freed before the next forward
        test = normalize(make_synth_dataset(1536, 43))
        state = init_params(default_config(kind), RngStream(44))

        def peak_bytes(call):
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_forward = peak_bytes(lambda: forward(state, test.model_inputs[:512]))
        whole = peak_bytes(lambda: evaluate(state, test, batch_size=512))
        assert whole <= 1.25 * one_forward


class TestLogs:
    def test_round_trip(self, tmp_path):
        trial = make_trial()
        path = tmp_path / "t.jsonl"
        write_logs(trial, path)
        back = read_logs(path)
        assert back == trial

    def test_truncated_file_reports_missing_summary(self, tmp_path):
        trial = make_trial()
        path = tmp_path / "t.jsonl"
        write_logs(trial, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(DataError, match="summary"):
            read_logs(path)

    def test_malformed_line_number(self, tmp_path):
        trial = make_trial()
        path = tmp_path / "t.jsonl"
        write_logs(trial, path)
        lines = path.read_text().splitlines()
        lines[1] = "{not json"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="line 2"):
            read_logs(path)

    @pytest.mark.parametrize("lineno, corrupt, message", [
        (2, lambda obj: {k: v for k, v in obj.items() if k != "test_acc"}, "line 2 lacks test_acc"),
        (2, lambda obj: list(obj), "line 2 is not a JSON object"),
        (4, lambda obj: {k: v for k, v in obj.items() if k != "n_rounds"}, "line 4 lacks n_rounds"),
    ], ids=["round_lacks_field", "not_an_object", "summary_lacks_field"])
    def test_malformed_line_is_data_error(self, tmp_path, capsys, lineno, corrupt, message):
        path = tmp_path / "t.jsonl"
        write_logs(make_trial(), path)
        lines = path.read_text().splitlines()
        lines[lineno - 1] = json.dumps(corrupt(json.loads(lines[lineno - 1])))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=message) as e:
            read_logs(path)
        assert str(path) in str(e.value)
        assert cli.main(["report", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err

    def test_line_layout_pinned(self, tmp_path):
        record = RoundRecord(round=1, test_acc=0.5, test_loss=1.25, train_acc=0.75,
                             train_loss=0.1, sampled_clients=[3, 7], elapsed_s=2.5)
        path = tmp_path / "t.jsonl"
        write_logs(TrialSummary("mlp:0", "mlp", 11, [record], total_time_s=3.0), path)
        assert path.read_text().splitlines() == [
            '{"trial_id": "mlp:0", "model": "mlp", "round": 1, "test_acc": 0.5, '
            '"test_loss": 1.25, "train_acc": 0.75, "train_loss": 0.1, '
            '"sampled_clients": [3, 7], "elapsed_s": 2.5}',
            '{"trial_id": "mlp:0", "model": "mlp", "seed": 11, "n_rounds": 1, '
            '"total_time_s": 3.0}',
        ]

    def test_scan_groups_by_model(self, tmp_path):
        for i in range(3):
            write_logs(make_trial(f"m{i}", "mlp", i), tmp_path / f"mlp_{i}.jsonl")
        for i in range(2):
            write_logs(make_trial(f"s{i}", "spline_kan", i), tmp_path / f"sp_{i}.jsonl")
        groups = scan_logs(tmp_path)
        assert sorted(groups) == ["mlp", "spline_kan"]
        assert len(groups["mlp"]) == 3
        assert len(groups["spline_kan"]) == 2

    def test_failed_write_keeps_previous_files(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        write_atomic(manifest, lambda f: json.dump({"completed": ["a.jsonl"]}, f))
        before = manifest.read_bytes()
        with pytest.raises(TypeError):  # json.dump has written part of the text
            write_atomic(manifest, lambda f: json.dump({"completed": [], "x": object()}, f))
        assert manifest.read_bytes() == before

        log = tmp_path / "a.jsonl"
        write_logs(make_trial("t0"), log)
        logged = log.read_bytes()
        bad = make_trial("t1")
        bad.records[1].sampled_clients = [object()]  # after the first line
        for path in (log, tmp_path / "b.jsonl"):
            with pytest.raises(TypeError):
                write_logs(bad, path)
        assert log.read_bytes() == logged
        assert [t.trial_id for t in scan_logs(tmp_path)["mlp"]] == ["t0"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.jsonl", "manifest.json"]

    def test_scan_empty_dir(self, tmp_path):
        with pytest.raises(ReportError):
            scan_logs(tmp_path)

    def test_strip_timing_removes_wallclock_only(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_logs(make_trial(), path)
        stripped = strip_timing(path)
        for obj in stripped:
            assert "elapsed_s" not in obj
            assert "total_time_s" not in obj
        assert any("test_acc" in o for o in stripped)
