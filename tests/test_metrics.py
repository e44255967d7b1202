import json
import math
import tracemalloc

import numpy as np
import pytest

from kanfed import cli, metrics
from kanfed.data import Dataset
from kanfed.errors import DataError, InternalError, ReportError
from kanfed.metrics import (
    RoundRecord,
    TrialSummary,
    batch_starts,
    combine_batches,
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
        state.layer_views(0)["weight"][:] = np.eye(10) * 100.0
        state.layer_views(1)["weight"][:] = np.eye(10)
        labels = np.arange(10)
        images = np.eye(10)
        acc, _ = evaluate(state, Dataset(images=images, labels=labels))
        assert acc == 1.0

    def test_batch_size_invariance(self, monkeypatch):
        test = make_synth_dataset(500, 41)
        state = init_params(ModelConfig(kind="spline_kan", layer_widths=(784, 8, 10)), RngStream(42))
        monkeypatch.setattr(metrics, "EVAL_BATCH", 64)
        a = evaluate(state, test)
        monkeypatch.setattr(metrics, "EVAL_BATCH", 1000)
        b = evaluate(state, test)
        assert a[0] == b[0]
        assert abs(a[1] - b[1]) < 1e-12

    @pytest.mark.parametrize("processes", [1, 2, 3])
    def test_split_evaluation_bit_identical(self, processes):
        # run_trial's processes each evaluate every processes-th batch, and the
        # parent adds their sums up: the bits of evaluate's, in any reply order
        test = make_synth_dataset(2100, 45)  # four full batches and one of 52 rows
        state = init_params(default_config("mlp"), RngStream(46))
        starts = batch_starts(len(test))
        assert len(starts) == 5
        sums = [s for k in reversed(range(processes))
                for s in evaluate(state, test, starts[k::processes])]
        acc, loss = combine_batches(sums, len(test))
        expected = evaluate(state, test)
        assert (acc.hex(), loss.hex()) == (expected[0].hex(), expected[1].hex())

    def test_combine_needs_every_batch_once(self):
        test = make_synth_dataset(1100, 47)
        sums = evaluate(init_params(default_config("mlp"), RngStream(48)), test,
                        batch_starts(len(test)))
        for bad in (sums[1:], sums + sums[:1]):
            with pytest.raises(InternalError, match="do not cover the test set once"):
                combine_batches(bad, len(test))

    @pytest.mark.parametrize("kind", ["spline_kan", "rbf_kan"])
    def test_holds_one_batch_at_a_time(self, kind, monkeypatch):
        # three 512-row batches: evaluate's peak is about one batch's forward,
        # not two, so each batch's cache is freed before the next forward
        test = make_synth_dataset(1536, 43)
        state = init_params(default_config(kind), RngStream(44))

        def peak_bytes(call):
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_forward = peak_bytes(lambda: forward(state, test.model_inputs[:512]))
        monkeypatch.setattr(metrics, "EVAL_BATCH", 512)
        whole = peak_bytes(lambda: evaluate(state, test))
        assert whole <= 1.25 * one_forward


class TestLogs:
    def test_round_trip(self, tmp_path):
        trial = make_trial()
        path = tmp_path / "t.jsonl"
        write_logs(trial, path)
        back = read_logs(path)
        assert back == trial

    def test_nan_losses_read_back(self, tmp_path):
        # a diverged round's losses are NaN, which the log keeps
        trial = make_trial()
        trial.records[1].test_loss = trial.records[1].train_loss = math.nan
        path = tmp_path / "t.jsonl"
        write_logs(trial, path)
        back = read_logs(path).records[1]
        assert math.isnan(back.test_loss) and math.isnan(back.train_loss)
        assert math.isnan(strip_timing(path)[1]["test_loss"])

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
        for read in (read_logs, strip_timing):
            with pytest.raises(DataError, match="line 2"):
                read(path)

    @pytest.mark.parametrize("lineno, corrupt, message", [
        (2, lambda obj: {k: v for k, v in obj.items() if k != "test_acc"}, "line 2 lacks test_acc"),
        (2, lambda obj: list(obj), "line 2 is not a JSON object"),
        (4, lambda obj: {k: v for k, v in obj.items() if k != "n_rounds"}, "line 4 lacks n_rounds"),
        (2, lambda obj: {**obj, "test_acc": None}, "line 2: test_acc is null, expected float"),
        (4, lambda obj: {**obj, "total_time_s": None},
         "line 4: total_time_s is null, expected float"),
        (2, lambda obj: {**obj, "test_acc": "0.5"}, 'line 2: test_acc is "0.5", expected float'),
        (2, lambda obj: {**obj, "test_acc": True}, "line 2: test_acc is true, expected float"),
        # an MLP log whose round 1 is relabelled as a round of another trial
        (1, lambda obj: {**obj, "model": "rbf_kan", "trial_id": "rbf_kan:3"},
         "line 1 is a round of rbf_kan trial 'rbf_kan:3', but the summary's trial is mlp 't0'"),
    ], ids=["round_lacks_field", "not_an_object", "summary_lacks_field", "null_accuracy",
            "null_total_time", "text_accuracy", "bool_accuracy", "round_of_another_trial"])
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

    @pytest.mark.parametrize("order, message", [
        ((1, 0, 2), "line 1 is round 2, expected round 1"),
        ((0, 0, 2), "line 2 is round 1, expected round 2"),
    ], ids=["swapped_round", "repeated_round"])
    def test_rounds_out_of_order_is_data_error(self, tmp_path, capsys, order, message):
        # the report reads round k from the k-th record, so any other order
        # would report one round's accuracy under another's number
        path = tmp_path / "t.jsonl"
        write_logs(make_trial(), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[i] for i in order] + lines[3:]) + "\n")
        with pytest.raises(DataError, match=message):
            read_logs(path)
        assert cli.main(["report", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("tail", [
        lambda rnd, summary: [{**summary, "total_time_s": 99.0}],
        lambda rnd, summary: [{**rnd, "round": 2},
                              {**summary, "n_rounds": 2, "total_time_s": 99.0}],
    ], ids=["second_summary", "round_after_summary"])
    def test_line_after_summary_is_data_error(self, tmp_path, capsys, tail):
        # the summary is the one last line; else a later summary would time
        # the trial, and the report's time ratios would divide that time
        path = tmp_path / "t.jsonl"
        write_logs(make_trial(n_rounds=1), path)
        rnd, summary = map(json.loads, path.read_text().splitlines())
        with open(path, "a") as f:
            f.writelines(json.dumps(obj) + "\n" for obj in tail(rnd, summary))
        message = "line 3 follows the trial's summary line"
        with pytest.raises(DataError, match=message) as e:
            read_logs(path)
        assert str(path) in str(e.value)
        assert cli.main(["report", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err

    def test_log_without_rounds_is_data_error(self, tmp_path, capsys):
        # the report reads each round it tables from every trial, so a trial
        # with none would fail there on an index
        for i in range(2):
            write_logs(make_trial(f"mlp:{i}", "mlp", i, n_rounds=0),
                       tmp_path / f"mlp_trial{i:02d}.jsonl")
        path = tmp_path / "mlp_trial00.jsonl"
        with pytest.raises(DataError, match="the log holds no rounds"):
            read_logs(path)
        assert cli.main(["report", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"data error: {path}: the log holds no rounds")

    def test_non_utf8_log_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        write_logs(make_trial(), path)
        with open(path, "ab") as f:
            f.write(b"\xff\n")
        for read in (read_logs, strip_timing):
            with pytest.raises(DataError, match="not UTF-8 text"):
                read(path)
        assert cli.main(["report", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"data error: {path}: not UTF-8 text")

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

    def test_copied_log_is_data_error(self, tmp_path, capsys):
        # a copy would count as a third trial of the two this run made
        for i in range(2):
            write_logs(make_trial(f"mlp:{i}", "mlp", i), tmp_path / f"mlp_trial{i:02d}.jsonl")
        (tmp_path / "copy.jsonl").write_bytes((tmp_path / "mlp_trial00.jsonl").read_bytes())
        message = (f"{tmp_path / 'copy.jsonl'} and {tmp_path / 'mlp_trial00.jsonl'} "
                   "both hold trial 'mlp:0'")
        with pytest.raises(DataError) as e:
            scan_logs(tmp_path)
        assert str(e.value).startswith(message)
        assert cli.main(["report", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err

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
