"""Centralized evaluation and JSONL experiment logs.

One JSONL line per round plus a summary line per trial. Floats are written
with Python's shortest round-trip repr, so write -> read -> write is
lossless for every numeric field.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .data import Dataset, write_atomic
from .errors import DataError, InternalError, ReportError
from .models import ModelState, forward
from .numerics import per_sample_nll

TIMING_FIELDS = ("elapsed_s", "total_time_s")
EVAL_BATCH = 512  # test rows per forward in `evaluate`


@dataclass
class RoundRecord:
    round: int
    test_acc: float
    test_loss: float
    train_acc: float
    train_loss: float
    sampled_clients: list[int]
    elapsed_s: float


@dataclass
class TrialSummary:
    trial_id: str
    model: str
    seed: int
    records: list[RoundRecord]
    total_time_s: float


def batch_starts(n: int) -> range:
    """The first row of each `EVAL_BATCH`-row batch of an n-row test set."""
    return range(0, n, EVAL_BATCH)


def evaluate(model: ModelState, test: Dataset, starts=None):
    """Accuracy and mean cross-entropy on the full test set.

    Batched for memory only, and one batch at a time: only a batch's logits
    are kept, so its forward cache is freed before the next batch's forward
    runs. The accuracy does not depend on `EVAL_BATCH`. The loss sums each
    batch's losses in turn, so it agrees across batch sizes only to rounding
    and is bit-identical only at the same `EVAL_BATCH`. Argmax ties break
    toward the lowest class index. Reads the pixel codes when the dataset
    is codes (bit-identical to reading its decoded images).

    Given `starts`, some of `batch_starts(len(test))`, it evaluates only those
    batches and returns their (start, correct count, loss sum), for
    `combine_batches` to add up with the other processes' batches.
    """
    inputs = test.model_inputs
    sums = []
    for start in batch_starts(len(test)) if starts is None else starts:
        labs = test.labels[start : start + EVAL_BATCH]
        logits = forward(model, inputs[start : start + EVAL_BATCH])[0]
        sums.append((start, int((np.argmax(logits, axis=1) == labs).sum()),
                     float(per_sample_nll(logits, labs).sum())))
    return sums if starts is not None else combine_batches(sums, len(test))


def combine_batches(sums, n: int) -> tuple[float, float]:
    """`evaluate`'s accuracy and mean loss from the (start, correct count,
    loss sum) of every batch of an n-row test set, in any order: the sums
    are added in batch order, as `evaluate` adds them, so the bits agree."""
    sums = sorted(sums)
    if [start for start, _, _ in sums] != list(batch_starts(n)):
        raise InternalError("the evaluated batches do not cover the test set once each")
    correct, loss_sum = 0, 0.0
    for _, batch_correct, batch_loss in sums:
        correct += batch_correct
        loss_sum += batch_loss
    return correct / n, loss_sum / n


# the JSON type each log key must hold, named as the dataclass fields' annotations
# are (text, under `from __future__ import annotations`); a number is never a
# bool, and a float may be NaN, as a diverged round's losses are
_RECORD_TYPES = {f.name: f.type for f in fields(RoundRecord)}
_ROUND_TYPES = {"trial_id": "str", "model": "str", **_RECORD_TYPES}
_SUMMARY_TYPES = {"trial_id": "str", "model": "str", "seed": "int", "n_rounds": "int",
                  "total_time_s": "float"}
_HOLDS = {
    "int": lambda v: type(v) is int,
    "float": lambda v: type(v) in (int, float),
    "str": lambda v: type(v) is str,
    "list[int]": lambda v: type(v) is list and all(type(c) is int for c in v),
}


def _log_lines(trial: TrialSummary) -> list[dict]:
    """The log's lines: one per round, then the trial's summary."""
    lines = [{"trial_id": trial.trial_id, "model": trial.model, **asdict(r)}
             for r in trial.records]
    lines.append({"trial_id": trial.trial_id, "model": trial.model, "seed": trial.seed,
                  "n_rounds": len(trial.records), "total_time_s": trial.total_time_s})
    return lines


def write_logs(trial: TrialSummary, path) -> None:
    """One JSONL line per round, then a trailing summary line; written atomically."""
    lines = _log_lines(trial)
    write_atomic(path, lambda f: f.writelines(json.dumps(line) + "\n" for line in lines))


def read_logs(path) -> TrialSummary:
    records = []
    owners = []  # (line number, trial_id, model) of each round line
    summary = None
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text ({e})") from e
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise DataError(f"{path}: malformed JSON at line {lineno}: {e}") from e
        if not isinstance(obj, dict):
            raise DataError(f"{path}: line {lineno} is not a JSON object")
        # the summary is the one last line: a line after it would add rounds or retime the trial
        if summary is not None:
            raise DataError(f"{path}: line {lineno} follows the trial's summary line")
        types = _ROUND_TYPES if "round" in obj else _SUMMARY_TYPES
        missing = [k for k in types if k not in obj]
        if missing:
            raise DataError(f"{path}: line {lineno} lacks {', '.join(missing)}")
        for key, kind in types.items():
            if not _HOLDS[kind](obj[key]):
                raise DataError(f"{path}: line {lineno}: {key} is {json.dumps(obj[key])}, "
                                f"expected {kind}")
        if "round" in obj:
            # the report reads round k from the k-th record, so rounds run 1..n in order
            if obj["round"] != len(records) + 1:
                raise DataError(f"{path}: line {lineno} is round {obj['round']}, "
                                f"expected round {len(records) + 1}")
            records.append(RoundRecord(**{k: obj[k] for k in _RECORD_TYPES}))
            owners.append((lineno, obj["trial_id"], obj["model"]))
        else:
            summary = obj
    if summary is None:
        raise DataError(f"{path}: missing trial summary line (truncated file?)")
    if not records:  # `kanfed run` logs at least one round, and the report reads them
        raise DataError(f"{path}: the log holds no rounds")
    for lineno, trial_id, model in owners:
        if (trial_id, model) != (summary["trial_id"], summary["model"]):
            raise DataError(f"{path}: line {lineno} is a round of {model} trial {trial_id!r}, "
                            f"but the summary's trial is {summary['model']} "
                            f"{summary['trial_id']!r}")
    if summary["n_rounds"] != len(records):
        raise DataError(
            f"{path}: summary says {summary['n_rounds']} rounds, found {len(records)}"
        )
    return TrialSummary(
        trial_id=summary["trial_id"],
        model=summary["model"],
        seed=summary["seed"],
        records=records,
        total_time_s=summary["total_time_s"],
    )


def scan_logs(log_dir) -> dict[str, list[TrialSummary]]:
    """Read every *.jsonl trial log under log_dir, grouped by model kind.

    Two logs of one trial_id are a data error: a copied log would otherwise
    count as one more trial."""
    log_dir = Path(log_dir)
    if not log_dir.is_dir():
        raise ReportError(f"{log_dir} is not a directory")
    groups: dict[str, list[TrialSummary]] = {}
    paths: dict[str, Path] = {}  # trial_id -> its log
    for path in sorted(log_dir.glob("*.jsonl")):
        trial = read_logs(path)
        if trial.trial_id in paths:
            raise DataError(f"{paths[trial.trial_id]} and {path} both hold trial "
                            f"{trial.trial_id!r}; remove the copy")
        paths[trial.trial_id] = path
        groups.setdefault(trial.model, []).append(trial)
    if not groups:
        raise ReportError(f"no trial logs found under {log_dir}")
    return groups


def strip_timing(path) -> list[dict]:
    """The log's lines, read and checked by `read_logs`, without wall-clock fields.

    For determinism checks: two runs of the same trial give equal lists.
    """
    return [{k: v for k, v in line.items() if k not in TIMING_FIELDS}
            for line in _log_lines(read_logs(path))]
