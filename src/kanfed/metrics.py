"""Centralized evaluation and JSONL experiment logs.

One JSONL line per round plus a summary line per trial. Floats are written
with Python's shortest round-trip repr, so write -> read -> write is
lossless for every numeric field.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .data import Dataset
from .errors import DataError, ReportError
from .models import ModelState, forward
from .numerics import per_sample_nll

TIMING_FIELDS = ("elapsed_s", "total_time_s")


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


def evaluate(model: ModelState, test: Dataset, batch_size: int = 512) -> tuple[float, float]:
    """Accuracy and mean cross-entropy on the full test set.

    Batched for memory only, and one batch at a time: only a batch's logits
    are kept, so its forward cache is freed before the next batch's forward
    runs. The accuracy does not depend on batch_size. The loss sums each
    batch's losses in turn, so it agrees across batch sizes only to rounding
    and is bit-identical only at the same batch_size. Argmax ties break
    toward the lowest class index. Reads the pixel codes when the dataset
    has them (bit-identical to reading its images).
    """
    n = len(test)
    inputs = test.model_inputs
    correct = 0
    loss_sum = 0.0
    for start in range(0, n, batch_size):
        imgs = inputs[start : start + batch_size]
        labs = test.labels[start : start + batch_size]
        logits = forward(model, imgs)[0]
        correct += int((np.argmax(logits, axis=1) == labs).sum())
        loss_sum += float(per_sample_nll(logits, labs).sum())
    return correct / n, loss_sum / n


def write_atomic(path, write) -> None:
    """Call write(f) on a temp file beside `path`, then rename it over `path`.

    Readers see the old file or the new one, never part of one. The temp name
    ends in .tmp, so `scan_logs` never reads it, and it is removed on failure.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w") as f:
            write(f)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


_ROUND_KEYS = tuple(f.name for f in fields(RoundRecord))
_SUMMARY_KEYS = ("trial_id", "model", "seed", "n_rounds", "total_time_s")


def write_logs(trial: TrialSummary, path) -> None:
    """One JSONL line per round, then a trailing summary line; written atomically."""
    lines = [{"trial_id": trial.trial_id, "model": trial.model, **asdict(r)}
             for r in trial.records]
    lines.append(
        {
            "trial_id": trial.trial_id,
            "model": trial.model,
            "seed": trial.seed,
            "n_rounds": len(trial.records),
            "total_time_s": trial.total_time_s,
        }
    )
    write_atomic(path, lambda f: f.writelines(json.dumps(line) + "\n" for line in lines))


def read_logs(path) -> TrialSummary:
    records = []
    summary = None
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise DataError(f"{path}: malformed JSON at line {lineno}: {e}") from e
            if not isinstance(obj, dict):
                raise DataError(f"{path}: line {lineno} is not a JSON object")
            keys = _ROUND_KEYS if "round" in obj else _SUMMARY_KEYS
            missing = [k for k in keys if k not in obj]
            if missing:
                raise DataError(f"{path}: line {lineno} lacks {', '.join(missing)}")
            if "round" in obj:
                records.append(RoundRecord(**{k: obj[k] for k in keys}))
            else:
                summary = obj
    if summary is None:
        raise DataError(f"{path}: missing trial summary line (truncated file?)")
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
    """Read every *.jsonl trial log under log_dir, grouped by model kind."""
    log_dir = Path(log_dir)
    if not log_dir.is_dir():
        raise ReportError(f"log directory {log_dir} does not exist")
    groups: dict[str, list[TrialSummary]] = {}
    for path in sorted(log_dir.glob("*.jsonl")):
        trial = read_logs(path)
        groups.setdefault(trial.model, []).append(trial)
    if not groups:
        raise ReportError(f"no trial logs found under {log_dir}")
    return groups


def strip_timing(path) -> list[dict]:
    """Parsed log lines with wall-clock fields removed (determinism checks)."""
    out = []
    with open(path) as f:
        for line in f:
            obj = json.loads(line)
            for k in TIMING_FIELDS:
                obj.pop(k, None)
            out.append(obj)
    return out
