import importlib.util
from pathlib import Path

import numpy as np
import pytest

from kanfed.data import Dataset, write_idx


def _load_generator():
    """perfbench/generate.py, the one source of synthetic MNIST, loaded by file path."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "generate.py"
    spec = importlib.util.spec_from_file_location("perfbench_generate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


generate = _load_generator()
PROTOTYPES = generate.prototypes(generate.TRAIN_SEED)


def rel_err(a, b, floor=1e-6):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / denom).max())


def make_synth_dataset(n, seed):
    """n 28x28 samples of the benchmark's ten class prototypes, near-equal per class.

    Every seed draws from the same prototypes, so a model trained on one
    seed's split can be tested on another's.
    """
    counts = np.bincount(np.arange(n) % 10, minlength=10)
    images, labels = generate.make_split(seed, "synth", PROTOTYPES, counts)
    return Dataset(images=images, labels=labels.astype(np.int64))


@pytest.fixture(scope="session")
def synth_idx_dir(tmp_path_factory):
    """Small MNIST-shaped IDX file pair set (6,000 train / 1,000 test)."""
    d = tmp_path_factory.mktemp("idx")
    write_idx(make_synth_dataset(6000, 1), d / "train-images-idx3-ubyte", d / "train-labels-idx1-ubyte")
    write_idx(make_synth_dataset(1000, 2), d / "t10k-images-idx3-ubyte", d / "t10k-labels-idx1-ubyte")
    return d


@pytest.fixture(scope="session")
def mnist_shaped_labels():
    """A 60,000-sample label-only Dataset with the real per-class counts."""
    labels = np.concatenate(
        [np.full(c, lab, dtype=np.int64) for lab, c in enumerate(generate.TRAIN_CLASS_COUNTS)]
    )
    # interleave deterministically so label runs don't line up with indices
    order = np.argsort(np.arange(len(labels)) * 2654435761 % 2**32, kind="stable")
    labels = labels[order]
    return Dataset(images=np.empty((len(labels), 1)), labels=labels)
