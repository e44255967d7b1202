import numpy as np
import pytest

from kanfed.data import Dataset, write_idx

# per-class train counts of the real MNIST training split
MNIST_TRAIN_CLASS_COUNTS = [5923, 6742, 5958, 6131, 5842, 5421, 5918, 6265, 5851, 5949]


def rel_err(a, b, floor=1e-6):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / denom).max())


def make_synth_dataset(n, seed, n_classes=10, side=28):
    """Learnable synthetic image set: noisy class prototypes in [0, 255]."""
    gen = np.random.Generator(
        np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    )
    labels = gen.integers(0, n_classes, n)
    protos = gen.uniform(0, 255, (n_classes, side * side))
    imgs = np.clip(
        protos[labels] * gen.uniform(0.6, 1.0, (n, 1)) + gen.normal(0, 10, (n, side * side)),
        0,
        255,
    )
    return Dataset(images=np.round(imgs).astype(np.uint8), labels=labels)


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
        [np.full(c, lab, dtype=np.int64) for lab, c in enumerate(MNIST_TRAIN_CLASS_COUNTS)]
    )
    # interleave deterministically so label runs don't line up with indices
    order = np.argsort(np.arange(len(labels)) * 2654435761 % 2**32, kind="stable")
    labels = labels[order]
    return Dataset(images=np.empty((len(labels), 1)), labels=labels)
