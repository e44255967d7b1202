"""Deterministic MNIST-shaped input generator for the benchmark.

Writes the four IDX files `load_mnist` looks for: 60,000 train and 10,000
test images of 28x28 uint8 with the real MNIST per-class counts. Each class
has one prototype made of five soft pen strokes; train and test draw from
the same ten prototypes. A sample shifts its prototype by up to two pixels
along each axis, scales the ink by a per-sample factor, adds per-pixel noise
and drops a random share of the ink pixels. Background pixels are always
zero, so all variation is in the ink.

The prototypes and the train split come from the fixed TRAIN_SEED, the test
split from --seed. Under the reference protocol local SGD can overflow, and
whether it does depends on the training pixels (the MLP's first round turns
NaN on one train seed in thirty). With the train split fixed, every run
trains the same way, so the rounds that fail are the same in every run,
while --seed still changes the inputs the program reads.

The same seed always gives byte-identical files.

    python3 perfbench/generate.py --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from kanfed import data  # noqa: E402

SIDE = 28
TRAIN_SEED = 0
# per-class counts of the real MNIST train and test splits
TRAIN_CLASS_COUNTS = (5923, 6742, 5958, 6131, 5842, 5421, 5918, 6265, 5851, 5949)
TEST_CLASS_COUNTS = (980, 1135, 1032, 1010, 982, 892, 958, 1028, 974, 1009)
N_STROKES = 5
STROKE_SIGMA = 1.2  # pixels
INK_FLOOR = 40  # prototype pixels below this are background (exactly zero)
NOISE_STD = 30.0
INK_DROPOUT = 0.15  # share of a sample's ink pixels set to zero
MAX_SHIFT = 2  # pixels of per-sample translation along each axis

FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}


def _gen(seed: int, label: str) -> np.random.Generator:
    tag = int.from_bytes(label.encode()[:8].ljust(8, b"\0"), "little")
    return np.random.Generator(np.random.Philox(key=np.array([seed, tag], dtype=np.uint64)))


def _segment_distance(px, py, a, b):
    """Distance from each pixel centre to the segment a-b."""
    d = b - a
    t = ((px - a[0]) * d[0] + (py - a[1]) * d[1]) / max(float(d @ d), 1e-12)
    t = np.clip(t, 0.0, 1.0)
    return np.hypot(px - (a[0] + t * d[0]), py - (a[1] + t * d[1]))


def prototypes(seed: int) -> np.ndarray:
    """(10, 784) float64 ink maps in [0, 255]; zero outside the strokes."""
    gen = _gen(seed, "protos")
    py, px = np.mgrid[0:SIDE, 0:SIDE].astype(np.float64)
    out = np.zeros((10, SIDE * SIDE))
    for c in range(10):
        ink = np.zeros((SIDE, SIDE))
        for _ in range(N_STROKES):
            a, b = gen.uniform(7.0, SIDE - 7.0, (2, 2))
            ink += np.exp(-_segment_distance(px, py, a, b) ** 2 / (2 * STROKE_SIGMA**2))
        proto = 255.0 * np.clip(ink, 0.0, 1.0)
        proto[proto < INK_FLOOR] = 0.0
        border = np.ones((SIDE, SIDE), dtype=bool)
        border[MAX_SHIFT:-MAX_SHIFT, MAX_SHIFT:-MAX_SHIFT] = False
        if proto[border].any():
            raise ValueError("a stroke reaches the border band that shifts would wrap")
        out[c] = proto.reshape(-1)
    return out


def make_split(seed: int, split: str, protos: np.ndarray, counts) -> tuple[np.ndarray, np.ndarray]:
    """Images and labels of one split, samples in a seeded random order."""
    gen = _gen(seed, split)
    labels = np.repeat(np.arange(10, dtype=np.uint8), counts)
    labels = labels[gen.permutation(len(labels))]
    n = len(labels)
    scale = gen.uniform(0.7, 1.0, (n, 1))
    shift = gen.integers(-MAX_SHIFT, MAX_SHIFT + 1, (n, 2))
    images = np.zeros((n, SIDE * SIDE), dtype=np.uint8)
    offsets = range(-MAX_SHIFT, MAX_SHIFT + 1)
    for c in range(10):
        proto = protos[c].reshape(SIDE, SIDE)
        for dy in offsets:
            for dx in offsets:
                rows = np.flatnonzero((labels == c) & (shift[:, 0] == dy) & (shift[:, 1] == dx))
                moved = np.roll(proto, (dy, dx), axis=(0, 1)).reshape(-1)
                ink = np.flatnonzero(moved)
                noisy = moved[ink] * scale[rows] + gen.normal(0.0, NOISE_STD, (len(rows), len(ink)))
                noisy[gen.random(noisy.shape) < INK_DROPOUT] = 0.0
                images[rows[:, None], ink] = np.clip(np.rint(noisy), 0, 255)
    return images, labels


def generate(seed: int, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    protos = prototypes(TRAIN_SEED)
    for split, split_seed, counts in (("train", TRAIN_SEED, TRAIN_CLASS_COUNTS),
                                      ("test", seed, TEST_CLASS_COUNTS)):
        images, labels = make_split(split_seed, split, protos, counts)
        data.write_idx(data.Dataset(images, labels), *(out / name for name in FILES[split]))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="directory for the four IDX files")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    generate(args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
