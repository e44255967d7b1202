"""MNIST loading, normalization and the pathological non-IID partitioner.

A normalized dataset holds only its uint8 pixel codes. Its `images` is a
read-only `CodeImages` view that decodes the rows asked for to their float64
normalized values on access, so no full-size float copy of a split is built.

The partitioner sorts training indices by label, cuts the label pools into
n_clients * k shards of jittered size, an equal number per label, and deals
k shards with distinct labels to each client, so every client sees exactly k
digits. k is `labels_per_client`, 2 by default, which for 100 clients makes
20 shards per label. Mean client size is exactly total/n_clients (600 for
MNIST).
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import json
import struct
import urllib.request
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DataError, InternalError
from .numerics import RngStream

IDX_MAGIC_IMAGES = 0x00000803
IDX_MAGIC_LABELS = 0x00000801
N_CLASSES = 10  # the digits, and every model's output width

# standard MNIST pixel statistics (after scaling to [0,1])
MNIST_MEAN = 0.1307
MNIST_STD = 0.3081
# the normalized value of each pixel code 0..255, by the formula `normalize` uses
PIXEL_LEVELS = (np.arange(256) / 255.0 - MNIST_MEAN) / MNIST_STD
PIXEL_LEVELS.flags.writeable = False

DEFAULT_MIRROR = "https://ossci-datasets.s3.amazonaws.com/mnist/"
MNIST_FILES = {
    # filename -> md5 of the gzipped file
    "train-images-idx3-ubyte.gz": "f68b3c2dcbeaaa9fbdd348bbdeb94873",
    "train-labels-idx1-ubyte.gz": "d53e105ee54ea40749a09fcbcd1e9432",
    "t10k-images-idx3-ubyte.gz": "9fb629c4189551a2d022fa330f9573f3",
    "t10k-labels-idx1-ubyte.gz": "ec29112dd5afa0611ce80d1b7f02629c",
}


class CodeImages:
    """Read-only float64 images of uint8 pixel codes, decoded on access.

    Indexing returns `PIXEL_LEVELS[codes[key]]`, a fresh float64 array, so the
    values are those a full `PIXEL_LEVELS[codes]` would hold. Only the codes
    are stored, and `nbytes` counts them.
    """

    dtype = PIXEL_LEVELS.dtype

    def __init__(self, codes: np.ndarray):
        self.codes = codes

    @property
    def shape(self) -> tuple[int, ...]:
        return self.codes.shape

    @property
    def nbytes(self) -> int:
        return self.codes.nbytes

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, key):
        return PIXEL_LEVELS[self.codes[key]]

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("decoding pixel codes always makes a copy")
        return np.asarray(PIXEL_LEVELS[self.codes], dtype=dtype)


@dataclass
class Dataset:
    """A split's images and labels.

    Before `normalize`, `images` holds the raw pixels and `codes` is None.
    After it, `codes` holds the uint8 pixel codes and `images` is a
    `CodeImages` view over them, which decodes rows to normalized float64
    values on access.
    """

    images: np.ndarray | CodeImages  # (N, 784)
    labels: np.ndarray  # (N,) int64 in [0, 10)
    split: str = "train"
    codes: np.ndarray | None = None  # (N, 784) uint8 codes of normalized images, or None

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def model_inputs(self) -> np.ndarray:
        """What training and evaluation feed the model: the codes, else the images."""
        return self.images if self.codes is None else self.codes


@dataclass
class ClientPartition:
    client_id: int
    indices: np.ndarray
    label_set: frozenset

    def __len__(self) -> int:
        return len(self.indices)


def _open_maybe_gz(path: Path):
    if str(path).endswith(".gz"):
        return gzip.open(path, "rb")
    return open(path, "rb")


def load_idx(images_path, labels_path, split: str = "train") -> Dataset:
    """Parse a big-endian IDX image/label file pair into a Dataset."""
    images_path, labels_path = Path(images_path), Path(labels_path)
    with _open_maybe_gz(images_path) as f:
        head = f.read(16)
        if len(head) < 16:
            raise DataError(f"{images_path}: truncated header at byte {len(head)}")
        magic, n, rows, cols = struct.unpack(">IIII", head)
        if magic != IDX_MAGIC_IMAGES:
            raise DataError(f"{images_path}: bad magic 0x{magic:08x} at byte 0")
        body = f.read(n * rows * cols)
        if len(body) < n * rows * cols:
            raise DataError(
                f"{images_path}: truncated at byte {16 + len(body)}, "
                f"expected {16 + n * rows * cols}"
            )
        pixels = np.frombuffer(body, dtype=np.uint8).reshape(n, rows * cols)
    with _open_maybe_gz(labels_path) as f:
        head = f.read(8)
        if len(head) < 8:
            raise DataError(f"{labels_path}: truncated header at byte {len(head)}")
        magic, n_labels = struct.unpack(">II", head)
        if magic != IDX_MAGIC_LABELS:
            raise DataError(f"{labels_path}: bad magic 0x{magic:08x} at byte 0")
        body = f.read(n_labels)
        if len(body) < n_labels:
            raise DataError(f"{labels_path}: truncated at byte {8 + len(body)}")
        labels = np.frombuffer(body, dtype=np.uint8).astype(np.int64)
    if n != n_labels:
        raise DataError(
            f"image/label count mismatch: {n} images vs {n_labels} labels"
        )
    if labels.size and (labels.min() < 0 or labels.max() >= N_CLASSES):
        raise DataError(f"label out of range [0, {N_CLASSES}): max={labels.max()}")
    return Dataset(images=pixels, labels=labels, split=split)


def _pixel_codes(ds: Dataset) -> np.ndarray:
    """The dataset's raw pixels as uint8 codes; DataError unless each is an
    integer value in [0, 255]."""
    pixels = np.asarray(ds.images)
    if pixels.dtype == np.uint8:
        return pixels
    numeric = pixels.dtype.kind in "iuf"
    with np.errstate(invalid="ignore"):  # NaN and inf fail the comparison below
        codes = pixels.astype(np.uint8) if numeric else None
    if codes is None or not np.array_equal(codes, pixels):
        found = f" in [{pixels.min()}, {pixels.max()}]" if numeric else ""
        raise DataError(
            f"{ds.split} pixels must be uint8 codes or integer values in [0, 255], "
            f"got {pixels.dtype}{found}"
        )
    return codes


def write_idx(dataset: Dataset, images_path, labels_path, side: int = 28) -> None:
    """Write a Dataset back out as a raw IDX pair (fixtures, synthetic data).

    A normalized dataset writes its codes; otherwise the pixels must be codes.
    """
    n = len(dataset)
    if dataset.images.shape[1] != side * side:
        raise ConfigurationError(f"images are not {side}x{side}")
    codes = dataset.codes if dataset.codes is not None else _pixel_codes(dataset)
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_MAGIC_IMAGES, n, side, side))
        f.write(codes.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", IDX_MAGIC_LABELS, n))
        f.write(dataset.labels.astype(np.uint8).tobytes())


def normalize(ds: Dataset) -> Dataset:
    """Scale pixels to [0,1] then standardize with the fixed MNIST constants.

    The pixels must be codes (see `_pixel_codes`). They are kept as uint8
    `codes`, and `images` becomes a `CodeImages` view that decodes them to
    `PIXEL_LEVELS[codes]` on access.
    """
    if ds.codes is not None:
        raise DataError("dataset is already normalized")
    codes = _pixel_codes(ds)
    return replace(ds, images=CodeImages(codes), codes=codes)


def _jittered_shard_sizes(
    total: int, n_shards: int, gen, lo: int, hi: int
) -> list[int]:
    """Shard sizes around total/n_shards with +-30% multiplicative jitter,
    clamped to [lo, hi] and summing exactly to `total`."""
    if not lo * n_shards <= total <= hi * n_shards:
        raise ConfigurationError(
            f"cannot cut {total} samples into {n_shards} shards of [{lo}, {hi}]"
        )
    mult = gen.uniform(0.7, 1.3, n_shards)
    target = mult / mult.sum() * total
    # clamp, then water-fill the imbalance over shards that still have room
    for _ in range(200):
        clipped = np.clip(target, lo, hi)
        diff = total - clipped.sum()
        if abs(diff) < 1e-9:
            target = clipped
            break
        room = (hi - clipped) if diff > 0 else (clipped - lo)
        target = clipped + diff * room / room.sum()
    sizes = np.floor(target).astype(int)
    # hand out the rounding remainder to the largest fractional parts
    rem = total - sizes.sum()
    order = np.argsort(-(target - sizes), kind="stable")
    sizes[order[:rem]] += 1
    return sizes.tolist()


_DEAL_RETRIES = 50  # reshuffles tried before dealing distinct-label shard sets fails


def _deal_distinct(order: list, shards: list, a: int, k: int) -> bool:
    """Make the labels of slots a..a+k-1 of `order` distinct by swapping in later
    shards; False when no later shard has a label the slots still lack."""
    for s in range(a + 1, a + k):
        held = {shards[order[i]][0] for i in range(a, s)}
        if shards[order[s]][0] in held:
            for j in range(s + 1, len(order)):
                if shards[order[j]][0] not in held:
                    order[s], order[j] = order[j], order[s]
                    break
            else:
                return False
    return True


def pathological_partition(
    ds: Dataset, n_clients: int, labels_per_client: int, rng: RngStream
) -> list[ClientPartition]:
    """Split the training set so each client holds exactly `labels_per_client` digit labels."""
    labels = np.unique(ds.labels)
    n_labels = len(labels)
    k = labels_per_client
    if not 1 <= k <= n_labels:
        raise ConfigurationError(f"labels_per_client must be in [1, {n_labels}], got {k}")
    n_shards = n_clients * k
    if n_shards % n_labels != 0:
        raise ConfigurationError(
            f"{n_shards} shards not divisible across {n_labels} labels"
        )
    shards_per_label = n_shards // n_labels

    gen = rng.child("partition").gen
    # per-shard bounds chosen so any k shards stay within
    # [2/3, 3/2] of the mean client size (400..900 for MNIST defaults)
    shard_base = len(ds) / n_shards
    lo = int(np.ceil(shard_base * 2.0 / 3.0))
    hi = int(np.floor(shard_base * 1.5))
    shards = []  # (label, index array)
    for lab in labels:
        idx = np.flatnonzero(ds.labels == lab)
        gen.shuffle(idx)
        sizes = _jittered_shard_sizes(len(idx), shards_per_label, gen, lo, hi)
        pos = 0
        for s in sizes:
            shards.append((int(lab), idx[pos : pos + s]))
            pos += s

    for _ in range(_DEAL_RETRIES):
        order = list(gen.permutation(len(shards)))
        if all(_deal_distinct(order, shards, k * c, k) for c in range(n_clients)):
            break
    else:
        raise InternalError("could not deal distinct-label shard sets")

    parts = []
    for c in range(n_clients):
        picked = [shards[i] for i in order[k * c : k * (c + 1)]]
        indices = np.sort(np.concatenate([p[1] for p in picked]))
        parts.append(
            ClientPartition(
                client_id=c,
                indices=indices,
                label_set=frozenset(p[0] for p in picked),
            )
        )
    return parts


def check_partition(parts: list[ClientPartition], n_total: int, labels_per_client: int = 2):
    """Raise InternalError unless coverage, disjointness and label counts hold."""
    seen = np.zeros(n_total, dtype=bool)
    for p in parts:
        if len(p.indices) == 0:
            raise InternalError(f"client {p.client_id} is empty")
        if len(p.label_set) != labels_per_client:
            raise InternalError(
                f"client {p.client_id} has {len(p.label_set)} labels"
            )
        if seen[p.indices].any():
            raise InternalError(f"client {p.client_id} overlaps another client")
        seen[p.indices] = True
    if not seen.all():
        raise InternalError(f"{int((~seen).sum())} samples unassigned")


def partition_report(parts: list[ClientPartition], ds: Dataset) -> list[tuple[int, int, int]]:
    """Rows of (client_id, label, count) for every label a client holds."""
    rows = []
    for p in parts:
        labs, counts = np.unique(ds.labels[p.indices], return_counts=True)
        for lab, cnt in zip(labs, counts):
            rows.append((p.client_id, int(lab), int(cnt)))
    return rows


def write_partition_csv(rows, path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["client_id", "label", "count"])
        w.writerows(rows)


def write_partition_json(parts: list[ClientPartition], path) -> None:
    """Exact index map for replaying a partition."""
    payload = {
        str(p.client_id): {
            "labels": sorted(p.label_set),
            "indices": p.indices.tolist(),
        }
        for p in parts
    }
    with open(path, "w") as f:
        json.dump(payload, f)


def fetch_mnist(dest_dir, base_url: str = DEFAULT_MIRROR) -> None:
    """Download the four MNIST archives into dest_dir, verifying checksums."""
    dest = Path(dest_dir)
    dest.mkdir(parents=True, exist_ok=True)
    for name, md5 in MNIST_FILES.items():
        target = dest / name
        if target.exists() and hashlib.md5(target.read_bytes()).hexdigest() == md5:
            continue
        url = base_url.rstrip("/") + "/" + name
        with urllib.request.urlopen(url) as r:
            blob = r.read()
        got = hashlib.md5(blob).hexdigest()
        if got != md5:
            raise DataError(f"{name}: checksum mismatch ({got} != {md5})")
        target.write_bytes(blob)


def find_mnist(data_dir) -> dict | None:
    """Locate MNIST files (raw or gzipped) in data_dir; None if incomplete."""
    data_dir = Path(data_dir)
    out = {}
    for key, stem in [
        ("train_images", "train-images-idx3-ubyte"),
        ("train_labels", "train-labels-idx1-ubyte"),
        ("test_images", "t10k-images-idx3-ubyte"),
        ("test_labels", "t10k-labels-idx1-ubyte"),
    ]:
        for cand in (data_dir / stem, data_dir / (stem + ".gz")):
            if cand.exists():
                out[key] = cand
                break
        else:
            return None
    return out


def load_mnist(data_dir) -> tuple[Dataset, Dataset]:
    """Load and normalize the train and test splits from data_dir."""
    paths = find_mnist(data_dir)
    if paths is None:
        raise DataError(f"MNIST files not found under {data_dir}")
    train = normalize(load_idx(paths["train_images"], paths["train_labels"], "train"))
    test = normalize(load_idx(paths["test_images"], paths["test_labels"], "test"))
    return train, test
