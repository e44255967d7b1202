"""MNIST loading, normalization and the pathological non-IID partitioner.

Loading reads one form of the data: the four raw IDX files, which
`fetch_mnist` unpacks from the verified archives. `load_idx` maps an image
file read-only instead of copying it, so a split's pixels are a view of the
file's page cache. A mapped file must never be rewritten in place while a
run reads it; every IDX file this module writes goes to a temp file that
then replaces the old one (`write_atomic`), and a live mapping keeps the
old bytes.

A `Dataset` built from uint8 pixels holds only those codes. Its `images` is
a read-only `CodeImages` view of them that decodes the rows asked for to
their float64 normalized values on access, so no full-size float copy of a
split is built.

The partitioner sorts training indices by label, cuts the label pools into
n_clients * k shards of jittered size, an equal number per label, and deals
k shards with distinct labels to each client, so every client sees exactly k
digits. The paper's protocol deals `LABELS_PER_CLIENT` = 2 to each of
`N_CLIENTS` = 100 clients, 20 shards per label. Mean client size is exactly
total/n_clients (600 for MNIST).
"""

from __future__ import annotations

import gzip
import hashlib
import mmap
import os
import shutil
import struct
import urllib.request
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DataError, InternalError
from .numerics import RngStream

IDX_MAGIC_IMAGES = 0x00000803
IDX_MAGIC_LABELS = 0x00000801
N_CLASSES = 10  # the digits, and every model's output width
SIDE = 28  # every image is SIDE x SIDE pixels
N_CLIENTS, LABELS_PER_CLIENT = 100, 2  # the paper's split: 2 digits per client

# standard MNIST pixel statistics (after scaling to [0,1])
MNIST_MEAN = 0.1307
MNIST_STD = 0.3081
# the normalized value of each pixel code 0..255: scaled to [0,1], then standardized
PIXEL_LEVELS = (np.arange(256) / 255.0 - MNIST_MEAN) / MNIST_STD
PIXEL_LEVELS.flags.writeable = False

DEFAULT_MIRROR = "https://ossci-datasets.s3.amazonaws.com/mnist/"
MNIST_FILES = {
    # archive name -> md5 of the gzipped file; the raw IDX file drops the .gz
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

    def __getitem__(self, key):
        return PIXEL_LEVELS[self.codes[key]]


@dataclass
class Dataset:
    """A split's images and labels.

    uint8 `images` are pixel codes: they are wrapped, without a copy, in a
    `CodeImages` view that decodes rows to normalized float64 values on
    access. Float `images` are used as they are, as normalized model inputs.
    """

    images: np.ndarray | CodeImages  # (N, 784)
    labels: np.ndarray  # (N,) int64 in [0, 10)

    def __post_init__(self):
        if self.images.dtype == np.uint8:
            self.images = CodeImages(self.images)

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def model_inputs(self) -> np.ndarray:
        """What training and evaluation feed the model: the codes, else the images."""
        return self.images.codes if isinstance(self.images, CodeImages) else self.images


@dataclass
class ClientPartition:
    client_id: int
    indices: np.ndarray
    label_set: frozenset

    def __len__(self) -> int:
        return len(self.indices)


def write_atomic(path, write, mode: str = "w") -> None:
    """Call write(f) on a temp file beside `path`, opened with `mode`, then
    rename it over `path`.

    Readers see the old file or the new one, never part of one, and a reader
    that maps the old file keeps its bytes. The temp name ends in .tmp, so
    `metrics.scan_logs` never reads it, and it is removed on failure.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode) as f:
            write(f)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_idx(images_path, labels_path) -> Dataset:
    """Parse a big-endian IDX image/label file pair into a Dataset; a pair
    with no images, or images that are not 28x28, is a DataError, since no
    model could train or evaluate on it.

    The pixels are a read-only uint8 view of the image file, mapped rather
    than copied; the file must be replaced, never rewritten in place, while
    the Dataset lives (see the module docstring). The labels are read.
    """
    with open(images_path, "rb") as f:
        head = f.read(16)
        if len(head) < 16:
            raise DataError(f"{images_path}: truncated header at byte {len(head)}")
        magic, n, rows, cols = struct.unpack(">IIII", head)
        if magic != IDX_MAGIC_IMAGES:
            raise DataError(f"{images_path}: bad magic 0x{magic:08x} at byte 0")
        if (rows, cols) != (SIDE, SIDE):
            raise DataError(f"{images_path}: images are {rows}x{cols}, not {SIDE}x{SIDE}")
        n_pixels = n * rows * cols
        size = os.fstat(f.fileno()).st_size
        if size < 16 + n_pixels:
            raise DataError(
                f"{images_path}: truncated at byte {size}, expected {16 + n_pixels}"
            )
        labels = _read_labels(labels_path)
        if n != len(labels):
            raise DataError(
                f"image/label count mismatch: {n} images vs {len(labels)} labels"
            )
        if n == 0:
            raise DataError(f"{images_path}: holds no images")
        if labels.max() >= N_CLASSES:
            raise DataError(f"label out of range [0, {N_CLASSES}): max={labels.max()}")
        # mapped only now: mmap refuses an empty file with ValueError
        view = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
    pixels = np.frombuffer(view, dtype=np.uint8, count=n_pixels, offset=16)
    return Dataset(pixels.reshape(n, rows * cols), labels)


def _read_labels(path) -> np.ndarray:
    """The int64 labels of an IDX label file."""
    with open(path, "rb") as f:
        head = f.read(8)
        if len(head) < 8:
            raise DataError(f"{path}: truncated header at byte {len(head)}")
        magic, n_labels = struct.unpack(">II", head)
        if magic != IDX_MAGIC_LABELS:
            raise DataError(f"{path}: bad magic 0x{magic:08x} at byte 0")
        body = f.read(n_labels)
    if len(body) < n_labels:
        raise DataError(f"{path}: truncated at byte {8 + len(body)}")
    return np.frombuffer(body, dtype=np.uint8).astype(np.int64)


def write_idx(dataset: Dataset, images_path, labels_path) -> None:
    """Write a Dataset of pixel codes back out as a raw IDX pair (fixtures,
    synthetic data); float images, or codes of other than 28x28 pixels, are
    a DataError.

    Each file is replaced atomically, so a Dataset that maps the old file
    keeps its bytes.
    """
    n, images = len(dataset), dataset.images
    if not isinstance(images, CodeImages) or images.shape[1:] != (SIDE * SIDE,):
        raise DataError(f"pixels must be uint8 codes of {SIDE}x{SIDE} images")
    write_atomic(images_path, lambda f: f.writelines(
        [struct.pack(">IIII", IDX_MAGIC_IMAGES, n, SIDE, SIDE), images.codes.tobytes()]), "wb")
    write_atomic(labels_path, lambda f: f.writelines(
        [struct.pack(">II", IDX_MAGIC_LABELS, n), dataset.labels.astype(np.uint8).tobytes()]), "wb")


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


def check_partition(parts: list[ClientPartition], n_total: int,
                    labels_per_client: int = LABELS_PER_CLIENT):
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


def fetch_mnist(dest_dir, base_url: str = DEFAULT_MIRROR) -> None:
    """Download the four MNIST archives into dest_dir, verify their checksums
    and unpack each into the raw IDX file that `load_mnist` reads.

    An archive already there with the right checksum is not downloaded again,
    and a raw file already there is not rewritten.
    """
    dest = Path(dest_dir)
    dest.mkdir(parents=True, exist_ok=True)
    for name, md5 in MNIST_FILES.items():
        archive = dest / name
        if not (archive.exists() and hashlib.md5(archive.read_bytes()).hexdigest() == md5):
            url = base_url.rstrip("/") + "/" + name
            try:
                with urllib.request.urlopen(url) as r:
                    blob = r.read()
            except OSError as e:
                raise DataError(f"{url}: download failed ({e})") from e
            got = hashlib.md5(blob).hexdigest()
            if got != md5:
                raise DataError(f"{name}: checksum mismatch ({got} != {md5})")
            write_atomic(archive, lambda f: f.write(blob), "wb")
        raw = archive.with_suffix("")
        if not raw.exists():
            with gzip.open(archive, "rb") as src:
                write_atomic(raw, lambda f: shutil.copyfileobj(src, f), "wb")


def find_mnist(data_dir) -> list[Path] | None:
    """The four raw MNIST IDX files in data_dir, in `MNIST_FILES` order (train
    images and labels, then test); None if any is missing."""
    paths = [Path(data_dir) / name.removesuffix(".gz") for name in MNIST_FILES]
    return paths if all(p.exists() for p in paths) else None


def load_mnist(data_dir) -> tuple[Dataset, Dataset]:
    """The train and test splits in data_dir, as pixel codes."""
    paths = find_mnist(data_dir)
    if paths is None:
        raise DataError(
            f"raw MNIST IDX files not found under {data_dir}; "
            f"`kanfed fetch-data --data-dir {data_dir}` downloads them, "
            "or unpacks the archives already there without downloading"
        )
    return load_idx(*paths[:2]), load_idx(*paths[2:])
