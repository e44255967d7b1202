import hashlib
import struct
import tracemalloc

import numpy as np
import pytest

from kanfed.data import (
    MNIST_MEAN,
    MNIST_STD,
    PIXEL_LEVELS,
    Dataset,
    check_partition,
    load_idx,
    load_mnist,
    pathological_partition,
    write_idx,
)
from kanfed.errors import ConfigurationError, DataError
from kanfed.numerics import RngStream

from conftest import make_synth_dataset


def write_fixture_idx(tmp_path, pixels, labels):
    n = len(labels)
    imgs = tmp_path / "imgs"
    labs = tmp_path / "labs"
    with open(imgs, "wb") as f:
        f.write(struct.pack(">IIII", 0x803, n, 28, 28))
        f.write(bytes(pixels))
    with open(labs, "wb") as f:
        f.write(struct.pack(">II", 0x801, n))
        f.write(bytes(labels))
    return imgs, labs


class TestLoadIdx:
    def test_two_image_fixture(self, tmp_path):
        pixels = [7] * 784 + [250] * 784
        imgs, labs = write_fixture_idx(tmp_path, pixels, [3, 9])
        ds = load_idx(imgs, labs)
        assert ds.images.shape == (2, 784)
        assert ds.images.codes.dtype == np.uint8 and ds.model_inputs is ds.images.codes
        assert np.all(ds.images.codes[0] == 7)
        assert np.all(ds.images.codes[1] == 250)
        assert list(ds.labels) == [3, 9]

    def test_count_mismatch(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir(), b.mkdir()
        imgs, _ = write_fixture_idx(a, [0] * 784, [1])
        _, labs = write_fixture_idx(b, [0] * 2 * 784, [1, 2])
        with pytest.raises(DataError, match="mismatch"):
            load_idx(imgs, labs)

    def test_no_images(self, tmp_path):
        imgs, labs = write_fixture_idx(tmp_path, [], [])
        with pytest.raises(DataError, match="no images"):
            load_idx(imgs, labs)

    def test_bad_magic(self, tmp_path):
        bad = tmp_path / "bad"
        bad.write_bytes(struct.pack(">IIII", 0xDEAD, 1, 28, 28) + bytes(784))
        _, labs = write_fixture_idx(tmp_path, [0] * 784, [1])
        with pytest.raises(DataError, match="magic"):
            load_idx(bad, labs)

    def test_truncated_file(self, tmp_path):
        bad = tmp_path / "trunc"
        bad.write_bytes(struct.pack(">IIII", 0x803, 2, 28, 28) + bytes(100))
        _, labs = write_fixture_idx(tmp_path, [0] * 784, [1, 2])
        with pytest.raises(DataError, match="truncated"):
            load_idx(bad, labs)

    @pytest.mark.parametrize("rows, cols", [(32, 32), (28, 27), (784, 1)])
    def test_other_image_sizes_rejected(self, tmp_path, rows, cols):
        bad = tmp_path / "bad"
        bad.write_bytes(struct.pack(">IIII", 0x803, 1, rows, cols) + bytes(rows * cols))
        _, labs = write_fixture_idx(tmp_path, [0] * 784, [1])
        with pytest.raises(DataError, match=f"bad: images are {rows}x{cols}, not 28x28"):
            load_idx(bad, labs)

    @pytest.mark.parametrize("head, message", [
        (b"", "truncated header at byte 0"),
        (struct.pack(">IIII", 0x803, 2, 28, 28), "truncated at byte 16, expected 1584"),
    ], ids=["empty", "header only"])
    def test_no_pixel_bytes(self, tmp_path, head, message):
        bad = tmp_path / "bad"
        bad.write_bytes(head)
        _, labs = write_fixture_idx(tmp_path, [0] * 784, [1, 2])
        with pytest.raises(DataError, match=message):
            load_idx(bad, labs)

    def test_pixels_map_the_file(self, tmp_path):
        write_idx(make_synth_dataset(200, 5), tmp_path / "i", tmp_path / "l")
        tracemalloc.start()
        try:
            codes = load_idx(tmp_path / "i", tmp_path / "l").images.codes
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < codes.nbytes / 4  # the pixels are not copied
        assert not codes.flags.writeable and not codes.flags.owndata
        assert codes.tobytes() == (tmp_path / "i").read_bytes()[16:]

    def test_rewrite_leaves_loaded_codes(self, tmp_path):
        paths = tmp_path / "i", tmp_path / "l"
        write_idx(make_synth_dataset(20, 5), *paths)
        old = paths[0].read_bytes()[16:]
        ds = load_idx(*paths)
        write_idx(make_synth_dataset(20, 6), *paths)  # same size: a rewrite in place would not fault
        assert ds.images.codes.tobytes() == old
        assert load_idx(*paths).images.codes.tobytes() == paths[0].read_bytes()[16:] != old

    def test_round_trip_through_write_idx(self, tmp_path):
        ds = make_synth_dataset(20, 5)
        write_idx(ds, tmp_path / "i", tmp_path / "l")
        back = load_idx(tmp_path / "i", tmp_path / "l")
        assert np.array_equal(back.images.codes, ds.images.codes)
        assert np.array_equal(back.labels, ds.labels)

    def test_normalized_round_trip_writes_codes(self, tmp_path):
        ds = make_synth_dataset(20, 5)
        write_idx(ds, tmp_path / "i", tmp_path / "l")
        assert (tmp_path / "i").read_bytes()[16:] == ds.images.codes.tobytes()
        back = load_idx(tmp_path / "i", tmp_path / "l")
        assert np.array_equal(back.images[:], ds.images[:])

    @pytest.mark.parametrize("bad", [256, -1, 0.5, np.nan, np.inf, "1"])
    def test_write_refuses_non_code_pixels(self, tmp_path, bad):
        pixels = np.array([[bad] + [0] * 783])  # int64, float64 or str: never codes
        with pytest.raises(DataError, match="uint8 codes"):
            write_idx(Dataset(pixels, np.array([0])), tmp_path / "i", tmp_path / "l")
        assert not (tmp_path / "i").exists()

    def test_write_refuses_other_image_sizes(self, tmp_path):
        codes = Dataset(np.zeros((1, 32 * 32), dtype=np.uint8), np.array([0]))
        with pytest.raises(DataError, match="uint8 codes of 28x28 images"):
            write_idx(codes, tmp_path / "i", tmp_path / "l")


class TestNormalize:
    def test_pixel_extremes(self):
        out = Dataset(images=np.array([[0, 255]], dtype=np.uint8), labels=np.array([0]))
        assert np.array_equal(out.images[0], PIXEL_LEVELS[[0, 255]])
        assert abs(out.images[0, 0] - (0 - 0.1307) / 0.3081) < 1e-12
        assert abs(out.images[0, 1] - (1 - 0.1307) / 0.3081) < 1e-12
        assert abs(out.images[0, 0] - (-0.4242)) < 1e-4
        assert abs(out.images[0, 1] - 2.8215) < 1e-4

    def test_pixel_levels_bit_exact(self):
        codes = np.arange(256)
        want = (codes.astype(np.float64) / 255.0 - MNIST_MEAN) / MNIST_STD
        assert PIXEL_LEVELS.shape == (256,) and np.array_equal(PIXEL_LEVELS, want)
        assert not PIXEL_LEVELS.flags.writeable

    @pytest.mark.parametrize("dtype", [np.uint8])
    def test_keeps_codes(self, dtype):
        pixels = np.arange(256).reshape(4, 64).astype(dtype)
        out = Dataset(pixels, np.zeros(4, dtype=np.int64))
        assert out.images.codes is pixels and out.model_inputs is pixels  # not a copy
        assert out.images.dtype == np.float64
        assert np.array_equal(out.images[:], PIXEL_LEVELS[pixels])
        assert np.array_equal(out.images[:], (pixels.astype(np.float64) / 255.0 - MNIST_MEAN) / MNIST_STD)

    @pytest.mark.parametrize("bad", [[[256, 0]], [[-1, 0]], [[0.5, 0]], [[np.nan, 0]],
                                     [[np.inf, 0]], [["1", "0"]]])
    def test_non_code_pixels_rejected(self, bad):
        # only uint8 pixels are taken as codes: 256 or -1 is never wrapped into 0..255
        pixels = np.array(bad)
        ds = Dataset(pixels, np.array([0]))
        assert ds.images is pixels and ds.model_inputs is pixels


# the partition of `mnist_shaped_labels` for 100 clients, 2 labels each, seed 0
PINNED_PARTITION_SHA256 = "9ced93049b75ab0fe643dd80fb9bbd5244fca959fa808ce8cca5f531398a9f35"


class TestPartition:
    # mean size exactly 600: tests/test_acceptance.py criterion 4, seeds 0-14
    @pytest.fixture()
    def parts(self, mnist_shaped_labels):
        p = pathological_partition(
            mnist_shaped_labels, n_clients=100, labels_per_client=2, rng=RngStream(0)
        )
        return p

    def test_contract(self, parts, mnist_shaped_labels):
        assert len(parts) == 100
        check_partition(parts, len(mnist_shaped_labels))
        for p in parts:
            assert len(p.label_set) == 2
            labs = set(mnist_shaped_labels.labels[p.indices])
            assert labs == set(p.label_set)

    def test_sizes_in_band_with_imbalance(self, parts):
        sizes = [len(p) for p in parts]
        assert min(sizes) >= 400 and max(sizes) <= 900
        assert min(sizes) < max(sizes)
        assert min(sizes) >= 100

    def test_deterministic(self, mnist_shaped_labels, parts):
        again = pathological_partition(
            mnist_shaped_labels, n_clients=100, labels_per_client=2, rng=RngStream(0)
        )
        for a, b in zip(parts, again):
            assert np.array_equal(a.indices, b.indices)
            assert a.label_set == b.label_set

    def test_indivisible_shard_count_rejected(self, mnist_shaped_labels):
        with pytest.raises(ConfigurationError):
            pathological_partition(
                mnist_shaped_labels, n_clients=7, labels_per_client=3, rng=RngStream(1)
            )

    def test_dealing_pinned(self, parts):
        digest = hashlib.sha256()
        for p in parts:
            digest.update(p.indices.tobytes() + bytes(sorted(p.label_set)))
        assert digest.hexdigest() == PINNED_PARTITION_SHA256

    @pytest.mark.parametrize("k", [1, 3])
    def test_other_label_counts(self, mnist_shaped_labels, k):
        parts = pathological_partition(
            mnist_shaped_labels, n_clients=100, labels_per_client=k, rng=RngStream(3)
        )
        check_partition(parts, len(mnist_shaped_labels), labels_per_client=k)
        for p in parts:
            assert set(mnist_shaped_labels.labels[p.indices]) == set(p.label_set)
        sizes = [len(p) for p in parts]
        assert sum(sizes) / len(sizes) == 600.0
        assert min(sizes) >= 400 and max(sizes) <= 900

    @pytest.mark.parametrize("k", [0, 11])
    def test_label_count_out_of_range_rejected(self, mnist_shaped_labels, k):
        with pytest.raises(ConfigurationError, match="labels_per_client"):
            pathological_partition(
                mnist_shaped_labels, n_clients=100, labels_per_client=k, rng=RngStream(1)
            )

    def test_per_label_totals_conserved(self, parts, mnist_shaped_labels):
        totals = np.zeros(10, dtype=int)
        for p in parts:
            labs, counts = np.unique(
                mnist_shaped_labels.labels[p.indices], return_counts=True
            )
            totals[labs] += counts
        expected = np.bincount(mnist_shaped_labels.labels, minlength=10)
        assert np.array_equal(totals, expected)


class TestLoadMnistDir:
    def test_load_from_synth_dir(self, synth_idx_dir):
        train, test = load_mnist(synth_idx_dir)
        assert len(train) == 6000 and len(test) == 1000
        assert train.model_inputs.dtype == test.model_inputs.dtype == np.uint8

    def test_holds_only_codes(self, synth_idx_dir):
        tracemalloc.start()
        try:
            train, test = load_mnist(synth_idx_dir)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        code_bytes = train.images.codes.nbytes + test.images.codes.nbytes
        assert train.images.nbytes + test.images.nbytes == code_bytes
        assert peak < 2 * code_bytes

    def test_missing_dir(self, tmp_path):
        with pytest.raises(DataError):
            load_mnist(tmp_path / "nope")


class TestCodeImages:
    @pytest.fixture()
    def ds(self):
        return make_synth_dataset(6, 3)

    @pytest.mark.parametrize("key", [
        3,
        slice(1, 5),
        np.array([4, 0, 4]),
        np.array([True, False, False, True, True, False]),
        (slice(0, 3), np.array([0, 783])),
        (2, 400),
    ], ids=["int", "slice", "int array", "bool mask", "row col", "element"])
    def test_rows_decode_to_pixel_levels(self, ds, key):
        got = ds.images[key]
        want = PIXEL_LEVELS[ds.images.codes][key]
        assert got.dtype == np.float64 and np.array_equal(got, want)

    def test_array_attributes(self, ds):
        assert ds.images.shape == ds.images.codes.shape == (6, 784)
        assert ds.images.dtype == np.float64 and ds.images.nbytes == ds.images.codes.nbytes

    def test_read_only(self, ds):
        with pytest.raises(TypeError):
            ds.images[0, 0] = 1.0
