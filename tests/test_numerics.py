import ctypes
import io
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kanfed import numerics
from kanfed.errors import DataError, InternalError
from kanfed.numerics import (
    SGD_BLOCK,
    RngStream,
    sgd_momentum_step,
    sigmoid,
    silu,
    silu_backward,
    softmax_cross_entropy,
    sum_last_axis,
)


class TestRngStream:
    def test_same_seed_same_sequence(self):
        a = RngStream(123).gen.uniform(size=10)
        b = RngStream(123).gen.uniform(size=10)
        assert np.array_equal(a, b)

    def test_children_independent_and_reproducible(self):
        r = RngStream(5)
        a1 = r.child("x").gen.uniform(size=5)
        a2 = RngStream(5).child("x").gen.uniform(size=5)
        b = RngStream(5).child("y").gen.uniform(size=5)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)


class TestSilu:
    def test_zero(self):
        assert silu(np.array([0.0]))[0] == 0.0

    def test_large_positive_asymptote(self):
        x = np.array([50.0])
        assert abs(silu(x)[0] - 50.0) < 1e-12

    def test_backward_matches_finite_difference(self):
        gen = RngStream(3).gen
        x = gen.uniform(-2, 2, 100)
        h = 1e-5
        fd = (silu(x + h) - silu(x - h)) / (2 * h)
        assert np.abs(silu_backward(x) - fd).max() < 1e-6

    def test_backward_formula(self):
        x = RngStream(4).gen.uniform(-3, 3, 50)
        s = sigmoid(x)
        assert np.allclose(silu_backward(x), s * (1 + x * (1 - s)), atol=1e-15)


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        logits = np.zeros((4, 10))
        loss, _ = softmax_cross_entropy(logits, np.array([0, 3, 5, 9]))
        assert abs(loss - math.log(10)) < 1e-12

    def test_huge_correct_logit(self):
        logits = np.zeros((1, 10))
        logits[0, 2] = 500.0
        loss, _ = softmax_cross_entropy(logits, np.array([2]))
        assert loss < 1e-12

    def test_grad_matches_finite_difference(self):
        gen = RngStream(5).gen
        logits = gen.uniform(-2, 2, (3, 10))
        labels = gen.integers(0, 10, 3)
        _, grad = softmax_cross_entropy(logits, labels)
        h = 1e-6
        for i in range(3):
            for j in range(10):
                logits[i, j] += h
                lp, _ = softmax_cross_entropy(logits, labels)
                logits[i, j] -= 2 * h
                lm, _ = softmax_cross_entropy(logits, labels)
                logits[i, j] += h
                assert abs((lp - lm) / (2 * h) - grad[i, j]) < 1e-6

    def test_label_out_of_range(self):
        with pytest.raises(DataError):
            softmax_cross_entropy(np.zeros((1, 10)), np.array([10]))

    def test_extreme_logits_stay_finite(self):
        logits = np.array([[1000.0, -1000.0] + [0.0] * 8])
        loss, grad = softmax_cross_entropy(logits, np.array([1]))
        assert np.isfinite(loss) and np.all(np.isfinite(grad))


class TestSgdMomentum:
    def test_first_step(self):
        w = np.array([1.0, 2.0])
        g = np.array([0.5, -0.5])
        buf = np.zeros(2)
        sgd_momentum_step(w, g, buf, lr=0.1, momentum=0.9)
        assert np.allclose(w, [1.0 - 0.05, 2.0 + 0.05], atol=1e-15)

    def test_pure_momentum_step(self):
        w = np.array([1.0])
        buf = np.array([2.0])
        sgd_momentum_step(w, np.array([0.0]), buf, lr=0.1, momentum=0.9)
        assert abs(w[0] - (1.0 - 0.1 * 0.9 * 2.0)) < 1e-15

    def test_three_steps_match_hand_unrolled_recurrence(self):
        # quadratic loss 0.5*w^2, grad = w; lr 0.1, momentum 0.9
        w = np.array([1.0])
        buf = np.zeros(1)
        # hand-unrolled oracle
        wo, v = 1.0, 0.0
        for _ in range(3):
            g = wo
            v = 0.9 * v + g
            wo = wo - 0.1 * v
            sgd_momentum_step(w, np.array([w[0]]), buf, lr=0.1, momentum=0.9)
        assert abs(w[0] - wo) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(InternalError):
            sgd_momentum_step(np.zeros(2), np.zeros(3), np.zeros(2), 0.1, 0.9)

    # lr 0.1 is the client step; server_step passes -1.0
    @pytest.mark.parametrize("lr", [0.1, -1.0])
    @pytest.mark.parametrize("n", [1, SGD_BLOCK - 1, SGD_BLOCK, SGD_BLOCK + 1, 3 * SGD_BLOCK + 5])
    def test_blocked_bit_identical_to_unblocked(self, n, lr):
        gen = RngStream(60).gen
        params, grads, velocity = (gen.normal(0.0, 10.0, n) for _ in range(3))
        special = [np.nan, np.inf, -np.inf, 1e308, -1e308]
        for a in (params, grads, velocity):
            # at both ends, at the first block edge and at random places
            where = np.unique(np.r_[0, n - 1, SGD_BLOCK - 1, SGD_BLOCK, gen.integers(0, n, 20)] % n)
            a[where] = gen.choice(special, len(where))
        want_p, want_v, grads0 = params.copy(), velocity.copy(), grads.copy()
        with np.errstate(all="ignore"):
            want_v *= 0.9
            want_v += grads
            want_p -= lr * want_v
            out = sgd_momentum_step(params, grads, velocity, lr, 0.9)
        bits = lambda a: a.view(np.uint64)
        assert out is params
        assert np.array_equal(bits(params), bits(want_p))
        assert np.array_equal(bits(velocity), bits(want_v))
        assert np.array_equal(bits(grads), bits(grads0))


class TestSumLastAxis:
    """sum_last_axis against np.sum, the oracle, byte for byte, on the one
    width it takes: the 8 basis values of a Spline-KAN edge."""

    @staticmethod
    def rows(gen):
        # Which of two NaNs with different bits an addition returns depends on
        # the operand order numpy's compiler chose, so no row mixes them.
        # The program's own NaNs all come from inf - inf, inf * 0 or the
        # like, and on one machine those all have the same bits.
        n = 8
        a = gen.normal(size=(14, n)) * gen.choice([1e-300, 1.0, 1e300], size=(14, n))
        a[0] = -0.0
        a[1] = 0.0
        a[1, ::2] = -0.0
        a[2:8] = gen.choice([0.0, -0.0, 1.0, -1.0], size=(6, n))
        a[8, n // 2] = np.inf
        a[9, 0], a[9, -1] = np.inf, -np.inf  # NaN from inf - inf
        a[10] = 1e308  # overflows
        a[11, -1] = np.nan
        a[12] = np.inf - np.inf  # x86's default NaN, sign bit set
        a[13, ::2] = -np.inf
        return a

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("n", list(range(1, 21)) + [64, 127, 128, 129])
    def test_bytes_match_np_sum(self, n):
        """n draws of the 14 special rows: columns of 14 * n rows."""
        gen = RngStream(70 + n).gen
        cube = np.stack([self.rows(gen) for _ in range(n)])
        before = cube.tobytes()
        got = sum_last_axis(cube)
        assert got.shape == (n, 14)
        assert got.tobytes() == np.sum(cube, axis=-1).tobytes()
        assert cube.tobytes() == before  # the input is left as it was
        flat = cube.reshape(-1, 8)
        assert sum_last_axis(flat).tobytes() == np.sum(flat, axis=-1).tobytes()

    @pytest.mark.parametrize("shape", [(3, 7), (4, 4), (2, 16), (5, 24, 16)])
    def test_other_widths_raise(self, shape):
        with pytest.raises(ValueError):
            sum_last_axis(np.ones(shape))


class TestBlasPin:
    def test_bundled_openblas_pinned(self):
        # numpy's wheels bundle an OpenBLAS whose setter is in OPENBLAS_SETTERS
        assert numerics.BLAS_THREADS == numerics.pin_blas()[0] == 1

    def test_every_mapped_openblas_pinned(self):
        # scipy maps an OpenBLAS of its own beside numpy's; whichever sorts
        # first, each is left at one thread
        import scipy.linalg  # noqa: F401
        assert numerics.pin_blas()[0] == 1
        threads = {}
        for path in self.mapped_openblas():
            lib = ctypes.CDLL(path)
            getter = next((getattr(lib, name.replace("_set_", "_get_"))
                           for name in numerics.OPENBLAS_SETTERS if hasattr(lib, name)), None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                threads[path] = getter()
        assert threads and set(threads.values()) == {1}, threads

    def test_core_name_read(self):
        # numpy's bundled OpenBLAS names the kernels it chose when it loaded
        assert numerics.BLAS_CORE == numerics.pin_blas()[1] != "unknown"

    def test_no_core_getter_unknown(self, monkeypatch):
        monkeypatch.setattr(numerics, "OPENBLAS_CORENAMES", ("no_such_getter",))
        assert numerics.pin_blas()[1] == "unknown"

    @pytest.mark.skipif(platform.machine() != "x86_64", reason="Nehalem is an x86-64 kernel")
    def test_core_name_follows_coretype_variable(self):
        # another kernel rounds differently, so the name must say which one runs
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "OPENBLAS_CORETYPE": "Nehalem", "PYTHONPATH": str(src)}
        out = subprocess.run([sys.executable, "-c", "from kanfed import numerics; "
                              "print(numerics.BLAS_CORE)"], env=env, capture_output=True,
                             text=True, check=True, timeout=60).stdout
        assert out.strip() == "Nehalem"

    def test_no_setter_unpinned(self, monkeypatch):
        monkeypatch.setattr(numerics, "OPENBLAS_SETTERS", ("no_such_setter",))
        assert numerics.pin_blas()[0] == "unpinned"

    @staticmethod
    def serve_maps(monkeypatch, *paths):
        """Let pin_blas read one /proc/self/maps line for each path."""
        text = "".join(f"7f0000000000-7f0000001000 r-xp 00000000 08:01 1234      {path}\n"
                       for path in paths)
        monkeypatch.setattr(numerics, "open", lambda *args: io.StringIO(text), raising=False)

    @staticmethod
    def mapped_openblas():
        """The mapped OpenBLAS paths, sorted: numpy's, and scipy's once loaded."""
        with open("/proc/self/maps") as f:
            return sorted({line.split(maxsplit=5)[5].strip() for line in f
                           if "openblas" in line.lower()})

    def test_path_with_space_pinned(self, tmp_path, monkeypatch):
        real = self.mapped_openblas()[0]
        link = tmp_path / "dir with space" / Path(real).name
        link.parent.mkdir()
        link.symlink_to(real)
        self.serve_maps(monkeypatch, link)
        assert numerics.pin_blas()[0] == 1

    def test_deleted_library_unpinned(self, tmp_path, monkeypatch):
        self.serve_maps(monkeypatch, f"{tmp_path / 'libscipy_openblas64_.so'} (deleted)")
        assert numerics.pin_blas() == ("unpinned", "unknown")

    def test_one_deleted_library_unpinned(self, tmp_path, monkeypatch):
        # the one that cannot be opened may be numpy's, whatever the others say
        self.serve_maps(monkeypatch, self.mapped_openblas()[0],
                        f"{tmp_path / 'libscipy_openblas64_.so'} (deleted)")
        assert numerics.pin_blas()[0] == "unpinned"
