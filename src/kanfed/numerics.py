"""Deterministic dense numerics: RNG streams, activations, loss, SGD with momentum.

Everything here works on float64 numpy arrays and is bit-deterministic:
identical inputs give identical outputs on every run with the same numpy/BLAS
build. OpenBLAS splits a matrix product differently on 1 and on 2 threads, so
importing this module sets every OpenBLAS mapped into the process, numpy's
among them, to one thread (`BLAS_THREADS`), whatever `OPENBLAS_NUM_THREADS`
says, and reads the core its kernels were chosen for (`BLAS_CORE`). Matrices
are plain 2-D ``np.ndarray`` with dtype float64, row-major.
"""

from __future__ import annotations

import ctypes
import hashlib

import numpy as np

from .errors import ConfigurationError, DataError, InternalError

# the thread-count setters and the core-name getters of the OpenBLAS builds
# numpy ships or links against
OPENBLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                    "openblas_set_num_threads64_", "openblas_set_num_threads")
OPENBLAS_CORENAMES = ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                      "openblas_get_corename64_", "openblas_get_corename")


def _symbol(lib, names):
    return next((getattr(lib, name) for name in names if hasattr(lib, name)), None)


def pin_blas() -> tuple[int | str, str]:
    """Set every mapped OpenBLAS with one of `OPENBLAS_SETTERS` to one thread
    and name the core its kernels run; returns (1, core). Opens each once.

    numpy's OpenBLAS is among them, and scipy's where scipy was imported
    first. The 1 is "unpinned" where none has a setter (another BLAS), where a
    mapped OpenBLAS cannot be opened (a mapped file since deleted, which may
    be numpy's), or where there is no /proc/self/maps to find them in: numpy's
    thread count, and with it the logs, may then be left to the BLAS.

    The core is as OpenBLAS names it ("SkylakeX"; `OPENBLAS_CORETYPE` can
    choose another), distinct names joined by ","; "unknown" where none has
    one of `OPENBLAS_CORENAMES`. The kernels round differently, so the logs'
    last bits depend on this name, not only on the BLAS build and the CPU.
    """
    try:
        with open("/proc/self/maps") as f:
            # the path is the sixth field, and may hold spaces
            paths = sorted({line.rstrip("\n").split(maxsplit=5)[5] for line in f
                            if "openblas" in line.lower()})
    except OSError:
        return "unpinned", "unknown"
    pinned = unopened = 0
    cores = set()
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # e.g. "/x/libopenblas.so (deleted)"
            unopened += 1
            continue
        setter = _symbol(lib, OPENBLAS_SETTERS)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)
            pinned += 1
        getter = _symbol(lib, OPENBLAS_CORENAMES)
        if getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_char_p
            core = getter()
            if core:
                cores.add(core.decode())
    return (1 if pinned and not unopened else "unpinned"), ",".join(sorted(cores)) or "unknown"


BLAS_THREADS, BLAS_CORE = pin_blas()


class RngStream:
    """Reproducible random stream with cheap, independent substreams.

    Built on the counter-based Philox generator, keyed by a SHA-256 digest of
    the integer seed and a label path. The same (seed, path) always produces
    the same sequence, on any platform, and substreams derived with different
    labels are statistically independent.
    """

    def __init__(self, seed: int, path: tuple[str, ...] = ()):
        self.seed = int(seed)
        self.path = tuple(path)
        digest = hashlib.sha256(
            ("%d/" % self.seed + "/".join(self.path)).encode()
        ).digest()
        key = np.frombuffer(digest[:16], dtype="<u8")  # Philox takes a 128-bit key
        self.gen = np.random.Generator(np.random.Philox(key=key))

    def child(self, *labels: str) -> "RngStream":
        """Derive an independent substream labelled by `labels`."""
        return RngStream(self.seed, self.path + tuple(str(l) for l in labels))


def sigmoid(x: np.ndarray) -> np.ndarray:
    # tanh form is overflow-free for any x
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def silu(x: np.ndarray) -> np.ndarray:
    """Elementwise x * sigmoid(x)."""
    return x * sigmoid(x)


def silu_backward(x: np.ndarray) -> np.ndarray:
    """Derivative of silu: sigmoid(x) * (1 + x * (1 - sigmoid(x)))."""
    s = sigmoid(x)
    return s * (1.0 + x * (1.0 - s))


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(x: np.ndarray) -> np.ndarray:
    return (x > 0.0).astype(np.float64)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax, stabilized by max subtraction."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean NLL over the batch and its gradient w.r.t. the logits.

    The gradient is (softmax - one_hot) / batch_size, matching the mean
    reduction of the loss.
    """
    labels = np.asarray(labels)
    n, k = logits.shape
    if labels.shape != (n,):
        raise ConfigurationError(
            f"labels shape {labels.shape} does not match batch size {n}"
        )
    if labels.min() < 0 or labels.max() >= k:
        raise DataError(
            f"label out of range [0, {k}): min={labels.min()}, max={labels.max()}"
        )
    logp = log_softmax(logits)
    loss = -logp[np.arange(n), labels].sum() / n
    grad = np.exp(logp)
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return float(loss), grad


def per_sample_nll(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-sample negative log-likelihood (no reduction); used by evaluation."""
    labels = np.asarray(labels)
    logp = log_softmax(logits)
    return -logp[np.arange(len(labels)), labels]


def sum_last_axis(a: np.ndarray) -> np.ndarray:
    """np.sum(a, axis=-1) bit for bit for a last axis of 8, one column at a time.

    numpy sums a contiguous 8-long last axis row by row, as
    ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7)) onto a +0.0 start.
    This takes the same additions in the same order, but each one over the
    column a[..., k] of all rows, so it costs seven passes of one call each
    instead of one call per row. The match holds for a contiguous last axis
    (numpy adds other layouts in other orders), and up to which NaN comes out
    where two NaNs with different bits meet: that depends on the operand
    order numpy's compiler chose. Another width fails a reshape (ValueError).
    """
    c = a.reshape(-1, 8).T
    total = c[0] + c[1]
    total += c[2] + c[3]
    right = c[4] + c[5]
    right += c[6] + c[7]
    total += right
    total += 0.0  # the +0.0 start; it only turns a -0.0 sum into +0.0
    return total.reshape(a.shape[:-1])


# elements per block of `sgd_momentum_step`: 256 KB of each array, so a
# block of params, velocity, grads and lr*v stays in L2 between the passes
SGD_BLOCK = 32_768


def sgd_momentum_step(
    params: np.ndarray,
    grads: np.ndarray,
    velocity: np.ndarray,
    lr: float,
    momentum: float,
) -> np.ndarray:
    """In-place heavy-ball update: v <- m*v + g; w <- w - lr*v.

    No dampening, no Nesterov, no weight decay. Returns `params` for
    convenience; both `params` and `velocity` are mutated, `grads` is not.

    The update runs over blocks of `SGD_BLOCK` elements and makes all four
    passes (v *= m; v += g; t = lr*v; w -= t) over one block before the
    next, so the arrays go through L2 once instead of through L3 four
    times, and t is one block long. Every element goes through the same
    operations as in the unblocked update, and no element depends on
    another, so the result is bit-identical to it, NaN and inf included.
    """
    if params.shape != grads.shape or params.shape != velocity.shape:
        raise InternalError(
            f"sgd length mismatch: params {params.shape}, grads {grads.shape}, "
            f"velocity {velocity.shape}"
        )
    for start in range(0, len(params), SGD_BLOCK):
        block = slice(start, start + SGD_BLOCK)
        p, v = params[block], velocity[block]
        v *= momentum
        v += grads[block]
        p -= lr * v
    return params
