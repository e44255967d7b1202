"""Deterministic dense numerics: RNG streams, activations, loss, SGD with momentum.

Everything here works on float64 numpy arrays and is bit-deterministic:
identical inputs give identical outputs on every run with the same numpy/BLAS
build. Matrices are plain 2-D ``np.ndarray`` with dtype float64, row-major.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import ConfigurationError, DataError, InternalError


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

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, path={self.path!r})"


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
    """np.sum(a, axis=-1) bit for bit, taking each addition over a column.

    numpy sums a contiguous last axis of n <= 128 elements row by row: onto
    a +0.0 start it adds the row's elements one after another when n < 8;
    else it keeps 8 strided partial sums r_k = a_k + a_k+8 + ..., adds them
    as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) and then adds the
    remaining n % 8 elements one after another. This takes the same
    additions in the same order, but each one over the column a[..., k] of
    all rows, so a short last axis costs n passes of one call each instead
    of one call per row. Longer axes go to np.sum. The match holds for a
    contiguous last axis (numpy adds other layouts in other orders), and up
    to which NaN comes out where two NaNs with different bits meet: that
    depends on the operand order numpy's compiler chose.
    """
    n = a.shape[-1]
    if not 0 < n <= 128:
        return np.sum(a, axis=-1)
    cols = a.reshape(-1, n).T
    if n < 8:
        total = np.zeros(cols.shape[1])
        for col in cols:
            total += col
    else:
        end = n - n % 8
        r = list(cols[:8])
        for start in range(8, end, 8):
            r = [r[k] + cols[start + k] for k in range(8)]
        total = r[0] + r[1]
        total += r[2] + r[3]
        right = r[4] + r[5]
        right += r[6] + r[7]
        total += right
        for col in cols[end:]:
            total += col
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
