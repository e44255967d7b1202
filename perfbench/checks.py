"""Correctness checks of the benchmark, computed apart from the program.

Every check raises `CheckFailed` with a reason. The reference values come
from the paper's architecture, from the IDX bytes read here directly, and
from a second implementation of each model's layer equations (scipy's
B-spline basis for the Spline-KAN). `check_fires.py` feeds each check a
corrupted input to show that it fires.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.interpolate import BSpline

# the paper's parameter counts of its three reference models
PAPER_PARAM_COUNTS = {"mlp": 199_210, "spline_kan": 196_320, "rbf_kan": 178_410}
WIDTHS = {"mlp": (784, 200, 200, 10), "spline_kan": (784, 24, 24, 10), "rbf_kan": (784, 24, 24, 10)}

# reference protocol and architecture constants
N_CLIENTS = 100
CLIENTS_PER_ROUND = 10
CLIENT_SIZE_RANGE = (400, 900)
MNIST_MEAN, MNIST_STD = 0.1307, 0.3081
SPLINE_KNOTS = -1.0 + 0.4 * (np.arange(12) - 3)  # grid 5 on [-1, 1], order 3
SPLINE_ORDER = 3
RBF_CENTERS = np.linspace(-2.0, 2.0, 8)
RBF_WIDTH = 4.0 / 7.0
CHANCE_ACCURACY = 0.1
LEARNED_ACCURACY = 2 * CHANCE_ACCURACY  # "well above chance"


class CheckFailed(Exception):
    pass


def ensure(cond, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


# ---------------------------------------------------------------------------
# parameter layout and reference forward pass


def layer_shapes(kind: str) -> list[list[tuple[str, tuple[int, ...]]]]:
    """Per layer, the (name, shape) tensors in flat-vector order."""
    layers = []
    for i, o in zip(WIDTHS[kind][:-1], WIDTHS[kind][1:]):
        if kind == "mlp":
            layers.append([("w", (o, i)), ("b", (o,))])
        elif kind == "spline_kan":
            n_basis = len(SPLINE_KNOTS) - SPLINE_ORDER - 1
            layers.append([("base", (o, i)), ("spline", (o, i, n_basis)), ("scaler", (o, i))])
        else:
            layers.append([
                ("gain", (i,)), ("shift", (i,)), ("rbf", (o, i, len(RBF_CENTERS))),
                ("base", (o, i)), ("bias", (o,)),
            ])
    return layers


def reference_param_count(kind: str) -> int:
    return sum(int(np.prod(s)) for layer in layer_shapes(kind) for _, s in layer)


def unflatten(kind: str, params: np.ndarray) -> list[dict]:
    out, pos = [], 0
    for layer in layer_shapes(kind):
        tensors = {}
        for name, shape in layer:
            n = int(np.prod(shape))
            tensors[name] = params[pos : pos + n].reshape(shape)
            pos += n
        out.append(tensors)
    ensure(pos == len(params), f"{len(params)} params, layout needs {pos}")
    return out


def spline_basis(x: np.ndarray) -> np.ndarray:
    """Cubic B-spline basis on the reference grid, from scipy; zero off-support."""
    n_basis = len(SPLINE_KNOTS) - SPLINE_ORDER - 1
    out = np.empty(x.shape + (n_basis,))
    for j in range(n_basis):
        element = BSpline.basis_element(SPLINE_KNOTS[j : j + SPLINE_ORDER + 2], extrapolate=False)
        out[..., j] = np.nan_to_num(element(x), nan=0.0)
    return out


def reference_forward(kind: str, params: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Logits from the layer equations of the paper's three models."""
    layers = unflatten(kind, params)
    for l, p in enumerate(layers):
        if kind == "mlp":
            x = x @ p["w"].T + p["b"]
            if l < len(layers) - 1:
                x = np.where(x > 0, x, 0.0)
        elif kind == "spline_kan":
            o, i, c = p["spline"].shape
            silu = x / (1.0 + np.exp(-x))
            coef = (p["spline"] * p["scaler"][:, :, None]).reshape(o, i * c)
            x = silu @ p["base"].T + spline_basis(x).reshape(len(x), i * c) @ coef.T
        else:
            o = p["bias"].shape[0]
            z = (x - x.mean(axis=1, keepdims=True)) / x.std(axis=1, keepdims=True)
            z = z * p["gain"] + p["shift"]
            phi = np.exp(-(((z[:, :, None] - RBF_CENTERS) / RBF_WIDTH) ** 2))
            x = phi.reshape(len(x), -1) @ p["rbf"].reshape(o, -1).T + x @ p["base"].T + p["bias"]
    return x


def mean_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean NLL and its gradient with respect to the logits."""
    z = logits - logits.max(axis=1, keepdims=True)
    p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    n = len(labels)
    loss = -np.log(p[np.arange(n), labels]).mean()
    grad = p.copy()
    grad[np.arange(n), labels] -= 1.0
    return float(loss), grad / n


# ---------------------------------------------------------------------------
# checks


def check_param_counts(kind: str, program_count: int, init_length: int) -> None:
    want = PAPER_PARAM_COUNTS[kind]
    ensure(reference_param_count(kind) == want, f"reference layout of {kind} is not {want}")
    ensure(program_count == want, f"{kind}: program counts {program_count} params, paper {want}")
    ensure(init_length == want, f"{kind}: initial params have length {init_length}, paper {want}")


def read_idx_labels(path) -> np.ndarray:
    with open(path, "rb") as f:
        ensure(int.from_bytes(f.read(4), "big") == 0x801, f"{path}: not an IDX label file")
        n = int.from_bytes(f.read(4), "big")
        return np.frombuffer(f.read(n), dtype=np.uint8).astype(np.int64)


def read_idx_images(path) -> np.ndarray:
    with open(path, "rb") as f:
        ensure(int.from_bytes(f.read(4), "big") == 0x803, f"{path}: not an IDX image file")
        n, rows, cols = (int.from_bytes(f.read(4), "big") for _ in range(3))
        return np.frombuffer(f.read(n * rows * cols), dtype=np.uint8).reshape(n, rows * cols)


def check_loaded(images: np.ndarray, labels: np.ndarray, raw_images: np.ndarray, raw_labels: np.ndarray) -> None:
    """Loaded split equals the IDX bytes, normalized with the MNIST constants."""
    ensure(np.array_equal(labels, raw_labels), "loaded labels differ from the IDX file")
    ensure(images.shape == raw_images.shape, f"loaded images {images.shape}, file {raw_images.shape}")
    rows = np.linspace(0, len(raw_images) - 1, 256).astype(int)
    want = (raw_images[rows] / 255.0 - MNIST_MEAN) / MNIST_STD
    ensure(np.allclose(images[rows], want, rtol=1e-12, atol=1e-12), "loaded pixels are not normalized MNIST values")


def check_partition(client_indices: list[np.ndarray], labels: np.ndarray) -> None:
    """Disjoint, covering, two labels per client, sizes in range with mean 600."""
    ensure(len(client_indices) == N_CLIENTS, f"{len(client_indices)} clients, want {N_CLIENTS}")
    everything = np.concatenate(client_indices)
    ensure(len(np.unique(everything)) == len(everything), "clients share samples")
    ensure(len(everything) == len(labels) and np.array_equal(np.sort(everything), np.arange(len(labels))),
           "clients do not cover every sample exactly once")
    sizes = np.array([len(ix) for ix in client_indices])
    lo, hi = CLIENT_SIZE_RANGE
    ensure(sizes.min() >= lo and sizes.max() <= hi, f"client sizes span [{sizes.min()}, {sizes.max()}]")
    ensure(sizes.sum() == len(labels) and len(labels) == 600 * N_CLIENTS, f"mean client size {sizes.mean()} != 600")
    for c, ix in enumerate(client_indices):
        n_labels = len(np.unique(labels[ix]))
        ensure(n_labels == 2, f"client {c} holds {n_labels} labels")


def check_sampling(sampled: list[list[int]]) -> None:
    for r, ids in enumerate(sampled, start=1):
        ensure(len(ids) == CLIENTS_PER_ROUND and len(set(ids)) == CLIENTS_PER_ROUND,
               f"round {r} samples {ids}, want {CLIENTS_PER_ROUND} distinct ids")
        ensure(all(isinstance(c, int) and 0 <= c < N_CLIENTS for c in ids), f"round {r} samples ids out of range: {ids}")


def check_directional_gradient(kind, params, grad, x, labels, seed: int) -> float:
    """Backward's gradient against a central difference of the reference loss."""
    v = np.random.default_rng(seed).normal(size=params.shape)
    v /= np.linalg.norm(v)
    eps = 1e-6

    def loss(theta):
        return mean_cross_entropy(reference_forward(kind, theta, x), labels)[0]

    numeric = (loss(params + eps * v) - loss(params - eps * v)) / (2 * eps)
    analytic = float(grad @ v)
    err = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-8)
    ensure(err < 1e-5, f"directional derivative {analytic:.10g} vs finite difference {numeric:.10g}")
    return err


def check_logits(logits: np.ndarray, reference: np.ndarray) -> None:
    scale = max(float(np.abs(reference).max()), 1.0)
    err = float(np.abs(logits - reference).max()) / scale
    ensure(err < 1e-9, f"forward logits differ from the layer equations by {err:.3g} (relative)")


def round_fault(rnd: int, test_acc: float, train_loss: float, test_loss: float,
                params_finite: bool) -> str | None:
    """Why a round failed, or None if it did not.

    A round fails when local SGD has diverged: its train loss, test loss or
    global params are not finite, or it is finite but, after round 1, its
    test accuracy is not well above chance."""
    if not (params_finite and math.isfinite(train_loss) and math.isfinite(test_loss)):
        return "non-finite"
    if rnd > 1 and test_acc < LEARNED_ACCURACY:
        return "near chance"
    return None


def check_same_hash(hashes: list[str]) -> None:
    ensure(len(set(hashes)) == 1, f"repeated trials give different log hashes: {sorted(set(hashes))}")
