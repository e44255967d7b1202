"""The three classifiers: MLP, Spline-KAN and RBF-KAN.

All three are stacks of layers that differ only in the function on each
edge, so one table, `LAYER_SPECS`, maps a model kind to a `LayerSpec`: a
layer's tensor shapes, their init, and a hand-derived forward and backward
(there is no autograd). `build_layout`, `init_params`, `forward` and
`backward` are each one loop over layers that calls the spec.

All parameters live in one flat float64 vector, laid out layer by layer as
(``l<layer>.<name>``, shape, offset) entries. The order matters outside this
module: `perfbench/checks.py::unflatten` reads it, and
`tests/test_models.py::test_reference_layout_pinned` pins it.
`backward` writes gradients into views of one vector of that layout, which
the caller may pass as `out`; every entry of it is overwritten.

Pixel-code input
----------------
`forward` takes either float64 inputs or uint8 pixel codes, the form in
which training and evaluation pass a loaded `Dataset`'s `model_inputs`. A code
c stands for the input value `data.PIXEL_LEVELS[c]`, so layer 0 only ever
sees 256 distinct values and reads them from 256-row tables: the MLP and
the RBF-KAN decode them to `PIXEL_LEVELS[codes]`, and the Spline-KAN never
decodes them: it reads silu and its 8 cubic basis values per code from
read-only tables built once, at import, by the same `silu`,
`bspline_basis_lower` and `basis_from_lower`. Each value is the same
float64 result the float path computes, so logits and parameter gradients
are bit-identical to those of the float input `PIXEL_LEVELS[codes]`. A code
has no gradient: for code input `backward` skips the layer-0 input gradient
and returns None in its place.

Layer equations
---------------
MLP layer:        y = x @ W.T + b, then ReLU on every layer but the last.
Spline-KAN layer: y = silu(x) @ Wb.T + B(x) @ (scaler * Ws).T
                  where B(x) stacks the 8 B-spline basis values per input
                  feature and the spline path reads the raw activation.
RBF-KAN layer:    z = layernorm(x); phi_j(z) = exp(-((z - c_j)/h)^2) over 8
                  fixed centers; y = phi(z) @ Wr.T + x @ Wa.T + b  (base
                  path is a plain affine map on the un-normalized input).

Each KAN has one fixed basis, the paper's: `splines.KNOTS`, grid 5 and order
3 on [-1, 1] (Liu et al., arXiv 2404.19756), and `RBF_CENTERS`, 8 Gaussian
centers on [-2, 2] with bandwidth `RBF_BANDWIDTH`, their spacing (FastKAN,
Li, arXiv 2405.06721).

The Spline-KAN's sums over the 8 basis values of each edge, the scaler
gradient sum_k dL/dWs_k Ws_k and the input gradient sum_k t_k B'_k, go
through `numerics.sum_last_axis`. It takes numpy's own order for an 8-long
last axis, ((v0 + v1) + (v2 + v3)) + ((v4 + v5) + (v6 + v7)) onto +0.0, as
seven passes over whole columns rather than one 8-long loop per edge, so
the sums are bit-identical to np.sum(..., axis=2) and take about a third
of its time at layer 0. The scaling Ws * scaler stays a broadcast multiply.
np.einsum("oik,oi->oik") takes it in one pass about 40% faster, but it adds
each product onto a zeroed output, which turns a -0.0 product into +0.0;
the scaled weight gradient of a background pixel's edge is such a zero.

The RBF-KAN sends the center axis through BLAS and never broadcasts over
it. The forward takes u_j = z/h - c_j/h for every input and center as one
(b*i, 2) @ (2, centers) product of [z, 1] with [[1/h, ...], [-c/h, ...]],
and turns that buffer into phi = exp(-u^2) in place. The backward takes
t = g @ Wr, multiplies it by phi in place, and gets s0 = sum_j t phi_j and
s1 = sum_j t phi_j c_j from one (b*i, centers) @ (centers, 2) product; then
dL/dz = -2/h^2 (z s0 - s1). These round differently from
exp(-(((z - c)/h)**2)) and its broadcast derivative, so results are not
bit-identical to that form; they agree to ~1e-14 of each tensor's
largest entry (tests/test_models.py::TestRbfKernel).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .data import PIXEL_LEVELS
from .errors import ConfigurationError, InternalError
from .numerics import RngStream, relu, relu_backward, silu, silu_backward, sum_last_axis
from .splines import N_BASIS, basis_from_lower, bspline_basis_lower, derivative_from_lower

KIND_MLP = "mlp"
KIND_SPLINE = "spline_kan"
KIND_RBF = "rbf_kan"
MODEL_KINDS = (KIND_MLP, KIND_SPLINE, KIND_RBF)

# Reference architectures for the three model kinds
MLP_WIDTHS = (784, 200, 200, 10)
KAN_WIDTHS = (784, 24, 24, 10)
REFERENCE_WIDTHS = {KIND_MLP: MLP_WIDTHS, KIND_SPLINE: KAN_WIDTHS, KIND_RBF: KAN_WIDTHS}

_LN_EPS = 1e-12  # float64; keeps normalized variance exact to ~1e-12

# the RBF-KAN's basis; the Spline-KAN's is splines.KNOTS (see the module docstring)
RBF_CENTERS = np.linspace(-2.0, 2.0, 8)
RBF_BANDWIDTH = float(RBF_CENTERS[-1] - RBF_CENTERS[0]) / (len(RBF_CENTERS) - 1)

# layer 0's tables of the 256 pixel codes: silu (256,) and the cubic basis (256, 8)
_SPLINE_SILU = silu(PIXEL_LEVELS)
_SPLINE_BASIS = basis_from_lower(PIXEL_LEVELS, bspline_basis_lower(PIXEL_LEVELS))
# the center operands of the RBF-KAN's two BLAS products over the centers c:
# [[1/h, ...], [-c/h, ...]] (2, 8) and [1, c] (8, 2)
_RBF_TO_U = np.stack([np.full_like(RBF_CENTERS, 1.0 / RBF_BANDWIDTH), -RBF_CENTERS / RBF_BANDWIDTH])
_RBF_TO_S = np.stack([np.ones_like(RBF_CENTERS), RBF_CENTERS], axis=1)
for _shared in (RBF_CENTERS, _SPLINE_SILU, _SPLINE_BASIS, _RBF_TO_U, _RBF_TO_S):
    _shared.flags.writeable = False  # read by every caller


@dataclass(frozen=True)
class ModelConfig:
    kind: str
    layer_widths: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ConfigurationError(f"unknown model kind {self.kind!r}")
        if len(self.layer_widths) < 2:
            raise ConfigurationError("need at least input and output widths")

    @property
    def n_layers(self) -> int:
        return len(self.layer_widths) - 1


def default_config(kind: str) -> ModelConfig:
    """Reference architecture for `kind` (MLP [784,200,200,10], KANs [784,24,24,10])."""
    return ModelConfig(kind=kind, layer_widths=REFERENCE_WIDTHS[kind])


# ---------------------------------------------------------------------------
# layer specs: p maps a tensor name to its view in the params, grad to its
# view in the flat gradient; i and o are the layer's input and output widths.
# A backward overwrites every entry of its grad views, whatever they held.
# A forward gets the layer input x: float64, or at layer 0 of a pixel-code
# batch the uint8 codes themselves, which stand for PIXEL_LEVELS[x]. A layer
# that reads floats decodes them (`_decoded`); the Spline-KAN reads its code
# tables instead. A backward returns the input gradient only when need_input
# is true, else None; it is false at layer 0 of a code batch.


class LayerSpec(NamedTuple):
    shapes: Callable  # (i, o) -> [(name, shape), ...] in flat-vector order
    init: Callable  # (gen, p, i, o) -> None; fills p in place
    forward: Callable  # (p, x, last) -> (y, cache)
    backward: Callable  # (p, cache, g, grad, need_input) -> g_in or None; fills grad


def _decoded(x):
    """x as float input: pixel codes decoded to PIXEL_LEVELS, floats as they are."""
    return PIXEL_LEVELS.take(x) if x.dtype == np.uint8 else x


def _mlp_shapes(i, o):
    return [("weight", (o, i)), ("bias", (o,))]


def _mlp_init(gen, p, i, o):
    """Kaiming-uniform fan-in weights, zero bias."""
    bound = np.sqrt(6.0 / i)
    p["weight"][:] = gen.uniform(-bound, bound, (o, i))


def _mlp_forward(p, x, last):
    x = _decoded(x)
    pre = x @ p["weight"].T + p["bias"]
    if last:
        return pre, {"x": x}
    return relu(pre), {"x": x, "pre": pre}


def _mlp_backward(p, cache, g, grad, need_input):
    if "pre" in cache:
        g = g * relu_backward(cache["pre"])
    np.matmul(g.T, cache["x"], out=grad["weight"])
    np.sum(g, axis=0, out=grad["bias"])
    return g @ p["weight"] if need_input else None


def _spline_shapes(i, o):
    return [("base_weight", (o, i)), ("spline_weight", (o, i, N_BASIS)),
            ("spline_scaler", (o, i))]


def _spline_init(gen, p, i, o):
    """Uniform 1/sqrt(fan_in) base weights and scalers, small-noise coefficients."""
    bound = 1.0 / np.sqrt(i)
    ws = p["spline_weight"]
    p["base_weight"][:] = gen.uniform(-bound, bound, (o, i))
    ws[:] = gen.normal(0.0, 0.1 / np.sqrt(ws.shape[2]), ws.shape)
    p["spline_scaler"][:] = gen.uniform(-bound, bound, (o, i))


def _spline_forward(p, x, last):
    ws, sc = p["spline_weight"], p["spline_scaler"]
    bsz, i = x.shape
    o, _, c = ws.shape
    if x.dtype == np.uint8:
        lower, act, bas = None, _SPLINE_SILU.take(x), _SPLINE_BASIS.take(x, axis=0)
    else:
        lower = bspline_basis_lower(x)  # degree order-1, reused by backward
        act, bas = silu(x), basis_from_lower(x, lower)  # (b, i), (b, i, c)
    ws_scaled = ws * sc[:, :, None]
    y = act @ p["base_weight"].T + bas.reshape(bsz, i * c) @ ws_scaled.reshape(o, i * c).T
    return y, {"x": x, "silu": act, "basis": bas, "lower": lower}


def _spline_backward(p, cache, g, grad, need_input):
    x, bas = cache["x"], cache["basis"]
    ws, sc = p["spline_weight"], p["spline_scaler"]
    bsz, i = x.shape
    o, _, c = ws.shape
    np.matmul(g.T, cache["silu"], out=grad["base_weight"])
    gw = (g.T @ bas.reshape(bsz, i * c)).reshape(o, i, c)
    np.multiply(gw, sc[:, :, None], out=grad["spline_weight"])
    gw *= ws
    grad["spline_scaler"][:] = sum_last_axis(gw)
    if not need_input:
        return None
    ws_scaled = (ws * sc[:, :, None]).reshape(o, i * c)
    t = (g @ ws_scaled).reshape(bsz, i, c)
    t *= derivative_from_lower(cache["lower"])
    return g @ p["base_weight"] * silu_backward(x) + sum_last_axis(t)


def _layernorm(x: np.ndarray):
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    zhat = (x - mu) * inv
    return zhat, inv


def _rbf_shapes(i, o):
    k = len(RBF_CENTERS)
    return [("ln_gain", (i,)), ("ln_bias", (i,)), ("rbf_weight", (o, i, k)),
            ("base_weight", (o, i)), ("base_bias", (o,))]


def _rbf_init(gen, p, i, o):
    """Clipped-normal weights at 1/sqrt(fan_in*centers) scale, uniform base
    weights, zero biases, layernorm gain 1 / bias 0."""
    p["ln_gain"][:] = 1.0
    k = len(RBF_CENTERS)
    scale = 1.0 / np.sqrt(i * k)
    raw = gen.normal(0.0, scale, (o, i, k))
    p["rbf_weight"][:] = np.clip(raw, -2 * scale, 2 * scale)
    bound = 1.0 / np.sqrt(i)
    p["base_weight"][:] = gen.uniform(-bound, bound, (o, i))


def _rbf_forward(p, x, last):
    x = _decoded(x)
    wr = p["rbf_weight"]
    bsz, i = x.shape
    o, _, k = wr.shape
    zhat, inv = _layernorm(x)
    z = zhat * p["ln_gain"] + p["ln_bias"]
    # u = z/h - c/h for every center: one (b*i, 2) @ (2, k) product, then phi in place
    zs = np.empty((bsz * i, 2))
    zs[:, 0] = z.ravel()
    zs[:, 1] = 1.0
    phi = zs @ _RBF_TO_U
    np.square(phi, out=phi)
    np.negative(phi, out=phi)
    np.exp(phi, out=phi)
    phi = phi.reshape(bsz, i * k)
    y = phi @ wr.reshape(o, -1).T + x @ p["base_weight"].T + p["base_bias"]
    return y, {"x": x, "zhat": zhat, "inv": inv, "z": z, "phi": phi}


def _rbf_backward(p, cache, g, grad, need_input):
    x, zhat, inv, z, phi = (cache[k] for k in ("x", "zhat", "inv", "z", "phi"))
    wr = p["rbf_weight"]
    bsz, i = x.shape
    o, _, k = wr.shape
    np.matmul(g.T, phi, out=grad["rbf_weight"].reshape(o, i * k))
    np.matmul(g.T, x, out=grad["base_weight"])
    np.sum(g, axis=0, out=grad["base_bias"])
    t = g @ wr.reshape(o, -1)
    t *= phi
    # dphi_k/dz = -2 (z - c_k)/h^2 phi_k, so dz = -2/h^2 (z s0 - s1) with
    # s0 = sum_k t phi_k and s1 = sum_k t phi_k c_k: one (b*i, k) @ (k, 2) product
    s0, s1 = (t.reshape(-1, k) @ _RBF_TO_S).T.reshape(2, bsz, i)
    dz = (-2.0 / RBF_BANDWIDTH**2) * (z * s0 - s1)
    np.sum(dz * zhat, axis=0, out=grad["ln_gain"])
    np.sum(dz, axis=0, out=grad["ln_bias"])
    if not need_input:
        return None
    dzhat = dz * p["ln_gain"]
    # layernorm backward with biased variance
    g_ln = inv * (
        dzhat
        - dzhat.mean(axis=1, keepdims=True)
        - zhat * (dzhat * zhat).mean(axis=1, keepdims=True)
    )
    return g_ln + g @ p["base_weight"]


LAYER_SPECS = {
    KIND_MLP: LayerSpec(_mlp_shapes, _mlp_init, _mlp_forward, _mlp_backward),
    KIND_SPLINE: LayerSpec(_spline_shapes, _spline_init, _spline_forward, _spline_backward),
    KIND_RBF: LayerSpec(_rbf_shapes, _rbf_init, _rbf_forward, _rbf_backward),
}


# ---------------------------------------------------------------------------
# flat parameter vector


def build_layout(config: ModelConfig) -> list[tuple[str, tuple[int, ...], int]]:
    """Ordered (name, shape, offset) table for the flat parameter vector."""
    spec = LAYER_SPECS[config.kind]
    layout = []
    offset = 0
    widths = config.layer_widths
    for l, (i, o) in enumerate(zip(widths[:-1], widths[1:])):
        for name, shape in spec.shapes(i, o):
            layout.append((f"l{l}.{name}", tuple(shape), offset))
            offset += math.prod(shape)
    return layout


def param_count(config: ModelConfig) -> int:
    return sum(math.prod(shape) for _, shape, _ in build_layout(config))


@dataclass
class ModelState:
    """Architecture descriptor plus flat parameter vector.

    `params` is the single source of truth; `layer_views(l)` returns reshaped
    views into it, so in-place updates of `params` are visible through them.
    """

    config: ModelConfig
    params: np.ndarray

    def __post_init__(self):
        layout = build_layout(self.config)
        expected = param_count(self.config)
        if self.params.shape != (expected,):
            raise InternalError(
                f"params length {self.params.shape} != expected ({expected},)"
            )
        self._layers = [[] for _ in range(self.config.n_layers)]
        for name, shape, off in layout:
            layer, short = name.split(".", 1)
            self._layers[int(layer[1:])].append((short, shape, off))

    def layer_views(self, l: int, flat: np.ndarray | None = None) -> dict[str, np.ndarray]:
        """Layer l's tensors by short name, as views into `flat` (default: params)."""
        flat = self.params if flat is None else flat
        return {
            short: flat[off : off + math.prod(shape)].reshape(shape)
            for short, shape, off in self._layers[l]
        }

    def clone(self) -> "ModelState":
        return ModelState(self.config, self.params.copy())


def init_params(config: ModelConfig, rng: RngStream) -> ModelState:
    """Deterministic parameter initialization, layer by layer (see each spec's init)."""
    state = ModelState(config, np.zeros(param_count(config)))
    spec = LAYER_SPECS[config.kind]
    gen = rng.child("init", config.kind).gen
    widths = config.layer_widths
    for l, (i, o) in enumerate(zip(widths[:-1], widths[1:])):
        spec.init(gen, state.layer_views(l), i, o)
    return state


def forward(state: ModelState, batch: np.ndarray):
    """Logits of `batch` and the cache that `backward` needs.

    `batch` is float input, or uint8 pixel codes that stand for the input
    `PIXEL_LEVELS[batch]` (see the module docstring).
    """
    cfg = state.config
    if batch.ndim != 2 or batch.shape[1] != cfg.layer_widths[0]:
        raise ConfigurationError(
            f"batch shape {batch.shape} incompatible with input width {cfg.layer_widths[0]}"
        )
    spec = LAYER_SPECS[cfg.kind]
    x = batch
    layers = []
    for l in range(cfg.n_layers):
        x, cache = spec.forward(state.layer_views(l), x, l == cfg.n_layers - 1)
        layers.append(cache)
    return x, {"params": state.params, "layers": layers, "codes": batch.dtype == np.uint8}


def backward(state: ModelState, cache: dict, grad_logits: np.ndarray,
             out: np.ndarray | None = None):
    """Gradient of the (already reduced) loss w.r.t. all parameters and input.

    `grad_logits` is dL/dlogits from the loss; returns (flat_param_grad,
    grad_input) with the flat gradient laid out as `build_layout` says. The flat
    gradient is written into `out` when given, overwriting every entry, and
    `out` itself is returned; else into a new vector. grad_input is None
    when the batch was pixel codes. The cache must come from `forward` on
    this state's current params array.
    """
    if cache.get("params") is not state.params:
        raise InternalError("cache does not belong to this model state")
    if out is not None and out.shape != state.params.shape:
        raise InternalError(f"gradient buffer {out.shape} != params {state.params.shape}")
    cfg = state.config
    spec = LAYER_SPECS[cfg.kind]
    flat = np.empty_like(state.params) if out is None else out
    g = grad_logits
    for l in range(cfg.n_layers - 1, -1, -1):
        g = spec.backward(state.layer_views(l), cache["layers"][l], g,
                          state.layer_views(l, flat), l > 0 or not cache["codes"])
    return flat, g
