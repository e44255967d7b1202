import math

import numpy as np
import pytest

from kanfed import models, splines
from kanfed.data import PIXEL_LEVELS
from kanfed.errors import ConfigurationError, InternalError
from kanfed.models import (
    KIND_MLP,
    KIND_RBF,
    KIND_SPLINE,
    MODEL_KINDS,
    ModelConfig,
    ModelState,
    backward,
    default_config,
    forward,
    init_params,
    param_count,
)
from kanfed.numerics import RngStream, silu, silu_backward, softmax_cross_entropy

from conftest import rel_err
from test_splines import bspline_basis, trailing_derivative, trailing_from_lower, trailing_lower


def small_config(kind, widths=(6, 3, 2)):
    return ModelConfig(kind=kind, layer_widths=widths)


def loss_of(state, x, y):
    logits, _ = forward(state, x)
    return softmax_cross_entropy(logits, y)[0]


def fd_param_grad(state, x, y, h=1e-5):
    out = np.zeros_like(state.params)
    for i in range(len(state.params)):
        state.params[i] += h
        lp = loss_of(state, x, y)
        state.params[i] -= 2 * h
        lm = loss_of(state, x, y)
        state.params[i] += h
        out[i] = (lp - lm) / (2 * h)
    return out


def fd_input_grad(state, x, y, h=1e-5):
    out = np.zeros_like(x)
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            x[i, j] += h
            lp = loss_of(state, x, y)
            x[i, j] -= 2 * h
            lm = loss_of(state, x, y)
            x[i, j] += h
            out[i, j] = (lp - lm) / (2 * h)
    return out


class TestParamCount:
    # the paper's three counts: tests/test_acceptance.py criterion 1
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_closed_form(self, kind):
        cfg = ModelConfig(kind=kind, layer_widths=(7, 5, 3))
        expected = 0
        for i, o in [(7, 5), (5, 3)]:
            if kind == KIND_MLP:
                expected += i * o + o
            elif kind == KIND_SPLINE:
                expected += i * o * splines.N_BASIS + 2 * i * o
            else:
                expected += 2 * i + len(models.RBF_CENTERS) * i * o + i * o + o
        assert param_count(cfg) == expected

    # perfbench/checks.py::unflatten reads the flat vector in exactly this
    # order, and this table pins it: (name, shape, offset) of every tensor
    REFERENCE_LAYOUTS = {
        KIND_MLP: [
            ("l0.weight", (200, 784), 0),
            ("l0.bias", (200,), 156800),
            ("l1.weight", (200, 200), 157000),
            ("l1.bias", (200,), 197000),
            ("l2.weight", (10, 200), 197200),
            ("l2.bias", (10,), 199200),
        ],
        KIND_SPLINE: [
            ("l0.base_weight", (24, 784), 0),
            ("l0.spline_weight", (24, 784, 8), 18816),
            ("l0.spline_scaler", (24, 784), 169344),
            ("l1.base_weight", (24, 24), 188160),
            ("l1.spline_weight", (24, 24, 8), 188736),
            ("l1.spline_scaler", (24, 24), 193344),
            ("l2.base_weight", (10, 24), 193920),
            ("l2.spline_weight", (10, 24, 8), 194160),
            ("l2.spline_scaler", (10, 24), 196080),
        ],
        KIND_RBF: [
            ("l0.ln_gain", (784,), 0),
            ("l0.ln_bias", (784,), 784),
            ("l0.rbf_weight", (24, 784, 8), 1568),
            ("l0.base_weight", (24, 784), 152096),
            ("l0.base_bias", (24,), 170912),
            ("l1.ln_gain", (24,), 170936),
            ("l1.ln_bias", (24,), 170960),
            ("l1.rbf_weight", (24, 24, 8), 170984),
            ("l1.base_weight", (24, 24), 175592),
            ("l1.base_bias", (24,), 176168),
            ("l2.ln_gain", (24,), 176192),
            ("l2.ln_bias", (24,), 176216),
            ("l2.rbf_weight", (10, 24, 8), 176240),
            ("l2.base_weight", (10, 24), 178160),
            ("l2.base_bias", (10,), 178400),
        ],
    }

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_reference_layout_pinned(self, kind):
        assert models.build_layout(default_config(kind)) == self.REFERENCE_LAYOUTS[kind]

    def test_layout_contiguous(self):
        for kind in MODEL_KINDS:
            layout = models.build_layout(default_config(kind))
            pos = 0
            for name, shape, offset in layout:
                assert offset == pos
                pos += int(np.prod(shape))


class TestInit:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_deterministic(self, kind):
        cfg = small_config(kind)
        a = init_params(cfg, RngStream(9))
        b = init_params(cfg, RngStream(9))
        assert np.array_equal(a.params, b.params)

    def test_spline_path_starts_small(self):
        cfg = small_config(KIND_SPLINE, (10, 8, 4))
        state = init_params(cfg, RngStream(11))
        x = RngStream(12).gen.uniform(-1, 1, (64, 10))
        p = state.layer_views(0)
        wb, ws, sc = p["base_weight"], p["spline_weight"], p["spline_scaler"]
        base = silu(x) @ wb.T
        bas = bspline_basis(x)
        scaled = (ws * sc[:, :, None]).reshape(8, -1)
        spline = bas.reshape(64, -1) @ scaled.T
        assert np.abs(spline).mean() < np.abs(base).mean()


class TestLayerConstants:
    """Each KAN's fixed basis, and the tables and operands built from it once."""

    def test_spline_grid(self):
        knots = splines.KNOTS
        assert knots.tobytes() == (-1.0 + (2.0 / 5) * (np.arange(12) - 3)).tobytes()
        assert splines.N_BASIS == 8 and not knots.flags.writeable

    def test_rbf_centers_and_bandwidth(self):
        assert np.array_equal(models.RBF_CENTERS, np.linspace(-2, 2, 8))
        assert models.RBF_BANDWIDTH.hex() == (4.0 / 7).hex()

    def test_rbf_operands(self):
        c, h = models.RBF_CENTERS, models.RBF_BANDWIDTH
        assert np.array_equal(models._RBF_TO_U, np.stack([np.full(8, 1.0 / h), -c / h]))
        assert np.array_equal(models._RBF_TO_S, np.stack([np.ones(8), c], axis=1))

    def test_read_only(self):
        assert models._SPLINE_SILU.shape == (256,) and models._SPLINE_BASIS.shape == (256, 8)
        for shared in (models.RBF_CENTERS, models._SPLINE_SILU, models._SPLINE_BASIS,
                       models._RBF_TO_U, models._RBF_TO_S):
            assert not shared.flags.writeable


class TestForward:
    def test_mlp_zero_params(self):
        cfg = small_config(KIND_MLP, (4, 3, 10))
        state = ModelState(cfg, np.zeros(param_count(cfg)))
        x = RngStream(1).gen.uniform(-1, 1, (5, 4))
        logits, _ = forward(state, x)
        assert np.all(logits == 0.0)
        loss, _ = softmax_cross_entropy(logits, np.zeros(5, dtype=int))
        assert abs(loss - math.log(10)) < 1e-12

    def test_mlp_single_hidden_unit_hand_example(self):
        cfg = ModelConfig(kind=KIND_MLP, layer_widths=(1, 1, 1))
        state = ModelState(cfg, np.zeros(param_count(cfg)))
        l0, l1 = state.layer_views(0), state.layer_views(1)
        l0["weight"][:] = 2.0
        l0["bias"][:] = -1.0
        l1["weight"][:] = 3.0
        l1["bias"][:] = 0.5
        logits, _ = forward(state, np.array([[2.0]]))
        # relu(2*2 - 1) * 3 + 0.5 = 9.5
        assert abs(logits[0, 0] - 9.5) < 1e-15
        logits, _ = forward(state, np.array([[-1.0]]))
        assert abs(logits[0, 0] - 0.5) < 1e-15  # hidden unit clamped at 0

    def test_spline_zero_weights_equals_silu_linear(self):
        cfg = small_config(KIND_SPLINE, (5, 4, 3))
        state = init_params(cfg, RngStream(2))
        l0, l1 = state.layer_views(0), state.layer_views(1)
        for p in (l0, l1):
            p["spline_weight"][:] = 0.0
            p["spline_scaler"][:] = 0.0
        x = RngStream(3).gen.uniform(-1, 1, (6, 5))
        logits, _ = forward(state, x)
        h = silu(x) @ l0["base_weight"].T
        oracle = silu(h) @ l1["base_weight"].T
        assert np.abs(logits - oracle).max() < 1e-12

    def test_rows_independent(self):
        for kind in MODEL_KINDS:
            state = init_params(small_config(kind), RngStream(4))
            row = RngStream(5).gen.uniform(-1, 1, (1, 6))
            batch = np.repeat(row, 4, axis=0)
            logits, _ = forward(state, batch)
            assert np.abs(logits - logits[0]).max() < 1e-12

    def test_pure_function_of_params_and_batch(self):
        for kind in MODEL_KINDS:
            state = init_params(small_config(kind), RngStream(6))
            x = RngStream(7).gen.uniform(-1, 1, (3, 6))
            a, _ = forward(state, x)
            b, _ = forward(state, x)
            assert np.array_equal(a, b)

    def test_shape_mismatch(self):
        state = init_params(small_config(KIND_SPLINE), RngStream(8))
        with pytest.raises(ConfigurationError):
            forward(state, np.zeros((2, 7)))

    def test_rbf_layernorm_identity(self):
        x = RngStream(9).gen.uniform(-3, 3, (10, 20))
        zhat, _ = models._layernorm(x)
        assert np.abs(zhat.mean(axis=1)).max() < 1e-9
        assert np.abs(zhat.var(axis=1) - 1.0).max() < 1e-9

    def test_rbf_center_hit_gives_unit_activation(self):
        cfg = small_config(KIND_RBF, (4, 3, 2))
        state = init_params(cfg, RngStream(10))
        centers = models.RBF_CENTERS
        # gain 0 makes z = ln_bias exactly, here the third center for every input
        state.layer_views(0)["ln_gain"][:] = 0.0
        state.layer_views(0)["ln_bias"][:] = centers[2]
        _, cache = forward(state, RngStream(11).gen.uniform(-1, 1, (3, 4)))
        phi = cache["layers"][0]["phi"].reshape(3, 4, 8)
        # phi is exp(-((z - c)/h)^2): exactly 1 when z equals the center
        assert np.all(phi[:, :, 2] == 1.0)
        others = np.exp(-(((centers[2] - np.delete(centers, 2)) / models.RBF_BANDWIDTH) ** 2))
        assert np.abs(np.delete(phi, 2, axis=2) - others).max() < 1e-15


class TestBackward:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_full_gradient_check(self, kind):
        cfg = small_config(kind, (6, 3, 2))
        state = init_params(cfg, RngStream(20))
        gen = RngStream(21).gen
        x = gen.uniform(-2, 2, (5, 6))
        y = gen.integers(0, 2, 5)
        logits, cache = forward(state, x)
        _, gl = softmax_cross_entropy(logits, y)
        g, gx = backward(state, cache, gl)
        assert rel_err(g, fd_param_grad(state, x, y)) < 1e-5
        assert rel_err(gx, fd_input_grad(state, x, y)) < 1e-5

    def test_zero_upstream_gradient(self):
        for kind in MODEL_KINDS:
            state = init_params(small_config(kind), RngStream(22))
            x = RngStream(23).gen.uniform(-1, 1, (3, 6))
            _, cache = forward(state, x)
            g, gx = backward(state, cache, np.zeros((3, 2)))
            assert np.all(g == 0.0) and np.all(gx == 0.0)

    def test_duplicated_batch_matches_single_row(self):
        for kind in MODEL_KINDS:
            state = init_params(small_config(kind), RngStream(24))
            row = RngStream(25).gen.uniform(-1, 1, (1, 6))
            y1 = np.array([1])
            logits, cache = forward(state, row)
            _, gl = softmax_cross_entropy(logits, y1)
            g1, _ = backward(state, cache, gl)
            batch = np.repeat(row, 4, axis=0)
            logits, cache = forward(state, batch)
            _, gl = softmax_cross_entropy(logits, np.repeat(y1, 4))
            g4, _ = backward(state, cache, gl)
            assert rel_err(g1, g4, floor=1e-9) < 1e-9

    def test_single_coefficient_perturbation(self):
        cfg = small_config(KIND_SPLINE, (6, 3, 2))
        state = init_params(cfg, RngStream(26))
        gen = RngStream(27).gen
        x = gen.uniform(-1, 1, (4, 6))
        y = gen.integers(0, 2, 4)
        logits, cache = forward(state, x)
        loss0, gl = softmax_cross_entropy(logits, y)
        g, _ = backward(state, cache, gl)
        idx = 17
        eps = 1e-6
        state.params[idx] += eps
        loss1 = loss_of(state, x, y)
        assert abs((loss1 - loss0) - eps * g[idx]) < 10 * eps**2

    @pytest.mark.parametrize("codes", [True, False])
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_out_buffer_overwritten(self, kind, codes):
        state = init_params(default_config(kind), RngStream(30))
        x = RngStream(31).gen.integers(0, 256, (64, 784)).astype(np.uint8)
        _, cache = forward(state, x if codes else PIXEL_LEVELS[x])
        gl = RngStream(32).gen.normal(size=(64, 10))
        buf = np.full(len(state.params), np.nan)  # a NaN left anywhere shows
        g, gx = backward(state, cache, gl, out=buf)
        g_new, gx_new = backward(state, cache, gl)
        assert g is buf
        assert np.array_equal(buf, g_new)
        assert (gx is None and gx_new is None) if codes else np.array_equal(gx, gx_new)

    def test_out_buffer_of_wrong_length_rejected(self):
        state = init_params(small_config(KIND_MLP), RngStream(33))
        _, cache = forward(state, np.zeros((2, 6)))
        with pytest.raises(InternalError):
            backward(state, cache, np.zeros((2, 2)), out=np.empty(len(state.params) + 1))

    def test_stale_cache_rejected(self):
        state = init_params(small_config(KIND_MLP), RngStream(28))
        other = init_params(small_config(KIND_MLP), RngStream(29))
        x = np.zeros((2, 6))
        _, cache = forward(state, x)
        with pytest.raises(InternalError):
            backward(other, cache, np.zeros((2, 2)))

    def test_cache_rejected_after_params_rebound(self):
        state = init_params(small_config(KIND_MLP), RngStream(28))
        _, cache = forward(state, np.zeros((2, 6)))
        state.params = state.params.copy()
        with pytest.raises(InternalError):
            backward(state, cache, np.zeros((2, 2)))


class TestPixelCodes:
    """uint8 pixel codes take the table path; it must match the float path bit for bit."""

    @staticmethod
    def both_paths(state, codes, seed):
        gl = RngStream(seed).gen.normal(size=(len(codes), state.config.layer_widths[-1]))
        out = []
        for batch in (codes, PIXEL_LEVELS[codes]):
            logits, cache = forward(state, batch)
            out.append((logits, *backward(state, cache, gl)))
        return out

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("batch", [64, 512])
    def test_reference_configs_bit_identical(self, kind, batch):
        state = init_params(default_config(kind), RngStream(40))
        codes = RngStream(41).gen.integers(0, 256, (batch, 784)).astype(np.uint8)
        (lc, gc, gxc), (lf, gf, gxf) = self.both_paths(state, codes, 42)
        assert np.array_equal(lc, lf)
        assert np.array_equal(gc, gf)
        assert gxc is None and gxf.shape == (batch, 784)

    def test_every_code_on_another_grid(self):
        """All 256 codes, on the fixed grid; codes 207-255 fall outside its support."""
        state = init_params(ModelConfig(kind=KIND_SPLINE, layer_widths=(256, 4, 3)), RngStream(43))
        codes = np.stack([np.arange(256, dtype=np.uint8), np.arange(256)[::-1].astype(np.uint8)])
        (lc, gc, gxc), (lf, gf, _) = self.both_paths(state, codes, 44)
        assert np.array_equal(lc, lf) and np.array_equal(gc, gf) and gxc is None

    def test_spline_kan_never_decodes_codes(self, monkeypatch):
        class NoTake(np.ndarray):
            def take(self, *args, **kwargs):
                raise AssertionError("pixel codes decoded")

        monkeypatch.setattr(models, "PIXEL_LEVELS", PIXEL_LEVELS.view(NoTake))
        codes = RngStream(45).gen.integers(0, 256, (64, 784)).astype(np.uint8)
        with pytest.raises(AssertionError, match="decoded"):
            forward(init_params(default_config(KIND_MLP), RngStream(46)), codes)
        state = init_params(default_config(KIND_SPLINE), RngStream(46))
        logits, cache = forward(state, codes)
        grad, gx = backward(state, cache, RngStream(47).gen.normal(size=(64, 10)))
        assert np.isfinite(logits).all() and np.isfinite(grad).all() and gx is None


def _broadcast_rbf_forward(p, x, last):
    """The RBF-KAN layer with u broadcast over (batch, in, centers): the oracle."""
    if x.dtype == np.uint8:
        x = PIXEL_LEVELS[x]
    wr = p["rbf_weight"]
    bsz, o = x.shape[0], wr.shape[0]
    zhat, inv = models._layernorm(x)
    z = zhat * p["ln_gain"] + p["ln_bias"]
    u = (z[:, :, None] - models.RBF_CENTERS) / models.RBF_BANDWIDTH
    phi = np.exp(-(u**2))
    y = phi.reshape(bsz, -1) @ wr.reshape(o, -1).T + x @ p["base_weight"].T + p["base_bias"]
    return y, {"x": x, "zhat": zhat, "inv": inv, "phi": phi, "u": u}


def _broadcast_rbf_backward(p, cache, g, grad, need_input):
    x, zhat, inv, phi, u = (cache[k] for k in ("x", "zhat", "inv", "phi", "u"))
    wr = p["rbf_weight"]
    bsz, i = x.shape
    o = wr.shape[0]
    grad["rbf_weight"][:] = (g.T @ phi.reshape(bsz, -1)).reshape(o, i, -1)
    grad["base_weight"][:] = g.T @ x
    grad["base_bias"][:] = g.sum(axis=0)
    t = (g @ wr.reshape(o, -1)).reshape(bsz, i, -1)
    dz = (t * phi * (-2.0 * u / models.RBF_BANDWIDTH)).sum(axis=2)
    grad["ln_gain"][:] = (dz * zhat).sum(axis=0)
    grad["ln_bias"][:] = dz.sum(axis=0)
    if not need_input:
        return None
    dzhat = dz * p["ln_gain"]
    g_ln = inv * (
        dzhat
        - dzhat.mean(axis=1, keepdims=True)
        - zhat * (dzhat * zhat).mean(axis=1, keepdims=True)
    )
    return g_ln + g @ p["base_weight"]


class TestRbfKernel:
    """The BLAS form of the RBF-KAN layer against the broadcast equations, to 1e-12."""

    @staticmethod
    def both_kernels(state, batch, seed, monkeypatch):
        gl = RngStream(seed).gen.normal(size=(len(batch), state.config.layer_widths[-1]))
        out = []
        for spec in (models.LAYER_SPECS[KIND_RBF],
                     models.LayerSpec(models._rbf_shapes, models._rbf_init,
                                      _broadcast_rbf_forward, _broadcast_rbf_backward)):
            monkeypatch.setitem(models.LAYER_SPECS, KIND_RBF, spec)
            logits, cache = forward(state, batch)
            out.append((logits, *backward(state, cache, gl)))
        return out

    @staticmethod
    def assert_close(new, old):
        for a, b in zip(new, old):
            if b is None:
                assert a is None
            else:
                assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    @pytest.mark.parametrize("codes", [True, False])
    @pytest.mark.parametrize("batch", [64, 512])
    def test_reference_config(self, monkeypatch, batch, codes):
        state = init_params(default_config(KIND_RBF), RngStream(50))
        x = RngStream(51).gen.integers(0, 256, (batch, 784)).astype(np.uint8)
        new, old = self.both_kernels(state, x if codes else PIXEL_LEVELS[x], 52, monkeypatch)
        assert (new[2] is None) == codes
        self.assert_close(new, old)

    @pytest.mark.parametrize("hidden", [8])
    def test_small_configs(self, monkeypatch, hidden):
        cfg = ModelConfig(kind=KIND_RBF, layer_widths=(784, hidden, 6, 10))
        state = init_params(cfg, RngStream(53))
        x = RngStream(54).gen.uniform(-1, 3, (64, 784))
        self.assert_close(*self.both_kernels(state, x, 55, monkeypatch))

    @pytest.mark.parametrize("scale, overflows", [(1e80, False), (1e160, True), (1e300, True)])
    def test_same_non_finite_entries(self, monkeypatch, scale, overflows):
        state = init_params(default_config(KIND_RBF), RngStream(56))
        state.params *= scale
        x = PIXEL_LEVELS[RngStream(57).gen.integers(0, 256, (64, 784))]
        with np.errstate(all="ignore"):
            new, old = self.both_kernels(state, x, 58, monkeypatch)
        assert any(not np.isfinite(b).all() for b in old) == overflows
        for a, b in zip(new, old):
            assert np.array_equal(np.isfinite(a), np.isfinite(b))


def _oracle_spline_forward(p, x, last):
    """The Spline-KAN layer as it was with np.sum over the basis axis and
    the trailing-axis recursion: the byte-exact oracle. At layer 0 of a code
    batch x holds the codes, so the shapes are those of the codes."""
    ws, sc = p["spline_weight"], p["spline_scaler"]
    bsz, i = x.shape
    o, _, c = ws.shape
    if x.dtype == np.uint8:
        bas_table = trailing_from_lower(PIXEL_LEVELS, trailing_lower(PIXEL_LEVELS))
        lower, act, bas = None, silu(PIXEL_LEVELS).take(x), bas_table.take(x, axis=0)
    else:
        lower = trailing_lower(x)
        act, bas = silu(x), trailing_from_lower(x, lower)
    ws_scaled = ws * sc[:, :, None]
    y = act @ p["base_weight"].T + bas.reshape(bsz, i * c) @ ws_scaled.reshape(o, i * c).T
    return y, {"x": x, "silu": act, "basis": bas, "lower": lower}


def _oracle_spline_backward(p, cache, g, grad, need_input):
    x, bas = cache["x"], cache["basis"]
    ws, sc = p["spline_weight"], p["spline_scaler"]
    bsz, i, c = bas.shape
    o = ws.shape[0]
    np.matmul(g.T, cache["silu"], out=grad["base_weight"])
    gw = (g.T @ bas.reshape(bsz, i * c)).reshape(o, i, c)
    np.multiply(gw, sc[:, :, None], out=grad["spline_weight"])
    gw *= ws
    np.sum(gw, axis=2, out=grad["spline_scaler"])
    if not need_input:
        return None
    ws_scaled = (ws * sc[:, :, None]).reshape(o, i * c)
    t = (g @ ws_scaled).reshape(bsz, i, c)
    dbas = trailing_derivative(cache["lower"])
    return g @ p["base_weight"] * silu_backward(x) + (t * dbas).sum(axis=2)


class TestSplineKernel:
    """The Spline-KAN layer against the oracle copy above, byte for byte."""

    @pytest.mark.parametrize("codes", [True, False])
    @pytest.mark.parametrize("batch", [64, 512])
    def test_reference_config(self, monkeypatch, batch, codes):
        state = init_params(default_config(KIND_SPLINE), RngStream(90))
        x = RngStream(91).gen.integers(0, 256, (batch, 784)).astype(np.uint8)
        x[:, :100] = 0  # background pixels: their basis columns hold exact zeros
        gl = RngStream(92).gen.normal(size=(batch, 10))
        out = []
        for spec in (models.LAYER_SPECS[KIND_SPLINE],
                     models.LayerSpec(models._spline_shapes, models._spline_init,
                                      _oracle_spline_forward, _oracle_spline_backward)):
            monkeypatch.setitem(models.LAYER_SPECS, KIND_SPLINE, spec)
            logits, cache = forward(state, x if codes else PIXEL_LEVELS[x])
            out.append((logits, *backward(state, cache, gl)))
        (logits, grad, gx), (old_logits, old_grad, old_gx) = out
        assert logits.tobytes() == old_logits.tobytes()
        assert grad.tobytes() == old_grad.tobytes()
        assert (gx is None) == (old_gx is None) == codes
        if not codes:
            assert gx.tobytes() == old_gx.tobytes()
        # the zero gradients of the background pixels carry both signs
        zeros = grad[grad == 0]
        assert np.signbit(zeros).any() and not np.signbit(zeros).all()
