import numpy as np
import pytest

from kanfed import models, splines
from kanfed.models import ModelConfig, backward, forward, init_params
from kanfed.numerics import RngStream
from kanfed.splines import KNOTS, basis_from_lower, bspline_basis_lower, derivative_from_lower


def bspline_basis(x):
    """Cubic basis values, shape x.shape + (8,)."""
    return basis_from_lower(x, bspline_basis_lower(x))


def bspline_basis_derivative(x):
    """d/dx of each cubic basis function."""
    return derivative_from_lower(bspline_basis_lower(x))


def uniform_knots(grid_size, order):
    """The knots of `grid_size` intervals on [-1, 1], `order` more on each side."""
    return -1.0 + (2.0 / grid_size) * (np.arange(grid_size + 2 * order + 1) - order)


def deboor_oracle(j, k, x, t):
    """Textbook recursive Cox-de Boor evaluation of one basis function."""
    if k == 0:
        return 1.0 if t[j] <= x < t[j + 1] else 0.0
    left = right = 0.0
    if t[j + k] != t[j]:
        left = (x - t[j]) / (t[j + k] - t[j]) * deboor_oracle(j, k - 1, x, t)
    if t[j + k + 1] != t[j + 1]:
        right = (t[j + k + 1] - x) / (t[j + k + 1] - t[j + 1]) * deboor_oracle(
            j + 1, k - 1, x, t
        )
    return left + right


class TestGrid:
    def test_knot_vector_shape(self):
        assert len(KNOTS) == 5 + 2 * 3 + 1
        assert splines.N_BASIS == 8
        steps = np.diff(KNOTS)
        assert np.allclose(steps, steps[0], atol=1e-15)
        assert np.all(steps > 0)


class TestBasis:
    # partition of unity: tests/test_acceptance.py criterion 3
    def test_palindromic_at_grid_center(self):
        b = bspline_basis(np.array([0.0]))[0]
        assert np.allclose(b, b[::-1], atol=1e-12)

    def test_matches_deboor_oracle(self):
        xs = RngStream(2).gen.uniform(-1.5, 1.5, 50)
        b = bspline_basis(xs)
        for i, x in enumerate(xs):
            for j in range(8):
                assert abs(b[i, j] - deboor_oracle(j, 3, x, KNOTS)) < 1e-12

    def test_nonnegative_and_vanishing_outside(self):
        x = np.array([-5.0, 5.0])
        b = bspline_basis(x)
        assert np.all(b == 0.0)
        x = RngStream(3).gen.uniform(-2, 2, 200)
        assert bspline_basis(x).min() >= 0.0


class TestDerivative:
    # the derivatives sum to zero: tests/test_acceptance.py criterion 3
    def test_matches_finite_difference(self):
        x = RngStream(5).gen.uniform(-0.9, 0.9, 100)
        h = 1e-6
        fd = (bspline_basis(x + h) - bspline_basis(x - h)) / (2 * h)
        assert np.abs(bspline_basis_derivative(x) - fd).max() < 1e-6

    def test_continuous_at_interior_knot(self):
        knot = KNOTS[6]  # simple interior knot
        h = 1e-8
        x = np.array([knot])
        left = (bspline_basis(x) - bspline_basis(x - h)) / h
        right = (bspline_basis(x + h) - bspline_basis(x)) / h
        assert np.abs(left - right).max() < 1e-6


# The reference recursion below runs on the paper's knots, built here
# independently of the program (tests/test_models.py::TestLayerConstants
# checks that splines.KNOTS is byte-equal to them).
ORDER = 3
PAPER_KNOTS = uniform_knots(5, ORDER)


# the trailing-axis recursion that the basis-first layout replaced, kept as the
# one bit-exact oracle of the spline kernels (here and in tests/test_models.py)
def _trailing_units(x, t):
    return ((np.asarray(x, dtype=np.float64) - t[0]) / (t[1] - t[0]))[..., None]


def _trailing_step(uu, lower, d):
    jj = np.arange(lower.shape[-1] - 1)
    return ((uu - jj) * lower[..., :-1] + (jj + d + 1 - uu) * lower[..., 1:]) / d


def trailing_lower(x, t=PAPER_KNOTS):
    uu = _trailing_units(x, t)
    j0 = np.arange(len(t) - 1)
    b = ((uu >= j0) & (uu < j0 + 1)).astype(np.float64)
    for d in range(1, ORDER):
        b = _trailing_step(uu, b, d)
    return b


def trailing_from_lower(x, lower, t=PAPER_KNOTS):
    return _trailing_step(_trailing_units(x, t), lower, ORDER)


def trailing_derivative(lower, t=PAPER_KNOTS):
    return (lower[..., :-1] - lower[..., 1:]) / (t[1] - t[0])


# the grids whose knots the inputs below are built on: the paper's own, and
# two coarser ones whose knots fall inside the paper's intervals
INPUT_GRIDS = [(5, 3), (3, 2), (4, 1)]


def spline_inputs(shape, seed, t):
    """Uniform over the knots t and one past each end, led by the special
    values: every knot and its negation (on a knot one of the two differences
    is exactly zero), just inside and outside each end, and far outside."""
    x = RngStream(seed).gen.uniform(t[0] - 1.0, t[-1] + 1.0, shape)
    specials = [np.nan, np.inf, -np.inf, 1e300, -1e300, 0.0, -1.0, 1.0, -7.5, 9.0,
                *t, *-t, t[0] - 1e-12, t[-1] + 1e-12, -0.0]
    flat = x.reshape(-1)
    flat[: min(len(specials), flat.size)] = specials[: flat.size]
    return x


def assert_bytes_match_trailing(x):
    """The basis-first kernels against trailing_*, byte for byte: tobytes()
    tells a -0.0 from a +0.0 and one NaN from another."""
    lower = bspline_basis_lower(x)
    old_lower = trailing_lower(x)
    assert lower.shape == old_lower.shape == x.shape + (9,)
    assert lower.tobytes() == old_lower.tobytes()
    value = basis_from_lower(x, lower)
    assert value.shape == x.shape + (8,)
    assert value.tobytes() == trailing_from_lower(x, old_lower).tobytes()
    assert bspline_basis(x).tobytes() == value.tobytes()
    deriv = derivative_from_lower(lower)
    assert deriv.shape == x.shape + (8,)
    assert deriv.tobytes() == trailing_derivative(old_lower).tobytes()
    assert np.isnan(value).any()  # inf * 0 in both recursions
    # the value and derivative read this module's lower back without a copy
    assert np.shares_memory(splines._basis_first(lower), lower)


class TestBasisFirstLayout:
    """The basis-first layout against the trailing-axis one."""

    # inf * 0 gives NaN in both recursions, with a RuntimeWarning
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("shape", [(64, 24), (7,), (3, 5, 784)])
    @pytest.mark.parametrize("grid_size,order", INPUT_GRIDS)
    def test_matches_trailing_axis_recursion(self, shape, grid_size, order):
        assert_bytes_match_trailing(
            spline_inputs(shape, 60 + grid_size, uniform_knots(grid_size, order)))

    def test_spline_kan_forward_backward_unchanged(self, monkeypatch):
        # float input runs the basis at every layer; the models consume the
        # transposed views exactly as they consumed the trailing-axis arrays
        cfg = ModelConfig(kind="spline_kan", layer_widths=(784, 24, 24, 10))
        state = init_params(cfg, RngStream(70))
        x = RngStream(71).gen.uniform(-2.5, 2.5, (64, 784))
        g = RngStream(72).gen.normal(size=(64, 10))
        out = []
        for fns in ((bspline_basis_lower, basis_from_lower, derivative_from_lower),
                    (trailing_lower, trailing_from_lower, trailing_derivative)):
            for name, fn in zip(("bspline_basis_lower", "basis_from_lower",
                                 "derivative_from_lower"), fns):
                monkeypatch.setattr(models, name, fn)
            logits, cache = forward(state, x)
            out.append((logits, *backward(state, cache, g)))
        for a, b in zip(*out):
            assert np.array_equal(a, b)


class TestHoistedDifferences:
    """The recursion on the hoisted W/V tables against the 7-op step, which
    takes u - j and j + d + 1 - u afresh at every step: _trailing_step is
    that step, on the trailing axis."""

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("shape", [(64, 24), (5, 784), (11,)])
    @pytest.mark.parametrize("grid_size,order", INPUT_GRIDS)
    def test_bytes_match_seven_op_step(self, shape, grid_size, order):
        assert_bytes_match_trailing(
            spline_inputs(shape, 80 + order, uniform_knots(grid_size, order)))
