import numpy as np
import pytest

from kanfed import models, splines
from kanfed.models import ModelConfig, backward, forward, init_params
from kanfed.numerics import RngStream
from kanfed.splines import (
    SplineGrid,
    basis_from_lower,
    bspline_basis_lower,
    derivative_from_lower,
)


def bspline_basis(x, grid):
    """Degree-`order` basis values, shape x.shape + (grid.n_basis,)."""
    return basis_from_lower(x, grid, bspline_basis_lower(x, grid))


def bspline_basis_derivative(x, grid):
    """d/dx of each degree-`order` basis function."""
    return derivative_from_lower(grid, bspline_basis_lower(x, grid))


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


@pytest.fixture
def grid():
    return SplineGrid()


class TestGrid:
    def test_knot_vector_shape(self, grid):
        assert len(grid.knots) == 5 + 2 * 3 + 1
        assert grid.n_basis == 8
        steps = np.diff(grid.knots)
        assert np.allclose(steps, steps[0], atol=1e-15)
        assert np.all(steps > 0)


class TestBasis:
    def test_partition_of_unity(self, grid):
        x = RngStream(1).gen.uniform(-0.999, 0.999, 1000)
        b = bspline_basis(x, grid)
        assert b.shape == (1000, 8)
        assert np.abs(b.sum(axis=1) - 1.0).max() < 1e-9

    def test_palindromic_at_grid_center(self, grid):
        b = bspline_basis(np.array([0.0]), grid)[0]
        assert np.allclose(b, b[::-1], atol=1e-12)

    def test_matches_deboor_oracle(self, grid):
        xs = RngStream(2).gen.uniform(-1.5, 1.5, 50)
        b = bspline_basis(xs, grid)
        for i, x in enumerate(xs):
            for j in range(8):
                assert abs(b[i, j] - deboor_oracle(j, 3, x, grid.knots)) < 1e-12

    def test_nonnegative_and_vanishing_outside(self, grid):
        x = np.array([-5.0, 5.0])
        b = bspline_basis(x, grid)
        assert np.all(b == 0.0)
        x = RngStream(3).gen.uniform(-2, 2, 200)
        assert bspline_basis(x, grid).min() >= 0.0


class TestDerivative:
    def test_derivative_sum_zero(self, grid):
        x = RngStream(4).gen.uniform(-0.999, 0.999, 1000)
        d = bspline_basis_derivative(x, grid)
        assert np.abs(d.sum(axis=1)).max() < 1e-9

    def test_matches_finite_difference(self, grid):
        x = RngStream(5).gen.uniform(-0.9, 0.9, 100)
        h = 1e-6
        fd = (bspline_basis(x + h, grid) - bspline_basis(x - h, grid)) / (2 * h)
        assert np.abs(bspline_basis_derivative(x, grid) - fd).max() < 1e-6

    def test_continuous_at_interior_knot(self, grid):
        knot = grid.knots[6]  # simple interior knot
        h = 1e-8
        x = np.array([knot])
        left = (bspline_basis(x, grid) - bspline_basis(x - h, grid)) / h
        right = (bspline_basis(x + h, grid) - bspline_basis(x, grid)) / h
        assert np.abs(left - right).max() < 1e-6


# the trailing-axis recursion that the basis-first layout replaced, kept as the oracle
def _trailing_units(x, grid):
    t = grid.knots
    return ((np.asarray(x, dtype=np.float64) - t[0]) / (t[1] - t[0]))[..., None]


def _trailing_step(uu, lower, d):
    jj = np.arange(lower.shape[-1] - 1)
    return ((uu - jj) * lower[..., :-1] + (jj + d + 1 - uu) * lower[..., 1:]) / d


def trailing_lower(x, grid):
    uu = _trailing_units(x, grid)
    j0 = np.arange(len(grid.knots) - 1)
    b = ((uu >= j0) & (uu < j0 + 1)).astype(np.float64)
    for d in range(1, grid.order):
        b = _trailing_step(uu, b, d)
    return b


def trailing_from_lower(x, grid, lower):
    return _trailing_step(_trailing_units(x, grid), lower, grid.order)


def trailing_derivative(grid, lower):
    return (lower[..., :-1] - lower[..., 1:]) / (grid.knots[1] - grid.knots[0])


class TestBasisFirstLayout:
    """The basis-first recursion against the trailing-axis one, bit for bit."""

    SPECIAL = [np.nan, np.inf, -np.inf, 1e300, -1e300, 0.0, -1.0, 1.0, -7.5, 9.0]

    @staticmethod
    def inputs(shape, seed, grid):
        x = RngStream(seed).gen.uniform(grid.knots[0] - 1.0, grid.knots[-1] + 1.0, shape)
        flat = x.reshape(-1)
        specials = TestBasisFirstLayout.SPECIAL + list(grid.knots)
        flat[: min(len(specials), flat.size)] = specials[: flat.size]
        return x

    # inf * 0 gives NaN in both recursions, with a RuntimeWarning
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("shape", [(64, 24), (7,), (3, 5, 784)])
    @pytest.mark.parametrize("grid_size,order", [(5, 3), (3, 2), (4, 1)])
    def test_matches_trailing_axis_recursion(self, shape, grid_size, order):
        grid = SplineGrid(grid_size, order)
        x = self.inputs(shape, 60 + grid_size, grid)
        lower = bspline_basis_lower(x, grid)
        old_lower = trailing_lower(x, grid)
        assert lower.shape == old_lower.shape == shape + (grid.n_basis + 1,)
        assert np.array_equal(lower, old_lower, equal_nan=True)
        value = basis_from_lower(x, grid, lower)
        assert value.shape == shape + (grid.n_basis,)
        assert np.array_equal(value, trailing_from_lower(x, grid, old_lower), equal_nan=True)
        assert np.array_equal(bspline_basis(x, grid), value, equal_nan=True)
        deriv = derivative_from_lower(grid, lower)
        assert deriv.shape == shape + (grid.n_basis,)
        assert np.array_equal(deriv, trailing_derivative(grid, old_lower), equal_nan=True)
        # the value and derivative read this module's lower back without a copy
        assert np.shares_memory(splines._basis_first(lower), lower)

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


# today's basis-first recursion before the differences were hoisted: every
# step takes u - j and j + d + 1 - u afresh, in 7 operations
def _seven_op_units(x, grid):
    t = grid.knots
    return ((np.asarray(x, dtype=np.float64) - t[0]) / (t[1] - t[0])).reshape(1, -1)


def _seven_op_step(u, lower, d):
    j = np.arange(len(lower) - 1)[:, None]
    return ((u - j) * lower[:-1] + (j + d + 1 - u) * lower[1:]) / d


def seven_op_lower(x, grid):
    u = _seven_op_units(x, grid)
    j0 = np.arange(len(grid.knots) - 1)[:, None]
    b = ((u >= j0) & (u < j0 + 1)).astype(np.float64)
    for d in range(1, grid.order):
        b = _seven_op_step(u, b, d)
    return b.T.reshape(np.shape(x) + (len(b),))


def seven_op_from_lower(x, grid, lower):
    b = lower.reshape(-1, lower.shape[-1]).T
    b = _seven_op_step(_seven_op_units(x, grid), b, grid.order)
    return b.T.reshape(lower.shape[:-1] + (len(b),))


def seven_op_derivative(grid, lower):
    b = lower.reshape(-1, lower.shape[-1]).T
    b = (b[:-1] - b[1:]) / (grid.knots[1] - grid.knots[0])
    return b.T.reshape(lower.shape[:-1] + (len(b),))


class TestHoistedDifferences:
    """The recursion on the hoisted W/V tables against the 7-op step, byte for
    byte: tobytes() tells a -0.0 from a +0.0 and one NaN from another."""

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("shape", [(64, 24), (5, 784), (11,)])
    @pytest.mark.parametrize("grid_size,order", [(5, 3), (3, 2), (4, 1)])
    def test_bytes_match_seven_op_step(self, shape, grid_size, order):
        grid = SplineGrid(grid_size, order)
        x = TestBasisFirstLayout.inputs(shape, 80 + order, grid)
        # every knot and its negation, just inside and outside each end, and
        # far outside: on a knot one of the two differences is exactly zero
        flat = x.reshape(-1)
        edges = [grid.knots[0] - 1e-12, grid.knots[-1] + 1e-12, -np.inf, np.inf, np.nan, -0.0]
        extra = list(-grid.knots) + edges
        flat[-len(extra):] = extra[-flat.size:]
        lower, old_lower = bspline_basis_lower(x, grid), seven_op_lower(x, grid)
        assert lower.shape == old_lower.shape
        assert lower.tobytes() == np.ascontiguousarray(old_lower).tobytes()
        value = basis_from_lower(x, grid, lower)
        old_value = seven_op_from_lower(x, grid, old_lower)
        assert value.tobytes() == np.ascontiguousarray(old_value).tobytes()
        deriv = derivative_from_lower(grid, lower)
        old_deriv = seven_op_derivative(grid, old_lower)
        assert deriv.tobytes() == np.ascontiguousarray(old_deriv).tobytes()
        assert np.isnan(value).any()  # inf * 0 in both recursions
