"""B-spline basis evaluation on an extended uniform knot vector.

The grid covers `grid_range` with `grid_size` uniform intervals, extended by
`order` extra knots on each side, so a degree-`order` basis has exactly
grid_size + order functions per scalar input (8 for the default grid 5 /
order 3 setup). Evaluation uses the Cox-de Boor recursion, vectorized over
an arbitrary leading shape. The recursion runs basis-first, on (n, N) arrays
over the N inputs; results come back in the x.shape + (n,) layout as
transposed views, which `basis_from_lower` and `derivative_from_lower` read
back without a copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class SplineGrid:
    grid_size: int = 5
    order: int = 3
    lo: float = -1.0
    hi: float = 1.0
    knots: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.grid_size < 1 or self.order < 1:
            raise ConfigurationError("grid_size and order must be positive")
        if not self.hi > self.lo:
            raise ConfigurationError(f"bad grid range [{self.lo}, {self.hi}]")
        h = (self.hi - self.lo) / self.grid_size
        n_knots = self.grid_size + 2 * self.order + 1
        knots = self.lo + h * (np.arange(n_knots) - self.order)
        knots.flags.writeable = False
        object.__setattr__(self, "knots", knots)

    @property
    def n_basis(self) -> int:
        return self.grid_size + self.order


def _grid_units(x: np.ndarray, grid: SplineGrid) -> np.ndarray:
    """u = (x - t_0)/h as one (1, N) row over the N = x.size inputs."""
    t = grid.knots
    return ((np.asarray(x, dtype=np.float64) - t[0]) / (t[1] - t[0])).reshape(1, -1)


def _basis_first(lower: np.ndarray) -> np.ndarray:
    """A basis in the public (..., n) layout as (n, N); no copy for this module's output."""
    return lower.reshape(-1, lower.shape[-1]).T


def _public(b: np.ndarray, shape: tuple) -> np.ndarray:
    """An (n, N) basis as the public shape + (n,) layout: a transposed view."""
    return b.T.reshape(shape + (len(b),))


def _cox_de_boor_step(u: np.ndarray, lower: np.ndarray, d: int) -> np.ndarray:
    """Degree-(d-1) basis -> degree-d basis, one row fewer; both (n, N).

    The knots are uniform, t_j = t_0 + j*h, so in grid units u the recursion
    coefficients reduce to (u - j)/d and (j + d + 1 - u)/d. Basis index j
    runs down a column and the inputs along each row, so every inner loop is
    N long rather than n.
    """
    j = np.arange(len(lower) - 1)[:, None]
    return ((u - j) * lower[:-1] + (j + d + 1 - u) * lower[1:]) / d


def _basis_of_degree(x: np.ndarray, grid: SplineGrid, degree: int) -> np.ndarray:
    """All B-spline basis functions of `degree` on the grid, stacked last axis."""
    u = _grid_units(x, grid)
    j0 = np.arange(len(grid.knots) - 1)[:, None]
    b = ((u >= j0) & (u < j0 + 1)).astype(np.float64)
    for d in range(1, degree + 1):
        b = _cox_de_boor_step(u, b, d)
    return _public(b, np.shape(x))


def bspline_basis(x: np.ndarray, grid: SplineGrid) -> np.ndarray:
    """Degree-`order` basis values; output shape = x.shape + (grid.n_basis,).

    Inputs outside the grid range are allowed: bases vanish outside their
    support, so rows may sum to less than one there. Strictly inside the
    range the values form a partition of unity.
    """
    return _basis_of_degree(x, grid, grid.order)


def bspline_basis_lower(x: np.ndarray, grid: SplineGrid) -> np.ndarray:
    """Degree-(order-1) basis, the shared input of the value and derivative."""
    return _basis_of_degree(x, grid, grid.order - 1)


def basis_from_lower(x: np.ndarray, grid: SplineGrid, lower: np.ndarray) -> np.ndarray:
    """One Cox-de Boor step: degree-(order-1) basis -> degree-order basis."""
    b = _cox_de_boor_step(_grid_units(x, grid), _basis_first(lower), grid.order)
    return _public(b, lower.shape[:-1])


def derivative_from_lower(grid: SplineGrid, lower: np.ndarray) -> np.ndarray:
    """d/dx of the degree-order basis from the degree-(order-1) basis."""
    h = grid.knots[1] - grid.knots[0]
    b = _basis_first(lower)
    return _public((b[:-1] - b[1:]) / h, lower.shape[:-1])


def bspline_basis_derivative(x: np.ndarray, grid: SplineGrid) -> np.ndarray:
    """d/dx of each basis function, via the degree-lowering recursion."""
    return derivative_from_lower(grid, bspline_basis_lower(x, grid))
