"""B-spline basis evaluation on an extended uniform knot vector.

The grid covers `grid_range` with `grid_size` uniform intervals, extended by
`order` extra knots on each side, so a degree-`order` basis has exactly
grid_size + order functions per scalar input (8 for the default grid 5 /
order 3 setup). Evaluation uses the Cox-de Boor recursion, vectorized over
an arbitrary leading shape. The recursion runs basis-first, on (n, N) arrays
over the N inputs; results come back in the x.shape + (n,) layout as
transposed views, which `basis_from_lower` and `derivative_from_lower` read
back without a copy.

In grid units u, the step to degree d builds basis j from bases j and
j + 1 of degree d - 1 as ((u - j) B_j + (j + d + 1 - u) B_j+1) / d. The
differences do not depend on d, so a call takes them once, as the tables
W_j = u - j and V_j = j - u, and the step to degree d reads W_j and
V_j+d+1. A step then costs two products, a sum and a division, where it
took seven operations. The tables hold the same float subtractions as the
per-step form: j + d + 1 is an exact integer in float64, and V is not -W,
which would turn the +0.0 of u == j into -0.0. So every basis value is the
same IEEE result, bit for bit (tests/test_splines.py::TestHoistedDifferences).
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


def _raise_degree(u: np.ndarray, b: np.ndarray, first: int, last: int) -> np.ndarray:
    """Cox-de Boor steps to degrees first..last from the (n, N) basis b of
    degree first - 1; each step leaves one row fewer.

    The step to degree d reads W_j = u - j and V_j+d+1 = j + d + 1 - u for
    its n output rows j. As d rises by one n falls by one, so every step
    reads V up to the same last row, and one table of each serves them all.
    So that few arrays are alive at once, products go into rows no later
    step reads: before the last step the second product into b's own (so b
    is overwritten when first < last), in the last step both into the
    tables'. Basis index j runs down a column and the inputs along each
    row, so every inner loop is N long rather than n.
    """
    n = len(b) - 1
    j = np.arange(first + 1 + n, dtype=np.float64)[:, None]
    w, v = u - j[:n], j[first + 1 :] - u  # v[k] is V_first+1+k
    for d in range(first, last + 1):
        n, k = len(b) - 1, d - first
        if d < last:
            raised = w[:n] * b[:-1]
            right = np.multiply(v[k : k + n], b[1:], out=b[1:])
        else:
            raised, right = w[:n], v[k : k + n]
            raised *= b[:-1]
            right *= b[1:]
        raised += right
        raised /= d
        b = raised
    return b


def _basis_of_degree(x: np.ndarray, grid: SplineGrid, degree: int) -> np.ndarray:
    """All B-spline basis functions of `degree` on the grid, stacked last axis."""
    u = _grid_units(x, grid)
    # degree 0: B_j = [j <= u < j + 1] = [floor(u) == j], exactly, NaN and inf included
    j0 = np.arange(len(grid.knots) - 1, dtype=np.float64)[:, None]
    b = (np.floor(u) == j0).astype(np.float64)
    return _public(_raise_degree(u, b, 1, degree), np.shape(x))


def bspline_basis_lower(x: np.ndarray, grid: SplineGrid) -> np.ndarray:
    """Degree-(order-1) basis, the shared input of the value and derivative."""
    return _basis_of_degree(x, grid, grid.order - 1)


def basis_from_lower(x: np.ndarray, grid: SplineGrid, lower: np.ndarray) -> np.ndarray:
    """One Cox-de Boor step: degree-(order-1) basis -> degree-order basis."""
    b = _raise_degree(_grid_units(x, grid), _basis_first(lower), grid.order, grid.order)
    return _public(b, lower.shape[:-1])


def derivative_from_lower(grid: SplineGrid, lower: np.ndarray) -> np.ndarray:
    """d/dx of the degree-order basis from the degree-(order-1) basis."""
    h = grid.knots[1] - grid.knots[0]
    b = _basis_first(lower)
    return _public((b[:-1] - b[1:]) / h, lower.shape[:-1])

