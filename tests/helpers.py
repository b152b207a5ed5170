"""Shared test fixtures: product-function grids and brute-force oracles."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from sheetcharge.dyadic import DyadicCube, Figure
from sheetcharge.increments import GridSample
from sheetcharge.sampler import axis_kernel_matrix


def product_grid(d: int, gen: int, exact: bool = False) -> GridSample:
    """Sample of f(x) = x_1 * ... * x_d, whose cube increments equal volumes."""
    n_pts = (1 << gen) + 1
    if exact:
        axis = np.array([Fraction(j, 1 << gen) for j in range(n_pts)], dtype=object)
    else:
        axis = np.arange(n_pts) / (1 << gen)
    vals = axis
    for _ in range(d - 1):
        vals = np.multiply.outer(vals, axis)
    return GridSample(d, gen, vals)


def zero_grid(d: int, gen: int) -> GridSample:
    return GridSample(d, gen, np.zeros(((1 << gen) + 1,) * d))


def awkward_grid(d, gen, seed):
    """Random grid whose first interior points hold -0.0, NaN, infinities and huge values."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(((1 << gen) + 1,) * d) * 10.0 ** rng.integers(-300, 300)
    interior = values[(slice(1, None),) * d].reshape(-1)
    specials = [-0.0, np.nan, np.inf, -np.inf, 1e308, -1e308, 5e-324]
    interior[: len(specials)] = specials[: interior.size]
    values[(slice(1, None),) * d] = interior.reshape((1 << gen,) * d)
    for axis in range(d):
        np.moveaxis(values, axis, 0)[0] = 0.0
    return GridSample(d, gen, values)


def dense_axis_cholesky(h: float, gen: int) -> np.ndarray:
    """Dense oracle for ``axis_cholesky``: LAPACK's factor of the kernel matrix."""
    return np.linalg.cholesky(axis_kernel_matrix(h, gen))


def whole_grid_cells(values: np.ndarray) -> np.ndarray:
    """Cell increments of a box of grid points: ``np.diff`` of the whole box, axis by axis."""
    cells = values
    for axis in range(values.ndim):
        cells = np.diff(cells, axis=axis)
    return cells


def grid_from_cell_increments(cells: np.ndarray) -> GridSample:
    """Build the grid sample whose finest-cell increments are ``cells``."""
    d = cells.ndim
    gen = cells.shape[0].bit_length() - 1
    core = cells
    for axis in range(d):
        core = np.cumsum(core, axis=axis)
    full = np.zeros(((1 << gen) + 1,) * d)
    full[(slice(1, None),) * d] = core
    return GridSample(d, gen, full)


def brute_force_faces(fig: Figure) -> set[tuple[int, int, int, tuple[int, ...]]]:
    """Exposed faces by counting: a face kept iff exactly one cell uses it.

    Independent of the production XOR implementation.
    """
    from collections import Counter

    h = fig.finest_generation()
    cells = []
    for cube in fig.cubes:
        scale = 1 << (h - cube.gen)
        base = cube.coords()
        for off in np.ndindex(*((scale,) * fig.dim)):
            cells.append(tuple(b * scale + o for b, o in zip(base, off)))
    counts: Counter = Counter()
    owner = {}
    for cell in cells:
        for axis in range(fig.dim):
            for side in (0, 1):
                plane = cell[axis] + side
                trans = tuple(c for i, c in enumerate(cell) if i != axis)
                key = (axis, plane, trans)
                counts[key] += 1
                owner[key] = 1 if side == 1 else -1
    return {
        (axis, owner[(axis, plane, trans)], plane, trans)
        for (axis, plane, trans), c in counts.items()
        if c == 1
    }


def random_dyadic_figure(rng: np.random.Generator, d: int, gen: int, count: int) -> Figure:
    picks = rng.choice(1 << (gen * d), size=count, replace=False)
    return Figure(d, tuple(DyadicCube(d, gen, int(k)) for k in sorted(picks)))
