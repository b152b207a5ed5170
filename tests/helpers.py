"""Shared test fixtures: product-function grids and brute-force oracles.

The oracles include the one-statistic-at-a-time criteria, which the
runners compute in one streamed pass, and the dense axis kernel and its
LAPACK factor, which the sampler replaces by the Schur recursion.  The
exact Haar-system, increment and flux oracles are in ``oracles.py``.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from sheetcharge import sampler
from sheetcharge.criteria import _holder_ratios, _level_max_abs
from sheetcharge.dyadic import DyadicCube, Figure, morton_decode
from sheetcharge.increments import CoefficientTable, GridSample, _tile_shape


def noise_tile_bits(d: int, gen: int) -> int:
    """Morton bits of a noise tile under the 0.3.0 stream rule: 2^(14 + d) cells,
    the children of 2^14 parents, or the whole grid if that is smaller."""
    return min(14 + d, gen * d)


def tile_noise(d: int, gen: int, seed: int, replicate: int = 0) -> np.ndarray:
    """The (2^N,)*d white noise of a draw, from the 0.3.0 stream rule alone.

    Tile t (its Morton index; the box of ``_tile_shape`` for
    ``noise_tile_bits``) holds, in C order, the normals of
    Philox(SeedSequence(seed, spawn_key=(replicate,))) jumped t times, and
    tile 0 those of the unjumped generator.
    """
    bits = noise_tile_bits(d, gen)
    box = _tile_shape(d, bits)

    def philox():
        return np.random.Philox(np.random.SeedSequence(seed, spawn_key=(replicate,)))

    noise = np.empty((1 << gen,) * d)
    for t in range(1 << (gen * d - bits)):
        corner = morton_decode(t << bits, d, gen)
        rng = np.random.Generator(philox().jumped(t) if t else philox())
        noise[tuple(slice(c, c + m) for c, m in zip(corner, box))] = rng.standard_normal(box)
    return noise


def product_grid(d: int, gen: int, exact: bool = False) -> GridSample | np.ndarray:
    """Sample of f(x) = x_1 * ... * x_d, whose cube increments equal volumes.

    A float64 GridSample, or with ``exact`` the grid of Fractions for the
    exact oracles.
    """
    n_pts = (1 << gen) + 1
    if exact:
        axis = np.array([Fraction(j, 1 << gen) for j in range(n_pts)], dtype=object)
    else:
        axis = np.arange(n_pts) / (1 << gen)
    vals = axis
    for _ in range(d - 1):
        vals = np.multiply.outer(vals, axis)
    return vals if exact else GridSample(d, gen, vals)


def integer_grid(d: int, gen: int, seed: int, exact: bool = False) -> GridSample | np.ndarray:
    """Random integer cell increments in [-2^20, 2^20) summed into a grid.

    A float64 GridSample, whose sums are exact (below 2^53 for d * gen <= 32),
    or with ``exact`` the same grid of Python ints for the exact oracles.
    """
    cells = np.random.default_rng(seed).integers(-(1 << 20), 1 << 20, (1 << gen,) * d)
    core = cells.astype(object) if exact else cells.astype(float)
    for axis in range(d):
        core = np.cumsum(core, axis=axis)
    full = np.zeros(((1 << gen) + 1,) * d, dtype=core.dtype)
    full[(slice(1, None),) * d] = core
    return full if exact else GridSample(d, gen, full)


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


def scattered_grid(d, gen, seed):
    """:func:`awkward_grid` with -0.0, NaN and infinities also at a few random interior points.

    So that at small tiles many tiles, not only the first, hold a special value.
    """
    values = awkward_grid(d, gen, seed).values.copy()
    rng = np.random.default_rng(seed)
    interior = values[(slice(1, None),) * d]
    picks = rng.integers(0, interior.size, size=6)
    interior.flat[picks] = rng.choice([-0.0, np.nan, np.inf, -np.inf], size=len(picks))
    return GridSample(d, gen, values)


def axis_kernel_matrix(h: float, gen: int) -> np.ndarray:
    """Kernel matrix on the interior grid points j/2^N, j = 1..2^N."""
    t = np.arange(1, (1 << gen) + 1, dtype=float) / (1 << gen)
    return sampler.fbm_kernel(h, t[:, None], t[None, :])


def dense_axis_cholesky(h: float, gen: int) -> np.ndarray:
    """Dense oracle for ``axis_cholesky``: LAPACK's factor of the kernel matrix."""
    return np.linalg.cholesky(axis_kernel_matrix(h, gen))


def schur_factor(h: float, gen: int) -> np.ndarray:
    """The whole factor whose leaves ``axis_cholesky`` builds: all Schur rows, summed at once."""
    n = 1 << gen
    rows = np.zeros((n, n))
    for step, row in enumerate(sampler._schur_rows(h, gen)):
        rows[step, step:] = row
    return np.cumsum(rows, axis=1).T


def whole_factor(leaves) -> np.ndarray:
    """The lower-triangular factor whose leaves ``fac[lo:hi, :hi]`` are ``leaves``."""
    n = leaves[-1].shape[1]
    fac = np.zeros((n, n), order="F")
    for leaf in leaves:
        width, hi = leaf.shape
        fac[hi - width : hi, :hi] = leaf
    return fac


def criterion_a_statistic(tab: CoefficientTable, n: int) -> float:
    """Divergence-side statistic: 2^(-n(d/2+1)) max_r sum_k |coeff|.

    Bounded away from zero along a subsequence exactly when the expansion
    cannot converge; reported per generation, constant-free.
    """
    lam = np.abs(tab.level(n))
    return 2.0 ** (-n * (tab.dim / 2.0 + 1.0)) * float(lam.sum(axis=0).max())


def dichotomy_statistics(tab: CoefficientTable, n: int) -> tuple[float, float]:
    """Mean absolute type-1 coefficient and its rescaling.

    Returns (T, S) with T = 2^(-nd) sum_k |coeff(n, k, 1)| and
    S = 2^(n(d/2-1)) T.  For the standard sheet T concentrates at
    sqrt(2/pi) ~ 0.7979 as n grows.
    """
    lam = np.abs(tab.level(n))
    t = float(lam[:, 0].sum()) / 2.0 ** (n * tab.dim)
    return t, 2.0 ** (n * (tab.dim / 2.0 - 1.0)) * t


def criterion_b_terms(tab: CoefficientTable) -> np.ndarray:
    """Convergence-side series terms 2^(n(d/2-1)) max_{k,r} |coeff| per level."""
    out = np.empty(tab.max_gen + 1)
    for n in range(tab.max_gen + 1):
        lam = np.abs(tab.level(n))
        out[n] = 2.0 ** (n * (tab.dim / 2.0 - 1.0)) * float(lam.max(initial=0.0))
    return out


def criterion_b_partial_sums(tab: CoefficientTable) -> np.ndarray:
    """Partial sums of the convergence-side series, one per horizon."""
    return np.cumsum(criterion_b_terms(tab))


def holder_ratio_by_level(f: GridSample, gamma: float, max_gen: int) -> np.ndarray:
    """Per-generation max_k |increment| / |cube|^gamma for n = 0..max_gen."""
    return _holder_ratios(_level_max_abs(f, max_gen), f.dim, gamma)


def holder_ratio(f: GridSample, gamma: float, max_gen: int) -> float:
    """Scale-normalized increment bound over all dyadic cubes up to max_gen."""
    return float(holder_ratio_by_level(f, gamma, max_gen).max())


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

    Independent of the occupancy steps that ``oracles.exposed_faces`` and
    ``figure_perimeter`` read.
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
