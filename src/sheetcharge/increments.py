"""Rectangular and figure increments of grid-sampled functions, and their
coefficient tables in the Haar-primitive (Faber-Schauder) system.

A GridSample holds values of a function on the (2^N+1)^d dyadic grid that
vanishes whenever a coordinate is zero.  Increments over dyadic cubes are
computed by first differencing along each axis once at the finest
generation and then block-summing, which is O(d 2^(Nd)) overall; equality
with the 2^d-corner alternating sum is a test, not an assumption.

Arrays may hold float64 or exact objects (Fraction / Rad2); every routine
here is arithmetic-agnostic.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .dyadic import Figure, Rectangle, lex_to_morton
from .exact import pow2_half
from .haar import haar_matrix

__all__ = [
    "GridSample",
    "CoefficientTable",
    "rectangle_increment",
    "finest_increments",
    "increment_levels",
    "cube_increments",
    "figure_increment",
    "coefficient_table",
    "save_coefficients",
    "load_coefficients",
]


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` itself if it is read-only and owns its data, else a read-only copy.

    Such an array is handed over, as the sampler and ``coefficient_table``
    hand theirs over; any other array may still change under a caller's
    hands, so it is copied.
    """
    if a.flags.writeable or a.base is not None:
        a = a.copy()
        a.flags.writeable = False
    return a


@dataclass(frozen=True)
class GridSample:
    """Dyadic-grid sample of a function vanishing on the zero hyperfacets."""

    dim: int
    gen: int
    values: np.ndarray
    hurst: tuple[float, ...] | None = None
    seed: int | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        vals = np.asarray(self.values)
        n_pts = (1 << self.gen) + 1
        if vals.shape != (n_pts,) * self.dim:
            raise ValueError(
                f"expected grid shape {(n_pts,) * self.dim}, got {vals.shape}"
            )
        for axis in range(self.dim):
            face = np.take(vals, 0, axis=axis)
            if not np.all(face == 0):
                raise ValueError(f"values must vanish on the x_{axis + 1} = 0 facet")
        object.__setattr__(self, "values", _frozen(vals))
        if self.hurst is not None:
            object.__setattr__(self, "hurst", tuple(float(h) for h in self.hurst))

    @property
    def is_exact(self) -> bool:
        return self.values.dtype == object

    def corner_value(self):
        """Value at (1, ..., 1), the increment over the whole cube."""
        return self.values[(-1,) * self.dim]


def rectangle_increment(f: GridSample, rect: Rectangle):
    """Alternating corner sum of ``f`` over ``rect``; corners must be grid points."""
    if rect.dim != f.dim:
        raise ValueError("dimension mismatch")
    scale = 1 << f.gen
    total = None
    for corner, sign in rect.corners():
        ij = []
        for x in corner:
            j = x * scale
            if j.denominator != 1:
                raise ValueError(f"corner coordinate {x} is not on the 2^-{f.gen} grid")
            ij.append(int(j))
        term = sign * f.values[tuple(ij)]
        total = term if total is None else total + term
    return total


def finest_increments(f: GridSample) -> np.ndarray:
    """Increments over all finest-generation cells as a lexicographic array."""
    return _pyramid(f.values, 0)[0]


def _coarsen(cells: np.ndarray) -> np.ndarray:
    """Sum sibling cells: one generation up along every axis.

    Strided sibling slices are added along the last axis first, then the
    next to last and so on: the additions of a reshape-sum over the
    sibling axes, in memory order.
    """
    for axis in reversed(range(cells.ndim)):
        lead = (slice(None),) * axis
        cells = cells[lead + (slice(0, None, 2),)] + cells[lead + (slice(1, None, 2),)]
    if cells.dtype.kind == "f":
        # A reduce-sum starts from +0.0, so it never returns -0.0; -0.0 + -0.0 does.
        cells += 0.0
    return cells


def _pyramid(values: np.ndarray, steps: int) -> list[np.ndarray]:
    """Cell increments of the grid ``values`` and ``steps`` coarsenings, coarsest first.

    ``values`` may be any box of grid points, such as the slab next to a facet.
    """
    cells = values
    for axis in range(values.ndim):
        cells = np.diff(cells, axis=axis)
    levels = [cells]
    for _ in range(steps):
        levels.append(_coarsen(levels[-1]))
    levels.reverse()
    return levels


def increment_levels(f: GridSample, n_max: int | None = None) -> list[np.ndarray]:
    """Lexicographic cube-increment arrays for generations 0..n_max (default N)."""
    if n_max is None:
        n_max = f.gen
    if n_max > f.gen:
        raise ValueError(f"generation {n_max} exceeds grid generation {f.gen}")
    return _pyramid(f.values, f.gen)[: n_max + 1]


def cube_increments(f: GridSample, n: int) -> np.ndarray:
    """Increments over all generation-``n`` cubes, Morton cube order."""
    if n > f.gen:
        raise ValueError(f"generation {n} exceeds grid generation {f.gen}")
    cells = finest_increments(f)
    for _ in range(f.gen - n):
        cells = _coarsen(cells)
    return lex_to_morton(cells)


def figure_increment(f: GridSample, fig: Figure):
    """Increment over a figure: sum of the member-cube increments."""
    if fig.dim != f.dim:
        raise ValueError("dimension mismatch")
    if fig.finest_generation() > f.gen:
        raise ValueError("figure is finer than the sample grid")
    total = None
    for cube in fig.cubes:
        term = rectangle_increment(f, cube.box())
        total = term if total is None else total + term
    if total is None:
        return Fraction(0) if f.is_exact else 0.0
    return total


@dataclass(frozen=True)
class CoefficientTable:
    """Per-generation coefficient arrays of the Haar-primitive expansion.

    ``levels[n]`` has shape (2^(nd), 2^d - 1): row k, column r-1 holds the
    coefficient of generation n, cube k, type r.  ``a_minus1`` is the
    coefficient of the exceptional (constant) function, the increment over
    the whole cube.
    """

    dim: int
    max_gen: int
    a_minus1: float | object
    levels: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.levels) != self.max_gen + 1:
            raise ValueError("need one level array per generation 0..max_gen")
        frozen = []
        for n, lev in enumerate(self.levels):
            lev = np.asarray(lev)
            want = (1 << (n * self.dim), (1 << self.dim) - 1)
            if lev.shape != want:
                raise ValueError(f"level {n} must have shape {want}, got {lev.shape}")
            frozen.append(_frozen(lev))
        object.__setattr__(self, "levels", tuple(frozen))

    def level(self, n: int) -> np.ndarray:
        if not 0 <= n <= self.max_gen:
            raise ValueError(f"generation {n} outside table range 0..{self.max_gen}")
        return self.levels[n]

    def scaled_by(self, c) -> "CoefficientTable":
        return CoefficientTable(
            self.dim, self.max_gen, c * self.a_minus1, tuple(c * l for l in self.levels)
        )


def coefficient_table(f: GridSample, max_gen: int) -> CoefficientTable:
    """Coefficients of ``f`` in the Haar-primitive system up to ``max_gen``.

    The generation-n coefficients combine the 2^d child-cube increments
    with the sign-matrix rows and the amplitude 2^(nd/2); Morton ordering
    makes the children of cube k the contiguous block [2^d k, 2^d (k+1)).
    """
    if max_gen > f.gen - 1:
        raise ValueError(
            f"need grid generation > {max_gen}, got {f.gen}"
        )
    d = f.dim
    mat = haar_matrix(d)
    levels = []
    by_gen = increment_levels(f, max_gen + 1)
    for n in range(max_gen + 1):
        child = lex_to_morton(by_gen[n + 1]).reshape(1 << (n * d), 1 << d)
        by_gen[n + 1] = None  # consumed; the finest levels are as large as the grid
        if f.is_exact:
            full = np.dot(child, mat.astype(object))
            scale = pow2_half(n * d)
        else:
            full = np.asarray(child, dtype=float) @ mat.astype(float)
            scale = 2.0 ** (n * d / 2.0)
        del child  # freed before lam is allocated: at the finest level it is grid-sized
        lam = full[:, 1:] * scale
        lam.flags.writeable = False  # CoefficientTable takes it over without a copy
        levels.append(lam)
    return CoefficientTable(d, max_gen, f.corner_value(), tuple(levels))


def save_coefficients(tab: CoefficientTable, csv_path, json_path) -> None:
    """Write the (n, k, r, lambda) CSV and the {d, M, a_minus1} JSON header."""
    with open(json_path, "w") as fh:
        json.dump(
            {"d": tab.dim, "M": tab.max_gen, "a_minus1": float(tab.a_minus1)}, fh
        )
        fh.write("\n")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "k", "r", "lambda"])
        for n in range(tab.max_gen + 1):
            lev = tab.level(n)
            for k in range(lev.shape[0]):
                for r in range(1, lev.shape[1] + 1):
                    writer.writerow([n, k, r, format(float(lev[k, r - 1]), ".17g")])


def load_coefficients(csv_path, json_path) -> CoefficientTable:
    with open(json_path) as fh:
        head = json.load(fh)
    d, max_gen = head["d"], head["M"]
    levels = [
        np.zeros((1 << (n * d), (1 << d) - 1)) for n in range(max_gen + 1)
    ]
    with open(csv_path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            n, k, r = int(row["n"]), int(row["k"]), int(row["r"])
            levels[n][k, r - 1] = float(row["lambda"])
    return CoefficientTable(d, max_gen, head["a_minus1"], tuple(levels))
