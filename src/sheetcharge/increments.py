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
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

import numpy as np

# lex_to_morton is unused here, but moment-scaling looks it up through this module,
# the call site bench/tracer.py wraps.
from .dyadic import Figure, Rectangle, lex_to_morton  # noqa: F401
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


# Sizes of the streamed pieces of one level: cells differenced per slab, as a
# power of two, and Morton rows summed or multiplied per chunk.
_SLAB_BITS = 15
_CHUNK_ROWS = 1 << 14


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
    for _, cells in _morton_pyramid(f.values, n):
        pass
    return cells


def _morton_cells(values: np.ndarray, gen: int) -> np.ndarray:
    """Cell increments of the 2^-gen grid ``values`` as one flat Morton-order array.

    The grid is differenced one axis-0 slab at a time, and each slab is
    written through the bit-axis view of the output that lex_to_morton
    transposes, so the level never exists in lexicographic order too.
    """
    d = values.ndim
    s = min(gen, max(0, _SLAB_BITS - gen * (d - 1)))  # the slab has 2^s rows
    perm = [t * d + d - 1 - i for i in range(d) for t in range(gen)]
    out = lex = None
    for j in range(1 << (gen - s)):
        slab = values[j << s : ((j + 1) << s) + 1]
        for axis in range(d):
            slab = np.diff(slab, axis=axis)
        if out is None:
            out = np.empty(1 << (gen * d), dtype=slab.dtype)
            lex = out.reshape((2,) * (gen * d)).transpose(perm)  # axes: bits of axis 0, 1, ...
        top = lex[tuple((j >> b) & 1 for b in reversed(range(gen - s))) + (...,)]
        top[...] = slab.reshape(top.shape)
    return out


def _coarsen_morton(cells: np.ndarray, d: int) -> np.ndarray:
    """Sum each contiguous block of 2^d siblings of a flat Morton-order level.

    The first child axis of a block is the last lexicographic axis, so its
    halves are added first, in the order of :func:`_coarsen`; the sums
    run in row chunks.
    """
    blocks = cells.reshape((-1,) + (2,) * d)
    parent = np.empty(blocks.shape[0], dtype=cells.dtype)
    for lo in range(0, blocks.shape[0], _CHUNK_ROWS):
        part = blocks[lo : lo + _CHUNK_ROWS]
        for _ in range(d - 1):
            part = part[:, 0] + part[:, 1]
        out = parent[lo : lo + _CHUNK_ROWS]
        np.add(part[:, 0], part[:, 1], out=out)
        if out.dtype.kind == "f":
            out += 0.0  # as in _coarsen: a reduce-sum never returns -0.0
    return parent


def _morton_pyramid(values: np.ndarray, stop: int) -> Iterator[tuple[int, np.ndarray]]:
    """Flat Morton-order cell increments of the grid ``values``, finest generation first.

    Yields ``(n, cells)`` for n = N down to ``stop``.  Generation n-1 is
    summed before generation n is yielded, so a consumer may overwrite
    ``cells``; it should drop ``cells`` before asking for the next level.
    """
    gen = (values.shape[0] - 1).bit_length() - 1
    cells = _morton_cells(values, gen)
    for n in range(gen, stop - 1, -1):
        parent = _coarsen_morton(cells, values.ndim) if n > stop else None
        yield n, cells
        cells = parent


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


def _haar_products(cells: np.ndarray, n: int, d: int) -> np.ndarray:
    """Sign-matrix products of the float Morton level n+1 ``cells``, times 2^(nd/2).

    Row k of the (2^(nd), 2^d) result is the child block of generation-n
    cube k times ``haar_matrix(d)``: column 0 holds the cube's increment,
    columns 1.. its coefficients.  ``cells`` is overwritten by the result,
    ``_CHUNK_ROWS`` rows at a time.
    """
    mat = haar_matrix(d).astype(float)
    full = cells.reshape(1 << (n * d), 1 << d)
    for lo in range(0, len(full), _CHUNK_ROWS):
        full[lo : lo + _CHUNK_ROWS] = full[lo : lo + _CHUNK_ROWS] @ mat
    full *= 2.0 ** (n * d / 2.0)
    return full


def _coefficient_levels(f: GridSample, max_gen: int) -> Iterator[tuple[int, np.ndarray]]:
    """The sign-matrix products of ``f`` for n = max_gen down to 0.

    Yields ``(n, full)``: row k of the (2^(nd), 2^d) array ``full`` is the
    child block of generation-n cube k times ``haar_matrix(d)`` and
    2^(nd/2), so ``full[:, 1:]`` holds the level's coefficients.  A float
    ``full`` overwrites its Morton level; a consumer may overwrite it too,
    and should drop it before asking for the next level.
    """
    d = f.dim
    for m, cells in _morton_pyramid(f.values, 1):
        n = m - 1
        if n <= max_gen:
            if f.is_exact:
                full = np.dot(cells.reshape(1 << (n * d), 1 << d), haar_matrix(d).astype(object))
                full *= pow2_half(n * d)
            else:
                full = _haar_products(np.asarray(cells, dtype=float), n, d)
            yield n, full
            del full
        del cells  # the finest levels are as large as the grid


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
    levels = [None] * (max_gen + 1)
    for n, full in _coefficient_levels(f, max_gen):
        levels[n] = full[:, 1:].copy()
        levels[n].flags.writeable = False  # CoefficientTable takes it over without a copy
        del full
    return CoefficientTable(f.dim, max_gen, f.corner_value(), tuple(levels))


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
    """Read a :func:`save_coefficients` pair.

    Raises ``ValueError`` for a header with d < 1 or M < 0, for an n, k or r
    out of range, a repeated or missing (n, k, r) row and a non-finite
    lambda.  The header is checked against the CSV's length before any
    level is allocated.
    """
    with open(json_path) as fh:
        head = json.load(fh)
    d, max_gen = head["d"], head["M"]
    if not all(type(x) is int for x in (d, max_gen)) or not 1 <= d < 63 or max_gen < 0:
        raise ValueError(f"coefficient header has d={d!r}, M={max_gen!r}")
    types = (1 << d) - 1
    size, want = os.path.getsize(csv_path), 0
    for n in range(max_gen + 1):
        want += types << (n * d)
        if want * len("0,0,1,0\n") > size:
            raise ValueError(
                f"coefficient header d={d}, M={max_gen} needs more rows than the CSV holds"
            )
    # NaN marks an entry not read yet; a row must hold a finite lambda.
    levels = [np.full((1 << (n * d), types), np.nan) for n in range(max_gen + 1)]
    with open(csv_path, newline="") as fh:
        for line, row in enumerate(csv.DictReader(fh), start=2):
            n, k, r = int(row["n"]), int(row["k"]), int(row["r"])
            if not (0 <= n <= max_gen and 0 <= k < 1 << (n * d) and 1 <= r <= types):
                raise ValueError(f"line {line}: (n, k, r) = ({n}, {k}, {r}) out of range")
            value = float(row["lambda"])
            if not math.isfinite(value):
                raise ValueError(f"line {line}: non-finite lambda {row['lambda']!r}")
            if not np.isnan(levels[n][k, r - 1]):
                raise ValueError(f"line {line}: repeats (n, k, r) = ({n}, {k}, {r})")
            levels[n][k, r - 1] = value
    for n, lev in enumerate(levels):
        if np.isnan(lev).any():
            raise ValueError(f"generation {n} is missing {int(np.isnan(lev).sum())} rows")
    return CoefficientTable(d, max_gen, head["a_minus1"], tuple(levels))
