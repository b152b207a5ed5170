"""Rectangular and figure increments of grid-sampled functions, and their
coefficient tables in the Haar-primitive (Faber-Schauder) system.

A GridSample holds values of a function on the (2^N+1)^d dyadic grid that
vanishes whenever a coordinate is zero.  Increments over dyadic cubes come
from one pyramid engine, O(d 2^(Nd)) overall: :func:`_difference` turns
the grid, or any box of it, into finest-cell increments one axis-0 slab at
a time; :func:`_coarsen` sums the 2^d siblings of every parent in chunks;
:func:`_pyramid` yields the levels finest first.  A level is either a
lexicographic array or a flat Morton-order one, chosen by what the caller
reads, and both layouts hold the same bits.  Equality with the 2^d-corner
alternating sum is a test, not an assumption.

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
    return _difference(f.values, morton=False)


def _difference(values: np.ndarray, morton: bool) -> np.ndarray:
    """Cell increments of the box of grid points ``values``, one axis-0 slab at a time.

    Each slab of at most 2^_SLAB_BITS cells is differenced along every axis
    by ``np.diff`` and written into the output: a lexicographic array of the
    box, or, for a cube grid and ``morton``, a flat Morton-order array
    through the bit-axis view that lex_to_morton transposes, so the level
    never exists in lexicographic order too.
    """
    d = values.ndim
    shape = tuple(x - 1 for x in values.shape)
    rows = min(shape[0], max(1, (1 << _SLAB_BITS) // math.prod(shape[1:])))
    out = dest = None
    for j, lo in enumerate(range(0, shape[0], rows)):
        slab = values[lo : lo + rows + 1]
        for axis in range(d):
            slab = np.diff(slab, axis=axis)
        if out is None:
            out = dest = np.empty(math.prod(shape) if morton else shape, dtype=slab.dtype)
            if morton:  # axes: the bits of axis 0, most significant first, then of axis 1, ...
                gen, top_bits = shape[0].bit_length() - 1, (shape[0] // rows).bit_length() - 1
                perm = [t * d + d - 1 - i for i in range(d) for t in range(gen)]
                dest = out.reshape((2,) * (gen * d)).transpose(perm)
        if morton:  # slab j fills the cells whose top bits of axis 0 spell j
            top = dest[tuple((j >> b) & 1 for b in reversed(range(top_bits))) + (...,)]
            top[...] = slab.reshape(top.shape)
        else:
            dest[lo : lo + rows] = slab
    return out


def _coarsen(cells: np.ndarray, d: int) -> np.ndarray:
    """Sum the 2^d sibling cells of every parent: one generation up along every axis.

    ``cells`` is a d-dimensional lexicographic level or a flat Morton-order
    one (the two coincide at d = 1), seen as its parent axes followed by d
    child axes in lexicographic order.  The halves of the last child axis
    are added first, then those of the one before and so on, the additions
    of a reshape-sum over the sibling axes, in chunks of about
    _CHUNK_ROWS / 2^(d-1) parents, so a first partial sum holds about
    _CHUNK_ROWS cells.
    """
    if cells.ndim == d:
        kids = cells.reshape([x for m in cells.shape for x in (m // 2, 2)])
        kids = kids.transpose([*range(0, 2 * d, 2), *range(1, 2 * d, 2)])
    else:  # the first axis of a Morton child digit is lexicographic axis d-1
        kids = cells.reshape((-1,) + (2,) * d).transpose(0, *range(d, 0, -1))
    parent = np.empty(kids.shape[:-d], dtype=cells.dtype)
    step = max(1, (_CHUNK_ROWS >> (d - 1)) // math.prod(parent.shape[1:]))
    for lo in range(0, len(parent), step):
        part = kids[lo : lo + step]
        for _ in range(d - 1):
            part = part[..., 0] + part[..., 1]
        out = parent[lo : lo + step]
        np.add(part[..., 0], part[..., 1], out=out)
        if out.dtype.kind == "f":
            # A reduce-sum starts from +0.0, so it never returns -0.0; -0.0 + -0.0 does.
            out += 0.0
    return parent


def _pyramid(
    values: np.ndarray, gen: int, stop: int, morton: bool
) -> Iterator[tuple[int, np.ndarray]]:
    """Cell increments of the box of grid points ``values``, finest generation first.

    The box's finest cells are of generation ``gen``; yields ``(n, cells)``
    for n = gen down to ``stop``, in the layout :func:`_difference` writes.
    Generation n-1 is summed before generation n is yielded, so a consumer
    may overwrite ``cells``; it should drop ``cells`` before asking for the
    next level.
    """
    cells = _difference(values, morton)
    for n in range(gen, stop - 1, -1):
        parent = _coarsen(cells, values.ndim) if n > stop else None
        yield n, cells
        cells = parent


def _check_generation(n: int, gen: int) -> None:
    if n < 0:
        raise ValueError(f"generation {n} is below 0")
    if n > gen:
        raise ValueError(f"generation {n} exceeds grid generation {gen}")


def increment_levels(f: GridSample, n_max: int | None = None) -> list[np.ndarray]:
    """Lexicographic cube-increment arrays for generations 0..n_max (default N)."""
    if n_max is None:
        n_max = f.gen
    _check_generation(n_max, f.gen)
    levels = [cells for n, cells in _pyramid(f.values, f.gen, 0, morton=False) if n <= n_max]
    levels.reverse()
    return levels


def cube_increments(f: GridSample, n: int) -> np.ndarray:
    """Increments over all generation-``n`` cubes, Morton cube order."""
    _check_generation(n, f.gen)
    for _, cells in _pyramid(f.values, f.gen, n, morton=True):
        pass
    return cells


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


def _coefficient_levels(f: GridSample, max_gen: int) -> Iterator[tuple[int, np.ndarray]]:
    """The sign-matrix products of ``f`` for n = max_gen down to 0.

    Yields ``(n, full)``: row k of the (2^(nd), 2^d) array ``full`` is the
    child block of generation-n cube k times ``haar_matrix(d)`` and
    2^(nd/2), so ``full[:, 1:]`` holds the level's coefficients.  An exact
    level is multiplied by the object matrix and pow2_half(nd), any other
    as float64, ``_CHUNK_ROWS`` rows at a time and in place: ``full``
    overwrites its Morton level (or that level's float64 copy).  A consumer
    may overwrite ``full`` too, and should drop it before asking for the
    next level.
    """
    d, exact = f.dim, f.is_exact
    mat = haar_matrix(d).astype(object if exact else float)
    for m, cells in _pyramid(f.values, f.gen, 1, morton=True):
        n = m - 1
        if n <= max_gen:
            full = (cells if exact else np.asarray(cells, dtype=float)).reshape(-1, 1 << d)
            for lo in range(0, len(full), _CHUNK_ROWS):
                full[lo : lo + _CHUNK_ROWS] = full[lo : lo + _CHUNK_ROWS] @ mat
            full *= pow2_half(n * d) if exact else 2.0 ** (n * d / 2.0)
            yield n, full
            del full
        del cells  # the finest levels are as large as the grid


def coefficient_table(f: GridSample, max_gen: int) -> CoefficientTable:
    """Coefficients of ``f`` in the Haar-primitive system up to ``max_gen``.

    The generation-n coefficients combine the 2^d child-cube increments
    with the sign-matrix rows and the amplitude 2^(nd/2); Morton ordering
    makes the children of cube k the contiguous block [2^d k, 2^d (k+1)).
    """
    if max_gen < 0:
        raise ValueError(f"generation {max_gen} is below 0")
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
