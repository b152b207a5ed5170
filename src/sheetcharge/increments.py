"""Rectangular and figure increments of grid-sampled functions, and their
coefficient tables in the Haar-primitive (Faber-Schauder) system.

A GridSample holds values of a function on the (2^N+1)^d dyadic grid that
vanishes whenever a coordinate is zero.  Increments over dyadic cubes come
from one pyramid engine, O(d 2^(Nd)) overall: :func:`_difference` turns
the grid, or any box of it, into finest-cell increments one axis-0 slab
at a time, or, in Morton order, one Morton-contiguous tile of
:func:`_morton_tiles` at a time; :func:`_coarsen` sums the 2^d siblings of
every parent in chunks; :func:`_pyramid` and :func:`_tiled_pyramid` yield
the levels finest first.  A level is either a lexicographic array or a
flat Morton-order one, chosen by what the caller reads, and both layouts
hold the same bits.  Equality with the 2^d-corner alternating sum is a
test, not an assumption.

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
from typing import Callable, Iterator

import numpy as np

# lex_to_morton is unused here, but moment-scaling looks it up through this module,
# the call site bench/tracer.py wraps.
from .dyadic import Figure, Rectangle, _morton_axes, lex_to_morton, morton_decode  # noqa: F401
from .haar import haar_amplitude, haar_matrix

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


# Sizes of the streamed pieces of one level: cells differenced per lexicographic
# slab, as a power of two, and Morton rows summed or multiplied per chunk (a
# Morton tile of the finest level holds the children of one chunk).  A slab or
# a sibling-sum chunk also holds at most 1/_LEVEL_SHARE of its level and at
# least _MIN_PIECE cells (see _piece_cells).
_SLAB_BITS = 15
_CHUNK_BITS = 14
_CHUNK_ROWS = 1 << _CHUNK_BITS
_LEVEL_SHARE = 16
_MIN_PIECE = 1 << 12


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


def _piece_cells(cap: int, level_cells: int) -> int:
    """Cells in one streamed piece of a level: at most ``cap`` and 1/_LEVEL_SHARE of it.

    numpy gives a strided ufunc call two buffers of up to 8192 values, so a
    piece can cost about three times its size while it is worked on.  Below
    _MIN_PIECE cells the calls' own overhead costs more than the memory saved.
    """
    return min(cap, max(_MIN_PIECE, level_cells // _LEVEL_SHARE))


def _tile_order(d: int, bits: int) -> tuple[tuple[int, ...], np.ndarray]:
    """Box of the lowest ``bits`` Morton bits of a d-dimensional cell array, and its order.

    The box holds the first 2^bits Morton cells of a cube of ``side`` =
    ceil(bits / d) bits per axis, whose top ``side * d - bits`` Morton bits
    (the top bits of the axes from ``bits % d`` on) are zero.  Returns the
    box's shape and, for each of its cells in Morton order, its flat
    lexicographic position in the box: :func:`_morton_axes` of the cube
    without those top bits.
    """
    side = -(-bits // d)
    top = side * d - bits
    axes = [a - top for a in _morton_axes(d, side) if a >= top]
    shape = tuple(1 << (side - (d - 1 - i < top)) for i in range(d))
    order = np.arange(1 << bits).reshape((2,) * bits).transpose(np.argsort(axes)).reshape(-1)
    order.flags.writeable = False
    return shape, order


def _box_differ(cells: tuple[int, ...], dtype) -> Callable[[np.ndarray, np.ndarray], None]:
    """A function ``differ(box, out)`` for boxes of grid points with ``cells`` cells per axis.

    It writes the cell increments of ``box`` into ``out`` with the
    subtractions of ``np.diff`` along axis 0, then 1 and so on, through
    intermediate arrays made once, so a stream of boxes allocates nothing.
    """
    op = np.not_equal if dtype == np.bool_ else np.subtract  # as np.diff picks it
    steps = [
        np.empty(cells[: axis + 1] + tuple(m + 1 for m in cells[axis + 1 :]), dtype=dtype)
        for axis in range(len(cells) - 1)
    ]

    def differ(box: np.ndarray, out: np.ndarray) -> None:
        for axis, dest in enumerate([*steps, out]):
            head = (slice(None),) * axis
            op(box[head + (slice(1, None),)], box[head + (slice(None, -1),)], out=dest)
            box = dest

    return differ


def _morton_tiles(
    values: np.ndarray, parent: np.ndarray | None = None
) -> Iterator[tuple[int, np.ndarray]]:
    """Finest-cell increments of the cube grid ``values``, one Morton-contiguous tile at a time.

    A tile is the box of the lowest min(_CHUNK_BITS + d, Nd) Morton bits
    (256 x 256 cells at d = 2, 64 x 64 x 32 at d = 3), the children of
    _CHUNK_ROWS parents.  Its box of grid points is differenced along every
    axis and gathered into Morton order, and ``(lo, cells)`` is yielded:
    the Morton cells lo, lo + 1, ... of the level.  ``cells`` is one
    buffer, overwritten by the next tile.  With ``parent``, the flat Morton
    array of the generation above, each tile's sibling sums are written
    into its slice of ``parent`` before the tile is yielded.
    """
    d = values.ndim
    gen = (values.shape[0] - 1).bit_length() - 1
    bits = min(_CHUNK_BITS + d, gen * d)
    shape, order = _tile_order(d, bits)
    differ = _box_differ(shape, values.dtype)
    lex, cells = np.empty(shape, dtype=values.dtype), np.empty(1 << bits, dtype=values.dtype)
    for lo in range(0, 1 << (gen * d), 1 << bits):
        corner = morton_decode(lo, d, gen)
        differ(values[tuple(slice(c, c + m + 1) for c, m in zip(corner, shape))], lex)
        np.take(lex.reshape(-1), order, out=cells, mode="clip")  # every index is in range
        if parent is not None:
            _coarsen(cells, d, out=parent[lo >> d : (lo >> d) + (len(cells) >> d)])
        yield lo, cells


def _difference(values: np.ndarray, morton: bool) -> np.ndarray:
    """Cell increments of the box of grid points ``values``.

    With ``morton``, ``values`` is a cube grid and the result its flat
    Morton-order level, put together from :func:`_morton_tiles`.  Otherwise
    the result is a lexicographic array of the box, differenced one axis-0
    slab of at most ``_piece_cells(2^_SLAB_BITS, cells of the box)`` cells
    (or of one row, if a row is more) at a time.
    """
    shape = tuple(x - 1 for x in values.shape)
    out = np.empty(math.prod(shape) if morton else shape, dtype=values.dtype)
    if morton:
        for lo, cells in _morton_tiles(values):
            out[lo : lo + len(cells)] = cells
        return out
    slab_cells = _piece_cells(1 << _SLAB_BITS, math.prod(shape))
    rows = min(shape[0], max(1, slab_cells // math.prod(shape[1:])))
    differ = _box_differ((rows,) + shape[1:], values.dtype)
    for lo in range(0, shape[0], rows):
        differ(values[lo : lo + rows + 1], out[lo : lo + rows])
    return out


def _coarsen(cells: np.ndarray, d: int, out: np.ndarray | None = None) -> np.ndarray:
    """Sum the 2^d sibling cells of every parent: one generation up along every axis.

    ``cells`` is a d-dimensional lexicographic level or a flat Morton-order
    one (the two coincide at d = 1), seen as its parent axes followed by d
    child axes in lexicographic order.  The halves of the last child axis
    are added first, then those of the one before and so on, the additions
    of a reshape-sum over the sibling axes, in chunks of about
    _CHUNK_ROWS / 2^(d-1) parents, so a first partial sum holds about
    _CHUNK_ROWS cells and at most 1/_LEVEL_SHARE of a large level.  On a
    Morton level, child axis i is bit 2^i of a parent's child digit, so
    each step adds the upper half of the remaining sibling columns of
    ``cells.reshape(-1, 2^d)`` to the lower half, column by column, as long
    strided 1-D sums.  The parents go to ``out`` if given; ``cells`` is then
    a tile of :func:`_morton_tiles`, small enough to be summed in one chunk.
    """
    morton = cells.ndim != d
    if morton:
        kids = cells.reshape(-1, 1 << d)
        parent_shape = (len(kids),)
    else:
        kids = cells.reshape([x for m in cells.shape for x in (m // 2, 2)])
        kids = kids.transpose([*range(0, 2 * d, 2), *range(1, 2 * d, 2)])
        parent_shape = kids.shape[:-d]
    if out is None:
        parent = np.empty(parent_shape, dtype=cells.dtype)
        chunk_cells = _piece_cells(_CHUNK_ROWS, cells.size)
        step = max(1, (chunk_cells >> (d - 1)) // math.prod(parent_shape[1:]))
    else:
        parent, step = out, len(out)
    for lo in range(0, len(parent), step):
        if morton:
            part = [kids[lo : lo + step, k] for k in range(1 << d)]
            while len(part) > 2:
                half = len(part) // 2
                part = [part[k] + part[half + k] for k in range(half)]
        else:
            part = kids[lo : lo + step]
            for _ in range(d - 1):
                part = part[..., 0] + part[..., 1]
            part = [part[..., 0], part[..., 1]]
        dest = parent[lo : lo + step]
        np.add(part[0], part[1], out=dest)
        if dest.dtype.kind == "f":
            # A reduce-sum starts from +0.0, so it never returns -0.0; -0.0 + -0.0 does.
            dest += 0.0
    return parent


def _levels(cells: np.ndarray, d: int, gen: int, stop: int) -> Iterator[tuple[int, np.ndarray]]:
    """``(n, cells)`` for n = gen down to ``stop``, from the generation-``gen`` level ``cells``.

    Generation n-1 is summed before generation n is yielded, so a consumer
    may overwrite ``cells``; it should drop ``cells`` before asking for the
    next level.
    """
    for n in range(gen, stop - 1, -1):
        parent = _coarsen(cells, d) if n > stop else None
        yield n, cells
        cells = parent


def _pyramid(
    values: np.ndarray, gen: int, stop: int, morton: bool
) -> Iterator[tuple[int, np.ndarray]]:
    """Cell increments of the box of grid points ``values``, finest generation first.

    The box's finest cells are of generation ``gen``; yields ``(n, cells)``
    for n = gen down to ``stop`` as :func:`_levels` does, in the layout
    :func:`_difference` writes.
    """
    levels = _levels(_difference(values, morton), values.ndim, gen, stop)
    del values  # a grid no caller holds is freed here
    yield from levels


def _tiled_pyramid(values: np.ndarray, stop: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """Morton cell increments of the cube grid ``values`` for generations N down to ``stop``.

    Yields ``(n, lo, cells)``, the cells lo, lo + 1, ... of generation n:
    generation N one tile of :func:`_morton_tiles` at a time, each summed
    into its slice of generation N-1 first, so the finest level never
    exists whole; then every coarser generation whole (lo = 0), as
    :func:`_levels` yields it.
    """
    d, gen = values.ndim, (values.shape[0] - 1).bit_length() - 1
    parent = np.empty(1 << ((gen - 1) * d), dtype=values.dtype) if stop < gen else None
    tiles = _morton_tiles(values, parent)
    del values  # the tiles hold the grid until the last one is differenced
    for lo, cells in tiles:
        yield gen, lo, cells
    del tiles, cells
    if parent is not None:
        levels = _levels(parent, d, gen - 1, stop)
        del parent
        for n, cells in levels:
            yield n, 0, cells
            del cells


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
    if n == f.gen:
        return _difference(f.values, morton=True)
    for _, _, cells in _tiled_pyramid(f.values, n):
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


def _coefficient_levels(f: GridSample, max_gen: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """The sign-matrix products of ``f`` for n = max_gen down to 0, in blocks of rows.

    Yields ``(n, lo, full)``: row i of ``full`` is row lo + i of generation
    n's (2^(nd), 2^d) product, the child block of generation-n cube lo + i
    times ``haar_matrix(d)`` and 2^(nd/2), so ``full[:, 1:]`` holds
    coefficients.  A block is one product of at most ``_CHUNK_ROWS`` rows,
    an exact one by the object matrix and pow2_half(nd), any other as
    float64.  The children come from :func:`_tiled_pyramid`, so those of
    generation N-1 are the tiles of the grid and never exist whole.  A
    consumer may overwrite ``full`` and should drop it before asking for
    the next block.
    """
    d, exact = f.dim, f.is_exact
    mat = haar_matrix(d).astype(object if exact else float)
    pyramid = _tiled_pyramid(f.values, 1)
    del f  # the pyramid holds the grid until its last tile is differenced
    for m, row, cells in pyramid:
        n = m - 1
        if n <= max_gen:
            kids, amp = cells.reshape(-1, 1 << d), haar_amplitude(n * d, exact)
            for lo in range(0, len(kids), _CHUNK_ROWS):
                block = kids[lo : lo + _CHUNK_ROWS]
                full = (block if exact else np.asarray(block, dtype=float)) @ mat
                full *= amp
                yield n, (row >> d) + lo, full
                del full
            del kids
        del cells  # not alive while the next level is summed


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
    exact, types = f.is_exact, (1 << f.dim) - 1
    levels = [
        np.empty((1 << (n * f.dim), types), dtype=object if exact else float)
        for n in range(max_gen + 1)
    ]
    for n, lo, full in _coefficient_levels(f, max_gen):
        levels[n][lo : lo + len(full)] = full[:, 1:]
        del full
    for lev in levels:
        lev.flags.writeable = False  # CoefficientTable takes it over without a copy
    return CoefficientTable(f.dim, max_gen, f.corner_value(), tuple(levels))


def save_coefficients(tab: CoefficientTable, csv_path, json_path) -> None:
    """Write the (n, k, r, lambda) CSV and the {d, M, a_minus1} JSON header."""
    header = {"d": tab.dim, "M": tab.max_gen, "a_minus1": float(tab.a_minus1)}
    text = json.dumps(header, allow_nan=False)  # before the file is opened: NaN raises here
    with open(json_path, "w") as fh:
        fh.write(text + "\n")
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
