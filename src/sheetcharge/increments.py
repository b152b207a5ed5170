"""Rectangular and figure increments of grid-sampled functions, and their
coefficient tables in the Haar-primitive (Faber-Schauder) system.

A GridSample holds values of a function on the (2^N+1)^d dyadic grid that
vanishes whenever a coordinate is zero; a BottomSlab holds the grid points
of its bottom slab x_d <= 2^-n only.  Increments over dyadic cubes come
from one pyramid engine, O(d 2^(Nd)) overall: :func:`_difference` turns
the grid, or any box of it, into finest-cell increments one axis-0 slab
at a time, and :func:`_morton_tiles` turns the grid into Morton-order
ones one Morton-contiguous tile at a time; :func:`_coarsen` sums the 2^d
siblings of every parent in chunks; :func:`_pyramid` and
:func:`_tiled_pyramid` yield the levels finest first, the latter each
Morton tile summed down inside itself through its finest generations, so
none of those exists whole.  A level is either a lexicographic array or a
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
    "BottomSlab",
    "CoefficientTable",
    "rectangle_increment",
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
# numpy sums a float64 array pairwise, in leaves of at most 2^_LEAF_BITS values,
# so a run of 2^k >= 2^_LEAF_BITS values that starts at a multiple of 2^k sums
# as one subtree of its whole array.  A tile's parents are never fewer, and a
# generation summed inside the tiles has at least that many parents per tile.
_LEAF_BITS = 7


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
            if not np.all(vals[(slice(None),) * axis + (0,)] == 0):
                raise ValueError(f"values must vanish on the x_{axis + 1} = 0 facet")
        object.__setattr__(self, "values", _frozen(vals))
        if self.hurst is not None:
            hurst = tuple(float(h) for h in self.hurst)
            if len(hurst) != self.dim:
                raise ValueError(f"hurst must have {self.dim} components, got {len(hurst)}")
            object.__setattr__(self, "hurst", hurst)

    @property
    def is_exact(self) -> bool:
        return self.values.dtype == object

    def corner_value(self):
        """Value at (1, ..., 1), the increment over the whole cube."""
        return self.values[(-1,) * self.dim]


@dataclass(frozen=True)
class BottomSlab:
    """The bottom slab x_d <= 2^-n of a dyadic-grid sample, 0 <= n <= N.

    ``values`` holds the grid points whose last index is at most 2^(N-n):
    shape (2^N+1,)*(d-1) + (2^(N-n)+1,), read-only.  The slab holds every
    cube of generation n or finer that touches x_d = 0, and nothing else.
    """

    dim: int
    gen: int
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values)
        cells = vals.shape[-1] - 1 if vals.ndim else 0
        if (
            vals.shape[:-1] != ((1 << self.gen) + 1,) * (self.dim - 1)
            or not 0 < cells <= 1 << self.gen
            or cells & (cells - 1)
        ):
            raise ValueError(
                f"expected a slab of grid shape {((1 << self.gen) + 1,) * self.dim} cut to "
                f"2^k + 1 points of the last axis, got {vals.shape}"
            )
        object.__setattr__(self, "values", _frozen(vals))


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


def _piece_cells(cap: int, level_cells: int) -> int:
    """Cells in one streamed piece of a level: at most ``cap`` and 1/_LEVEL_SHARE of it.

    numpy gives a strided ufunc call two buffers of up to 8192 values, so a
    piece can cost about three times its size while it is worked on.  Below
    _MIN_PIECE cells the calls' own overhead costs more than the memory saved.
    """
    return min(cap, max(_MIN_PIECE, level_cells // _LEVEL_SHARE))


def _tile_bits(d: int, gen: int) -> int:
    """Morton bits of a tile of :func:`_morton_tiles`: the children of 2^_CHUNK_BITS
    parents (at least 2^_LEAF_BITS), or the whole finest level if that is smaller."""
    return min(max(_CHUNK_BITS, _LEAF_BITS) + d, gen * d)


def _block_rows(d: int, gen: int, max_gen: int) -> int:
    """Rows of the largest block :func:`_coefficient_levels` yields: a tile's parents,
    or all of generation ``max_gen`` if they are fewer."""
    return min(1 << (_tile_bits(d, gen) - d), 1 << (max_gen * d))


def _tiled_low(d: int, gen: int) -> int:
    """The coarsest generation :func:`_tiled_pyramid` sums inside its tiles.

    A tile holds 2^(bits - (gen - m) d) cells of generation m; it is summed
    down to each generation m < gen whose share holds the children of
    2^_LEAF_BITS parents or more.
    """
    return gen - max(0, (_tile_bits(d, gen) - _LEAF_BITS) // d - 1)


def _tile_shape(d: int, bits: int) -> tuple[int, ...]:
    """Shape of the box of the lowest ``bits`` Morton bits of a d-dimensional cell array.

    The box holds the first 2^bits Morton cells of a cube of ``side`` =
    ceil(bits / d) bits per axis, whose top ``side * d - bits`` Morton bits
    (the top bits of the axes from ``bits % d`` on) are zero.
    """
    side = -(-bits // d)
    top = side * d - bits
    return tuple(1 << (side - (d - 1 - i < top)) for i in range(d))


def _tile_order(d: int, bits: int) -> tuple[tuple[int, ...], np.ndarray]:
    """The box of :func:`_tile_shape`, and its order.

    Returns the box's shape and, for each of its cells in Morton order,
    its flat lexicographic position in the box: :func:`_morton_axes` of
    the cube without the box's zero top bits.
    """
    side = -(-bits // d)
    top = side * d - bits
    axes = [a - top for a in _morton_axes(d, side) if a >= top]
    shape = _tile_shape(d, bits)
    # Writeable: np.take copies an index array that is not, once per call.
    order = np.arange(1 << bits).reshape((2,) * bits).transpose(np.argsort(axes)).reshape(-1)
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


def _morton_tiles(values: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Finest-cell increments of the cube grid ``values``, one Morton-contiguous tile at a time.

    A tile is the box of the lowest :func:`_tile_bits` Morton bits (256 x
    256 cells at d = 2, 64 x 64 x 32 at d = 3), the children of
    2^_CHUNK_BITS parents.  Its box of grid points is differenced along
    every axis and gathered into Morton order, and ``(lo, cells)`` is
    yielded: the Morton cells lo, lo + 1, ... of the level.  ``cells`` is
    one buffer, overwritten by the next tile, and a pass allocates nothing
    once the first tile is yielded.
    """
    d = values.ndim
    gen = (values.shape[0] - 1).bit_length() - 1
    bits = _tile_bits(d, gen)
    shape, order = _tile_order(d, bits)
    differ = _box_differ(shape, values.dtype)
    lex, cells = np.empty(shape, dtype=values.dtype), np.empty(1 << bits, dtype=values.dtype)
    for lo in range(0, 1 << (gen * d), 1 << bits):
        corner = morton_decode(lo, d, gen)
        differ(values[tuple(slice(c, c + m + 1) for c, m in zip(corner, shape))], lex)
        np.take(lex.reshape(-1), order, out=cells, mode="clip")  # every index is in range
        yield lo, cells


def _difference(values: np.ndarray) -> np.ndarray:
    """Cell increments of the box of grid points ``values``, a lexicographic array.

    The box is differenced one axis-0 slab of at most
    ``_piece_cells(2^_SLAB_BITS, cells of the box)`` cells (or of one row,
    if a row is more) at a time.
    """
    shape = tuple(x - 1 for x in values.shape)
    out = np.empty(shape, dtype=values.dtype)
    slab_cells = _piece_cells(1 << _SLAB_BITS, math.prod(shape))
    rows = min(shape[0], max(1, slab_cells // math.prod(shape[1:])))
    differ = _box_differ((rows,) + shape[1:], values.dtype)
    for lo in range(0, shape[0], rows):
        differ(values[lo : lo + rows + 1], out[lo : lo + rows])
    return out


def _coarsen(
    cells: np.ndarray,
    d: int,
    out: np.ndarray | None = None,
    scratch: list[np.ndarray] | None = None,
) -> np.ndarray:
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
    strided 1-D sums into 2(d - 1) scratch arrays of a chunk's parents
    (see :func:`_add_siblings`).  The parents go to ``out`` if given;
    ``cells`` is then a piece of :func:`_tiled_pyramid`, summed in one
    chunk through the arrays of ``scratch``, each at least as long as
    ``out``, so a stream of pieces allocates nothing.
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
    if morton and scratch is None:
        scratch = [np.empty(min(step, len(parent)), dtype=cells.dtype) for _ in range(2 * d - 2)]
    for lo in range(0, len(parent), step):
        dest = parent[lo : lo + step]
        if morton:
            _add_siblings(kids[lo : lo + step], dest, [s[: len(dest)] for s in scratch])
        else:
            part = kids[lo : lo + step]
            for _ in range(d - 1):
                part = part[..., 0] + part[..., 1]
            np.add(part[..., 0], part[..., 1], out=dest)
        if dest.dtype.kind == "f":
            # A reduce-sum starts from +0.0, so it never returns -0.0; -0.0 + -0.0 does.
            dest += 0.0
    return parent


def _add_siblings(
    kids: np.ndarray, out: np.ndarray, scratch: list[np.ndarray], k: int = 0, step: int = 1
) -> None:
    """Write partial sum ``k`` of stride ``step`` of the halvings of ``kids``'s columns to ``out``.

    The halvings add column k + 2^(d-1) to column k for every k < 2^(d-1),
    then the upper half of those sums to the lower half and so on, until
    one column is left.  Partial sum k of stride s is the sum over the
    columns k + s*j, its left half (k, 2s) plus its right half (k + s, 2s).
    It is worked out depth first, the halves of stride 2s in the pair
    ``scratch[2 log2 s : 2 log2 s + 2]``, so nothing is allocated.  No sum
    goes into one of its own terms: numpy's in-place add of one value can
    give a NaN another sign.
    """
    if step == kids.shape[1] >> 1:
        np.add(kids[:, k], kids[:, k + step], out=out)
        return
    left, right = scratch[2 * step.bit_length() - 2 : 2 * step.bit_length()]
    _add_siblings(kids, left, scratch, k, 2 * step)
    _add_siblings(kids, right, scratch, k + step, 2 * step)
    np.add(left, right, out=out)


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


def _pyramid(values: np.ndarray, gen: int, stop: int) -> Iterator[tuple[int, np.ndarray]]:
    """Lexicographic cell increments of the box of grid points ``values``, finest first.

    The box's finest cells are of generation ``gen``; yields ``(n, cells)``
    for n = gen down to ``stop`` as :func:`_levels` does.
    """
    levels = _levels(_difference(values), values.ndim, gen, stop)
    del values  # a grid no caller holds is freed here
    yield from levels


def _tiled_pyramid(values: np.ndarray, stop: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """Morton cell increments of the cube grid ``values`` for generations N down to ``stop``.

    Yields ``(n, lo, cells)``, the cells lo, lo + 1, ... of generation n.
    Each tile of :func:`_morton_tiles` is summed down inside itself, one
    generation at a time, as long as its share of the next generation
    holds the children of 2^_LEAF_BITS parents or more: the tile, then its
    share of each such generation, is yielded, each share in a buffer of
    its own that the next tile overwrites.  The tile's share of the
    generation below the last of them is written into its slice of a whole
    level, and that generation and every coarser one are yielded whole
    (lo = 0), as :func:`_levels` yields them.  So a generation comes in
    Morton order, in pieces of one size, and the first one that exists
    whole is generation N-4 at d = 2 (N-3 at d = 3, N-2 at d = 4) on a grid
    of many tiles.  Every piece is summed into the next generation before
    it is yielded, so a consumer may overwrite it.
    """
    d, gen = values.ndim, (values.shape[0] - 1).bit_length() - 1
    bits, low = _tile_bits(d, gen), max(stop, _tiled_low(d, gen))
    pieces = [np.empty(1 << (bits - k * d), dtype=values.dtype) for k in range(1, gen - low + 1)]
    whole = np.empty(1 << ((low - 1) * d), dtype=values.dtype) if stop < low else None
    scratch = [np.empty(1 << max(0, bits - d), dtype=values.dtype) for _ in range(2 * d - 2)]
    tiles = _morton_tiles(values)
    del values  # the tiles hold the grid until the last one is differenced
    for lo, cells in tiles:
        for k, m in enumerate(range(gen, low - 1, -1)):
            if m > low:
                parent = pieces[k]
            elif whole is not None:
                start = lo >> ((k + 1) * d)
                parent = whole[start : start + (len(cells) >> d)]
            else:
                parent = None
            if parent is not None:
                _coarsen(cells, d, out=parent, scratch=scratch)
            yield m, lo >> (k * d), cells
            cells = parent
    del tiles, cells, pieces
    if whole is not None:
        levels = _levels(whole, d, low - 1, stop)
        del whole
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
    levels = [cells for n, cells in _pyramid(f.values, f.gen, 0) if n <= n_max]
    levels.reverse()
    return levels


def cube_increments(f: GridSample, n: int) -> np.ndarray:
    """Increments over all generation-``n`` cubes, Morton cube order."""
    _check_generation(n, f.gen)
    out = np.empty(1 << (n * f.dim), dtype=f.values.dtype)
    for m, lo, cells in _tiled_pyramid(f.values, n):
        if m == n:
            out[lo : lo + len(cells)] = cells
    return out


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


def _coefficient_levels(f: GridSample, max_gen: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """The sign-matrix products of ``f`` for n = max_gen down to 0, in blocks of rows.

    Yields ``(n, lo, full)``: row i of ``full`` is row lo + i of generation
    n's (2^(nd), 2^d) product, the child block of generation-n cube lo + i
    times ``haar_matrix(d)`` and 2^(nd/2), so ``full[:, 1:]`` holds
    coefficients.  A block is one product of a piece of
    :func:`_tiled_pyramid`, or of at most :func:`_block_rows` rows of a
    whole level, an exact one by the object matrix and pow2_half(nd), any
    other as float64, into one buffer that the next block overwrites.  So
    the finest generations are products of the pyramid's tiles and their
    shares, generation by generation inside each tile, and never exist
    whole.  Each generation's blocks come in row order and have one size,
    a power of two that is at least 2^_LEAF_BITS rows or all of the
    generation; the blocks of different generations interleave.
    """
    d, exact = f.dim, f.is_exact
    mat = haar_matrix(d).astype(object if exact else float)
    rows = 1 << (_tile_bits(d, f.gen) - d)  # a tile's parents: no piece is larger
    full = np.empty((_block_rows(d, f.gen, max_gen), 1 << d), dtype=mat.dtype)
    pyramid = _tiled_pyramid(f.values, 1)
    del f  # the pyramid holds the grid until its last tile is differenced
    for m, row, cells in pyramid:
        n = m - 1
        if n <= max_gen:
            kids, amp = cells.reshape(-1, 1 << d), haar_amplitude(n * d, exact)
            for lo in range(0, len(kids), rows):
                block = kids[lo : lo + rows]
                out = full[: len(block)]
                np.matmul(block if exact else np.asarray(block, dtype=float), mat, out=out)
                out *= amp
                yield n, (row >> d) + lo, out
            del kids
        del cells  # not alive while the next level is summed


def _coefficient_bytes(d: int, gen: int, max_gen: int) -> int:
    """Bytes :func:`_coefficient_levels` of a float grid holds beside the grid, at most.

    A tile's box of cells and the d - 1 intermediate arrays of its
    differencing (each at most its box of grid points), its cells in
    Morton order and their int64 order; the tile's shares of the
    generations summed inside it (each 1/2^d of the one before) and the
    2(d - 1) scratch arrays of its parents; the whole level below them,
    with the parent and scratch arrays :func:`_levels` sums it through;
    the product buffer; and numpy's three ufunc buffers for additions of
    strided operands.
    """
    bits = _tile_bits(d, gen)
    tile, points = 1 << bits, math.prod(m + 1 for m in _tile_shape(d, bits))
    low = _tiled_low(d, gen)
    whole = 1 << ((low - 1) * d) if low > 1 else 0
    cells = (
        d * points
        + 2 * tile
        + (tile >> (d - 1))  # the shares: 1/2^d + 1/4^d + ... of a tile
        + 2 * (d - 1) * (tile >> d)
        + whole
        + (2 * d - 1) * (whole >> d)
        + (_block_rows(d, gen, max_gen) << d)
        + 3 * np.getbufsize()
    )
    return 8 * cells


def _levels_bytes(d: int, gen: int, max_gen: int) -> int:
    """Bytes :func:`increment_levels` of a float grid holds beside the grid, at most.

    Every level it returns (generations 0..``max_gen``) and the finest
    level, which is alive while its parent is summed; the d - 1
    intermediate arrays of one slab's differencing, each at most the
    slab's grid points; and a chunk's partial sums with numpy's three
    ufunc buffers for their strided additions.
    """
    row = 1 << (gen * (d - 1))
    rows = min(1 << gen, max(1, _piece_cells(1 << _SLAB_BITS, 1 << (gen * d)) // row))
    slab = (rows + 1) * ((1 << gen) + 1) ** (d - 1)
    chunk = _piece_cells(_CHUNK_ROWS, 1 << (gen * d))
    levels = sum(1 << (n * d) for n in range(max_gen + 1))
    return 8 * (levels + (1 << (gen * d)) + (d - 1) * slab + chunk + 3 * np.getbufsize())


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
