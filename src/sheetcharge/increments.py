"""Dyadic-cube increments of grid-sampled functions, and their coefficient
tables in the Haar-primitive (Faber-Schauder) system.

A GridSample holds values of a function on the (2^N+1)^d dyadic grid that
vanishes whenever a coordinate is zero; a BottomSlab holds the grid points
of its bottom slab x_d <= 2^-n only.  Increments over dyadic cubes come
from one pyramid engine, O(d 2^(Nd)) overall: :func:`_morton_tile` turns
a cube grid into finest-cell increments one Morton-contiguous tile at a
time, :func:`_coarsen` sums the 2^d siblings of every parent, and
:func:`_tiled_pyramid` sums each tile down inside itself through its
finest generations and yields every level finest first, in Morton order
and in pieces, so none of the finest levels exists whole.  A reader that
wants a lexicographic array writes each piece through a Morton-bit view
of it (:func:`_put_piece`).  Equality with the 2^d-corner alternating sum
is a test, not an assumption, and a lexicographic pyramid is the tests'
differential reference (``tests/oracles.py``).

Grids are float64 only: a grid of any other dtype is rejected, never
cast.  The exact coefficient table, in Fraction and a + b*sqrt(2)
arithmetic, is a test oracle (``tests/oracles.py``).
"""

from __future__ import annotations

import functools
import math
import mmap
import sys
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

# lex_to_morton is unused here, but bench/tracer.py wraps it through this module.
from .dyadic import _lex_axes, _morton_axes, lex_to_morton, morton_decode  # noqa: F401
from .haar import haar_matrix

__all__ = [
    "GridSample",
    "BottomSlab",
    "CoefficientTable",
    "increment_levels",
    "cube_increments",
    "coefficient_table",
]


# Sizes of the streamed pieces of one level: Morton rows summed or multiplied per
# chunk, as a power of two (a Morton tile of the finest level holds the children
# of one chunk).  A sibling-sum chunk of a whole level also holds at most
# 1/_LEVEL_SHARE of it and at least _MIN_PIECE cells (see _coarsen).
_CHUNK_BITS = 14
_CHUNK_ROWS = 1 << _CHUNK_BITS
_LEVEL_SHARE = 16
_MIN_PIECE = 1 << 12
# numpy sums a float64 array pairwise, in leaves of at most 2^_LEAF_BITS values,
# so a run of 2^k >= 2^_LEAF_BITS values that starts at a multiple of 2^k sums
# as one subtree of its whole array.  A tile's parents are never fewer, and a
# generation summed inside the tiles has at least that many parents per tile.
_LEAF_BITS = 7


def _check_grid(dim: int, gen: int, vals: np.ndarray) -> None:
    """Reject a dimension below 1, a generation below 0 and values that are not float64."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if gen < 0:
        raise ValueError(f"gen must be >= 0, got {gen}")
    if vals.dtype != np.float64:
        raise ValueError(f"values must be float64, got dtype {vals.dtype}")


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
        _check_grid(self.dim, self.gen, vals)
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

    def corner_value(self) -> float:
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
        _check_grid(self.dim, self.gen, vals)
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


def _tile_bits(d: int, gen: int) -> int:
    """Morton bits of a tile of :func:`_morton_tile`: the children of 2^_CHUNK_BITS
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


@functools.lru_cache(maxsize=None)
def _tile_order(d: int, bits: int) -> tuple[tuple[int, ...], np.ndarray]:
    """The box of :func:`_tile_shape`, and its order, worked out once per (d, bits).

    Returns the box's shape and, for each of its cells in Morton order,
    its flat position in the box's grid points, one more along each axis
    (:func:`_morton_tile` differences the points in place of the cells):
    :func:`_morton_axes` of the cube without the box's zero top bits.  The
    order is shared by every pass and read only.  It lives in an anonymous
    mapping of its own: on the malloc heap it would outlive the passes'
    freed buffers below it and keep them resident (fbs-criteria peaked
    2 MB higher).
    """
    side = -(-bits // d)
    top = side * d - bits
    axes = [a - top for a in _morton_axes(d, side) if a >= top]
    shape = _tile_shape(d, bits)
    lex = np.arange(1 << bits).reshape((2,) * bits).transpose(np.argsort(axes)).reshape(-1)
    # Writeable: np.take copies an index array that is not, once per call.
    order = np.frombuffer(mmap.mmap(-1, np.dtype(np.intp).itemsize << bits), dtype=np.intp)
    coord, shift, stride = np.empty_like(lex), 0, 1
    for m in reversed(shape):  # each axis's coordinate, a power-of-two field of lex
        np.right_shift(lex, shift, out=coord)
        coord &= m - 1
        coord *= stride
        if stride == 1:
            order[...] = coord
        else:
            order += coord
        shift, stride = shift + m.bit_length() - 1, stride * (m + 1)
    return shape, order


def _references_of_a_local() -> int:
    """What ``sys.getrefcount`` reads for an object that one local variable alone refers to."""
    probe = object()
    return sys.getrefcount(probe)


_ONE_REFERENCE = _references_of_a_local()


class _Workspace:
    """The buffers of draws and :func:`_tiled_pyramid` passes run one after another.

    A pass asks for each buffer by role and shape: the two runs of its
    tiles' differencing (the box's grid points and their differences),
    a tile's Morton cells, the tile's shares of the generations summed
    inside it and the whole level below them; the box's buffer also
    holds the scratch arrays of the shares' parents (:func:`_tile_box`).
    A draw of ``sampler.sample_sheet`` asks for its grid (:meth:`grid`) and
    its scratch arrays (:meth:`draw_scratch`).  A buffer is made on the
    first request and handed out again, as a view of its first values,
    for every later one it holds; a larger request replaces it.  So draws
    and passes over grids of one shape allocate their buffers once, and a
    workspace holds at most one buffer per role and one grid.  It lives
    as long as its maker keeps it, and the draws and passes that share it
    run on one thread, one at a time: each overwrites the buffers of the
    last.

    The grid is the exception: a sample takes it over read-only, so it
    must not change while the sample is held.  The workspace hands it out
    again only when it holds the grid's last reference, and otherwise
    makes a new one.
    """

    def __init__(self) -> None:
        self._buffers: dict[tuple, np.ndarray] = {}
        self._grid: np.ndarray | None = None

    def buffer(self, shape: tuple[int, ...], *role) -> np.ndarray:
        """The float64 buffer of ``role``, of ``shape``, C-contiguous, contents undefined."""
        size = math.prod(shape)
        buf = self._buffers.get(role)
        if buf is None or len(buf) < size:
            buf = self._buffers[role] = np.empty(size)
        return buf[:size].reshape(shape)

    def draw_scratch(self, count: int, size: int) -> list[np.ndarray]:
        """``count`` flat scratch arrays of ``size`` values for a draw, contents undefined.

        The first is the Morton cells buffer of :func:`_morton_tile`,
        which no pass uses while a draw runs, so a draw followed by a pass
        holds one buffer for both; the others have roles of their own.
        """
        return [self.buffer((size,), "cells")] + [
            self.buffer((size,), "draw", k) for k in range(1, count)
        ]

    def grid(self, shape: tuple[int, ...]) -> np.ndarray:
        """A writeable float64 grid of ``shape`` that owns its data, zero when it is made.

        The last grid handed out comes back, writeable and holding what
        was written into it, if it has ``shape`` and nothing but the
        workspace refers to it: no sample, view or caller holds it any
        more.  Else a new one is made, and a sample that holds the old
        one keeps its bytes.
        """
        full, self._grid = self._grid, None
        if full is None or full.shape != shape or sys.getrefcount(full) > _ONE_REFERENCE:
            full = np.zeros(shape)
        else:
            full.flags.writeable = True  # it owns its data, so it may be written again
        self._grid = full
        return full


def _morton_tile(values: np.ndarray, lo: int, ws: _Workspace) -> np.ndarray:
    """The finest-cell increments lo, lo + 1, ... of the cube grid ``values``: one Morton tile.

    A tile is the box of the lowest :func:`_tile_bits` Morton bits (256 x
    256 cells at d = 2, 64 x 64 x 32 at d = 3), the children of
    2^_CHUNK_BITS parents; ``lo`` is a multiple of its size.  Its box of
    grid points is copied into a flat buffer of ``ws`` (unless it is one
    run of ``values`` already) and differenced along axis 0, then 1 and
    so on, with the subtractions of ``np.diff``: along axis i as one flat
    run, each point minus the point one step of axis i before it, a 1-D
    subtraction, which numpy does without the buffers of a strided one.
    The differences that straddle the box's edge are junk, which the
    gather into Morton order skips (:func:`_tile_order`).  The runs
    alternate between two buffers of ``ws``, the last one in the box's,
    and the cells are gathered into the other, dead by then.  So the cells
    are overwritten by the next tile, and a pass allocates nothing once
    its workspace holds its buffers.  The box's buffer is dead once the
    cells are gathered, and a caller may use it (:func:`_tile_box`).
    """
    d = values.ndim
    gen = (values.shape[0] - 1).bit_length() - 1
    bits = _tile_bits(d, gen)
    shape, order = _tile_order(d, bits)
    corner = morton_decode(lo, d, gen)
    box = values[tuple(slice(c, c + m + 1) for c, m in zip(corner, shape))]
    roles = ("cells", "box") if d % 2 else ("box", "cells")  # the last run goes to "box"
    size = box.size
    if box.flags.c_contiguous:
        run = box.reshape(-1)
    else:
        run = ws.buffer((size,), roles[0])
        np.copyto(run.reshape(box.shape), box)
    for axis in range(d):
        step = math.prod(box.shape[axis + 1 :])
        size -= step
        dest = ws.buffer((size,), roles[(axis + 1) % 2])
        np.subtract(run[step:], run[:size], out=dest)
        run = dest
    cells = ws.buffer((1 << bits,), "cells")
    np.take(run, order, out=cells, mode="clip")  # every index is in range
    return cells


def _tile_box(ws: _Workspace, shape: tuple[int, ...]) -> np.ndarray:
    """The buffer of the box of :func:`_morton_tile` in ``ws``, as an array of ``shape``.

    It holds at least a tile's 2^bits values and is dead once the tile's
    cells are gathered, until the next tile is differenced: room for the
    scratch arrays of :func:`_tiled_pyramid` while it sums a tile, and for
    a consumer's products of a piece with the 2^d x 2^d sign matrix.
    """
    return ws.buffer(shape, "box")


def _coarsen(
    cells: np.ndarray,
    d: int,
    out: np.ndarray | None = None,
    scratch: list[np.ndarray] | None = None,
) -> np.ndarray:
    """Sum the 2^d sibling cells of every parent of the flat Morton-order level ``cells``.

    Child axis i is bit 2^i of a parent's child digit, so the halves of the
    last child axis are added first, then those of the one before and so
    on, the additions of a reshape-sum over the sibling axes of the
    lexicographic level: each step adds the upper half of the remaining
    sibling columns of ``cells.reshape(-1, 2^d)`` to the lower half, column
    by column, as long strided 1-D sums into 2(d - 1) scratch arrays of a
    chunk's parents (see :func:`_add_siblings`).  A whole level is summed
    in chunks of about _CHUNK_ROWS / 2^(d-1) parents, so a first partial
    sum holds about _CHUNK_ROWS cells and at most 1/_LEVEL_SHARE of a large
    level: numpy gives a strided ufunc call two buffers of up to 8192
    values, so a chunk costs about three times its size while it is summed.
    Below _MIN_PIECE cells the calls' own overhead costs more than the
    memory saved.  The parents go to ``out`` if given; ``cells`` is then a
    piece of :func:`_tiled_pyramid`, summed in one chunk through the arrays
    of ``scratch``, each at least as long as ``out``, so a stream of pieces
    allocates nothing.
    """
    kids = cells.reshape(-1, 1 << d)
    if out is None:
        parent = np.empty(len(kids))
        chunk = min(_CHUNK_ROWS, max(_MIN_PIECE, cells.size // _LEVEL_SHARE))
        step = max(1, chunk >> (d - 1))
    else:
        parent, step = out, len(out)
    if scratch is None:
        scratch = [np.empty(min(step, len(parent))) for _ in range(2 * d - 2)]
    for lo in range(0, len(parent), step):
        dest = parent[lo : lo + step]
        _add_siblings(kids[lo : lo + step], dest, [s[: len(dest)] for s in scratch])
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


def _tiled_pyramid(
    values: np.ndarray, stop: int, ws: _Workspace
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Morton cell increments of the cube grid ``values`` for generations N down to ``stop``.

    Yields ``(n, lo, cells)``, the cells lo, lo + 1, ... of generation n.
    Each tile of :func:`_morton_tile` is summed down inside itself, one
    generation at a time, as long as its share of the next generation
    holds the children of 2^_LEAF_BITS parents or more: the tile, then its
    share of each such generation, is yielded, each share in a buffer of
    its own that the next tile overwrites.  The sums' scratch arrays lie
    in the tile's box (:func:`_tile_box`).  The tile's share of the
    generation below the last of them is written into its slice of a whole
    level, and that generation and every coarser one are yielded whole
    (lo = 0); each level coarser than that one is dropped once the next is
    asked for.  So a generation comes in Morton order, in pieces of one
    size, and the first one that exists whole is generation N-4 at d = 2
    (N-3 at d = 3, N-2 at d = 4) on a grid of many tiles.  Every piece is
    summed into the next generation before it is yielded, so a consumer
    may overwrite it, and may use the tile's box while it holds a piece.

    The workspace ``ws`` owns every buffer but the levels coarser than the
    first whole one: the runs of the tile's differencing, its Morton
    cells, the shares and the first whole level.  They live as long as
    ``ws``, not as long as the pass: a caller
    that runs one pass passes a fresh workspace, which goes with the
    pass, ``counterexample_figure`` shares one among the pyramids of
    one figure's cubes, which so allocate their buffers once, and each
    moment-scaling worker draws and sums all its replicates through one.
    """
    d, gen = values.ndim, (values.shape[0] - 1).bit_length() - 1
    bits, low = _tile_bits(d, gen), max(stop, _tiled_low(d, gen))
    whole = ws.buffer((1 << ((low - 1) * d),), "whole") if stop < low else None
    for lo in range(0, 1 << (gen * d), 1 << bits):
        cells = _morton_tile(values, lo, ws)
        # (2d - 2) / 2^d of a tile: the box is dead once the cells are gathered
        scratch = list(_tile_box(ws, (2 * d - 2, 1 << max(0, bits - d))))
        for k, m in enumerate(range(gen, low - 1, -1)):
            if m > low:
                # asked for after the tile's runs: made before them, the shares
                # kept more of the heap resident (fbs-moments peaked 0.3 MB higher)
                parent = ws.buffer((len(cells) >> d,), "share", k + 1)
            elif whole is not None:
                start = lo >> ((k + 1) * d)
                parent = whole[start : start + (len(cells) >> d)]
            else:
                parent = None
            if parent is not None:
                _coarsen(cells, d, out=parent, scratch=scratch)
            yield m, lo >> (k * d), cells
            cells = parent
    del values  # a grid handed over goes once its last tile is differenced
    cells, whole = whole, None
    for n in range(low - 1, stop - 1, -1):  # none if stop >= low
        parent = _coarsen(cells, d) if n > stop else None
        yield n, 0, cells
        cells = parent


def _check_generation(n: int, gen: int) -> None:
    if n < 0:
        raise ValueError(f"generation {n} is below 0")
    if n > gen:
        raise ValueError(f"generation {n} exceeds grid generation {gen}")


def _check_horizon(max_gen: int, gen: int) -> None:
    """A coefficient horizon needs the generation below it: 0 <= max_gen < gen."""
    if max_gen < 0:
        raise ValueError(f"generation {max_gen} is below 0")
    if max_gen > gen - 1:
        raise ValueError(f"need grid generation > {max_gen}, got {gen}")


def _put_piece(dest: np.ndarray, d: int, n: int, lo: int, cells: np.ndarray) -> None:
    """Write the Morton cells lo, lo + 1, ... of a d-dimensional generation-n level into ``dest``.

    ``dest`` is a C-contiguous lexicographic array of the level,
    (2^n,)*d, or of its bottom layer, (2^n,)*(d-1): the cells whose
    last-axis coordinate is 0, the others dropped.  The piece is written
    through the view of ``dest`` whose axes are its Morton bits, most
    significant first (as :func:`lex_to_morton` reads it), indexed by the
    leading bits of ``lo``.
    """
    bits = len(cells).bit_length() - 1
    # Index bit pos, most significant first, is a bit of axis pos % d.
    drop = [dest.ndim < d and pos % d == d - 1 for pos in range(n * d - 1, -1, -1)]
    lead = [(lo >> pos) & 1 for pos in range(n * d - 1, bits - 1, -1)]
    if any(bit and dropped for bit, dropped in zip(lead, drop)):
        return  # the piece lies above the bottom layer
    view = dest.reshape((2,) * (n * dest.ndim)).transpose(_lex_axes(dest.ndim, n))
    keep = tuple(0 if dropped else slice(None) for dropped in drop[len(lead) :])
    at = tuple(bit for bit, dropped in zip(lead, drop) if not dropped)
    view[at] = cells.reshape((2,) * bits)[keep]


def increment_levels(f: GridSample, n_max: int | None = None) -> list[np.ndarray]:
    """Lexicographic cube-increment arrays for generations 0..n_max (default N).

    The pieces of :func:`_tiled_pyramid`, each written into its level by
    :func:`_put_piece`.  No subcommand reads the levels whole; this is the
    call site bench/tracer.py wraps.
    """
    if n_max is None:
        n_max = f.gen
    _check_generation(n_max, f.gen)
    levels = [np.empty((1 << n,) * f.dim) for n in range(n_max + 1)]
    for n, lo, cells in _tiled_pyramid(f.values, 0, _Workspace()):
        if n <= n_max:
            _put_piece(levels[n], f.dim, n, lo, cells)
    return levels


def cube_increments(f: GridSample, n: int) -> np.ndarray:
    """Increments over all generation-``n`` cubes, Morton cube order."""
    _check_generation(n, f.gen)
    out = np.empty(1 << (n * f.dim))
    for m, lo, cells in _tiled_pyramid(f.values, n, _Workspace()):
        if m == n:
            out[lo : lo + len(cells)] = cells
    return out


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
    a_minus1: float
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
    n's (2^(nd), 2^d) float64 product, the child block of generation-n cube lo + i
    times ``haar_matrix(d)`` and 2^(nd/2), so ``full[:, 1:]`` holds
    coefficients.  A block is one product of a piece of
    :func:`_tiled_pyramid`, or of at most a tile's parents of a whole
    level, in the tile's box (:func:`_tile_box`), which the next block or
    the pyramid's next sum overwrites.  So the finest generations are
    products of the pyramid's tiles and their shares, generation by
    generation inside each tile, and never exist whole.  Each
    generation's blocks come in row order and have one size, a power of
    two that is at least 2^_LEAF_BITS rows or all of the generation; the
    blocks of different generations interleave.
    """
    d = f.dim
    mat = haar_matrix(d).astype(float)
    rows = 1 << (_tile_bits(d, f.gen) - d)  # a tile's parents: no piece is larger
    ws = _Workspace()
    pyramid = _tiled_pyramid(f.values, 1, ws)
    del f  # the pyramid holds the grid until its last tile is differenced
    for m, row, cells in pyramid:
        n = m - 1
        if n <= max_gen:
            kids, amp = cells.reshape(-1, 1 << d), 2.0 ** (n * d / 2)
            full = _tile_box(ws, (rows, 1 << d))
            for lo in range(0, len(kids), rows):
                block = kids[lo : lo + rows]
                out = full[: len(block)]
                np.matmul(block, mat, out=out)
                out *= amp
                yield n, (row >> d) + lo, out
            del kids
        del cells  # not alive while the next level is summed


def _pyramid_bytes(d: int, gen: int) -> int:
    """Bytes :func:`_tiled_pyramid` of a cube grid of generation ``gen`` holds beside it, at most.

    The two runs of a tile's differencing, each at most its box of grid
    points: the box's buffer also holds the scratch arrays of the tile's
    sums and a consumer's products, the other the tile's Morton cells.
    The tile's int64 order, its shares of the generations summed inside
    it, the whole level below them with the parent and 2(d - 1) scratch
    arrays it is summed through, and numpy's three ufunc buffers for
    additions of strided operands.
    """
    bits, low = _tile_bits(d, gen), _tiled_low(d, gen)
    tile, points = 1 << bits, math.prod(m + 1 for m in _tile_shape(d, bits))
    shares = sum(tile >> (k * d) for k in range(1, gen - low + 1))
    whole = 1 << ((low - 1) * d) if low > 1 else 0
    return 8 * (
        2 * points + tile + shares + whole + (2 * d - 1) * (whole >> d) + 3 * np.getbufsize()
    )


def _coefficient_bytes(d: int, gen: int) -> int:
    """Bytes :func:`_coefficient_levels` holds beside the grid, at most.

    Its pyramid, whose box holds the products, and the float64 sign
    matrix with the int8 one it is cast from (9 * 4^d bytes: at d = 11,
    N = 1 the matrix is most of the pass).
    """
    return _pyramid_bytes(d, gen) + (9 << (2 * d))


def coefficient_table(f: GridSample, max_gen: int) -> CoefficientTable:
    """Coefficients of ``f`` in the Haar-primitive system up to ``max_gen``.

    The generation-n coefficients combine the 2^d child-cube increments
    with the sign-matrix rows and the amplitude 2^(nd/2); Morton ordering
    makes the children of cube k the contiguous block [2^d k, 2^d (k+1)).
    """
    _check_horizon(max_gen, f.gen)
    levels = [np.empty((1 << (n * f.dim), (1 << f.dim) - 1)) for n in range(max_gen + 1)]
    for n, lo, full in _coefficient_levels(f, max_gen):
        levels[n][lo : lo + len(full)] = full[:, 1:]
    for lev in levels:
        lev.flags.writeable = False  # CoefficientTable takes it over without a copy
    return CoefficientTable(f.dim, max_gen, f.corner_value(), tuple(levels))
