"""Exact-covariance Gaussian sampling of (fractional) Brownian sheets on
dyadic grids, and the grid's binary and CSV files.

The sheet covariance is a tensor product of one-axis kernels, so a sample
on the grid is a tensor of iid standard normals with the Cholesky factor
of each per-axis kernel applied as a mode product.  Both paths draw the
white noise tile by tile straight into the zero-padded grid and work
there in place, so neither holds a second grid-sized array.  The
fractional sheet cuts each mode product into blocks along an axis it
does not contract (1024 sheet rows for the last axis, 1024 indices of
the last axis for any other), runs the blocks on one worker per core,
and applies the factor to each block leaf by leaf, from the last leaf
down, through its worker's leaf buffer; the factor is kept as its leaves
only.  The standard sheet (H = 1/2 on every axis) has its
own O(2^Nd) path: each layer of noise tiles along axis 0 is summed in
place along each axis as soon as it is in the grid, axis 0 continued
from a carry row.  The same path can keep only the bottom slab
x_d <= 2^-n: only the tiles that reach into it are drawn, and only the
first 2^(N-n) cells of the last axis are copied and summed, into a grid
of the slab alone, with the whole sheet's bits.

The noise is keyed per Morton tile of 2^(14 + d) cells (256 x 256 at
d = 2, 64 x 64 x 32 at d = 3, the increment pyramid's tile): tile t holds
the values of the counter-based Philox stream of (seed, replicate)
jumped t times, so every tile has its own substream and a draw of some
tiles needs no other.  The tiles of each layer of a whole standard sheet
go through ``_pool`` to one worker per core.  A slab and a fractional
sheet draw theirs one after another in the calling thread: the
counterexample runner pools slab draws on every core, and the
fractional sheet's mode products are pooled.  Replicate ensembles are
order-independent and reproducible across runs, and a sample's bits
depend on neither the core count nor the BLAS thread count.
"""

from __future__ import annotations

import functools
import math
import os
import struct
import threading
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .dyadic import morton_decode
from .increments import BottomSlab, GridSample, _tile_shape

__all__ = [
    "HurstVector",
    "SamplerError",
    "fbm_kernel",
    "sheet_covariance",
    "replicate_rng",
    "sample_sheet",
    "sample_sheet_ensemble",
    "sample_standard_sheet",
    "save_grid",
    "load_grid",
    "grid_to_csv",
]

_GRID_MAGIC = b"SHEETGRD"
_CSV_BLOCK = 1 << 10  # points per formatted block of a 1-D CSV
_NOISE_BITS = 14  # a noise tile holds the cells of 2^14 parents: part of the stream rule
_NOISE_CALL = 1 << 16  # white-noise values per draw call, unless one row of a tile is more
_LEAF_ROWS = 1 << 8  # factor rows per leaf of a mode product
_BLOCK = 1 << 10  # sheet rows, or last-axis indices, per block of a mode product


class SamplerError(RuntimeError):
    """Per-axis kernel matrix is not numerically positive definite."""


@dataclass(frozen=True)
class HurstVector:
    """Hurst multiparameter (one exponent per axis), each in (0, 1)."""

    components: tuple[float, ...]

    def __post_init__(self) -> None:
        comps = tuple(float(h) for h in self.components)
        if not comps:
            raise ValueError("need at least one component")
        for h in comps:
            if not 0.0 < h < 1.0:
                raise ValueError(f"Hurst exponent must lie in (0, 1), got {h}")
        object.__setattr__(self, "components", comps)

    @classmethod
    def of(cls, H: "HurstVector | Sequence[float]") -> "HurstVector":
        return H if isinstance(H, HurstVector) else cls(tuple(H))

    @property
    def dim(self) -> int:
        return len(self.components)

    @property
    def hbar(self) -> float:
        return sum(self.components) / len(self.components)


def fbm_kernel(h: float, t, tp):
    """One-axis covariance (|t|^2h + |t'|^2h - |t-t'|^2h) / 2.

    Accepts scalars or numpy arrays; h = 1/2 reduces to min(t, t').
    """
    if not 0.0 < h < 1.0:
        raise ValueError(f"Hurst exponent must lie in (0, 1), got {h}")
    t = np.abs(np.asarray(t, dtype=float))
    tp = np.abs(np.asarray(tp, dtype=float))
    out = 0.5 * (t ** (2 * h) + tp ** (2 * h) - np.abs(t - tp) ** (2 * h))
    return float(out) if out.ndim == 0 else out


def sheet_covariance(H: HurstVector | Sequence[float], s: Sequence[float], t: Sequence[float]) -> float:
    """Covariance of the sheet between grid points ``s`` and ``t``."""
    H = HurstVector.of(H)
    if len(s) != H.dim or len(t) != H.dim:
        raise ValueError("point dimension does not match the Hurst vector")
    out = 1.0
    for h, si, ti in zip(H.components, s, t):
        out *= fbm_kernel(h, float(si), float(ti))
    return out


def _schur_rows(h: float, gen: int) -> Iterator[np.ndarray]:
    """Row ``step`` of chol(T)^T from column ``step`` on, for step = 0..2^N-1.

    T is the Toeplitz covariance of fractional Gaussian noise at step 2^-N,
    and the rows come from the Schur algorithm (mixed form) on T's
    generator (u, v).  Each row is a view the next step overwrites.  A
    reflection coefficient that is not finite or has |rho| >= 1 raises
    ``SamplerError``.
    """
    n, e = 1 << gen, 2.0 * h
    k = np.arange(n, dtype=float)
    gamma = 2.0 ** (-e * gen) * ((k + 1) ** e - 2.0 * k**e + np.abs(k - 1) ** e) / 2.0
    root = np.sqrt(gamma[0])
    u = gamma / root
    u[0] = root  # gamma[0] / root, exactly
    v = u.copy()
    v[0] = 0.0
    tmp = np.empty(n)
    yield u
    for step in range(1, n):
        # u is shifted one place down each step: u[:n - step] holds rows step-1..n-2
        a, b, t = u[: n - step], v[step:], tmp[: n - step]
        rho = b[0] / a[0]
        if not abs(rho) < 1.0:
            raise SamplerError(
                f"axis kernel (h={h}, N={gen}) is not numerically positive definite: "
                f"Schur step {step} has reflection coefficient {rho}"
            )
        s = math.sqrt((1.0 - rho) * (1.0 + rho))
        np.multiply(b, rho, out=t)
        a -= t
        a /= s  # u <- (u - rho v) / s
        b *= s
        np.multiply(a, rho, out=t)
        b -= t  # v <- s v - rho u, with the new u
        yield a


def axis_cholesky(h: float, gen: int) -> tuple[np.ndarray, ...]:
    """Leaves of the lower Cholesky factor of the axis kernel, without LAPACK or the kernel.

    The kernel is C T C^T: C sums cumulatively and T is the Toeplitz
    covariance of fractional Gaussian noise at step 2^-N, so the factor is
    C chol(T).  Its columns are the rows of ``_schur_rows``, stored as rows
    and summed in place _LEAF_ROWS at a time.  Each chunk of summed rows
    is shared out among the leaves ``fac[lo:hi, :hi]`` of the factor
    ``fac``, _LEAF_ROWS rows each and Fortran-ordered, so the whole factor
    never exists.  The leaves hold n(n + _LEAF_ROWS)/2 entries for
    n >= _LEAF_ROWS, not n^2.
    """
    n = 1 << gen
    width = min(n, _LEAF_ROWS)
    chunk = np.empty((width, n))  # factor columns lo..lo+width-1, as rows
    out = [np.empty((width, hi), order="F") for hi in range(width, n + 1, width)]
    for step, row in enumerate(_schur_rows(h, gen)):
        lo, j = step - step % width, step % width
        chunk[j, :step] = 0.0
        chunk[j, step:] = row
        if j < width - 1:
            continue
        np.cumsum(chunk, axis=1, out=chunk)
        for k in range(lo // width, len(out)):
            out[k][:, lo : lo + width] = chunk[:, k * width : (k + 1) * width].T
    return tuple(out)


def replicate_rng(seed: int, *stream: int) -> np.random.Generator:
    """Philox generator on the counter-based stream (seed, *stream)."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=tuple(stream)))
    )


def _cores() -> int:
    """The CPUs this process may run on: the most threads of a mode product or of pooling."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _pool(name: str, count: int, workers: int, work: Callable[[int], None]) -> None:
    """Call ``work(i)`` for i = 0..count-1, on ``workers`` threads named ``name-k``.

    Worker k takes k, k + workers, ... in turn, and the calling thread is
    worker 0.  After an error, or an interrupt of the caller, every
    worker stops at its next item, and the first error is raised once
    every worker has ended.
    """
    errors: list[BaseException] = []

    def run(k: int) -> None:
        try:
            for i in range(k, count, workers):
                if errors:  # another worker failed or was interrupted
                    return
                work(i)
        except BaseException as exc:  # raised in the caller once every worker has ended
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=(k,), name=f"{name}-{k}") for k in range(1, workers)
    ]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def _blocks(d: int, gen: int) -> int:
    """Blocks of each mode product of a d-dimensional draw: 2^N / _BLOCK, at least one.

    A 1-D product has a single sheet row, so one block.
    """
    return -(-(1 << gen) // _BLOCK) if d > 1 else 1


def _workers(d: int, gen: int) -> int:
    """Threads, and leaf buffers, of each mode product of a d-dimensional draw.

    One per core and at most one per block.
    """
    return min(_cores(), _blocks(d, gen))


def _mode_product(
    leaves: Sequence[np.ndarray], core: np.ndarray, axis: int, scratch: Sequence[np.ndarray]
) -> None:
    """Overwrite ``core`` with the mode product of a triangular factor along ``axis``.

    ``leaves`` are the factor's, as ``axis_cholesky`` gives them; the result is
    ``np.moveaxis(np.tensordot(fac, core, axes=(1, axis)), 0, axis)`` up to
    rounding.  ``core`` may be any view, such as the interior of a padded
    grid: it is only ever indexed, never reshaped, so nothing is written to
    a copy.  The indices along the axes the product does not contract are
    independent, so the work is cut into blocks of them, every other axis
    whole: _BLOCK sheet rows each for the last axis (OpenBLAS packs all of a
    call's rows into each thread's buffer, 4 MB at 2048 rows), _BLOCK
    indices of the last axis each for any other.  In a block, leaf [lo, hi)
    reads [:hi] along ``axis`` and writes [lo, hi), so the leaves run from
    the last one down, each into the block's leaf buffer and then copied
    back.  The buffers are views of the flat ``scratch`` arrays, at least
    _scratch_size values each.  The blocks go through ``_pool`` to one
    worker per buffer, at most one per block: worker k takes blocks k,
    k + workers, ... with buffer k, so no worker waits for another.  A
    block's BLAS calls do not depend on which worker runs it, so neither
    do the bits.
    """
    last = axis == core.ndim - 1
    # x: a view of core with the product's axis last (last axis) or second to last
    x = (core[np.newaxis] if core.ndim == 1 else core) if last else np.moveaxis(core, axis, -2)
    cut = -2 if last else -1  # the axis the blocks split
    shape = list(x.shape)
    shape[cut] = min(shape[cut], _BLOCK)
    shape[-1 if last else -2] = leaves[0].shape[0]  # the widest leaf
    size = math.prod(shape)
    bufs = [s[:size].reshape(shape) for s in scratch]
    count = -(-x.shape[cut] // _BLOCK)

    def run(i: int) -> None:
        cells = slice(i * _BLOCK, (i + 1) * _BLOCK)
        block = x[..., cells, :] if last else x[..., cells]
        buf = bufs[i % len(bufs)]
        for leaf in reversed(leaves):
            width, hi = leaf.shape
            if last:
                out = buf[..., : block.shape[-2], :width]
                np.matmul(block[..., :hi], leaf.T, out=out)
                block[..., hi - width : hi] = out
            else:
                out = buf[..., :width, : block.shape[-1]]
                np.matmul(leaf, block[..., :hi, :], out=out)
                block[..., hi - width : hi, :] = out

    _pool("mode-product", count, min(len(bufs), count), run)


@functools.lru_cache(maxsize=4)
def _axis_factor(h: float, gen: int) -> tuple[np.ndarray, ...]:
    """``axis_cholesky(h, gen)``, built once per (h, N) and shared read-only.

    Four entries hold every distinct exponent of a d <= 3 sheet.
    """
    leaves = axis_cholesky(h, gen)
    for leaf in leaves:
        leaf.flags.writeable = False
    return leaves


def _noise_bits(d: int, gen: int) -> int:
    """Morton bits of a noise tile of a d-dimensional draw: the stream rule's tile size.

    A tile holds the 2^(_NOISE_BITS + d) cells of 2^_NOISE_BITS parents,
    or the whole grid if that is smaller.  That is the increment pyramid's
    tile at its default chunk size, but it is fixed here: it decides which
    values each cell gets, so it changes only with ``__version__``.
    """
    return min(_NOISE_BITS + d, gen * d)


def _noise_buffers(d: int, gen: int) -> tuple[tuple[int, ...], int]:
    """The box of a noise tile of a d-dimensional draw, and the values of a worker's tile buffer.

    The box is ``_tile_shape(d, _noise_bits(d, N))``.  A tile is drawn in
    calls of whole rows of its axis 0, at most _NOISE_CALL values each, or
    one row if a row is more; both are powers of two, so the calls share
    the rows out evenly.  The buffer holds one call.
    """
    box = _tile_shape(d, _noise_bits(d, gen))
    row = math.prod(box[1:])
    return box, row * min(box[0], max(1, _NOISE_CALL // row))


def _noise_workers(d: int, gen: int, slab: int | None = None) -> int:
    """Workers, and tile buffers, of a standard sheet's noise draw, given its ``slab``.

    One for a slab, whose caller pools draws on every core; else one per
    core and at most one per tile of a layer along axis 0: with a second
    core free, brownian-dichotomy at d = 2, N = 11 runs 12-15% faster
    this way than with one worker.
    """
    if slab is not None:
        return 1
    box, _ = _noise_buffers(d, gen)
    return min(_cores(), (1 << (gen * (d - 1))) // math.prod(box[1:]))


def _draw_noise(
    core: np.ndarray,
    gen: int,
    seed: int,
    replicate: int,
    scratch: Sequence[np.ndarray],
    scale: float | None = None,
    then: Callable[[int, int], None] | None = None,
) -> None:
    """Fill ``core`` with iid standard normals, times ``scale`` if given: the values of one draw.

    The noise of the (2^N,)*d cells comes in tiles, the boxes of
    :func:`_noise_buffers`.  Tile t, its Morton index, holds in C order
    over its box the values of its own Philox substream: the bit generator
    of ``replicate_rng(seed, replicate)`` jumped t times, so tile 0 holds
    the stream itself and a grid of one tile the values of one draw of it.
    ``core`` has 2^N rows and its last axis may be cut short (at d = 1 too):
    only the tiles that reach into it are drawn, and their first values
    along that axis are kept.  The tiles go one layer along axis 0 at a
    time through ``_pool``, on one worker per buffer of ``scratch`` (flat,
    of at least _noise_buffers values each), at most one per tile of the
    layer.  A worker draws its tile call by call into its buffer, scales
    it there (a ufunc writing to a strided view would buffer 64 KB on the
    way) and copies it into ``core``, which may be a view, such as the
    interior of a padded grid.  Then ``then(lo, hi)``, if given, runs in
    the caller on the layer's rows [lo, hi) of ``core``.  Split calls draw
    the values of one call, and a tile's values do not depend on the
    worker that draws it, so neither do the bits.
    """
    d = core.ndim
    bits = _noise_bits(d, gen)
    box, size = _noise_buffers(d, gen)
    rows = size // math.prod(box[1:])
    bufs = [s[:size].reshape((rows,) + box[1:]) for s in scratch]
    base = replicate_rng(seed, replicate).bit_generator  # never drawn from: each tile jumps it
    layers: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    for t in range(1 << (gen * d - bits)):
        corner = morton_decode(t << bits, d, gen)
        if corner[-1] < core.shape[-1]:
            layers.setdefault(corner[0], []).append((t, corner))

    for lo in sorted(layers):
        tiles = layers[lo]

        def draw(i: int) -> None:
            t, corner = tiles[i]
            buf = bufs[i % len(bufs)]
            rng = np.random.Generator(base.jumped(t))
            across = tuple(slice(c, c + m) for c, m in zip(corner[1:], box[1:]))
            for r in range(corner[0], corner[0] + box[0], rows):
                rng.standard_normal(out=buf)
                if scale is not None:
                    buf *= scale
                dest = core[(slice(r, r + rows),) + across]
                dest[...] = buf[tuple(slice(0, m) for m in dest.shape)]

        _pool("noise-draw", len(tiles), min(len(bufs), len(tiles)), draw)
        if then is not None:
            then(lo, min(lo + box[0], len(core)))


def _scratch_size(d: int, gen: int) -> int:
    """Values of each scratch array of a d-dimensional draw: a tile buffer or a leaf buffer.

    A leaf buffer holds the widest leaf's rows of one block of a product.
    """
    n = 1 << gen
    return max(_noise_buffers(d, gen)[1], n ** (d - 1) // _blocks(d, gen) * min(n, _LEAF_ROWS))


def _sheet_bytes(d: int, gen: int, factors: int, sheets: int = 1) -> int:
    """Bytes of the arrays ``sheets`` concurrent :func:`sample_sheet` calls hold at most.

    The leaves of the factors of ``factors`` distinct exponents, which the
    calls share, and the larger of what building one needs beside its
    leaves (a chunk of _LEAF_ROWS summed rows and the Schur recursion's
    few vectors, before any grid exists) and each call's grid with its
    scratch arrays.
    """
    n, width = 1 << gen, min(1 << gen, _LEAF_ROWS)
    build = 8 * n * (width + 8)
    grid = 8 * (n + 1) ** d
    scratch = 8 * _workers(d, gen) * _scratch_size(d, gen)
    return _leaf_bytes(gen, factors) + max(build, sheets * (grid + scratch))


def _leaf_bytes(gen: int, factors: int) -> int:
    """Bytes of the cached leaves of the factors of ``factors`` distinct exponents."""
    n, width = 1 << gen, min(1 << gen, _LEAF_ROWS)
    return factors * 8 * n * (n + width) // 2


def _standard_bytes(d: int, gen: int, slab: int | None = None) -> int:
    """Bytes of the arrays :func:`sample_standard_sheet` holds at most, given its ``slab``.

    The grid, or the slab's grid, a tile buffer per worker of the noise
    draw and the carry row; from d = 3 on, also the three
    buffers of ``np.getbufsize()`` values that numpy allocates to add two
    grid rows, which are strided views of two or more axes there.
    """
    n = 1 << gen
    cells = n if slab is None else n >> slab
    workers = _noise_workers(d, gen, slab)
    carry = n ** (d - 2) * cells if d >= 2 else 1
    ufunc = 3 * np.getbufsize() if d >= 3 else 0
    noise = workers * _noise_buffers(d, gen)[1]
    return 8 * ((n + 1) ** (d - 1) * (cells + 1) + noise + carry + ufunc)


def sample_sheet(
    H: HurstVector | Sequence[float], gen: int, seed: int, replicate: int = 0
) -> GridSample:
    """One sheet sample with exact grid covariance, deterministic in (H, N, seed).

    The noise is drawn straight into the interior of the zero-padded grid
    and each axis factor is applied there in place.  Beside the grid and
    the cached leaves of its factors, a draw holds only its scratch arrays,
    one per worker of a product, which serve as leaf buffers: 256 rows of
    one block each, 1/16 grid at N = 11 and the whole grid when one leaf
    spans the axis (N <= 8).  The noise tiles are drawn one after another
    into the first.  Under tracemalloc a d = 2 draw peaks at 1.125 grids
    at N = 11 on two cores and at 1.50 at N = 9.
    """
    H = HurstVector.of(H)
    factors = [_axis_factor(h, gen) for h in H.components]
    full = np.zeros(((1 << gen) + 1,) * H.dim)  # zero on the 0-facets
    core = full[(slice(1, None),) * H.dim]
    scratch = [np.empty(_scratch_size(H.dim, gen)) for _ in range(_workers(H.dim, gen))]
    _draw_noise(core, gen, seed, replicate, scratch[:1])
    for axis, leaves in enumerate(factors):
        _mode_product(leaves, core, axis, scratch)  # L_axis x_axis core
    full.flags.writeable = False  # GridSample takes it over without a copy
    return GridSample(
        H.dim,
        gen,
        full,
        hurst=H.components,
        seed=seed,
        meta={"sampler": "kronecker-cholesky", "replicate": replicate},
    )


def sample_sheet_ensemble(
    H: HurstVector | Sequence[float], gen: int, seed: int, replicates: int | range
) -> Iterator[GridSample]:
    """Replicates 0..replicates-1 of :func:`sample_sheet`, or those in a ``range``, drawn lazily."""
    H = HurstVector.of(H)
    for rep in replicates if isinstance(replicates, range) else range(replicates):
        yield sample_sheet(H, gen, seed, rep)


def sample_standard_sheet(
    d: int, gen: int, seed: int, replicate: int = 0, *, slab: int | None = None
) -> GridSample | BottomSlab:
    """Standard sheet via iid N(0, 2^-Nd) cell increments and cumulative sums.

    O(2^Nd) and exactly the H = (1/2, ..., 1/2) grid law.  The noise is
    drawn straight into the interior of the zero-padded grid by
    ``_draw_noise``, its tiles pooled on one worker per core, and each
    layer of tiles along axis 0 is summed in place once it is there.  The
    carry row, the axis-0 partial sum of the last row before, is added to
    the layer's first row, the layer is summed along axis 0 row by row
    (by ``np.cumsum`` at d = 1), its last row is kept as the next carry,
    and then one ``np.cumsum`` runs along each further axis.  Every
    element so gets the additions of whole-grid ``np.cumsum`` along each
    axis in turn, in the same order, and the same bits.

    With ``slab=n`` (0 <= n <= N) the result is the :class:`BottomSlab`
    x_d <= 2^-n: only the first 2^(N-n) cells of the last axis are kept
    and summed, in a grid of that slab alone, and only the tiles below
    ceil(2^(N-n) / tile side) along the last axis are drawn, each whole.
    The kept values so get the same additions in the same order and equal
    ``values[..., :2^(N-n)+1]`` of the whole sheet, bit for bit.  A slab is
    drawn inline, with no pool: its caller pools draws on every core.  The
    whole sheet is this path with every cell kept.
    """
    if slab is not None and not 0 <= slab <= gen:
        raise ValueError(f"need 0 <= slab <= N, got slab={slab}, N={gen}")
    n = 1 << gen
    full = np.zeros((n + 1,) * (d - 1) + ((n if slab is None else n >> slab) + 1,))
    core = full[(slice(1, None),) * d]
    carry = np.empty(core.shape[1:])

    def cumulate(lo: int, hi: int) -> None:
        block = core[lo:hi]
        if lo:
            block[0] += carry
        if d == 1:
            np.cumsum(block, out=block)
        else:  # row by row: one cumsum per block along axis 0 costs more
            for i in range(1, hi - lo):
                block[i] += block[i - 1]
        carry[...] = block[-1]  # before the other axes are summed
        for axis in range(1, d):
            np.cumsum(block, axis=axis, out=block)

    scratch = [np.empty(_noise_buffers(d, gen)[1]) for _ in range(_noise_workers(d, gen, slab))]
    scale = 2.0 ** (-gen * d / 2)  # sd |cell|^(1/2)
    _draw_noise(core, gen, seed, replicate, scratch, scale, cumulate)
    full.flags.writeable = False  # GridSample or BottomSlab takes it over without a copy
    if slab is not None:
        return BottomSlab(d, gen, full)
    return GridSample(
        d,
        gen,
        full,
        hurst=(0.5,) * d,
        seed=seed,
        meta={"sampler": "white-noise-cumsum", "replicate": replicate},
    )


def save_grid(f: GridSample, path) -> None:
    """Binary export: magic, int64 d and N, d float64 Hurst, int64 seed,
    then row-major (lexicographic) float64 values.  Little-endian."""
    hurst = f.hurst if f.hurst is not None else (float("nan"),) * f.dim
    seed = f.seed if f.seed is not None else -1
    with open(path, "wb") as fh:
        fh.write(_GRID_MAGIC)
        fh.write(struct.pack("<qq", f.dim, f.gen))
        fh.write(struct.pack(f"<{f.dim}d", *hurst))
        fh.write(struct.pack("<q", seed))
        fh.write(memoryview(np.ascontiguousarray(f.values, dtype="<f8")))


def load_grid(path) -> GridSample:
    """Read a :func:`save_grid` file.

    A header or payload whose length does not match the header, and
    non-finite values, raise ``ValueError``; the sizes are checked against
    the file's length before anything of that size is read.
    """
    with open(path, "rb") as fh:
        left = os.fstat(fh.fileno()).st_size
        if fh.read(8) != _GRID_MAGIC:
            raise ValueError("not a grid sample file")
        if left < 24:
            raise ValueError("grid file header is truncated")
        d, gen = struct.unpack("<qq", fh.read(16))
        left -= 24 + 8 * d + 8
        if d < 1 or not 0 <= gen < 63:
            raise ValueError(f"grid file header has d={d}, N={gen}")
        if left < 0:
            raise ValueError("grid file header is truncated")
        *hurst, seed = struct.unpack(f"<{d}dq", fh.read(8 * d + 8))
        n_pts = (1 << gen) + 1
        want = 8
        for _ in range(d):
            want *= n_pts
            if want > left:
                break
        if want != left:
            raise ValueError(
                f"grid file payload has {left} bytes, not the 8 * {n_pts}^{d} "
                f"of its header (d={d}, N={gen})"
            )
        values = np.frombuffer(fh.read(), dtype="<f8").reshape((n_pts,) * d).astype(float)
    if not np.isfinite(values).all():
        raise ValueError("grid file holds non-finite values")
    values.flags.writeable = False  # GridSample takes it over without a copy
    return GridSample(
        d,
        gen,
        values,
        hurst=None if all(np.isnan(h) for h in hurst) else hurst,
        seed=None if seed == -1 else seed,
    )


def grid_to_csv(f: GridSample, path) -> None:
    """Point-per-row CSV export, d <= 2 only.

    Each grid row (d = 2), or block of at most 2^10 points (d = 1), is
    written by one ``%``-template that already holds every index and
    coordinate, so its values are formatted in one C-level call;
    ``'%.17g' % v`` writes what ``format(v, '.17g')`` does.  Rows are
    formatted one at a time: a whole-grid ``tolist()`` would hold a Python
    float object per grid point.
    """
    if f.dim > 2:
        raise ValueError("CSV export supports d <= 2")
    denom = 1 << f.gen
    coords = [format(i / denom, ".17g") for i in range(denom + 1)]
    values = f.values
    with open(path, "w") as fh:
        if f.dim == 1:
            fh.write("i,x,value\n")
            for start in range(0, denom + 1, _CSV_BLOCK):
                block = values[start : start + _CSV_BLOCK].tolist()
                tmpl = "".join(
                    f"{i},{coords[i]},%.17g\n" for i in range(start, start + len(block))
                )
                fh.write(tmpl % tuple(block))
        else:
            fh.write("i,j,x,y,value\n")
            # Each row puts its i and x in for "\0" and "\1", which no index or coordinate
            # holds; str.replace costs less than str.format over 2^(N+1) fields.
            tmpl = "".join(f"\0,{j},\1,{y},%.17g\n" for j, y in enumerate(coords))
            for i, row in enumerate(values):
                row_tmpl = tmpl.replace("\0", str(i)).replace("\1", coords[i])
                fh.write(row_tmpl % tuple(row.tolist()))
