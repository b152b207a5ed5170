"""Exact-covariance Gaussian sampling of (fractional) Brownian sheets on
dyadic grids, plus the closed-form increment covariances.

The sheet covariance is a tensor product of one-axis kernels, so a sample
on the grid is a tensor of iid standard normals with the Cholesky factor
of each per-axis kernel applied as a mode product.  Both paths draw the
white noise block by block straight into the zero-padded grid and work
there in place, so neither holds a second grid-sized array.  The
fractional sheet applies each factor leaf by leaf, from the last leaf
down, through leaf buffers of 256 rows of the sheet; the factor is kept
as its leaves only.  The standard sheet (H = 1/2 on every axis) has its
own O(2^Nd) path: each noise block is summed in place along each axis as
soon as it is in the grid, axis 0 continued from a carry row.  On two or
more cores, and when the draw has two blocks or more, a producer thread
draws its next block into the second of two noise buffers while the
caller sums the last one.  The same path can keep only the bottom slab
x_d <= 2^-n: every noise block is still drawn whole, but only the first
2^(N-n) cells of the last axis are copied and summed, into a grid of the
slab alone, with the whole sheet's bits.  A slab is drawn inline: its
caller, the counterexample runner, pools its draws on every core.

Randomness comes from counter-based Philox streams keyed on
(seed, replicate), so replicate ensembles are order-independent and
reproducible across runs.  A sample's bits depend on neither the core
count nor the BLAS thread count.
"""

from __future__ import annotations

import functools
import math
import os
import struct
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .dyadic import Rectangle
from .haar import haar_amplitude
from .increments import BottomSlab, GridSample

__all__ = [
    "HurstVector",
    "SamplerError",
    "fbm_kernel",
    "sheet_covariance",
    "increment_covariance",
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
_NOISE_BLOCK = 1 << 16  # white-noise values per draw, unless one axis-0 row is more
_LEAF_ROWS = 1 << 8  # factor rows per leaf of a mode product
_ROW_BLOCK = 1 << 10  # sheet rows per BLAS call of a last-axis leaf
_THREAD_ROWS = 1 << 11  # fewest factor rows for threads; at 1024 they only cost memory


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


def increment_covariance(
    H: HurstVector | Sequence[float], rect_a: Rectangle, rect_b: Rectangle
) -> float:
    """Closed-form covariance of the increments over two rectangles.

    Per axis: (|b'-a|^2h + |b-a'|^2h - |a'-a|^2h - |b-b'|^2h) / 2, the
    four-term expansion of the kernel over corner pairs.
    """
    H = HurstVector.of(H)
    if rect_a.dim != H.dim or rect_b.dim != H.dim:
        raise ValueError("rectangle dimension does not match the Hurst vector")
    out = 1.0
    for h, a, b, ap, bp in zip(
        H.components, rect_a.lower, rect_a.upper, rect_b.lower, rect_b.upper
    ):
        a, b, ap, bp = (float(x) for x in (a, b, ap, bp))
        out *= 0.5 * (
            abs(bp - a) ** (2 * h)
            + abs(b - ap) ** (2 * h)
            - abs(ap - a) ** (2 * h)
            - abs(b - bp) ** (2 * h)
        )
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


def _workers(n: int) -> int:
    """Threads, and leaf buffers, of a mode product along an axis of ``n`` points."""
    return min(_cores(), -(-n // _LEAF_ROWS)) if n >= _THREAD_ROWS else 1


def _mode_product(
    leaves: Sequence[np.ndarray], core: np.ndarray, axis: int, scratch: Sequence[np.ndarray]
) -> None:
    """Overwrite ``core`` with the mode product of a triangular factor along ``axis``.

    ``leaves`` are the factor's, as ``axis_cholesky`` gives them; the result is
    ``np.moveaxis(np.tensordot(fac, core, axes=(1, axis)), 0, axis)`` up to
    rounding.  ``core`` may be any view, such as the interior of a padded
    grid: it is only ever indexed, never reshaped, so nothing is written to
    a copy.  Leaf [lo, hi) reads [:hi] of ``core`` along ``axis`` and
    writes [lo, hi), so the leaves run from the last one down, each into a
    leaf buffer that is then copied back.  The buffers are views of the
    flat ``scratch`` arrays, one per thread and at least _scratch_size
    values each.  A leaf's BLAS calls do not depend on which thread runs
    it, so neither do the bits.  With more than one buffer the leaves go,
    largest first, to one thread per buffer, started per call; a leaf
    copies back only after the leaf above it has, so every leaf still
    reads the rows it multiplies.
    """
    last = axis == core.ndim - 1
    # x: a view of core with the product's axis last (last axis) or second to last
    x = (core[np.newaxis] if core.ndim == 1 else core) if last else np.moveaxis(core, axis, -2)
    shape = list(x.shape)
    shape[-1 if last else -2] = leaves[0].shape[0]  # the widest leaf
    size = math.prod(shape)
    bufs = [s[:size].reshape(shape) for s in scratch]

    def window(a: np.ndarray, lo: int, hi: int) -> np.ndarray:
        return a[..., lo:hi] if last else a[..., lo:hi, :]

    def compute(leaf: np.ndarray, buf: np.ndarray) -> np.ndarray:
        width, hi = leaf.shape
        out = window(buf, 0, width)
        if last:
            # At most _ROW_BLOCK sheet rows go to one BLAS call: OpenBLAS packs
            # all of a call's rows into each thread's buffer, 4 MB at 2048 rows.
            for r in range(0, x.shape[-2], _ROW_BLOCK):
                rows = slice(r, r + _ROW_BLOCK)
                np.matmul(x[..., rows, :hi], leaf.T, out=out[..., rows, :])
        else:
            np.matmul(leaf, window(x, 0, hi), out=out)
        return out

    def put(leaf: np.ndarray, out: np.ndarray) -> None:
        width, hi = leaf.shape
        window(x, hi - width, hi)[...] = out

    order = leaves[::-1]
    if len(bufs) == 1:
        for leaf in order:
            put(leaf, compute(leaf, bufs[0]))
        return
    import queue
    import threading
    from concurrent.futures import ThreadPoolExecutor  # not at import: 10 ms per CLI start

    free: queue.SimpleQueue = queue.SimpleQueue()
    for buf in bufs:
        free.put(buf)
    copied = [threading.Event() for _ in order]  # copied[k]: order[k] is written back

    def run(k: int) -> None:
        buf = free.get()
        try:
            out = compute(order[k], buf)
            if k:
                copied[k - 1].wait()
            put(order[k], out)
        finally:  # set on error too: the waiting leaves end, and map raises the error
            copied[k].set()
            free.put(buf)

    with ThreadPoolExecutor(len(bufs), thread_name_prefix="mode-product") as pool:
        for _ in pool.map(run, range(len(order))):
            pass


@functools.lru_cache(maxsize=4)
def _axis_factor(h: float, gen: int) -> tuple[np.ndarray, ...]:
    """``axis_cholesky(h, gen)``, built once per (h, N) and shared read-only.

    Four entries hold every distinct exponent of a d <= 3 sheet.
    """
    leaves = axis_cholesky(h, gen)
    for leaf in leaves:
        leaf.flags.writeable = False
    return leaves


def _noise_buffers(d: int, gen: int, pipelined: bool) -> tuple[int, int]:
    """Axis-0 rows of each noise block of a d-dimensional draw, and its noise buffers.

    A block holds at most _NOISE_BLOCK values, or one row if a row is more;
    both are powers of two, so the blocks share the rows out evenly.  A
    ``pipelined`` draw, one whose caller works on each block and wants it
    drawn ahead, of two blocks or more, on two cores or more, has two
    buffers: one for a producer thread to draw ahead into.  Any other draw
    has one.
    """
    n = 1 << gen
    rows = min(n, max(1, _NOISE_BLOCK // n ** (d - 1)))
    return rows, 2 if pipelined and rows < n and _cores() >= 2 else 1


def _draw_noise(
    core: np.ndarray,
    rng: np.random.Generator,
    scale: float | None = None,
    scratch: np.ndarray | None = None,
    then: Callable[[int, int], None] | None = None,
    ahead: bool = True,
) -> None:
    """Fill ``core`` with iid standard normals, times ``scale`` if given: the values of one draw.

    ``core`` has n = len(core) rows.  From d = 2 its last axis may be cut
    short, and it then takes the first values along that axis of an
    (n,)*d draw; at d = 1 a shorter core is a shorter draw, the first
    values of the stream.  The draw goes in the axis-0 blocks of
    ``_noise_buffers`` through its noise buffers, views of the flat
    ``scratch`` if given, so ``core`` may be a view, such as the interior
    of a padded grid.  Each block is drawn whole
    and scaled in its buffer (a ufunc writing to a strided view would
    buffer 64 KB on the way), so the stream keeps its order wherever the
    last axis is cut; its first ``core.shape[-1]`` values along the last
    axis are copied into ``core`` and its buffer given back; then
    ``then(lo, hi)``, if given, runs on the block's rows [lo, hi) of
    ``core``.  With two buffers a producer thread draws each block into
    one while the caller takes in and works on the block before it
    (``Generator.standard_normal`` releases the GIL), and it is joined
    before the draw returns or raises; an error in either thread ends both
    and is raised here.  A draw without ``then`` (the fractional sheet's:
    there is only the copy to overlap), one not drawn ``ahead`` (a bottom
    slab's, whose caller pools draws on every core), a one-block draw and
    one on a single core start no thread.  Either way the blocks hold the
    values of one whole draw, in order.
    """
    n = len(core)
    rows, count = _noise_buffers(core.ndim, n.bit_length() - 1, ahead and then is not None)
    shape = (rows,) + (n,) * (core.ndim - 1)
    keep = core.shape[-1]
    size = math.prod(shape)
    if scratch is None:
        scratch = np.empty(count * size)
    bufs = [scratch[k * size : (k + 1) * size].reshape(shape) for k in range(count)]
    thread = None

    def fill(buf: np.ndarray) -> np.ndarray:
        rng.standard_normal(out=buf)
        if scale is not None:
            buf *= scale
        return buf

    if count == 1:

        def drawn() -> np.ndarray:
            return fill(bufs[0])

        def done(buf: np.ndarray) -> None:
            pass

    else:
        import queue
        import threading  # not at import, as in _mode_product

        free: queue.SimpleQueue = queue.SimpleQueue()  # buffers to draw into; None stops
        full: queue.SimpleQueue = queue.SimpleQueue()  # drawn blocks in order, or an error
        for buf in bufs:
            free.put(buf)

        def produce() -> None:
            try:
                for _ in range(0, n, rows):
                    buf = free.get()
                    if buf is None:  # the caller stopped
                        return
                    full.put(fill(buf))
            except BaseException as exc:  # raised in the caller
                full.put(exc)

        def drawn() -> np.ndarray:
            buf = full.get()
            if isinstance(buf, BaseException):
                raise buf
            return buf

        done = free.put
        thread = threading.Thread(target=produce, name="noise-draw", daemon=True)
        thread.start()
    try:
        for lo in range(0, n, rows):
            buf = drawn()
            core[lo : lo + rows] = buf[..., :keep]
            done(buf)
            if then is not None:
                then(lo, lo + rows)
    finally:
        if thread is not None:
            free.put(None)
            thread.join()


def _scratch_size(d: int, gen: int) -> int:
    """Values of each scratch array of a d-dimensional draw: a noise block or a leaf buffer."""
    n = 1 << gen
    rows = n ** (d - 1)
    return max(min(n**d, max(rows, _NOISE_BLOCK)), rows * min(n, _LEAF_ROWS))


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
    scratch = 8 * _workers(n) * _scratch_size(d, gen)
    return _leaf_bytes(gen, factors) + max(build, sheets * (grid + scratch))


def _leaf_bytes(gen: int, factors: int) -> int:
    """Bytes of the cached leaves of the factors of ``factors`` distinct exponents."""
    n, width = 1 << gen, min(1 << gen, _LEAF_ROWS)
    return factors * 8 * n * (n + width) // 2


def _standard_bytes(d: int, gen: int, slab: int | None = None) -> int:
    """Bytes of the arrays :func:`sample_standard_sheet` holds at most, given its ``slab``.

    The grid, or the slab's grid, the noise buffers (one for a slab, which
    is not drawn ahead) and the carry row; from d = 3 on, also the three
    buffers of ``np.getbufsize()`` values that numpy allocates to add two
    grid rows, which are strided views of two or more axes there.
    """
    n = 1 << gen
    cells = n if slab is None else n >> slab
    rows, count = _noise_buffers(d, gen, slab is None)
    carry = n ** (d - 2) * cells if d >= 2 else 1
    ufunc = 3 * np.getbufsize() if d >= 3 else 0
    return 8 * ((n + 1) ** (d - 1) * (cells + 1) + count * rows * n ** (d - 1) + carry + ufunc)


def sample_sheet(
    H: HurstVector | Sequence[float], gen: int, seed: int, replicate: int = 0
) -> GridSample:
    """One sheet sample with exact grid covariance, deterministic in (H, N, seed).

    The noise is drawn straight into the interior of the zero-padded grid
    and each axis factor is applied there in place.  Beside the grid and
    the cached leaves of its factors, a draw holds only its scratch arrays,
    one per thread of a product, which serve as noise block and leaf
    buffers: 256 rows of the sheet each, 1/8 grid at N = 11 and the whole
    grid when one leaf spans the axis (N <= 8).  The noise is drawn inline,
    on no second thread.  Under tracemalloc a d = 2 draw peaks at 1.25
    grids at N = 11 on two cores and at 1.50 at N = 9.
    """
    H = HurstVector.of(H)
    factors = [_axis_factor(h, gen) for h in H.components]
    full = np.zeros(((1 << gen) + 1,) * H.dim)  # zero on the 0-facets
    core = full[(slice(1, None),) * H.dim]
    scratch = [np.empty(_scratch_size(H.dim, gen)) for _ in range(_workers(1 << gen))]
    _draw_noise(core, replicate_rng(seed, replicate), scratch=scratch[0])
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
    ``_draw_noise``, on a producer thread one block ahead where it starts
    one, and each axis-0 block is summed in place once it is there.  The
    carry row, the axis-0 partial sum of the last row before, is added to
    the block's first row, the block is summed along axis 0 row by row
    (by ``np.cumsum`` at d = 1), its last row is kept as the next carry,
    and then one ``np.cumsum`` runs along each further axis.  Every
    element so gets the additions of whole-grid ``np.cumsum`` along each
    axis in turn, in the same order, and the same bits.

    With ``slab=n`` (0 <= n <= N) the result is the :class:`BottomSlab`
    x_d <= 2^-n: only the first 2^(N-n) cells of the last axis are kept
    and summed, in a grid of that slab alone.  Every noise block is still
    drawn whole, so the kept values get the same additions in the same
    order and equal ``values[..., :2^(N-n)+1]`` of the whole sheet, bit for
    bit.  A slab is drawn inline, on no producer thread: its caller pools
    draws on every core.  The whole sheet is this path with every cell kept.
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

    rng = replicate_rng(seed, replicate)
    scale = haar_amplitude(-gen * d)  # sd |cell|^(1/2)
    _draw_noise(core, rng, scale, then=cumulate, ahead=slab is None)
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
    values = np.asarray(f.values, dtype=float)
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
