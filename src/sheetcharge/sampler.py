"""Exact-covariance Gaussian sampling of (fractional) Brownian sheets on
dyadic grids, plus the closed-form increment covariances.

The sheet covariance is a tensor product of one-axis kernels, so a sample
on the grid is obtained by applying the Cholesky factor of each per-axis
kernel matrix as a mode product to a tensor of iid standard normals.  No
circulant embedding: at desk scale the dense factorization is simpler and
matches the target covariance on the grid to rounding error.  The
standard sheet (H = 1/2 on every axis) has its own O(2^Nd) path: white
noise drawn block by block straight into the grid, then summed in place
along each axis, so it holds no array beside the grid but one block.

Randomness comes from counter-based Philox streams keyed on
(seed, replicate), so replicate ensembles are order-independent and
reproducible across runs.  Where numpy's BLAS is OpenBLAS, large mode
products run on the cores in the process's CPU affinity, split into row
blocks that were checked to keep the bits of the unsplit product (with 1
to 8 blocks, at one and at two BLAS threads), so a sample does not depend
on the core count there; other BLAS libraries get the unsplit product.  A
sample does depend on the BLAS thread count: ``np.linalg.cholesky``
returns factors with other bits under ``OPENBLAS_NUM_THREADS=1`` and ``2``
for N >= 7.
"""

from __future__ import annotations

import functools
import os
import struct
import threading
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .dyadic import Rectangle
from .haar import haar_amplitude
from .increments import GridSample

__all__ = [
    "HurstVector",
    "SamplerError",
    "fbm_kernel",
    "sheet_covariance",
    "increment_covariance",
    "axis_kernel_matrix",
    "axis_cholesky",
    "replicate_rng",
    "sample_sheet",
    "sample_sheet_ensemble",
    "sample_standard_sheet",
    "save_grid",
    "load_grid",
    "grid_to_csv",
]

CHOLESKY_JITTER = 1e-12
_GRID_MAGIC = b"SHEETGRD"
_CSV_BLOCK = 1 << 10  # points per formatted block of a 1-D CSV
_NOISE_BLOCK = 1 << 16  # white-noise values per draw, unless one axis-0 row is more
# Fewest factor rows per block of a split mode product.  Each thread that calls
# BLAS keeps its own packing buffer, and smaller blocks changed bits in probes.
_MIN_BLOCK_ROWS = 1 << 10


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


def axis_kernel_matrix(h: float, gen: int) -> np.ndarray:
    """Kernel matrix on the interior grid points j/2^N, j = 1..2^N."""
    t = np.arange(1, (1 << gen) + 1, dtype=float) / (1 << gen)
    return fbm_kernel(h, t[:, None], t[None, :])


def axis_cholesky(h: float, gen: int) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of the axis kernel, with diagonal jitter fallback.

    Returns (factor, jitter_used); jitter is added once, only on failure.
    """
    cov = axis_kernel_matrix(h, gen)
    try:
        return np.linalg.cholesky(cov), 0.0
    except np.linalg.LinAlgError:
        pass
    jittered = cov + CHOLESKY_JITTER * np.eye(cov.shape[0])
    try:
        return np.linalg.cholesky(jittered), CHOLESKY_JITTER
    except np.linalg.LinAlgError as exc:
        raise SamplerError(
            f"axis kernel (h={h}, N={gen}) not positive definite even with "
            f"{CHOLESKY_JITTER:g} jitter"
        ) from exc


def replicate_rng(seed: int, *stream: int) -> np.random.Generator:
    """Philox generator on the counter-based stream (seed, *stream)."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=tuple(stream)))
    )


def _embed_interior(core: np.ndarray, d: int, gen: int) -> np.ndarray:
    """Place interior values into a read-only full grid, zero on the 0-facets."""
    full = np.zeros(((1 << gen) + 1,) * d)
    full[(slice(1, None),) * d] = core
    full.flags.writeable = False  # GridSample takes it over without a copy
    return full


def _openblas() -> bool:
    """Whether numpy's BLAS is OpenBLAS (unknown before numpy 1.26: no)."""
    deps = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {})
    return "openblas" in str(deps.get("blas", {}).get("name", "")).lower()


def _cores() -> int:
    """Row blocks a mode product may use: the CPUs this process may run on.

    One where numpy's BLAS is not OpenBLAS: another library may pick a
    kernel by the number of rows, so a row block may change bits.
    """
    if not _openblas():
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _mode_product(fac: np.ndarray, core: np.ndarray, axis: int) -> np.ndarray:
    """``np.moveaxis(np.tensordot(fac, core, axes=(1, axis)), 0, axis)``, bit for bit.

    The one ``fac @ cols`` product is split into a power-of-two number of
    row blocks of ``fac``, at most one per core and each at least
    _MIN_BLOCK_ROWS rows; the calling thread computes the first and one
    thread started for this call each of the others.  OpenBLAS packs each
    block of the shared dimension the same way whatever the number of rows,
    so every block has the bits of the unsplit product.  With one block
    this is the unsplit call itself.
    """
    moved = np.moveaxis(core, axis, 0)
    n = fac.shape[0]
    cols = moved.reshape(n, -1)  # a view wherever tensordot's is
    parts, cores = 1, _cores()
    while 2 * parts <= cores and n // (2 * parts) >= _MIN_BLOCK_ROWS:
        parts *= 2
    if parts == 1:
        out = np.dot(fac, cols)
    else:
        out = np.empty((n, cols.shape[1]))
        rows, errors, threads = n // parts, [], []

        def block(lo: int) -> None:
            try:
                np.dot(fac[lo : lo + rows], cols, out[lo : lo + rows])
            except BaseException as exc:  # raised again by the calling thread
                errors.append(exc)

        try:
            for lo in range(rows, n, rows):
                thread = threading.Thread(target=block, args=(lo,), name="mode-product")
                thread.start()
                threads.append(thread)
            block(0)
        finally:  # no block may still write into ``out`` once this returns or raises
            for thread in threads:
                thread.join()
        if errors:
            raise errors[0]
    return np.moveaxis(out.reshape(moved.shape), 0, axis)


@functools.lru_cache(maxsize=4)
def _axis_factor(h: float, gen: int) -> tuple[np.ndarray, float]:
    """``axis_cholesky(h, gen)`` factored once per (h, N) and shared read-only.

    Four entries hold every distinct exponent of a d <= 3 sheet.
    """
    fac, jitter = axis_cholesky(h, gen)
    fac.flags.writeable = False
    return fac, jitter


def sample_sheet(
    H: HurstVector | Sequence[float], gen: int, seed: int, replicate: int = 0
) -> GridSample:
    """One sheet sample with exact grid covariance, deterministic in (H, N, seed)."""
    H = HurstVector.of(H)
    factors, jitters = zip(*(_axis_factor(h, gen) for h in H.components))
    core = replicate_rng(seed, replicate).standard_normal((1 << gen,) * H.dim)
    for axis, fac in enumerate(factors):
        # Mode product L_axis x_axis core; each input is freed once its product exists.
        # One product per call: a helper looping over every axis would hold the noise.
        core = _mode_product(fac, core, axis)
    return GridSample(
        H.dim,
        gen,
        _embed_interior(core, H.dim, gen),
        hurst=H.components,
        seed=seed,
        meta={"sampler": "kronecker-cholesky", "jitter": list(jitters), "replicate": replicate},
    )


def sample_sheet_ensemble(
    H: HurstVector | Sequence[float], gen: int, seed: int, replicates: int
) -> Iterator[GridSample]:
    """Replicates 0..replicates-1 of :func:`sample_sheet`, drawn lazily."""
    H = HurstVector.of(H)
    for rep in range(replicates):
        yield sample_sheet(H, gen, seed, rep)


def sample_standard_sheet(d: int, gen: int, seed: int, replicate: int = 0) -> GridSample:
    """Standard sheet via iid N(0, 2^-Nd) cell increments and cumulative sums.

    O(2^Nd) and exactly the H = (1/2, ..., 1/2) grid law.  The noise is
    drawn straight into the interior of the zero-padded grid, in axis-0
    blocks of at most _NOISE_BLOCK values (or one row, if a row is more)
    through one reused buffer: the stream and the values of one whole
    draw.  The sums then run in place, axis 0 first; every axis but the
    last is summed row by row, which makes the additions of ``np.cumsum``
    in memory order.
    """
    full = np.zeros(((1 << gen) + 1,) * d)
    core = full[(slice(1, None),) * d]
    rng, amp = replicate_rng(seed, replicate), haar_amplitude(-gen * d)  # sd |cell|^(1/2)
    buf = np.empty((min(len(core), max(1, _NOISE_BLOCK // core[0].size)),) + core.shape[1:])
    for lo in range(0, len(core), len(buf)):
        rng.standard_normal(out=buf)
        np.multiply(buf, amp, out=core[lo : lo + len(buf)])
    del buf
    for axis in range(d - 1):
        rows = np.moveaxis(core, axis, 0)
        for i in range(1, rows.shape[0]):
            rows[i] += rows[i - 1]
    np.cumsum(core, axis=d - 1, out=core)
    full.flags.writeable = False  # GridSample takes it over without a copy
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
