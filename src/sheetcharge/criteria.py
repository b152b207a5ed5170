"""Finite-horizon chargeability diagnostics on coefficient tables.

All statistics are reported per generation up to an explicit horizon and
never claim a limit: the divergence/convergence dichotomy they probe is
asymptotic, so only growth and decay rates across generations are
meaningful, not absolute constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

# increment_levels is unused here, but bench/tracer.py wraps it through this module.
from .increments import (  # noqa: F401
    CoefficientTable,
    GridSample,
    _block_rows,
    _check_horizon,
    _coefficient_bytes,
    _coefficient_levels,
    _tiled_pyramid,
    _Workspace,
    increment_levels,
)

__all__ = [
    "MomentScalingFit",
    "moment_scaling_fit",
    "CriterionReport",
    "build_report",
]


def _level_max_abs(f: GridSample, max_gen: int) -> list[float]:
    """max_k |increment| over the generation-n cubes, for n = 0..max_gen.

    One running ``np.maximum`` per generation over the pieces of
    :func:`_tiled_pyramid`, which keeps a NaN as ``max`` does.  A piece
    is summed into the next generation before it comes, so its |cells|
    overwrite it and the pass holds nothing beside the pyramid.
    """
    peaks = [0.0] * (max_gen + 1)
    for n, _, cells in _tiled_pyramid(f.values, 0, _Workspace()):
        if n <= max_gen:
            peaks[n] = np.maximum(peaks[n], np.abs(cells, out=cells).max())
    return [float(p) for p in peaks]


def _holder_ratios(maxima: Sequence[float], dim: int, gamma: float) -> np.ndarray:
    """``maxima[n] / |cube|^gamma`` per generation, from :func:`_level_max_abs`."""
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
    return np.array([m / (2.0 ** (-n * dim)) ** gamma for n, m in enumerate(maxima)])


@dataclass(frozen=True)
class MomentScalingFit:
    """Least-squares fit of log2 E|increment|^q against log2 |cube|."""

    q: float
    slope: float
    delta_hat: float  # slope - 1, the excess over first-order volume scaling
    points: tuple[tuple[int, float, float, int], ...]  # (n, log2 vol, log2 moment, count)
    excluded: tuple[int, ...]


_MIN_COUNT = 32  # moment_scaling_fit's default min_count, which configs are checked against
_SUM_BLOCK = 1 << 16  # most values of one |x|^q temporary


def _abs_power_sum(arr: np.ndarray, q: float) -> np.float64:
    """``np.sum(np.abs(arr) ** q)`` bit for bit, with temporaries of _SUM_BLOCK values at most.

    numpy sums a contiguous float64 array pairwise: above 128 values it
    adds the sums of ``arr[:h]`` and ``arr[h:]``, ``h = n // 2`` rounded
    down to a multiple of 8.  Splitting the same way down to blocks of
    _SUM_BLOCK values and summing each block with numpy adds the same
    values in the same order.
    """
    n = arr.size
    if n <= _SUM_BLOCK:
        mag = np.abs(arr)
        mag **= q  # the bits of np.abs(arr) ** q, with one temporary instead of two
        return mag.sum()
    h = n // 2
    h -= h % 8
    return _abs_power_sum(arr[:h], q) + _abs_power_sum(arr[h:], q)


def moment_scaling_fit(
    samples_by_gen: Mapping[int, Sequence[float]],
    q: float,
    dim: int,
    min_count: int = _MIN_COUNT,
) -> MomentScalingFit:
    """Fit the moment-scaling exponent from per-generation increment samples.

    Generations with fewer than ``min_count`` samples are excluded from the
    equal-weight regression; at least two must remain.
    """
    if q <= 0:
        raise ValueError(f"q must be positive, got {q}")
    points = []
    excluded = []
    for n in sorted(samples_by_gen):
        arr = np.asarray(samples_by_gen[n], dtype=float).reshape(-1)
        if arr.size < min_count:
            excluded.append(n)
            continue
        moment = float(_abs_power_sum(arr, q) / arr.size)  # np.mean(np.abs(arr) ** q)
        with np.errstate(divide="ignore"):  # a moment of 0 has log2 -inf, a degenerate fit
            log2_moment = float(np.log2(moment))
        points.append((n, -float(n * dim), log2_moment, arr.size))
    if len(points) < 2:
        raise ValueError("need at least two generations with enough samples")
    xs = np.array([p[1] for p in points])
    ys = np.array([p[2] for p in points])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return MomentScalingFit(q, slope, slope - 1.0, tuple(points), tuple(excluded))


@dataclass(frozen=True)
class CriterionReport:
    """Per-generation criterion statistics, one tuple entry per generation 0..max_gen."""

    dim: int
    max_gen: int
    criterion_a: tuple[float, ...]
    b_terms: tuple[float, ...]
    b_partial_sums: tuple[float, ...]
    t_stats: tuple[float, ...]
    s_stats: tuple[float, ...]

    def __post_init__(self) -> None:
        for name in ("criterion_a", "b_terms", "b_partial_sums", "t_stats", "s_stats"):
            if len(getattr(self, name)) != self.max_gen + 1:
                raise ValueError(f"{name} must have one entry per generation 0..{self.max_gen}")

    def rows(self) -> list[tuple[int, str, float]]:
        out = []
        for n in range(self.max_gen + 1):
            out.append((n, "criterion_a", self.criterion_a[n]))
            out.append((n, "b_term", self.b_terms[n]))
            out.append((n, "b_partial_sum", self.b_partial_sums[n]))
            out.append((n, "mean_abs", self.t_stats[n]))
            out.append((n, "scaled_mean_abs", self.s_stats[n]))
        return out


def _level_stats(
    col_sums: np.ndarray, peak, t_sum, n: int, d: int
) -> tuple[float, float, float, float]:
    """(criterion A, b-term, T, S) of generation n from reductions of its |coefficients|.

    ``col_sums`` is ``sum(axis=0)``, which adds the k rows one after
    another; ``peak`` the max with initial 0.0; ``t_sum`` the pairwise sum
    of the type-1 column.
    """
    a = 2.0 ** (-n * (d / 2.0 + 1.0)) * float(col_sums.max())
    b = 2.0 ** (n * (d / 2.0 - 1.0)) * float(peak)
    t = float(t_sum) / 2.0 ** (n * d)
    return a, b, t, 2.0 ** (n * (d / 2.0 - 1.0)) * t


def _report(d: int, max_gen: int, stats) -> CriterionReport:
    """The report of the per-generation :func:`_level_stats`, generation 0 first."""
    b_terms = np.array([s[1] for s in stats], dtype=float)
    return CriterionReport(
        dim=d,
        max_gen=max_gen,
        criterion_a=tuple(s[0] for s in stats),
        b_terms=tuple(b_terms),
        b_partial_sums=tuple(np.cumsum(b_terms)),
        t_stats=tuple(s[2] for s in stats),
        s_stats=tuple(s[3] for s in stats),
    )


def build_report(tab: CoefficientTable) -> CriterionReport:
    """All per-generation statistics of a coefficient table in one report.

    Takes |coeff| once per generation and reduces it by
    :func:`_level_stats`; the test oracle of :func:`_streamed_report`.
    """
    stats = []
    for n in range(tab.max_gen + 1):
        lam = np.abs(tab.level(n))
        sums, peak, t_sum = lam.sum(axis=0), lam.max(initial=0.0), lam[:, 0].sum()
        stats.append(_level_stats(sums, peak, t_sum, n, tab.dim))
    return _report(tab.dim, tab.max_gen, stats)


def _add_block_sum(parts: list[tuple[int, np.float64]], rows: int, total: np.float64) -> None:
    """Add the sum of a column's next ``rows`` values to its pairwise partial sums ``parts``.

    numpy sums a contiguous column of 2^k values pairwise, as
    :func:`_abs_power_sum` splits it: each half is summed the same way,
    down to leaves of 128 values, and the two sums are added.  When every
    block of the column has one power-of-two size, at least 128 values or
    the whole column, adding two partial sums of one size as soon as both
    exist, the earlier one first, makes the same additions.  ``parts``
    then ends as ``[(2^k, np.sum(column))]``.
    """
    while parts and parts[-1][0] == rows:
        rows, total = 2 * rows, parts.pop()[1] + total
    parts.append((rows, total))


def _streamed_bytes(d: int, gen: int, max_gen: int) -> int:
    """Bytes :func:`_streamed_report` holds beside the grid, at most: the arrays of
    :func:`_coefficient_levels` and the buffer of one block's |coefficients|."""
    return _coefficient_bytes(d, gen) + 8 * (1 + _block_rows(d, gen, max_gen)) * ((1 << d) - 1)


def _streamed_report(f: GridSample, max_gen: int) -> CriterionReport:
    """``build_report(coefficient_table(f, max_gen))`` without the table.

    One pass over the blocks of :func:`_coefficient_levels`, which come
    tile by tile, so neither the table, nor the finest generations, nor a
    whole column of any generation exists.  Each block's |coefficients|
    go into one buffer, transposed: one row per type, right of a column
    that holds its generation's column sums so far.  They are reduced
    there: the column sums by ``np.add.accumulate`` along the rows, the
    additions of ``sum(axis=0)`` in its order, and the max by
    ``np.maximum``, which keeps a NaN as ``max`` does.  The |type-1| row
    of each block is summed, and the block sums of a generation are added
    as numpy's pairwise sum of the whole column adds them
    (:func:`_add_block_sum`).  So every statistic has the bits of the
    whole-level reduction, and the pass holds about a tile beside the
    grid: under tracemalloc, 0.06 grids at d = 2, N = 11.  A caller that
    passes the sheet as a temporary lets its grid go once the last tile
    is differenced (from Python 3.11; a 3.10 caller holds its arguments
    until the call returns).  A horizon the grid cannot carry raises
    ``ValueError``, as it does for the table.
    """
    _check_horizon(max_gen, f.gen)
    d, rows = f.dim, _block_rows(f.dim, f.gen, max_gen)
    blocks = _coefficient_levels(f, max_gen)
    del f  # a sheet handed over is freed once its last tile is differenced
    # Per generation: the column sums so far, the max and the type-1 block sums.
    sums = np.empty((max_gen + 1, (1 << d) - 1))
    peaks, t_parts = [0.0] * (max_gen + 1), [[] for _ in range(max_gen + 1)]
    stats = [None] * (max_gen + 1)
    stack = np.empty(((1 << d) - 1, 1 + rows))  # column 0: a generation's column sums so far
    for n, lo, full in blocks:
        lam = stack[:, : 1 + len(full)]
        np.abs(full[:, 1:].T, out=lam[:, 1:])
        peaks[n] = np.maximum(peaks[n], lam[:, 1:].max(initial=0.0))
        _add_block_sum(t_parts[n], len(full), lam[0, 1:].sum())
        if d > 1:  # sum(axis=0) adds the rows of two or more columns in order
            if lo:
                lam[:, 0] = sums[n]
            acc = lam if lo else lam[:, 1:]
            np.add.accumulate(acc, axis=1, out=acc)
            sums[n] = acc[:, -1]
        if lo + len(full) == 1 << (n * d):
            [(_, t_sum)] = t_parts[n]
            # one column (d = 1) is summed pairwise, as the type-1 column is
            stats[n] = _level_stats(t_sum if d == 1 else sums[n], peaks[n], t_sum, n, d)
    return _report(d, max_gen, stats)
