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

from .increments import (
    CoefficientTable,
    GridSample,
    _coefficient_levels,
    coefficient_table,
    increment_levels,
)

__all__ = [
    "MomentScalingFit",
    "moment_scaling_fit",
    "CriterionReport",
    "build_report",
]


def _level_abs(tab: CoefficientTable, n: int) -> np.ndarray:
    lev = tab.level(n)
    if lev.dtype == object:
        lev = lev.astype(float)
    return np.abs(lev)


def _level_max_abs(f: GridSample, max_gen: int) -> list[float]:
    """max_k |increment| over the generation-n cubes, for n = 0..max_gen."""
    out = []
    for cells in increment_levels(f, max_gen):
        flat = cells.reshape(-1)
        if flat.dtype == object:
            flat = flat.astype(float)
        out.append(float(np.abs(flat).max()))
    return out


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
    :func:`_level_stats`; the exact-grid fallback and the test oracle of
    :func:`_streamed_report`.
    """
    stats = []
    for n in range(tab.max_gen + 1):
        lam = _level_abs(tab, n)
        sums, peak, t_sum = lam.sum(axis=0), lam.max(initial=0.0), lam[:, 0].sum()
        stats.append(_level_stats(sums, peak, t_sum, n, tab.dim))
    return _report(tab.dim, tab.max_gen, stats)


def _streamed_report(f: GridSample, max_gen: int) -> CriterionReport:
    """``build_report(coefficient_table(f, max_gen))`` without the table.

    One pass over the blocks of :func:`_coefficient_levels`, finest
    generation first, so neither the table nor the finest cells exist
    whole.  Each block's |coefficients| go into one buffer, below a row
    that holds the column sums so far, and are reduced there: the column
    sums by ``np.add.accumulate`` down the rows, the additions of
    ``sum(axis=0)`` in its order, and the max by ``np.maximum``, which
    keeps a NaN as ``max`` does.  The |type-1| column is stored until its
    generation is complete and then summed once, pairwise.  So every
    statistic has the bits of the whole-level reduction.  A caller
    that passes the sheet as a temporary lets its grid go once the last
    tile is differenced (from Python 3.11; a 3.10 caller holds its
    arguments until the call returns).  Grids that are not float64, and
    horizons the grid cannot carry, take the table path.
    """
    if f.values.dtype != np.float64 or not 0 <= max_gen < f.gen:
        return build_report(coefficient_table(f, max_gen))
    d, blocks = f.dim, _coefficient_levels(f, max_gen)
    del f  # a sheet handed over is freed once its last tile is differenced
    stats, stack = [None] * (max_gen + 1), None
    for n, lo, full in blocks:
        if stack is None:  # the first block is the largest
            stack = np.empty((1 + len(full), (1 << d) - 1))  # row 0: the column sums so far
        lam = np.abs(full[:, 1:], out=stack[1 : 1 + len(full)])
        del full
        if lo == 0:
            peak, t_col = 0.0, np.empty(1 << (n * d))
        peak = np.maximum(peak, lam.max(initial=0.0))
        t_col[lo : lo + len(lam)] = lam[:, 0]
        if d > 1:  # sum(axis=0) adds the rows of two or more columns in order
            rows = stack[: 1 + len(lam)] if lo else lam
            np.add.accumulate(rows, axis=0, out=rows)
            stack[0] = rows[-1]
        if lo + len(lam) == len(t_col):
            t_sum = t_col.sum()
            # one column (d = 1) is summed pairwise, as the type-1 column is
            stats[n] = _level_stats(t_sum if d == 1 else stack[0], peak, t_sum, n, d)
            del t_col
        del lam
    return _report(d, max_gen, stats)
