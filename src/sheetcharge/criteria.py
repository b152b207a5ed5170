"""Finite-horizon chargeability diagnostics on coefficient tables.

All statistics are reported per generation up to an explicit horizon and
never claim a limit: the divergence/convergence dichotomy they probe is
asymptotic, so only growth and decay rates across generations are
meaningful, not absolute constants.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
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
    "criterion_a_statistic",
    "dichotomy_statistics",
    "criterion_b_terms",
    "criterion_b_partial_sums",
    "holder_ratio_by_level",
    "holder_ratio",
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


def criterion_a_statistic(tab: CoefficientTable, n: int) -> float:
    """Divergence-side statistic: 2^(-n(d/2+1)) max_r sum_k |coeff|.

    Bounded away from zero along a subsequence exactly when the expansion
    cannot converge; reported per generation, constant-free.
    """
    lam = _level_abs(tab, n)
    return 2.0 ** (-n * (tab.dim / 2.0 + 1.0)) * float(lam.sum(axis=0).max())


def dichotomy_statistics(tab: CoefficientTable, n: int) -> tuple[float, float]:
    """Mean absolute type-1 coefficient and its rescaling.

    Returns (T, S) with T = 2^(-nd) sum_k |coeff(n, k, 1)| and
    S = 2^(n(d/2-1)) T.  For the standard sheet T concentrates at
    sqrt(2/pi) ~ 0.7979 as n grows.
    """
    lam = _level_abs(tab, n)
    t = float(lam[:, 0].sum()) / 2.0 ** (n * tab.dim)
    return t, 2.0 ** (n * (tab.dim / 2.0 - 1.0)) * t


def criterion_b_terms(tab: CoefficientTable) -> np.ndarray:
    """Convergence-side series terms 2^(n(d/2-1)) max_{k,r} |coeff| per level."""
    out = np.empty(tab.max_gen + 1)
    for n in range(tab.max_gen + 1):
        lam = _level_abs(tab, n)
        out[n] = 2.0 ** (n * (tab.dim / 2.0 - 1.0)) * float(lam.max(initial=0.0))
    return out


def criterion_b_partial_sums(tab: CoefficientTable) -> np.ndarray:
    """Partial sums of the convergence-side series, one per horizon."""
    return np.cumsum(criterion_b_terms(tab))


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


def holder_ratio_by_level(f: GridSample, gamma: float, max_gen: int) -> np.ndarray:
    """Per-generation max_k |increment| / |cube|^gamma for n = 0..max_gen."""
    return _holder_ratios(_level_max_abs(f, max_gen), f.dim, gamma)


def holder_ratio(f: GridSample, gamma: float, max_gen: int) -> float:
    """Scale-normalized increment bound over all dyadic cubes up to max_gen."""
    return float(holder_ratio_by_level(f, gamma, max_gen).max())


@dataclass(frozen=True)
class MomentScalingFit:
    """Least-squares fit of log2 E|increment|^q against log2 |cube|."""

    q: float
    slope: float
    delta_hat: float  # slope - 1, the excess over first-order volume scaling
    points: tuple[tuple[int, float, float, int], ...]  # (n, log2 vol, log2 moment, count)
    excluded: tuple[int, ...]


def moment_scaling_fit(
    samples_by_gen: Mapping[int, Sequence[float]],
    q: float,
    dim: int,
    min_count: int = 32,
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
        mag = np.abs(arr)
        mag **= q  # the bits of np.abs(arr) ** q, with one temporary instead of two
        moment = float(np.mean(mag))
        del mag  # not alive while the next generation's is made
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
    """Per-generation criterion statistics with serialization helpers."""

    dim: int
    max_gen: int
    criterion_a: tuple[float, ...]
    b_terms: tuple[float, ...]
    b_partial_sums: tuple[float, ...]
    t_stats: tuple[float, ...] | None = None
    s_stats: tuple[float, ...] | None = None
    hurst: tuple[float, ...] | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        want = self.max_gen + 1
        for name in ("criterion_a", "b_terms", "b_partial_sums", "t_stats", "s_stats"):
            val = getattr(self, name)
            if val is not None and len(val) != want:
                raise ValueError(f"{name} must have one entry per generation 0..{self.max_gen}")

    def rows(self) -> list[tuple[int, str, float]]:
        out = []
        for n in range(self.max_gen + 1):
            out.append((n, "criterion_a", self.criterion_a[n]))
            out.append((n, "b_term", self.b_terms[n]))
            out.append((n, "b_partial_sum", self.b_partial_sums[n]))
            if self.t_stats is not None:
                out.append((n, "mean_abs", self.t_stats[n]))
            if self.s_stats is not None:
                out.append((n, "scaled_mean_abs", self.s_stats[n]))
        return out

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "stat_name", "value"])
            for n, name, value in self.rows():
                writer.writerow([n, name, format(value, ".17g")])

    def to_json(self, path=None) -> str:
        obj = {
            "d": self.dim,
            "M": self.max_gen,
            "hurst": list(self.hurst) if self.hurst else None,
            "criterion_a": list(self.criterion_a),
            "b_terms": list(self.b_terms),
            "b_partial_sums": list(self.b_partial_sums),
            "mean_abs": list(self.t_stats) if self.t_stats else None,
            "scaled_mean_abs": list(self.s_stats) if self.s_stats else None,
            "meta": self.meta,
        }
        text = json.dumps(obj, indent=2, allow_nan=False)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        return text


def _level_stats(
    col_sums: np.ndarray, peak, t_sum, n: int, d: int
) -> tuple[float, float, float, float]:
    """(criterion A, b-term, T, S) of generation n from reductions of its |coefficients|.

    ``col_sums`` is ``sum(axis=0)``, which adds the k rows one after
    another; ``peak`` the max with initial 0.0; ``t_sum`` the pairwise sum
    of the type-1 column, the reductions the per-statistic functions above
    make.
    """
    a = 2.0 ** (-n * (d / 2.0 + 1.0)) * float(col_sums.max())
    b = 2.0 ** (n * (d / 2.0 - 1.0)) * float(peak)
    t = float(t_sum) / 2.0 ** (n * d)
    return a, b, t, 2.0 ** (n * (d / 2.0 - 1.0)) * t


def _report(d: int, max_gen: int, stats, hurst, meta: dict) -> CriterionReport:
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
        hurst=tuple(hurst) if hurst is not None else None,
        meta=dict(meta),
    )


def build_report(
    tab: CoefficientTable, hurst: Sequence[float] | None = None, **meta
) -> CriterionReport:
    """All per-generation statistics of a coefficient table in one report.

    Takes |coeff| once per generation and reduces it as the per-statistic
    functions above do, with the same float operations.
    """
    stats = []
    for n in range(tab.max_gen + 1):
        lam = _level_abs(tab, n)
        sums, peak, t_sum = lam.sum(axis=0), lam.max(initial=0.0), lam[:, 0].sum()
        stats.append(_level_stats(sums, peak, t_sum, n, tab.dim))
    return _report(tab.dim, tab.max_gen, stats, hurst, meta)


def _streamed_report(
    f: GridSample, max_gen: int, hurst: Sequence[float] | None = None, **meta
) -> CriterionReport:
    """``build_report(coefficient_table(f, max_gen), hurst, **meta)`` without the table.

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
        return build_report(coefficient_table(f, max_gen), hurst, **meta)
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
    return _report(d, max_gen, stats, hurst, meta)
