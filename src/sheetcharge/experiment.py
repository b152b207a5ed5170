"""Seeded experiment drivers and the thin-slab counterexample construction.

Each runner consumes a validated ExperimentConfig, writes CSV/JSON reports
plus a reproducibility manifest into the output directory, and is fully
deterministic given the config: re-running a manifest must reproduce the
CSV outputs byte for byte.  Floats are printed with 17 significant digits
so the files are stable regression artifacts.

moment-scaling pools its replicates, and counterexample its seeds, on
one worker thread per core (``sampler._pool``, which also runs the
blocks of each mode product and the noise tiles of each layer of a
whole sheet): each sheet has its own Philox stream and
each result its own slot, so the bits do not depend on the number of
workers.  counterexample draws only the bottom slab of a
standard sheet, which holds every cube its scan reads.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import __version__, sampler
# build_report, coefficient_table, cube_increments and increment_levels are
# unused here, but bench/tracer.py wraps these module attributes.
from .criteria import (  # noqa: F401
    _MIN_COUNT,
    _holder_ratios,
    _level_max_abs,
    _streamed_bytes,
    _streamed_report,
    build_report,
    moment_scaling_fit,
)
from .dyadic import DyadicCube, Figure, figure_perimeter, morton_encode
from .increments import (  # noqa: F401
    BottomSlab,
    GridSample,
    _pyramid_bytes,
    _put_piece,
    _tiled_pyramid,
    coefficient_table,
    cube_increments,
    increment_levels,
)
from .sampler import (
    HurstVector,
    _leaf_bytes,
    _pool,
    _sheet_bytes,
    _standard_bytes,
    _workers,
    replicate_rng,
    sample_sheet_ensemble,
    sample_standard_sheet,
    save_grid,
    grid_to_csv,
    sheet_covariance,
)

__all__ = [
    "ExperimentConfig",
    "ConfigError",
    "CounterexampleReport",
    "counterexample_figure",
    "run",
    "SUBCOMMANDS",
]


class ConfigError(ValueError):
    """Invalid experiment configuration."""


_NEEDS_H = ("covariance-check", "fractional-criteria", "moment-scaling")
_PICKER_STREAM = 10**6  # covariance-check draws its pairs from replicate_rng(seed, this)
# Bytes the analysis of one sheet holds beside its grid, by subcommand: (d, N, M) -> bytes.
_ANALYSIS_BYTES = {
    "brownian-dichotomy": _streamed_bytes,
    "fractional-criteria": _streamed_bytes,
    # the pyramid and |cells| of one of its pieces
    "holder-scan": lambda d, gen, max_gen: _pyramid_bytes(d, gen, readers=1),
}


def _check(name: str, value, kind: type = numbers.Integral) -> None:
    """Reject anything but a finite ``kind`` number, bools and strings included; None passes."""
    if value is None:
        return
    if isinstance(value, bool) or not isinstance(value, kind) or not -math.inf < value < math.inf:
        what = "an integer" if kind is numbers.Integral else "a finite number"
        raise ConfigError(f"{name} must be {what}, got {value!r}")


def _as_tuple(name: str, value) -> tuple:
    if isinstance(value, str) or not isinstance(value, Iterable):
        raise ConfigError(f"{name} must be a list, got {value!r}")
    return tuple(value)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@contextmanager
def _csv(path: Path, header: str) -> Iterator[Callable[..., None]]:
    """Open ``path``, write ``header`` and yield a writer of comma-joined rows.

    Floats go through :func:`_fmt`, every other field through ``str``.
    """
    with open(path, "w") as fh:
        fh.write(header + "\n")
        yield lambda *fields: fh.write(
            ",".join(_fmt(x) if isinstance(x, (float, np.floating)) else str(x) for x in fields)
            + "\n"
        )


def _write_json(path: Path, obj, **kw) -> Path:
    """Write ``obj`` as strict indent-2 JSON plus a trailing newline; NaN raises."""
    path.write_text(json.dumps(obj, indent=2, allow_nan=False, **kw) + "\n")
    return path


def _finite_or_none(x: float) -> float | None:
    """``x``, or None (JSON null) for a NaN or infinity, which JSON cannot hold."""
    return x if math.isfinite(x) else None


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment parameters shared by all subcommands."""

    subcommand: str
    d: int = 2
    N: int = 8
    M: int | None = None
    H: tuple[float, ...] | None = None
    q: tuple[float, ...] = (2.0,)
    gamma: tuple[float, ...] = (0.7,)
    seeds: tuple[int, ...] = (0,)
    replicates: int = 1
    out: str = "out"
    pairs: int = 10
    n: int = 3
    p_max: int | None = None
    hbar: float | None = None
    gens: tuple[int, ...] | None = None
    fit_min_gen: int = 3

    def __post_init__(self) -> None:
        if self.subcommand not in SUBCOMMANDS:
            raise ConfigError(
                f"unknown subcommand {self.subcommand!r}; pick one of {sorted(SUBCOMMANDS)}"
            )
        for name in ("d", "N", "M", "replicates", "pairs", "n", "p_max", "fit_min_gen"):
            _check(name, getattr(self, name))
        _check("hbar", self.hbar, numbers.Real)
        if self.hbar is not None and not 0 < self.hbar < 1:
            raise ConfigError(f"hbar must lie in (0, 1), got {self.hbar}")
        for name in ("seeds", "gens", "H", "q", "gamma"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _as_tuple(name, getattr(self, name)))
            for value in getattr(self, name) or ():
                _check(name, value, numbers.Integral if name in ("seeds", "gens") else numbers.Real)
        if self.d < 1:
            raise ConfigError("d must be >= 1")
        if self.N < 1:
            raise ConfigError("N must be >= 1")
        m = self.M if self.M is not None else self.N - 1
        if not 0 <= m <= self.N - 1:
            raise ConfigError(f"need 0 <= M <= N-1, got M={m}, N={self.N}")
        object.__setattr__(self, "M", m)
        if not self.seeds or min(self.seeds) < 0:
            raise ConfigError(f"seeds must be a nonempty list of integers >= 0, got {self.seeds}")
        if not isinstance(self.out, str):
            raise ConfigError(f"out must be a directory name, got {self.out!r}")
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if self.H is None and self.subcommand in _NEEDS_H:
            raise ConfigError(f"{self.subcommand} requires H")
        if self.H is not None:
            try:
                hv = HurstVector(self.H)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
            if hv.dim != self.d:
                raise ConfigError("H must have one component per axis")
            object.__setattr__(self, "H", hv.components)
        if self.replicates < 1:
            raise ConfigError("replicates must be >= 1")
        if self.pairs < 1:
            raise ConfigError("pairs must be >= 1")
        if self.subcommand == "covariance-check" and self.replicates > _PICKER_STREAM:
            # replicate _PICKER_STREAM's noise would be the pair picker's stream
            raise ConfigError(f"covariance-check needs replicates <= {_PICKER_STREAM}")
        pm = self.p_max if self.p_max is not None else self.N - 1
        if self.subcommand == "counterexample" and not 0 <= self.n <= pm <= self.N - 1:
            raise ConfigError(f"need 0 <= n <= p_max <= N-1, got n={self.n}, p_max={pm}")
        object.__setattr__(self, "p_max", pm)
        object.__setattr__(self, "q", tuple(float(x) for x in self.q))
        object.__setattr__(self, "gamma", tuple(float(x) for x in self.gamma))
        if not all(x > 0 for x in self.q):
            raise ConfigError(f"q must be positive, got {list(self.q)}")
        if not all(0 < x <= 1 for x in self.gamma):
            raise ConfigError(f"gamma must lie in (0, 1], got {list(self.gamma)}")
        if self.gens is not None:
            if not self.gens or not all(0 <= g <= self.N for g in self.gens):
                raise ConfigError(f"gens must be nonempty and within 0..N={self.N}")
            if len(set(self.gens)) != len(self.gens):
                raise ConfigError(f"gens must be distinct, got {list(self.gens)}")
            object.__setattr__(self, "gens", tuple(int(g) for g in self.gens))
        if self.subcommand == "fractional-criteria" and not 0 <= self.fit_min_gen <= m - 1:
            raise ConfigError(
                "fractional-criteria fits generations fit_min_gen..M, at least two: need "
                f"0 <= fit_min_gen <= M-1, got fit_min_gen={self.fit_min_gen}, M={m}"
            )
        if self.subcommand == "moment-scaling":
            # Generation n pools replicates * 2^(nd) increments (the shift is capped so a huge N
            # stays cheap); the fit drops those below its min_count and needs two left.
            counts = [self.replicates << min(n * self.d, 64) for n in self._moment_gens()]
            if sum(c >= _MIN_COUNT for c in counts) < 2:
                raise ConfigError(
                    "moment-scaling needs two generations with replicates * 2^(n*d) >= "
                    f"{_MIN_COUNT}"
                )
        need = self._memory_estimate()
        have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        if need > have:
            raise ConfigError(
                f"the run needs about {need / 2**30:.3g} GiB, more than the "
                f"{have / 2**30:.3g} GiB of physical memory"
            )

    def _memory_estimate(self) -> int:
        """Bytes of the largest arrays one run allocates, capped at 2^64.

        The (2^N+1)^d grid and what the sampler holds beside it: without H,
        the tile buffers and carry row of ``sample_standard_sheet``; with
        H, those of ``sample_sheet`` (the leaves of each distinct
        component's factor, and its scratch arrays or, before the grid, a
        factor's build).  Each pooling worker holds its own: for
        moment-scaling a grid, its scratch arrays and its pyramid, beside
        the pooled samples; for counterexample without H the bottom slab's
        grid and the larger of its draw's one tile buffer and carry row
        and its scan.  covariance-check holds its pairs beside the draw.  For a
        subcommand in _ANALYSIS_BYTES, the larger of that and what its
        analysis holds after the draw, beside the grid and any cached
        factor leaves.  N and d are capped at 64 so the integers stay
        small: any capped estimate is already above 2^64 bytes.
        """
        gen, d = min(self.N, 64), min(self.d, 64)
        workers = self._pool_workers()
        if self.H is None and self.subcommand == "counterexample":
            # the slab x_d <= 2^-n has 2^(N-n) cells of the last axis, capped as N is
            slab = max(0, gen - (self.N - self.n))
            grid = 8 * ((1 << gen) + 1) ** (d - 1) * ((1 << (gen - slab)) + 1)
            need = workers * max(_standard_bytes(d, gen, slab), grid + _scan_bytes(d, gen, slab))
        elif self.H is None:
            need = _standard_bytes(d, gen)
        else:
            need = _sheet_bytes(d, gen, len(set(self.H)), workers)
        analysis = _ANALYSIS_BYTES.get(self.subcommand)
        if analysis is not None:  # after the draw, beside the grid and any cached leaves
            leaves = 0 if self.H is None else _leaf_bytes(gen, len(set(self.H)))
            grid = 8 * ((1 << gen) + 1) ** d
            need = max(need, leaves + grid + analysis(d, gen, min(self.M, gen - 1)))
        if self.subcommand == "moment-scaling":
            need += workers * _pyramid_bytes(d, gen)
            need += 8 * self.replicates * sum(1 << min(n * d, 64) for n in self._moment_gens())
        if self.subcommand == "covariance-check":
            # per pair, measured with tracemalloc: its list slot, tuple and two tuples of
            # d Python ints (88 + 80 d bytes, ints above 2^30 included) and two float64 sums
            need += self.pairs * (104 + 80 * d)
        return min(need, 1 << 64)

    def _pool_workers(self) -> int:
        """Threads that pool this run's sheets, the caller's included.

        One per core and at most one per sheet: moment-scaling's replicates
        when a sheet's own mode products run on one thread, and
        counterexample's seeds when it draws the standard sheet's bottom
        slab.  Every other run draws its sheets on the calling thread.
        """
        if self.subcommand == "moment-scaling" and _workers(self.d, min(self.N, 64)) == 1:
            return min(sampler._cores(), self.replicates)
        if self.subcommand == "counterexample" and self.H is None:
            return min(sampler._cores(), len(self.seeds))
        return 1

    def _moment_gens(self) -> tuple[int, ...]:
        """Generations moment-scaling pools: ``gens``, or 2..M by default."""
        return self.gens if self.gens is not None else tuple(range(2, self.M + 1))

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ExperimentConfig":
        if isinstance(obj, dict) and "config" in obj:  # manifest round-trip
            obj = obj["config"]
        if not isinstance(obj, dict):
            raise ConfigError(f"config must be a JSON object, got {type(obj).__name__}")
        unknown = set(obj) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**obj)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class CounterexampleReport:
    """Outcome of one thin-slab figure search."""

    start_gen: int
    max_gen: int
    exponent: float
    coverage: float
    increment: float
    threshold_sum: float
    volume: float
    perimeter: float
    selected_per_level: tuple[int, ...]
    low_coverage: bool


def counterexample_figure(
    f: GridSample | BottomSlab, n: int, p_max: int, exponent: float
) -> tuple[Figure, CounterexampleReport]:
    """Greedy thin-slab figure made of bottom-layer cubes with large increments.

    Scans the cubes touching the hyperplane x_d = 0 coarse-to-fine over
    generations n..p_max and selects a cube whenever its increment is at
    least |cube|^exponent and its bottom face is not yet covered, so the
    selected cubes are maximal and pairwise disjoint.  The report records
    the covered fraction of the bottom face; a full sweep would cover it
    almost surely only in the infinite-resolution limit, so low coverage
    is flagged, never an error.  ``f`` may be a whole grid sample or a
    bottom slab x_d <= 2^-m with m <= n, which holds every cube scanned;
    a thinner slab raises ``ValueError``.
    """
    d = f.dim
    if not 0 <= n <= p_max <= f.gen - 1:
        raise ValueError(f"need 0 <= n <= p_max <= N-1, got n={n}, p_max={p_max}")
    if not (math.isfinite(exponent) and exponent > 0):
        raise ValueError(f"need a finite exponent > 0, got {exponent}")
    cells = 1 << (f.gen - n)
    if f.values.shape[-1] <= cells:
        raise ValueError(
            f"the slab holds {f.values.shape[-1] - 1} cells of the last axis, "
            f"fewer than the {cells} of the slab x_d <= 2^-{n} the scan reads"
        )
    bottoms = _bottoms(f.values[..., : cells + 1], n, p_max)
    taken = np.zeros((1,) * (d - 1), dtype=bool)  # bottom-face cells covered so far
    cubes: list[DyadicCube] = []
    per_level = []
    threshold_sum = 0.0
    increment_sum = 0.0
    coverage = Fraction(0)
    for p in range(n, p_max + 1):
        bottom = bottoms[p]  # cubes touching x_d = 0
        threshold = 2.0 ** (-p * d * exponent)
        for axis in range(d - 1):
            taken = taken.repeat(bottom.shape[axis] // taken.shape[axis], axis=axis)
        # Cubes of one generation are disjoint, so only coarser picks can block
        # one.  Not "bottom >= threshold": a NaN increment is picked, as a
        # cube-by-cube scan that skips only "value < threshold" picks it.
        picked = ~(bottom < threshold) & ~taken
        taken |= picked
        for m in np.argwhere(picked):  # lexicographic order
            cubes.append(DyadicCube(d, p, morton_encode(tuple(int(x) for x in m) + (0,), p)))
        for value in bottom[picked].tolist():
            threshold_sum += threshold
            increment_sum += value
        count = int(np.count_nonzero(picked))
        coverage += count * Fraction(1, 1 << (p * (d - 1)))
        per_level.append(count)
    fig = Figure(d, tuple(cubes))
    report = CounterexampleReport(
        start_gen=n,
        max_gen=p_max,
        exponent=exponent,
        coverage=float(coverage),
        increment=increment_sum,
        threshold_sum=threshold_sum,
        volume=float(fig.volume()),
        perimeter=float(figure_perimeter(fig)) if cubes else 0.0,
        selected_per_level=tuple(per_level),
        low_coverage=coverage < Fraction(1, 2),
    )
    return fig, report


def _bottoms(values: np.ndarray, n: int, p_max: int) -> dict[int, np.ndarray]:
    """Increments of the cubes touching x_d = 0, generation n to p_max, from the slab ``values``.

    ``values`` holds the grid points of the slab x_d <= 2^-n, whose
    generation-n cubes all touch x_d = 0 and hold every finer cube that
    does.  Each is a cube grid of side 2^(N-n), summed by its own
    :func:`_tiled_pyramid`, and the bottom cells of each of its pieces
    are written into ``bottoms[p]``, generation p's lexicographic
    (2^p,)*(d-1) array, by :func:`_put_piece`.
    """
    d, side = values.ndim, values.shape[-1] - 1
    bottoms = {p: np.empty((1 << p,) * (d - 1)) for p in range(n, p_max + 1)}
    for corner in np.ndindex(*((1 << n,) * (d - 1))):
        box = values[tuple(slice(c * side, (c + 1) * side + 1) for c in corner)]
        # The cube's cells of its generation k are cells of generation n + k,
        # after the cube's own index; its last-axis coordinate is 0.
        first = morton_encode(corner + (0,), n)
        for k, lo, cells in _tiled_pyramid(box, 0):
            if n + k <= p_max:
                _put_piece(bottoms[n + k], d, n + k, (first << (k * d)) + lo, cells)
    return bottoms


def _scan_bytes(d: int, gen: int, n: int) -> int:
    """Bytes :func:`counterexample_figure` holds beside the grid it reads, at most.

    The pyramid of one generation-n cube of the slab x_d <= 2^-n, the
    bottom arrays of generations n..N-1 and, while it scans the finest of
    them, the per-cell arrays of the scan: five of bool, the picked
    cubes' d - 1 int64 coordinates and their float64 increments.
    """
    bottoms = sum(1 << (p * (d - 1)) for p in range(n, gen))
    return _pyramid_bytes(d, gen - n) + 8 * bottoms + (8 * d + 8) * (1 << ((gen - 1) * (d - 1)))


def _sample_for(cfg: ExperimentConfig, seed: int) -> GridSample:
    if cfg.H is None:
        return sample_standard_sheet(cfg.d, cfg.N, seed)
    return next(iter(sample_sheet_ensemble(cfg.H, cfg.N, seed, 1)))


def _write_manifest(cfg: ExperimentConfig, out: Path) -> Path:
    manifest = {
        "library": "sheetcharge",
        "version": __version__,
        "subcommand": cfg.subcommand,
        "config": asdict(cfg),
    }
    return _write_json(out / "manifest.json", manifest, sort_keys=True)


def run_simulate(cfg: ExperimentConfig, out: Path) -> list[Path]:
    paths = []
    for seed in cfg.seeds:
        f = _sample_for(cfg, seed)
        binary = out / f"sample_seed{seed}.grid"
        save_grid(f, binary)
        paths.append(binary)
        if cfg.d <= 2:
            csv_path = out / f"sample_seed{seed}.csv"
            grid_to_csv(f, csv_path)
            paths.append(csv_path)
        del f  # not alive while the next seed's sheet is drawn
    return paths


def run_covariance_check(cfg: ExperimentConfig, out: Path) -> list[Path]:
    seed = cfg.seeds[0]
    n_pts = 1 << cfg.N
    picker = replicate_rng(seed, _PICKER_STREAM)
    pairs = []
    for _ in range(cfg.pairs):
        s = tuple(int(j) for j in picker.integers(1, n_pts + 1, size=cfg.d))
        t = tuple(int(j) for j in picker.integers(1, n_pts + 1, size=cfg.d))
        pairs.append((s, t))
    sums = np.zeros(len(pairs))
    for f in sample_sheet_ensemble(cfg.H, cfg.N, seed, cfg.replicates):
        for i, (s, t) in enumerate(pairs):
            sums[i] += f.values[s] * f.values[t]
    emp = sums / cfg.replicates
    path = out / "covariance_check.csv"
    with _csv(path, "pair,empirical,exact,z") as row:
        for i, (s, t) in enumerate(pairs):
            sp = tuple(j / n_pts for j in s)
            tp = tuple(j / n_pts for j in t)
            exact = sheet_covariance(cfg.H, sp, tp)
            var = sheet_covariance(cfg.H, sp, sp) * sheet_covariance(cfg.H, tp, tp) + exact**2
            se = (var / cfg.replicates) ** 0.5
            z = (emp[i] - exact) / se if se > 0 else 0.0
            row(f'"{s}|{t}"', emp[i], exact, z)
    return [path]


def run_brownian_dichotomy(cfg: ExperimentConfig, out: Path) -> list[Path]:
    path = out / "brownian_dichotomy.csv"
    means = np.zeros(cfg.M + 1)
    with _csv(path, "seed,n,stat_name,value") as row:
        for seed in cfg.seeds:
            # A temporary: from Python 3.11 the pass frees it once its last tile is differenced.
            rep = _streamed_report(sample_standard_sheet(cfg.d, cfg.N, seed), cfg.M)
            for n, name, value in rep.rows():
                row(seed, n, name, value)
            means += np.asarray(rep.t_stats)
    summary = {
        "mean_abs_by_gen": [m / len(cfg.seeds) for m in means],
        "half_normal_mean": float(np.sqrt(2.0 / np.pi)),
        "seeds": list(cfg.seeds),
    }
    return [path, _write_json(out / "brownian_dichotomy.json", summary)]


def _fit_b_slope(b_terms: Sequence[float], n_min: int) -> float:
    """Per-level log2 ratio of the convergence-side terms, least squares."""
    ns = np.arange(n_min, len(b_terms))
    with np.errstate(divide="ignore"):  # a zero b-term has log2 -inf: no finite slope
        ys = np.log2(np.asarray(b_terms)[n_min:])
    return float(np.polyfit(ns, ys, 1)[0])


def run_fractional_criteria(cfg: ExperimentConfig, out: Path) -> list[Path]:
    path = out / "fractional_criteria.csv"
    slopes = []
    with _csv(path, "seed,n,stat_name,value") as row:
        for seed in cfg.seeds:
            # A temporary: from Python 3.11 the pass frees it once its last tile is differenced.
            rep = _streamed_report(_sample_for(cfg, seed), cfg.M)
            for n, name, value in rep.rows():
                row(seed, n, name, value)
            slopes.append(_fit_b_slope(rep.b_terms, cfg.fit_min_gen))
    hbar = sum(cfg.H) / cfg.d
    degenerate = [seed for seed, s in zip(cfg.seeds, slopes) if not math.isfinite(s)]
    summary = {
        "fitted_log2_ratio_by_seed": [_finite_or_none(s) for s in slopes],
        "fit_min_gen": cfg.fit_min_gen,
        "reference_rate": cfg.d - 1 - cfg.d * hbar,
        "seeds": list(cfg.seeds),
        # a zero b-term has an infinite log2, which leaves its seed no finite slope
        **({"degenerate_seeds": degenerate} if degenerate else {}),
    }
    return [path, _write_json(out / "fractional_criteria.json", summary)]


def run_holder_scan(cfg: ExperimentConfig, out: Path) -> list[Path]:
    path = out / "holder_scan.csv"
    with _csv(path, "seed,gamma,n,ratio") as row:
        for seed in cfg.seeds:
            f = _sample_for(cfg, seed)
            maxima = _level_max_abs(f, cfg.M)
            del f  # not alive while the next seed's sheet is drawn
            for gamma in cfg.gamma:
                for n, r in enumerate(_holder_ratios(maxima, cfg.d, gamma)):
                    row(seed, gamma, n, r)
    return [path]


def _pool_levels(values: np.ndarray, samples: dict[int, np.ndarray], r: int) -> None:
    """Write the Morton cell increments of generation n of the cube grid ``values`` into
    row ``r`` of ``samples[n]``, for every n in ``samples``, piece by piece as
    :func:`_tiled_pyramid` yields them: no level exists whole."""
    for n, lo, cells in _tiled_pyramid(values, min(samples)):
        if n in samples:
            samples[n][r, lo : lo + len(cells)] = cells


def run_moment_scaling(cfg: ExperimentConfig, out: Path) -> list[Path]:
    gens = cfg._moment_gens()
    seed = cfg.seeds[0]
    # Replicate r's generation-n increments, in Morton order, are row r of samples[n].
    samples = {n: np.empty((cfg.replicates, 1 << (n * cfg.d))) for n in gens}

    def pool_replicate(r: int) -> None:
        # Each replicate has its own Philox stream and row, so the bits do not
        # depend on the number of workers.
        sheet = next(iter(sample_sheet_ensemble(cfg.H, cfg.N, seed, range(r, r + 1))))
        _pool_levels(sheet.values, samples, r)

    for h in set(cfg.H):  # built before the workers: lru_cache lets two build one factor
        sampler._axis_factor(h, cfg.N)
    _pool("moment-scaling", cfg.replicates, cfg._pool_workers(), pool_replicate)
    samples = {n: rows.reshape(-1) for n, rows in samples.items()}
    path = out / "moment_scaling.csv"
    fits = {}
    with _csv(path, "q,n,log2_volume,log2_moment,count") as row:
        for q in cfg.q:
            fit = moment_scaling_fit(samples, q, cfg.d)
            fits[q] = fit
            for point in fit.points:
                row(q, *point)
    hbar = sum(cfg.H) / cfg.d
    summary = {
        "fits": [
            {
                "q": q,
                "slope": _finite_or_none(fit.slope),
                "delta_hat": _finite_or_none(fit.delta_hat),
                "reference_slope": q * hbar,
                "excluded_generations": list(fit.excluded),
                # a moment that under- or overflowed has an infinite log2: no finite slope
                **({} if math.isfinite(fit.slope) else {"degenerate": True}),
            }
            for q, fit in fits.items()
        ],
        "replicates": cfg.replicates,
        "seed": seed,
    }
    return [path, _write_json(out / "moment_scaling.json", summary)]


def run_counterexample(cfg: ExperimentConfig, out: Path) -> list[Path]:
    hbar = cfg.hbar
    if hbar is None:
        hbar = sum(cfg.H) / cfg.d if cfg.H is not None else 0.5
    found: list = [None] * len(cfg.seeds)

    def scan(i: int) -> None:
        seed = cfg.seeds[i]
        # The standard sheet's slab x_d <= 2^-n holds every cube scanned; a fractional
        # sheet is drawn whole, as its slab would rest on column-sliced BLAS products.
        if cfg.H is None:
            f = sample_standard_sheet(cfg.d, cfg.N, seed, slab=cfg.n)
        else:
            f = _sample_for(cfg, seed)
        fig, rep = counterexample_figure(f, cfg.n, cfg.p_max, hbar)
        found[i] = fig.to_json(), rep

    _pool("counterexample", len(cfg.seeds), cfg._pool_workers(), scan)
    path = out / "counterexample.csv"
    paths = [path]
    with _csv(path, "seed,coverage,increment,threshold_sum,volume,perimeter,selected") as row:
        for seed, (fig, rep) in zip(cfg.seeds, found):
            row(
                seed, rep.coverage, rep.increment, rep.threshold_sum, rep.volume,
                rep.perimeter, sum(rep.selected_per_level),
            )
            fig_path = out / f"counterexample_figure_seed{seed}.json"
            fig_path.write_text(fig + "\n")
            paths.append(fig_path)
    coverages = [rep.coverage for _, rep in found]
    summary = {
        "median_coverage": float(np.median(coverages)),
        "exponent": hbar,
        "start_gen": cfg.n,
        "max_gen": cfg.p_max,
        "seeds": list(cfg.seeds),
    }
    paths.append(_write_json(out / "counterexample.json", summary))
    return paths


SUBCOMMANDS: dict[str, Callable[[ExperimentConfig, Path], list[Path]]] = {
    "simulate": run_simulate,
    "covariance-check": run_covariance_check,
    "brownian-dichotomy": run_brownian_dichotomy,
    "fractional-criteria": run_fractional_criteria,
    "holder-scan": run_holder_scan,
    "moment-scaling": run_moment_scaling,
    "counterexample": run_counterexample,
}


def run(cfg: ExperimentConfig) -> list[Path]:
    """Execute one subcommand: reports plus a reproducibility manifest."""
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    paths = [_write_manifest(cfg, out)]
    paths.extend(SUBCOMMANDS[cfg.subcommand](cfg, out))
    return paths
