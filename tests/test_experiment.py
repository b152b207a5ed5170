import functools
import importlib.util
import math
import struct
import sys
import tracemalloc
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from sheetcharge import criteria, experiment
from sheetcharge.dyadic import (
    DyadicCube,
    Figure,
    exposed_faces,
    figure_perimeter,
    lex_to_morton,
    morton_decode,
    morton_encode,
)
from sheetcharge.experiment import (
    ConfigError,
    CounterexampleReport,
    ExperimentConfig,
    counterexample_figure,
)
from sheetcharge.increments import GridSample, figure_increment, increment_levels
from sheetcharge.sampler import sample_sheet, sample_sheet_ensemble, sample_standard_sheet

from helpers import grid_from_cell_increments, product_grid, zero_grid


class TestCounterexampleFigure:
    def test_zero_function_selects_nothing(self):
        f = zero_grid(2, 6)
        fig, rep = counterexample_figure(f, 2, 5, 0.5)
        assert fig.cubes == ()
        assert rep.coverage == 0.0
        assert rep.low_coverage

    def test_uniform_threshold_selects_entire_bottom_layer(self):
        # increments exactly |K|^exponent on each generation-n bottom cube
        n, N, d, exponent = 2, 5, 2, 0.5
        cells = np.zeros((2**N,) * d)
        per_cube = 2.0 ** (-n * d * exponent) / 4 ** (N - n)
        cells[:, : 2 ** (N - n)] = per_cube  # bottom slab x_2 < 2^-n
        f = grid_from_cell_increments(cells)
        fig, rep = counterexample_figure(f, n, N - 1, exponent)
        assert len(fig.cubes) == 2**n  # one cube per bottom column
        assert all(c.gen == n for c in fig.cubes)
        assert rep.coverage == pytest.approx(1.0)
        assert not rep.low_coverage
        assert rep.perimeter <= 2 * d
        assert float(figure_perimeter(fig)) == pytest.approx(2 * (1 + 2.0**-n))

    def test_selected_cubes_touch_bottom_and_are_disjoint(self):
        f = sample_standard_sheet(2, 9, seed=14)
        fig, rep = counterexample_figure(f, 3, 8, 0.5)
        assert len({(c.gen, c.index) for c in fig.cubes}) == len(fig.cubes)
        for cube in fig.cubes:
            assert morton_decode(cube.index, 2, cube.gen)[-1] == 0
        Figure(2, fig.cubes)  # almost-disjointness revalidated

    def test_structural_bounds(self):
        for seed in (0, 5, 9):
            f = sample_standard_sheet(2, 9, seed=seed)
            n = 3
            fig, rep = counterexample_figure(f, n, 8, 0.5)
            assert rep.increment >= rep.threshold_sum - 1e-12
            assert rep.threshold_sum == pytest.approx(rep.coverage)  # d=2, exp=1/2
            assert rep.volume <= 2.0**-n
            assert rep.perimeter <= 4 * rep.coverage + 1e-12
            assert rep.increment == pytest.approx(
                figure_increment(f, fig), rel=1e-9, abs=1e-12
            )

    def test_maximality_no_selected_cube_inside_another_candidate(self):
        # coarse-to-fine scan: a selected cube's bottom face never overlaps
        # a previously selected one
        f = sample_standard_sheet(2, 8, seed=3)
        fig, _ = counterexample_figure(f, 2, 7, 0.5)
        seen = []
        for cube in sorted(fig.cubes, key=lambda c: c.gen):
            m = morton_decode(cube.index, 2, cube.gen)[0]
            lo, hi = m / 2.0**cube.gen, (m + 1) / 2.0**cube.gen
            for plo, phi in seen:
                assert hi <= plo or lo >= phi
            seen.append((lo, hi))

    def test_regression_seed_one(self):
        # frozen value from the seeded pipeline (d=2, N=10, seed 1, n=3)
        f = sample_standard_sheet(2, 10, seed=1)
        fig, rep = counterexample_figure(f, 3, 9, 0.5)
        delta = figure_increment(f, fig)
        assert delta >= 0.4
        assert delta == pytest.approx(1.1861051575915902, rel=1e-12)
        assert rep.coverage == pytest.approx(0.728515625)

    def test_range_validation(self):
        f = zero_grid(2, 4)
        with pytest.raises(ValueError):
            counterexample_figure(f, 3, 2, 0.5)
        with pytest.raises(ValueError):
            counterexample_figure(f, 0, 4, 0.5)

    @pytest.mark.parametrize("exponent", [0.0, -1e6, math.nan, math.inf])
    def test_exponent_must_be_finite_and_positive(self, exponent):
        with pytest.raises(ValueError, match="finite exponent > 0"):
            counterexample_figure(zero_grid(2, 4), 0, 3, exponent)


def reference_counterexample_figure(f, n, p_max, exponent):
    """The cube-by-cube scan that counterexample_figure vectorises."""
    d = f.dim
    levels = increment_levels(f, p_max)
    covered = np.zeros((1 << p_max,) * (d - 1), dtype=bool)
    cubes, per_level = [], []
    threshold_sum = increment_sum = 0.0
    coverage = Fraction(0)
    for p in range(n, p_max + 1):
        bottom = np.asarray(levels[p][..., 0])
        if bottom.dtype == object:
            bottom = bottom.astype(float)
        threshold = 2.0 ** (-p * d * exponent)
        count = 0
        scale = 1 << (p_max - p)
        for m in np.ndindex(*((1 << p,) * (d - 1))):
            value = float(bottom[m])
            if value < threshold:
                continue
            block = tuple(slice(mi * scale, (mi + 1) * scale) for mi in m)
            if covered[block].any():
                continue
            covered[block] = True
            cubes.append(DyadicCube(d, p, morton_encode(tuple(m) + (0,), p)))
            count += 1
            threshold_sum += threshold
            increment_sum += value
            coverage += Fraction(1, 1 << (p * (d - 1)))
        per_level.append(count)
    fig = Figure(d, tuple(cubes))
    h, faces = exposed_faces(fig)
    report = CounterexampleReport(
        start_gen=n,
        max_gen=p_max,
        exponent=exponent,
        coverage=float(coverage),
        increment=increment_sum,
        threshold_sum=threshold_sum,
        volume=float(fig.volume()),
        perimeter=float(len(faces) * Fraction(1, 1 << (h * (d - 1)))) if cubes else 0.0,
        selected_per_level=tuple(per_level),
        low_coverage=coverage < Fraction(1, 2),
    )
    return fig, report


def full_pyramid_counterexample_figure(f, n, p_max, exponent):
    """counterexample_figure as it was before it differenced only the bottom slab:
    it reads the bottom layer of the whole increment pyramid."""
    d = f.dim
    levels = increment_levels(f, p_max)
    taken = np.zeros((1,) * (d - 1), dtype=bool)
    cubes, per_level = [], []
    threshold_sum = 0.0
    increment_sum = 0.0
    coverage = Fraction(0)
    for p in range(n, p_max + 1):
        bottom = np.asarray(levels[p][..., 0])
        if bottom.dtype == object:
            bottom = bottom.astype(float)
        threshold = 2.0 ** (-p * d * exponent)
        for axis in range(d - 1):
            taken = taken.repeat(bottom.shape[axis] // taken.shape[axis], axis=axis)
        picked = ~(bottom < threshold) & ~taken
        taken |= picked
        for m in np.argwhere(picked):
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


def assert_same_scan(got, want):
    """Equal figure text and every report field equal bit for bit and type for type."""
    (fig, rep), (want_fig, want_rep) = got, want
    assert fig.to_json() == want_fig.to_json()
    for name, value in asdict(want_rep).items():
        got_value = getattr(rep, name)
        assert type(got_value) is type(value), name
        if isinstance(value, float):  # bit for bit, NaN included
            assert struct.pack("<d", got_value) == struct.pack("<d", value), name
        else:
            assert got_value == value, name


def with_nan_cells(d, gen, seed):
    """A standard sheet with NaN at a few grid points next to the bottom face."""
    values = np.array(sample_standard_sheet(d, gen, seed).values)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        point = tuple(rng.integers(1, (1 << gen) + 1, size=d - 1)) + (1,)
        values[point] = np.nan
    return GridSample(d, gen, values)


class TestVectorisedScan:
    @pytest.mark.parametrize(
        "f, n, p_max, exponent",
        [
            (sample_standard_sheet(1, 6, seed=0), 0, 5, 0.5),
            (sample_standard_sheet(1, 6, seed=1), 2, 4, 0.9),
            (sample_standard_sheet(2, 8, seed=2), 0, 7, 0.5),
            (sample_standard_sheet(2, 8, seed=3), 3, 6, 0.3),
            (sample_standard_sheet(3, 5, seed=4), 1, 4, 0.5),
            (sample_standard_sheet(3, 5, seed=5), 2, 3, 0.2),
            (sample_sheet((0.8, 0.8), 7, seed=6), 2, 6, 0.8),
            (product_grid(2, 4, exact=True), 1, 3, 0.5),
            (product_grid(3, 3), 0, 2, 0.5),
            (zero_grid(2, 5), 1, 4, 0.5),
            (with_nan_cells(2, 6, seed=7), 1, 5, 0.5),
            (with_nan_cells(3, 4, seed=8), 0, 3, 0.5),
        ],
        ids=[
            "d1", "d1-n2", "d2", "d2-n3", "d3", "d3-n2", "fractional", "exact", "product-d3",
            "zero", "nan-d2", "nan-d3",
        ],
    )
    def test_matches_cube_by_cube_scan(self, f, n, p_max, exponent):
        assert_same_scan(
            counterexample_figure(f, n, p_max, exponent),
            reference_counterexample_figure(f, n, p_max, exponent),
        )

    @pytest.mark.parametrize(
        "f, exponent",
        [
            (sample_standard_sheet(1, 7, seed=10), 0.5),
            (sample_sheet((0.8,), 7, seed=11), 0.8),
            (product_grid(1, 5, exact=True), 1.0),
            (with_nan_cells(1, 6, seed=12), 0.5),
            (sample_standard_sheet(2, 6, seed=13), 0.5),
            (sample_sheet((0.7, 0.9), 6, seed=14), 0.8),
            (product_grid(2, 4, exact=True), 1.0),
            (with_nan_cells(2, 5, seed=15), 0.5),
            (sample_standard_sheet(3, 4, seed=16), 0.5),
            (sample_sheet((0.6, 0.7, 0.8), 4, seed=17), 0.7),
            (product_grid(3, 3, exact=True), 1.0),
            (with_nan_cells(3, 4, seed=18), 0.5),
        ],
        ids=[
            f"d{d}-{kind}" for d in (1, 2, 3)
            for kind in ("standard", "fractional", "exact", "nan")
        ],
    )
    def test_bottom_slab_matches_full_pyramid(self, f, exponent):
        for p_max in range(f.gen):
            for n in range(p_max + 1):
                assert_same_scan(
                    counterexample_figure(f, n, p_max, exponent),
                    full_pyramid_counterexample_figure(f, n, p_max, exponent),
                )

    def test_nan_increment_is_selected(self):
        # "value < threshold" is false for NaN, so the scan picks a NaN cube
        f = with_nan_cells(2, 6, seed=7)
        _, rep = counterexample_figure(f, 1, 5, 0.5)
        assert math.isnan(rep.increment)


class TestConfig:
    def test_defaults_fill_in(self):
        cfg = ExperimentConfig(subcommand="simulate", d=2, N=5, seeds=(1,))
        assert cfg.M == 4
        assert cfg.p_max == 4

    def test_bad_horizon(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(subcommand="simulate", d=2, N=4, M=4)

    def test_empty_seeds(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(subcommand="simulate", seeds=())

    def test_bad_subcommand(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(subcommand="frobnicate")

    def test_hurst_dimension_checked(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(subcommand="simulate", d=2, H=(0.5,))

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json_obj({"subcommand": "simulate", "frob": 1})

    def test_manifest_accepted(self):
        cfg = ExperimentConfig.from_json_obj(
            {"config": {"subcommand": "simulate", "d": 1, "N": 3, "seeds": [7]}}
        )
        assert cfg.seeds == (7,)

    def test_memory_estimate_counts_grid_kernel_and_samples(self):
        cfg = ExperimentConfig(
            subcommand="moment-scaling", d=2, N=8, H=(0.7, 0.7), replicates=200, q=(1, 2)
        )
        grid, kernel = 8 * 257**2, 3 * 8 * 4**8
        samples = 8 * 200 * sum(4**n for n in range(2, 8))
        assert cfg._memory_estimate() == grid + kernel + samples

    def test_benchmark_configs_fit_in_memory(self, monkeypatch):
        path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("bench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclass
        spec.loader.exec_module(workloads)
        for wl in workloads.WORKLOADS.values():
            ExperimentConfig.from_json_obj({"subcommand": wl.subcommand, **wl.config_for(0)})


def run_capturing_fit(monkeypatch, tmp_path, **config):
    """Run moment-scaling: its config, the samples its first fit received and
    the tracemalloc peak when that fit began (0 when tracemalloc is off)."""
    calls = []
    fit = experiment.moment_scaling_fit

    @functools.wraps(fit)  # the config reads the fit's min_count from its signature
    def spy(samples, q, dim, **kw):
        calls.append((samples, tracemalloc.get_traced_memory()[1]))
        return fit(samples, q, dim, **kw)

    monkeypatch.setattr(experiment, "moment_scaling_fit", spy)
    cfg = ExperimentConfig(subcommand="moment-scaling", out=str(tmp_path), **config)
    experiment.run(cfg)
    return (cfg, *calls[0])


class TestMomentScalingRunner:
    @pytest.mark.parametrize(
        "d, N, H, replicates, gens",
        [
            (1, 6, (0.3,), 1, (0, 5, 6)),
            (1, 7, (0.8,), 8, (6, 2, 0)),
            (2, 4, (0.6, 0.8), 1, (0, 3, 4)),
            (2, 5, (0.7, 0.7), 3, None),
            (3, 3, (0.5, 0.6, 0.9), 2, (0, 2, 3)),
        ],
    )
    def test_samples_match_concatenated_levels(
        self, monkeypatch, tmp_path, d, N, H, replicates, gens
    ):
        cfg, samples, _ = run_capturing_fit(
            monkeypatch, tmp_path, d=d, N=N, H=H, replicates=replicates, gens=gens, seeds=(5,)
        )
        gens = cfg._moment_gens()
        sheets = list(sample_sheet_ensemble(H, N, 5, replicates))
        assert list(samples) == list(gens)
        for n in gens:
            want = np.concatenate(
                [
                    np.asarray(lex_to_morton(increment_levels(f, max(gens))[n]), dtype=float)
                    for f in sheets
                ]
            )
            assert samples[n].dtype == want.dtype and samples[n].shape == want.shape
            assert samples[n].tobytes() == want.tobytes()

    @pytest.mark.parametrize("d, N", [(1, 10), (2, 8), (3, 4)])
    def test_memory_within_samples_and_one_sheet(self, monkeypatch, tmp_path, d, N):
        # Pooling holds the sample arrays, one sheet and the differencing of one
        # pyramid (the finest level and the half-differenced grid); the fit then
        # holds the samples and |x|^q of its largest generation.
        H, reps = (0.7,) * d, 20
        sample_sheet(H, N, 0)  # the cached axis factor is not the runner's
        tracemalloc.start()
        try:
            cfg, _, pooled_peak = run_capturing_fit(
                monkeypatch, tmp_path, d=d, N=N, H=H, replicates=reps, q=(1, 2)
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        gens = cfg._moment_gens()
        samples = 8 * reps * sum(1 << (n * d) for n in gens)
        largest = 8 * reps * (1 << (max(gens) * d))
        sheet, level = 8 * ((1 << N) + 1) ** d, 8 << (N * d)
        slack = 1 << 18
        assert pooled_peak <= samples + sheet + 2 * level + slack
        assert peak <= samples + max(sheet + 2 * level, largest) + slack


class TestHolderScanRunner:
    def test_one_pyramid_per_seed(self, monkeypatch, tmp_path):
        calls = []
        levels = criteria.increment_levels
        monkeypatch.setattr(
            criteria, "increment_levels", lambda f, n: calls.append(n) or levels(f, n)
        )
        cfg = ExperimentConfig(
            subcommand="holder-scan", d=2, N=4, gamma=(0.5, 0.7, 1), seeds=(1, 2),
            out=str(tmp_path),
        )
        experiment.run(cfg)
        assert calls == [3, 3]
