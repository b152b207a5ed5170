import importlib.util
import math
import os
import re
import struct
import sys
import threading
import time
import tracemalloc
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import sheetcharge
from sheetcharge import criteria, experiment, sampler
from sheetcharge.dyadic import (
    DyadicCube,
    Figure,
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
from sheetcharge.increments import GridSample, _pyramid_bytes, _Workspace
from sheetcharge.sampler import sample_sheet, sample_sheet_ensemble, sample_standard_sheet

from helpers import grid_from_cell_increments, product_grid, scattered_grid, zero_grid
from oracles import exposed_faces, figure_increment, lex_increment_levels


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
                figure_increment(f.values, fig), rel=1e-9, abs=1e-12
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
        # frozen value from the seeded pipeline (d=2, N=10, seed 1, n=3), on the
        # 0.3.0 noise of sixteen tiles (1.1861051575915902 and 0.728515625 on 0.2.0's)
        f = sample_standard_sheet(2, 10, seed=1)
        fig, rep = counterexample_figure(f, 3, 9, 0.5)
        delta = figure_increment(f.values, fig)
        assert delta >= 0.4
        assert delta == pytest.approx(0.5628870381898281, rel=1e-12)
        assert rep.coverage == pytest.approx(0.38671875)

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

    def test_cube_indices_beyond_int64_rejected(self):
        # No grid of generation 33 fits in memory; the check comes before any read.
        huge = SimpleNamespace(dim=2, gen=33, values=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="p_max \\* d < 63"):
            counterexample_figure(huge, 1, 32, 0.5)

    def test_one_workspace_per_figure(self, monkeypatch):
        # 16 cubes of the slab x_3 <= 1/4 each run a pyramid; one workspace serves
        # them all, and the next figure makes its own.
        made = []

        class Counting(_Workspace):
            def __init__(self):
                super().__init__()
                made.append(self)

        monkeypatch.setattr(experiment, "_Workspace", Counting)
        f = sample_standard_sheet(3, 6, seed=2, slab=2)
        want = [counterexample_figure(f, 2, p_max, 0.5) for p_max in (2, 5)]
        assert len(made) == 2 and all(ws._buffers for ws in made)
        monkeypatch.undo()
        for got, p_max in zip(want, (2, 5)):
            assert_same_scan(got, counterexample_figure(f, 2, p_max, 0.5))


def reference_counterexample_figure(f, n, p_max, exponent):
    """The cube-by-cube scan that counterexample_figure vectorises."""
    d = f.dim
    levels = lex_increment_levels(f.values, p_max)
    covered = np.zeros((1 << p_max,) * (d - 1), dtype=bool)
    cubes, per_level = [], []
    threshold_sum = increment_sum = 0.0
    coverage = Fraction(0)
    for p in range(n, p_max + 1):
        bottom = levels[p][..., 0]
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
    levels = lex_increment_levels(f.values, p_max)
    taken = np.zeros((1,) * (d - 1), dtype=bool)
    cubes, per_level = [], []
    threshold_sum = 0.0
    increment_sum = 0.0
    coverage = Fraction(0)
    for p in range(n, p_max + 1):
        bottom = levels[p][..., 0]
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
            (product_grid(2, 4), 1, 3, 0.5),
            (product_grid(3, 3), 0, 2, 0.5),
            (zero_grid(2, 5), 1, 4, 0.5),
            (with_nan_cells(2, 6, seed=7), 1, 5, 0.5),
            (with_nan_cells(3, 4, seed=8), 0, 3, 0.5),
        ],
        ids=[
            "d1", "d1-n2", "d2", "d2-n3", "d3", "d3-n2", "fractional", "product-d2", "product-d3",
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
            (product_grid(1, 5), 1.0),
            (with_nan_cells(1, 6, seed=12), 0.5),
            (sample_standard_sheet(2, 6, seed=13), 0.5),
            (sample_sheet((0.7, 0.9), 6, seed=14), 0.8),
            (product_grid(2, 4), 1.0),
            (with_nan_cells(2, 5, seed=15), 0.5),
            (sample_standard_sheet(3, 4, seed=16), 0.5),
            (sample_sheet((0.6, 0.7, 0.8), 4, seed=17), 0.7),
            (product_grid(3, 3), 1.0),
            (with_nan_cells(3, 4, seed=18), 0.5),
        ],
        ids=[
            f"d{d}-{kind}" for d in (1, 2, 3)
            for kind in ("standard", "fractional", "product", "nan")
        ],
    )
    def test_bottom_slab_matches_full_pyramid(self, f, exponent):
        for p_max in range(f.gen):
            for n in range(p_max + 1):
                assert_same_scan(
                    counterexample_figure(f, n, p_max, exponent),
                    full_pyramid_counterexample_figure(f, n, p_max, exponent),
                )

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("d, N", [(1, 12), (2, 7), (3, 5)])
    def test_bottoms_match_the_oracle_pyramid(self, d, N, small_tiles):
        # Every slab x_d <= 2^-n of a grid with NaN, infinities and -0.0, on tiles
        # of 2^(3+d) to 2^(9+d) cells: one cube per slab at n = 0, many above.
        f = scattered_grid(d, N, seed=d + 1)
        levels = lex_increment_levels(f.values)
        for n in range(N):
            slab = f.values[..., : (1 << (N - n)) + 1]
            bottoms = experiment._bottoms(slab, n, N - 1)
            assert sorted(bottoms) == list(range(n, N))
            for p, got in bottoms.items():
                want = levels[p][..., 0]
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (n, p)

    def test_nan_increment_is_selected(self):
        # "value < threshold" is false for NaN, so the scan picks a NaN cube
        f = with_nan_cells(2, 6, seed=7)
        _, rep = counterexample_figure(f, 1, 5, 0.5)
        assert math.isnan(rep.increment)

    @pytest.mark.parametrize("d, gen", [(1, 8), (2, 6), (3, 5), (4, 3)])
    def test_slab_scan_matches_whole_sheet_scan(self, d, gen):
        # A slab x_d <= 2^-m scans as the whole sheet for every n >= m.
        f = sample_standard_sheet(d, gen, seed=9)
        for m in range(gen):
            slab = sample_standard_sheet(d, gen, seed=9, slab=m)
            for n in range(m, gen):
                for p_max in sorted({n, gen - 1}):
                    assert_same_scan(
                        counterexample_figure(slab, n, p_max, 0.5),
                        counterexample_figure(f, n, p_max, 0.5),
                    )

    def test_shallower_slab_raises(self):
        slab = sample_standard_sheet(2, 5, seed=0, slab=2)
        counterexample_figure(slab, 2, 4, 0.5)
        with pytest.raises(ValueError, match="fewer than"):
            counterexample_figure(slab, 1, 4, 0.5)


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

    @pytest.mark.parametrize(
        "obj", [{"d": 1, "N": 3}, {"config": {"N": 3}}], ids=["config", "manifest"]
    )
    def test_missing_subcommand_is_a_config_error(self, obj):
        with pytest.raises(ConfigError, match="subcommand"):
            ExperimentConfig.from_json_obj(obj)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json_obj({"subcommand": "simulate", "frob": 1})

    def test_manifest_accepted(self):
        cfg = ExperimentConfig.from_json_obj(
            {"config": {"subcommand": "simulate", "d": 1, "N": 3, "seeds": [7]}}
        )
        assert cfg.seeds == (7,)

    def test_counterexample_cube_indices_must_fit_int64(self):
        # p_max * d < 63 at d >= 2; checked before the memory estimate, which
        # would refuse such a grid on most machines anyway.
        with pytest.raises(ConfigError, match="p_max \\* d < 63 for int64 cube indices, got 64"):
            ExperimentConfig(subcommand="counterexample", d=2, N=33, n=30)
        with pytest.raises(ConfigError, match="got 63"):
            ExperimentConfig(subcommand="counterexample", d=3, N=40, n=20, p_max=21)
        with pytest.raises(ConfigError, match="GiB"):  # 62 bits fit: the memory check refuses it
            ExperimentConfig(subcommand="counterexample", d=2, N=32, n=30)

    def test_moment_generations_checked_without_the_fit(self, monkeypatch):
        # The check reads min_count's default from criteria, not from the fit's
        # signature, which a fit wrapped without functools.wraps does not have.
        monkeypatch.setattr(experiment, "moment_scaling_fit", lambda *args, **kwargs: None)
        with pytest.raises(ConfigError, match=r">= 32$"):
            ExperimentConfig(subcommand="moment-scaling", d=1, N=3, H=(0.7,), replicates=50)
        ExperimentConfig(subcommand="moment-scaling", d=1, N=6, H=(0.7,), replicates=50)

    def test_memory_estimate_counts_grid_kernel_and_samples(self, monkeypatch):
        # The packed factor per distinct Hurst component (n^2 below 256 rows,
        # n(n + 256)/2 from there), the grid and one scratch array per worker,
        # one per core and block: a whole grid for one leaf, 256 rows of one
        # 1024-column block for more.  Without H, the grid, the noise draw's tile
        # buffers (one of 2^16 values per worker, one per core and at most one per
        # tile of a layer) and the carry row.  moment-scaling holds a grid, its
        # scratch and its pyramid per worker, one per core, beside the one factor.  At N = 8 the pyramid's one
        # 256 x 256 tile is the whole finest level: the two runs of its
        # differencing (each at most 257 x 257 points; the box's also holds the
        # scratch arrays of the tile's sums, the other its Morton cells), its
        # order, its shares of generations 7, 6 and 5, the whole generation-4
        # level with its parent and two scratch arrays, and numpy's three ufunc
        # buffers.
        monkeypatch.setattr(sampler, "_cores", lambda: 2)
        cfg = ExperimentConfig(
            subcommand="moment-scaling", d=2, N=8, H=(0.7, 0.7), replicates=200, q=(1, 2)
        )
        grid, factor, scratch = 8 * 257**2, 8 * 4**8, 8 * 4**8
        tile, whole = 2**16, 4**4
        shares = tile // 4 + tile // 16 + tile // 64
        pyramid = 8 * (2 * 257**2 + tile + shares + whole + 3 * whole // 4 + 3 * 8192)
        samples = 8 * 200 * sum(4**n for n in range(2, 8))
        assert cfg._memory_estimate() == factor + 2 * (grid + scratch + pyramid) + samples
        cfg = ExperimentConfig(subcommand="simulate", d=3, N=5, H=(0.6, 0.8, 0.6))
        assert cfg._memory_estimate() == 2 * 8 * 4**5 + 8 * 33**3 + 8 * 32**3
        # brownian-dichotomy: the grid and the criteria pass beside it, which
        # outweighs the draw's noise buffers: the two runs of a 256 x 256 tile's
        # differencing (each at most 257 x 257 points; the box's also holds the
        # scratch arrays of the tile's sums and the 2^14 x 4 product, the other
        # its Morton cells), its order, its shares of generations 10, 9 and 8,
        # the whole generation-7 level with its parent and two scratch arrays,
        # numpy's three ufunc buffers, the 2^14 + 1 columns of three
        # |coefficients|, and the 4 x 4 sign matrix in float64 and int8
        tile, whole = 2**16, 4**7
        streamed = (
            2 * 257**2 + tile + shares + whole + 3 * whole // 4 + 3 * 8192 + 3 * (2**14 + 1)
        )
        cfg = ExperimentConfig(subcommand="brownian-dichotomy", d=2, N=11)
        assert cfg._memory_estimate() == 8 * (2049**2 + streamed) + 9 * 4**2
        # fractional-criteria: the draw's two leaf buffers outweigh that pass
        cfg = ExperimentConfig(subcommand="fractional-criteria", d=2, N=11, H=(0.9, 0.9))
        factor, scratch = 8 * 2048 * (2048 + 256) // 2, 8 * 1024 * 256
        assert 2 * scratch > 8 * streamed + 9 * 4**2
        assert cfg._memory_estimate() == factor + 8 * 2049**2 + 2 * scratch
        # holder-scan: the grid and its tiled pyramid (the whole level is
        # generation 6's), whose pieces its |cells| overwrite
        whole = 4**6
        cfg = ExperimentConfig(subcommand="holder-scan", d=2, N=10)
        assert cfg._memory_estimate() == 8 * (
            1025**2 + 2 * 257**2 + tile + shares + whole + 3 * whole // 4 + 3 * 8192
        )
        # counterexample without H: per pooling worker (one per core, at most one
        # per seed) the slab x_d <= 2^-n, 129 x 129 x 33 points, and the larger of
        # its draw's one noise buffer, carry row and (from d = 3) numpy's three
        # ufunc buffers for the additions of strided rows, and its scan: the
        # pyramid of one 32^3-cell cube (the two runs of its one tile's
        # differencing, each at most 33^3 points, its order, its share of
        # generation 4, the whole generation-3 level with its parent and four
        # scratch arrays, three ufunc buffers), the
        # bottom arrays of generations 2..6, and 32 bytes per bottom cube of 6
        slab, tile, whole = 129**2 * 33, 2**15, 8**3
        draw = 8 * (slab + 2**16 + 128 * 32 + 3 * 8192)
        pyramid = 2 * 33**3 + tile + tile // 8 + whole + 5 * whole // 8 + 3 * 8192
        bottoms = sum(4**p for p in range(2, 7))
        scan = 8 * (slab + pyramid + bottoms) + 32 * 4**6
        cfg = ExperimentConfig(subcommand="counterexample", d=3, N=7, n=2, seeds=range(20))
        assert cfg._memory_estimate() == 2 * max(draw, scan) == 2 * scan
        cfg = ExperimentConfig(subcommand="counterexample", d=3, N=7, n=2)  # one seed
        assert cfg._memory_estimate() == scan
        cfg = ExperimentConfig(subcommand="counterexample", d=2, N=11, n=10, seeds=range(4))
        assert cfg._memory_estimate() == 2 * 8 * (2049 * 3 + 2**16 + 2)  # the draw's
        # with H, one worker draws whole sheets, as any other fractional run
        cfg = ExperimentConfig(subcommand="counterexample", d=2, N=11, H=(0.9, 0.9), seeds=range(4))
        assert cfg._memory_estimate() == (
            8 * 2048 * (2048 + 256) // 2 + 8 * 2049**2 + 2 * 8 * 1024 * 256
        )
        cfg = ExperimentConfig(subcommand="simulate", d=2, N=8)  # one block
        assert cfg._memory_estimate() == 8 * (257**2 + 2**16 + 256)
        monkeypatch.setattr(sampler, "_cores", lambda: 1)
        cfg = ExperimentConfig(subcommand="brownian-dichotomy", d=2, N=11)
        assert cfg._memory_estimate() == 8 * (2049**2 + streamed) + 9 * 4**2
        cfg = ExperimentConfig(subcommand="simulate", d=2, N=11)  # no pass: the draw's
        assert cfg._memory_estimate() == 8 * (2049**2 + 2**16 + 2048)
        # at d = 1 the chunk of 256 summed rows that builds the leaves outweighs the grid
        cfg = ExperimentConfig(subcommand="simulate", d=1, N=13, H=(0.7,))
        n = 2**13
        assert cfg._memory_estimate() == 8 * n * (n + 256) // 2 + 8 * n * (256 + 8)

    @pytest.mark.parametrize(
        "H, gen, cores",
        [((0.7,), 6, 1), ((0.7,), 10, 1), ((0.7,), 12, 2), ((0.6, 0.8), 4, 1),
         ((0.6, 0.8), 8, 1), ((0.9, 0.9), 11, 2), ((0.6, 0.7, 0.6), 3, 1),
         ((0.6, 0.7, 0.8), 5, 1)]
        # the standard sheet, whose config has no H: here H is its dimension
        + [pytest.param(d, gen, cores, id=f"standard-{d}-{gen}-{cores}")
           for d, gen in ((1, 17), (2, 11), (3, 7)) for cores in (1, 2)],
    )
    def test_memory_estimate_covers_the_sampler(self, monkeypatch, H, gen, cores):
        # Factors built inside the trace: the estimate covers their build too.
        # It counts arrays only: Python objects come on top, such as the threads
        # of a product or a noise draw (40 KB).
        monkeypatch.setattr(sampler, "_cores", lambda: cores)
        standard = isinstance(H, int)
        if standard:
            cfg = ExperimentConfig(subcommand="simulate", d=H, N=gen)
        else:
            cfg = ExperimentConfig(subcommand="simulate", d=len(H), N=gen, H=H)
        sampler._axis_factor.cache_clear()
        tracemalloc.start()
        try:
            sample_standard_sheet(H, gen, 0) if standard else sample_sheet(H, gen, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            sampler._axis_factor.cache_clear()
        assert peak <= cfg._memory_estimate() + (1 << 16)

    @pytest.mark.parametrize(
        "subcommand, d, N, H",
        [
            (sub, d, N, H)
            for d, N, H in [(2, 10, (0.7, 0.8)), (3, 6, (0.6, 0.7, 0.8))]
            for sub, H in [("brownian-dichotomy", None), ("fractional-criteria", H),
                           ("holder-scan", None)]
        ],
    )
    def test_memory_estimate_covers_a_run(self, tmp_path, subcommand, d, N, H):
        # A second run in one process: the first built the factors and imported
        # what a run imports.  The estimate counts the analysis beside the grid.
        cfg = ExperimentConfig(subcommand=subcommand, d=d, N=N, H=H, out=str(tmp_path))
        experiment.run(cfg)
        tracemalloc.start()
        try:
            experiment.run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cfg._memory_estimate()

    def test_sign_matrix_counted(self, monkeypatch):
        # At N = 1 the dense 2^d x 2^d sign matrix is most of a streamed pass:
        # 8 GiB in float64 at d = 15, more than a 7.8 GiB machine has.
        pages = {"SC_PHYS_PAGES": int(7.8 * 2**18), "SC_PAGE_SIZE": 4096}  # 7.8 GiB
        monkeypatch.setattr(os, "sysconf", pages.get)
        with pytest.raises(ConfigError, match="more than the 7.8 GiB"):
            ExperimentConfig(subcommand="brownian-dichotomy", d=15, N=1)
        ExperimentConfig(subcommand="brownian-dichotomy", d=13, N=1)  # 9 * 4^13 bytes: 0.6 GiB

    def test_covariance_pairs_counted(self, monkeypatch):
        # A pair of coordinate tuples of Python ints costs 248 bytes at d = 2:
        # 10^9 of them are far more than a 7.8 GiB machine holds.
        pages = {"SC_PHYS_PAGES": int(7.8 * 2**18), "SC_PAGE_SIZE": 4096}  # 7.8 GiB
        monkeypatch.setattr(os, "sysconf", pages.get)
        with pytest.raises(ConfigError, match="more than the 7.8 GiB"):
            ExperimentConfig(subcommand="covariance-check", d=2, N=4, H=(0.7, 0.7), pairs=10**9)
        cfg = ExperimentConfig(subcommand="covariance-check", d=2, N=4, H=(0.7, 0.7), pairs=1000)
        small = ExperimentConfig(subcommand="covariance-check", d=2, N=4, H=(0.7, 0.7), pairs=1)
        assert cfg._memory_estimate() - small._memory_estimate() == 999 * (104 + 80 * 2)

    @pytest.mark.parametrize("d, N", [(1, 12), (2, 3), (3, 2)])
    def test_memory_estimate_covers_the_pairs(self, tmp_path, d, N):
        # Coordinates above 256 are ints of their own; at d = 3, N = 2 every one
        # is a cached small int.  A first run imports what any run would.
        cfg = ExperimentConfig(
            subcommand="covariance-check", d=d, N=N, H=(0.7,) * d, pairs=3000, replicates=2,
            out=str(tmp_path),
        )
        experiment.run(cfg)
        tracemalloc.start()
        try:
            experiment.run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cfg.pairs * (104 + 80 * d) // 2 <= peak <= cfg._memory_estimate()

    def test_version_matches_pyproject(self):
        # the manifest records __version__; the package metadata must say the same
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        assert re.search(r'^version = "([^"]+)"$', text, re.M)[1] == sheetcharge.__version__

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
                    np.asarray(lex_to_morton(lex_increment_levels(f.values)[n]), dtype=float)
                    for f in sheets
                ]
            )
            assert samples[n].dtype == want.dtype and samples[n].shape == want.shape
            assert samples[n].tobytes() == want.tobytes()

    def test_csv_bytes_do_not_depend_on_the_workers(self, monkeypatch, tmp_path):
        # 7 replicates: with 3 workers, worker 0 pools 0, 3 and 6, the others two
        # each.  Threads switch every 10 us instead of every 5 ms.
        written = set()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for cores in (1, 2, 3):
                monkeypatch.setattr(sampler, "_cores", lambda: cores)
                out = tmp_path / str(cores)
                experiment.run(ExperimentConfig(
                    subcommand="moment-scaling", d=2, N=5, H=(0.6, 0.8), replicates=7,
                    q=(1, 2.5), seeds=(4,), out=str(out),
                ))
                written.add((out / "moment_scaling.csv").read_bytes())
        finally:
            sys.setswitchinterval(interval)
        assert len(written) == 1

    def test_worker_error_raised_after_every_worker_ends(self, monkeypatch, tmp_path):
        real = experiment.sample_sheet_ensemble

        def failing(H, gen, seed, replicates, **kwargs):
            if 4 in replicates:  # pooled by worker 1 of 3, a thread of its own
                raise RuntimeError("replicate 4")
            return real(H, gen, seed, replicates, **kwargs)

        monkeypatch.setattr(sampler, "_cores", lambda: 3)
        monkeypatch.setattr(experiment, "sample_sheet_ensemble", failing)
        with pytest.raises(RuntimeError, match="replicate 4"):
            experiment.run(ExperimentConfig(
                subcommand="moment-scaling", d=2, N=4, H=(0.7, 0.7), replicates=9,
                out=str(tmp_path),
            ))
        assert not [t for t in threading.enumerate() if t.name.startswith("moment-scaling")]

    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_one_workspace_per_pool_worker(self, monkeypatch, tmp_path, cores):
        # 7 replicates: worker k draws and sums k, k + cores, ... through its own.
        made, drawn = [], []
        real = experiment.sample_sheet_ensemble

        class Counting(_Workspace):
            def __init__(self):
                super().__init__()
                made.append(self)

        def recording(H, gen, seed, replicates, **kwargs):
            drawn.append((replicates[0], kwargs["ws"]))
            return real(H, gen, seed, replicates, **kwargs)

        monkeypatch.setattr(sampler, "_cores", lambda: cores)
        monkeypatch.setattr(experiment, "_Workspace", Counting)
        monkeypatch.setattr(experiment, "sample_sheet_ensemble", recording)
        experiment.run(ExperimentConfig(
            subcommand="moment-scaling", d=2, N=5, H=(0.6, 0.8), replicates=7, seeds=(4,),
            out=str(tmp_path),
        ))
        assert len(made) == cores
        assert sorted(r for r, _ in drawn) == list(range(7))
        assert all(ws is made[r % cores] for r, ws in drawn)
        assert all(ws._buffers and ws._grid is not None for ws in made)

    def test_threaded_run_builds_each_factor_once(self, monkeypatch, tmp_path):
        # A slow build: without the factors built before the workers start,
        # every worker finds the cache empty and builds its own.
        calls = []
        real = sampler.axis_cholesky

        def slow(h, gen):
            calls.append((h, gen))
            time.sleep(0.05)
            return real(h, gen)

        monkeypatch.setattr(sampler, "_cores", lambda: 3)
        monkeypatch.setattr(sampler, "axis_cholesky", slow)
        sampler._axis_factor.cache_clear()
        try:
            experiment.run(ExperimentConfig(
                subcommand="moment-scaling", d=2, N=4, H=(0.6, 0.8), replicates=6,
                out=str(tmp_path),
            ))
        finally:
            sampler._axis_factor.cache_clear()
        assert sorted(calls) == [(0.6, 4), (0.8, 4)]

    @staticmethod
    def pooling_peaks(monkeypatch, tmp_path, d, N, workers):
        """Bytes the sample arrays take, and a moment-scaling run's tracemalloc
        peaks while pooling and in all, on ``workers`` cores; 20 replicates."""
        monkeypatch.setattr(sampler, "_cores", lambda: workers)
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
        samples = 8 * reps * sum(1 << (n * d) for n in cfg._moment_gens())
        return samples, pooled_peak, peak

    @pytest.mark.parametrize("d, N", [(1, 10), (2, 8), (3, 4)])
    def test_memory_within_samples_and_one_sheet(self, monkeypatch, tmp_path, d, N):
        # Pooling holds the sample arrays, one sheet and its tiled pyramid, whose
        # pieces go straight into the samples; the fit then holds the samples
        # and |x|^q of one block of at most 2^16 values, which the pooling bound
        # covers at these sizes.
        samples, pooled_peak, peak = self.pooling_peaks(monkeypatch, tmp_path, d, N, 1)
        sheet = 8 * ((1 << N) + 1) ** d + _pyramid_bytes(d, N)
        slack = 1 << 18
        assert pooled_peak <= samples + sheet + slack
        assert peak <= samples + sheet + slack

    @pytest.mark.parametrize("d, N", [(1, 10), (2, 8), (3, 4)])
    def test_memory_within_samples_and_a_sheet_per_worker(self, monkeypatch, tmp_path, d, N):
        # Two workers each hold one sheet and its pyramid.
        samples, pooled_peak, peak = self.pooling_peaks(monkeypatch, tmp_path, d, N, 2)
        sheet = 8 * ((1 << N) + 1) ** d + _pyramid_bytes(d, N)
        slack = 1 << 18
        assert pooled_peak <= samples + 2 * sheet + slack
        assert peak <= samples + 2 * sheet + slack

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("d, N", [(1, 12), (2, 7), (3, 5)])
    def test_pooled_rows_match_the_oracle_pyramid(self, d, N, small_tiles):
        # A grid with NaN, infinities and -0.0, on tiles of 2^(3+d) to 2^(9+d)
        # cells: every pooled generation, the finest and generation 0 included.
        f = scattered_grid(d, N, seed=d)
        want = lex_increment_levels(f.values)
        gens = (0, 1, N - 3, N)
        samples = {n: np.full((3, 1 << (n * d)), 7.0) for n in gens}
        experiment._pool_levels(f.values, samples, 1, _Workspace())
        for n in gens:
            got, row = samples[n][1], lex_to_morton(want[n])
            assert np.array_equal(got.view(np.int64), row.view(np.int64)), n
            assert (samples[n][[0, 2]] == 7.0).all()


class TestHolderScanRunner:
    def test_one_pyramid_per_seed(self, monkeypatch, tmp_path):
        calls = []
        pyramid = criteria._tiled_pyramid
        monkeypatch.setattr(
            criteria, "_tiled_pyramid",
            lambda v, stop, ws: calls.append(stop) or pyramid(v, stop, ws),
        )
        cfg = ExperimentConfig(
            subcommand="holder-scan", d=2, N=4, gamma=(0.5, 0.7, 1), seeds=(1, 2),
            out=str(tmp_path),
        )
        experiment.run(cfg)
        assert calls == [0, 0]


def counterexample_outputs(out):
    """Every file a counterexample run wrote but its manifest, which names ``out``."""
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "manifest.json"}


class TestCounterexampleRunner:
    def test_outputs_do_not_depend_on_the_workers(self, monkeypatch, tmp_path):
        # 7 seeds: with 3 workers, worker 0 scans seeds 0, 3 and 6, the others two
        # each.  Threads switch every 10 us instead of every 5 ms.
        written = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for cores in (1, 2, 3):
                monkeypatch.setattr(sampler, "_cores", lambda: cores)
                out = tmp_path / str(cores)
                experiment.run(ExperimentConfig(
                    subcommand="counterexample", d=3, N=5, n=1, seeds=range(7), out=str(out),
                ))
                written.append(counterexample_outputs(out))
        finally:
            sys.setswitchinterval(interval)
        assert written[0] == written[1] == written[2]
        assert len(written[0]) == 7 + 2
        for seed in range(7):  # and the figures of whole sheets, in seed order
            fig, _ = counterexample_figure(sample_standard_sheet(3, 5, seed), 1, 4, 0.5)
            assert written[0][f"counterexample_figure_seed{seed}.json"] == (
                fig.to_json() + "\n"
            ).encode()
        rows = written[0]["counterexample.csv"].decode().splitlines()[1:]
        assert [int(r.split(",")[0]) for r in rows] == list(range(7))

    def test_worker_error_raised_after_every_worker_ends(self, monkeypatch, tmp_path):
        # Seed 1, worker 1's first, fails once workers 0 and 2 are drawing their
        # first seeds; they end those and stop, so seeds 3.. are never drawn.
        failed = threading.Event()
        drawn = []
        real = experiment.sample_standard_sheet

        def draw(d, gen, seed, **kw):
            drawn.append(seed)
            if seed == 1:
                while len(drawn) < 3:
                    time.sleep(0.001)
                failed.set()
                raise RuntimeError("seed 1")
            assert failed.wait(60)
            time.sleep(0.05)  # for worker 1 to record its error
            return real(d, gen, seed, **kw)

        monkeypatch.setattr(sampler, "_cores", lambda: 3)
        monkeypatch.setattr(experiment, "sample_standard_sheet", draw)
        baseline = threading.active_count()
        with pytest.raises(RuntimeError, match="seed 1"):
            experiment.run(ExperimentConfig(
                subcommand="counterexample", d=2, N=4, n=1, seeds=range(9), out=str(tmp_path),
            ))
        assert sorted(drawn) == [0, 1, 2]
        assert threading.active_count() == baseline
        assert not (tmp_path / "counterexample.csv").exists()

    def test_pooled_run_starts_no_noise_thread(self, monkeypatch, tmp_path):
        # Two noise tiles per layer on two cores: a whole draw would pool them, but
        # a slab inside a pooled worker draws inline, with no nested pool.
        started = []
        thread = threading.Thread

        class Named(thread):
            def start(self):
                started.append(self.name)
                super().start()

        monkeypatch.setattr(sampler, "_cores", lambda: 2)
        monkeypatch.setattr(threading, "Thread", Named)
        experiment.run(ExperimentConfig(
            subcommand="counterexample", d=2, N=9, n=1, seeds=(0, 1, 2), out=str(tmp_path),
        ))
        assert started == ["counterexample-1"]

    def test_thin_slab_of_a_deep_grid_draws_its_own_tiles(self, tmp_path):
        # d = 1, N = 60 has 2^45 noise tiles and the slab reaches one: a draw that
        # looked at every tile would not end.
        cfg = ExperimentConfig(
            subcommand="counterexample", d=1, N=60, n=59, seeds=(0, 1), out=str(tmp_path)
        )
        runner = threading.Thread(target=experiment.run, args=(cfg,), daemon=True)
        runner.start()
        runner.join(60)
        assert not runner.is_alive(), "the run did not end"
        rows = (tmp_path / "counterexample.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == ["0", "1"]

    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize("d, N, n", [(2, 9, 1), (3, 7, 2)])
    def test_pooled_run_peaks_within_the_estimate(self, monkeypatch, tmp_path, d, N, n, cores):
        # The estimate counts arrays only: Python objects, such as the figures'
        # cubes and the workers' threads, come on top.  A first run imports and
        # caches what any run would.
        monkeypatch.setattr(sampler, "_cores", lambda: cores)
        cfg = ExperimentConfig(
            subcommand="counterexample", d=d, N=N, n=n, seeds=range(4), out=str(tmp_path)
        )
        experiment.run(cfg)
        tracemalloc.start()
        try:
            experiment.run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cfg._memory_estimate() + (1 << 18)
