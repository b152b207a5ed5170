import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from sheetcharge import criteria, increments
from sheetcharge.criteria import (
    CriterionReport,
    _level_max_abs,
    _streamed_bytes,
    _streamed_report,
    build_report,
    moment_scaling_fit,
)
from sheetcharge.increments import CoefficientTable, GridSample, coefficient_table
from sheetcharge.sampler import sample_sheet, sample_standard_sheet

from helpers import (
    awkward_grid,
    criterion_a_statistic,
    criterion_b_partial_sums,
    criterion_b_terms,
    dichotomy_statistics,
    holder_ratio,
    holder_ratio_by_level,
    product_grid,
    scattered_grid,
    zero_grid,
)
from oracles import REPORT_STATS, HaarIndex, haar_primitive_grid, lex_increment_levels


def table_from_levels(d, levels):
    return CoefficientTable(d, len(levels) - 1, 0.0, tuple(levels))


def zero_levels(d, max_gen):
    return [np.zeros((1 << (n * d), (1 << d) - 1)) for n in range(max_gen + 1)]


class TestCriterionA:
    def test_zero_table(self):
        tab = table_from_levels(2, zero_levels(2, 3))
        for n in range(4):
            assert criterion_a_statistic(tab, n) == 0.0

    @pytest.mark.parametrize("d,n", [(1, 2), (2, 2), (2, 3), (3, 1)])
    def test_constant_type_one_column(self, d, n):
        levels = zero_levels(d, n)
        levels[n][:, 0] = 1.0
        tab = table_from_levels(d, levels)
        assert criterion_a_statistic(tab, n) == pytest.approx(2.0 ** (n * (d / 2 - 1)))

    def test_standard_sheet_concentrates_near_half_normal_mean(self):
        vals = []
        for seed in range(5):
            f = sample_standard_sheet(2, 7, seed)
            tab = coefficient_table(f, 6)
            vals.append(criterion_a_statistic(tab, 6))
        # statistic >= per-type mean; for d=2 the r=1 term alone averages
        # sqrt(2/pi), and the max over types adds little at this depth
        assert np.mean(vals) == pytest.approx(np.sqrt(2 / np.pi), abs=0.05)


class TestDichotomyStatistics:
    def test_equal_coefficients(self):
        levels = zero_levels(2, 2)
        levels[2][:, :] = 0.25
        tab = table_from_levels(2, levels)
        t, s = dichotomy_statistics(tab, 2)
        assert t == pytest.approx(0.25)
        assert s == pytest.approx(0.25)  # d = 2 leaves the exponent at zero

    def test_d3_rescaling(self):
        levels = zero_levels(3, 1)
        levels[1][:, 0] = 1.0
        tab = table_from_levels(3, levels)
        t, s = dichotomy_statistics(tab, 1)
        assert t == pytest.approx(1.0)
        assert s == pytest.approx(2.0 ** (3 / 2 - 1))

    def test_standard_sheet_half_normal_mean_and_variance(self):
        # per-path concentration: |T - sqrt(2/pi)| <= 4 sd(T) at n = 6
        bound = 4 * np.sqrt((1 - 2 / np.pi) / 2.0**12)
        for seed in range(5):
            f = sample_standard_sheet(2, 7, seed)
            tab = coefficient_table(f, 6)
            t, _ = dichotomy_statistics(tab, 6)
            assert abs(t - np.sqrt(2 / np.pi)) <= bound


class TestCriterionB:
    def test_zero_table(self):
        tab = table_from_levels(2, zero_levels(2, 3))
        assert np.all(criterion_b_partial_sums(tab) == 0.0)

    def test_single_haar_primitive_is_one_term(self):
        grid = haar_primitive_grid(HaarIndex(2, 1, 2, 3), 4)
        f = GridSample(2, 4, grid)
        tab = coefficient_table(f, 3)
        terms = criterion_b_terms(tab)
        assert terms[1] == pytest.approx(1.0)  # 2^{n(d/2-1)} = 1 at d = 2
        assert terms[0] == terms[2] == terms[3] == pytest.approx(0.0, abs=1e-12)
        sums = criterion_b_partial_sums(tab)
        assert sums[-1] == pytest.approx(terms[1])

    @pytest.mark.parametrize("gamma", [0.6, 0.8, 1.0])
    def test_holder_grid_bound_controls_terms(self, gamma):
        # arithmetic chain: a per-cube increment bound C|K|^gamma forces the
        # level-n series term below C 2^{d(1-gamma)} 2^{n(d-1-d*gamma)}
        f = sample_standard_sheet(2, 5, seed=13)
        d, M = 2, 4
        tab = coefficient_table(f, M)
        terms = criterion_b_terms(tab)
        for n in range(M + 1):
            c = holder_ratio(f, gamma, n + 1)
            bound = c * 2.0 ** (d * (1 - gamma)) * 2.0 ** (n * (d - 1 - d * gamma))
            assert terms[n] <= bound * (1 + 1e-12)


class TestSandwich:
    @pytest.mark.parametrize("d", [1, 2])
    def test_a_statistic_below_b_term(self, d):
        # pure arithmetic: the divergence-side statistic never exceeds the
        # convergence-side term, a fortiori not the slack-factor bound
        rng = np.random.default_rng(7)
        levels = [
            rng.standard_normal((1 << (n * d), (1 << d) - 1)) for n in range(4)
        ]
        tab = table_from_levels(d, levels)
        terms = criterion_b_terms(tab)
        for n in range(4):
            a = criterion_a_statistic(tab, n)
            assert a <= terms[n] * (1 + 1e-12)
            assert a <= ((1 << d) - 1) * 2.0 ** (2 * n) * terms[n] * (1 + 1e-12)


class TestScalingEquivariance:
    def test_all_statistics_scale(self):
        f = sample_standard_sheet(2, 5, seed=3)
        c = -2.5
        g = GridSample(2, 5, c * np.asarray(f.values))
        tf = coefficient_table(f, 4)
        tg = coefficient_table(g, 4)
        for n in range(5):
            assert criterion_a_statistic(tg, n) == pytest.approx(
                abs(c) * criterion_a_statistic(tf, n)
            )
            t0, s0 = dichotomy_statistics(tf, n)
            t1, s1 = dichotomy_statistics(tg, n)
            assert (t1, s1) == (pytest.approx(abs(c) * t0), pytest.approx(abs(c) * s0))
        assert np.allclose(criterion_b_terms(tg), abs(c) * criterion_b_terms(tf))
        assert holder_ratio(g, 0.7, 4) == pytest.approx(abs(c) * holder_ratio(f, 0.7, 4))


class TestHolderRatio:
    def test_product_function_ratio_is_one(self):
        f = product_grid(2, 4)
        levels = holder_ratio_by_level(f, 1.0, 3)
        assert np.allclose(levels, 1.0)
        assert holder_ratio(f, 1.0, 3) == pytest.approx(1.0)

    def test_zero_function(self):
        assert holder_ratio(zero_grid(2, 3), 0.7, 2) == 0.0

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            holder_ratio(zero_grid(2, 3), 0.0, 2)

    def test_fractional_per_level_decay_matches_order_statistics(self):
        # oracle: the level-n max of 2^(nd) centered Gaussians of standard
        # deviation |K|^Hbar sits near sigma * sqrt(2 ln 2^(nd)), so the
        # ratio behaves like 2^(-nd(Hbar-gamma)) times that log factor
        from sheetcharge.sampler import sample_sheet_ensemble

        hbar, gamma, d = 0.9, 0.7, 2
        for seed in (0, 1):
            f = next(iter(sample_sheet_ensemble((0.9, 0.9), 9, seed, 1)))
            levels = holder_ratio_by_level(f, gamma, 8)
            for n in range(4, 9):
                predicted = 2.0 ** (-n * d * (hbar - gamma)) * np.sqrt(
                    2 * n * d * np.log(2)
                )
                assert 0.4 * predicted <= levels[n] <= 2.5 * predicted


HOLDER_GRIDS = [
    pytest.param(sample_standard_sheet(1, 12, seed=30), id="standard-d1"),
    pytest.param(sample_sheet((0.6, 0.9), 7, seed=31), id="fractional-d2"),
    pytest.param(sample_standard_sheet(2, 9, seed=32), id="standard-d2"),
    pytest.param(sample_standard_sheet(3, 5, seed=33), id="standard-d3"),
] + [pytest.param(scattered_grid(d, gen, seed=d), id=f"nonfinite-d{d}")
     for d, gen in [(1, 12), (2, 7), (3, 5)]]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestLevelMaxima:
    """holder-scan's per-generation maxima of |increment|, read off the Morton pieces,
    against the whole lexicographic levels of the oracle pyramid, bit for bit."""

    @staticmethod
    def assert_maxima(f, max_gen):
        want = [float(np.abs(cells).max()) for cells in lex_increment_levels(f.values, max_gen)]
        got = _level_max_abs(f, max_gen)
        assert [type(x) for x in got] == [float] * (max_gen + 1)
        assert np.array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64))

    @pytest.mark.parametrize("f", HOLDER_GRIDS)
    def test_every_horizon(self, f):
        for max_gen in range(f.gen):
            self.assert_maxima(f, max_gen)

    @pytest.mark.parametrize("f", HOLDER_GRIDS)
    def test_small_tiles(self, f, small_tiles):
        self.assert_maxima(f, f.gen - 1)

    def test_a_nan_is_kept_whichever_piece_holds_it(self):
        # the NaN in the first tile, in the last, or in no tile: -0.0 and zeros elsewhere
        for where in (0, -1, None):
            cells = np.zeros((1 << 9,) * 2)
            cells[0, 0] = -0.0
            if where is not None:
                cells.reshape(-1)[where] = np.nan
            values = np.zeros((513, 513))
            values[1:, 1:] = cells.cumsum(axis=0).cumsum(axis=1)
            got = _level_max_abs(GridSample(2, 9, values), 8)
            assert all(np.isnan(got)) if where is not None else got == [0.0] * 9

    def test_pass_holds_at_most_0_15_grid_above_the_grid(self):
        # The whole pyramid is never built: a tile, its shares, the whole levels
        # from generation 6 down and |cells| of one piece.
        f = zero_grid(2, 11)
        tracemalloc.start()
        try:
            _level_max_abs(f, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.15 * f.values.nbytes


MOMENT_ORDERS = (0.25, 1 / 3, 0.5, 1, 1.5, 2, 2.5, 3, 7)


class TestMomentScaling:
    @pytest.mark.parametrize("q", MOMENT_ORDERS)
    def test_moments_match_out_of_place_power_bit_for_bit(self, q):
        tiny = np.finfo(float).smallest_subnormal
        rng = np.random.default_rng(3)

        def spiked(size, *values):
            # above one 2^16-value block of the fit's sum, with values at random places
            x = rng.standard_normal(size) * np.exp(rng.standard_normal(size))
            x[rng.choice(size, len(values), replace=False)] = values
            return x

        samples = {
            0: rng.standard_normal(1000) * 0.5,
            1: np.array([0.0, -0.0, 0.0]),
            2: np.array([-0.0, tiny, -tiny, 3 * tiny, 1e-310, -2.2e-308]),
            3: np.array([1e300, -1e200, 2.0, np.finfo(float).max]),  # overflows for q > 1
            4: np.concatenate([rng.standard_normal(257) * 1e-160, [-0.0, tiny, 1e160]]),
            5: spiked(65_537, -0.0, tiny, -3 * tiny, np.finfo(float).max),  # overflows for q > 1
            6: spiked(3 * 2**16 + 5, -0.0, -0.0, tiny, 1e-310),
            7: spiked(200 * 2**14, -0.0, tiny, -2.2e-308, 1e40),
        }
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")  # infinite moments leave the slope NaN
            fit = moment_scaling_fit(samples, q, 1, min_count=1)
            want = [np.log2(np.mean(np.abs(samples[n]) ** q)) for n in samples]
        got = [log2_moment for _, _, log2_moment, _ in fit.points]
        assert np.array(got).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("q", MOMENT_ORDERS)
    def test_blocked_sum_is_numpy_sum_bit_for_bit(self, q):
        # Magnitudes of one scale, so every addition rounds and a sum in any
        # other order than numpy's misses its last bits, at one size or another.
        rng = np.random.default_rng(11)
        sizes = [2**16, 2**16 + 1] + [2**16 + 4 + 594 * k for k in range(11)]
        for size in sizes + [2**17 + 8, 3 * 2**16 + 5, 200 * 2**14 + 3]:
            x = rng.uniform(0.5, 1.5, size) * rng.choice([-1.0, 1.0], size)
            got = criteria._abs_power_sum(x, q)
            assert got.tobytes() == np.sum(np.abs(x) ** q).tobytes(), size

    def test_deterministic_volume_increments(self):
        # increments exactly |K| at every generation: slope 1, no residual
        samples = {n: np.full(64, 2.0 ** (-2 * n)) for n in range(2, 6)}
        fit = moment_scaling_fit(samples, 1.0, 2)
        assert fit.slope == pytest.approx(1.0)
        assert fit.delta_hat == pytest.approx(0.0)
        xs = np.array([p[1] for p in fit.points])
        ys = np.array([p[2] for p in fit.points])
        assert np.allclose(ys, fit.slope * xs + (ys - fit.slope * xs).mean())

    def test_standard_sheet_second_moment_slope(self):
        from sheetcharge.increments import cube_increments

        pooled = {n: [] for n in range(2, 6)}
        for rep in range(60):
            f = sample_standard_sheet(2, 6, seed=19, replicate=rep)
            for n in pooled:
                pooled[n].append(cube_increments(f, n))
        samples = {n: np.concatenate(v) for n, v in pooled.items()}
        fit = moment_scaling_fit(samples, 2.0, 2)
        assert fit.slope == pytest.approx(1.0, abs=0.05)

    def test_small_generations_excluded(self):
        samples = {0: np.ones(4), 1: np.ones(64), 2: np.ones(64), 3: np.ones(64)}
        fit = moment_scaling_fit(samples, 2.0, 2)
        assert fit.excluded == (0,)

    def test_needs_two_generations(self):
        with pytest.raises(ValueError):
            moment_scaling_fit({2: np.ones(64)}, 2.0, 2)

    def test_q_validation(self):
        with pytest.raises(ValueError):
            moment_scaling_fit({2: np.ones(64), 3: np.ones(64)}, 0.0, 2)


class TestReport:
    def test_length_validation(self):
        with pytest.raises(ValueError):
            CriterionReport(2, 2, (0.0,), (0.0,) * 3, (0.0,) * 3, (0.0,) * 3, (0.0,) * 3)

    @staticmethod
    def reference_report(tab):
        """Every report field from the per-statistic functions, one call each."""
        gens = range(tab.max_gen + 1)
        ts = [dichotomy_statistics(tab, n) for n in gens]
        return {
            "criterion_a": tuple(criterion_a_statistic(tab, n) for n in gens),
            "b_terms": tuple(criterion_b_terms(tab)),
            "b_partial_sums": tuple(criterion_b_partial_sums(tab)),
            "t_stats": tuple(t for t, _ in ts),
            "s_stats": tuple(s for _, s in ts),
        }

    @pytest.mark.parametrize(
        "tab",
        [
            coefficient_table(sample_standard_sheet(1, 9, seed=0), 8),
            coefficient_table(sample_standard_sheet(2, 6, seed=1), 5),
            coefficient_table(sample_standard_sheet(3, 4, seed=2), 3),
            coefficient_table(sample_sheet((0.6, 0.9), 5, seed=3), 4),
            table_from_levels(2, zero_levels(2, 3)),
            table_from_levels(1, [np.array([[np.nan]]), np.array([[-0.0], [np.inf]])]),
        ],
        ids=["d1", "d2", "d3", "fractional", "zero", "nonfinite"],
    )
    def test_bit_identical_to_per_statistic_functions(self, tab):
        rep = build_report(tab)
        for name, want in self.reference_report(tab).items():
            got = getattr(rep, name)
            assert [type(x) for x in got] == [type(x) for x in want], name
            assert np.array_equal(
                np.array(got).view(np.int64), np.array(want).view(np.int64)
            ), name


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestStreamedReport:
    """The one-pass report against build_report(coefficient_table(...)), bit for bit."""

    @pytest.mark.parametrize(
        "f, max_gen",
        [
            (sample_standard_sheet(1, 3, seed=0), 2),
            # levels of 2^15 rows (row chunks) and of exactly 2^14 rows (one product)
            (sample_standard_sheet(1, 16, seed=1), 15),
            (sample_standard_sheet(1, 16, seed=2), 14),
            (sample_standard_sheet(2, 9, seed=3), 8),
            (sample_standard_sheet(2, 9, seed=4), 5),
            (sample_sheet((0.6, 0.9), 9, seed=5), 8),
            (sample_standard_sheet(3, 1, seed=6), 0),
            (sample_standard_sheet(3, 6, seed=7), 5),
            (sample_sheet((0.7, 0.8, 0.9), 5, seed=8), 3),
            (zero_grid(2, 4), 3),
            (zero_grid(3, 2), 1),
            (awkward_grid(1, 6, seed=9), 5),
            (awkward_grid(2, 4, seed=10), 3),
            (awkward_grid(3, 3, seed=11), 1),
            # several Morton tiles of 2^(14+d) cells: 4 at d1 N17, 16 at d2 N10 and d3 N7
            (awkward_grid(1, 17, seed=12), 16),
            (awkward_grid(2, 10, seed=13), 9),
            (awkward_grid(3, 7, seed=14), 6),
        ],
        ids=[
            "d1", "d1-chunked", "d1-one-product", "d2-chunked", "d2-M-below",
            "d2-fractional", "d3-level-0", "d3-chunked", "d3-fractional", "d2-zero",
            "d3-zero", "d1-nonfinite", "d2-nonfinite", "d3-nonfinite", "d1-nonfinite-tiled",
            "d2-nonfinite-tiled", "d3-nonfinite-tiled",
        ],
    )
    def test_bit_identical_to_table_report(self, f, max_gen):
        got = _streamed_report(f, max_gen)
        want = build_report(coefficient_table(f, max_gen))
        for name in REPORT_STATS:
            a, b = getattr(got, name), getattr(want, name)
            assert [type(x) for x in a] == [type(x) for x in b], name
            assert np.array_equal(np.array(a).view(np.int64), np.array(b).view(np.int64)), name
        assert (got.dim, got.max_gen) == (want.dim, want.max_gen)

    @pytest.mark.parametrize("chunk_bits", [3, 7, 9])
    @pytest.mark.parametrize(
        "f",
        [
            pytest.param(sample_standard_sheet(1, 12, seed=20), id="standard-d1"),
            pytest.param(sample_sheet((0.7,), 12, seed=21), id="fractional-d1"),
            pytest.param(sample_standard_sheet(2, 7, seed=22), id="standard-d2"),
            pytest.param(sample_sheet((0.6, 0.9), 7, seed=23), id="fractional-d2"),
            pytest.param(sample_standard_sheet(3, 5, seed=24), id="standard-d3"),
            pytest.param(sample_sheet((0.7, 0.8, 0.9), 5, seed=25), id="fractional-d3"),
            pytest.param(sample_standard_sheet(4, 4, seed=26), id="standard-d4"),
            pytest.param(sample_sheet((0.6, 0.7, 0.8, 0.9), 4, seed=27), id="fractional-d4"),
        ]
        + [pytest.param(scattered_grid(d, gen, seed=d), id=f"nonfinite-d{d}")
           for d, gen in [(1, 12), (2, 7), (3, 5), (4, 4)]],
    )
    def test_small_tiles_bit_identical_for_every_horizon(self, monkeypatch, f, chunk_bits):
        # 16 to 32 tiles of the children of 2^7 parents (3 tiles as 7 does) or 8 of
        # 2^9: generations summed inside the tiles in blocks of 2^7 rows and more,
        # whole levels in blocks of 2^7 or 2^9 rows and in single smaller blocks.
        monkeypatch.setattr(increments, "_CHUNK_BITS", chunk_bits)
        monkeypatch.setattr(increments, "_CHUNK_ROWS", 1 << chunk_bits)
        for max_gen in range(f.gen):
            got = _streamed_report(f, max_gen)
            want = build_report(coefficient_table(f, max_gen))
            for name in REPORT_STATS:
                a, b = np.array(getattr(got, name)), np.array(getattr(want, name))
                assert np.array_equal(a.view(np.int64), b.view(np.int64)), (max_gen, name)

    @pytest.mark.parametrize(
        "max_gen, message", [(3, "need grid generation > 3, got 3"), (-1, "generation -1 is below 0")]
    )
    def test_horizon_validated_as_the_table_is(self, max_gen, message):
        for compute in (_streamed_report, coefficient_table):
            with pytest.raises(ValueError, match=message):
                compute(zero_grid(2, 3), max_gen)

    def test_peak_at_most_a_quarter_grid_above_the_grid(self):
        # Neither the finest generations nor a whole |type-1| column exists:
        # the pass holds about a tile's arrays, 0.06 grids.
        f = sample_standard_sheet(2, 11, seed=0)
        tracemalloc.start()
        try:
            _streamed_report(f, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * f.values.nbytes

    @pytest.mark.parametrize("d", [10, 11])
    def test_peak_within_the_estimate_where_the_sign_matrix_dominates(self, d):
        # At N = 1 the float64 sign matrix (8 * 4^d bytes) and the int8 one it is
        # cast from outweigh the grid and its one small tile.
        f = zero_grid(d, 1)
        tracemalloc.start()
        try:
            _streamed_report(f, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 8 * 4**d <= peak <= _streamed_bytes(d, 1, 0)

    @pytest.mark.skipif(
        sys.version_info < (3, 11),
        reason="before 3.11 the caller holds a temporary argument until the call returns",
    )
    def test_sheet_handed_over_is_freed_after_its_finest_level(self):
        # Draw and pass together hold at most about two grids: the grid goes
        # once its last tile is differenced, before any whole level is summed.
        grid = 8 * ((1 << 11) + 1) ** 2
        sample_sheet((0.9, 0.9), 11, seed=0)  # factors the kernel outside the trace
        tracemalloc.start()
        try:
            _streamed_report(sample_sheet((0.9, 0.9), 11, seed=1), 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * grid

    @pytest.mark.skipif(
        sys.version_info < (3, 11),
        reason="before 3.11 the caller holds a temporary argument until the call returns",
    )
    def test_white_noise_sheet_handed_over_peaks_below_1_2_grids(self):
        # The draw holds one grid; the pass adds about a tile's arrays (0.06
        # grids) while the grid is alive, and the grid goes after the last tile.
        grid = 8 * ((1 << 11) + 1) ** 2
        tracemalloc.start()
        try:
            _streamed_report(sample_standard_sheet(2, 11, seed=1), 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * grid
