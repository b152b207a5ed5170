import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from sheetcharge.criteria import _streamed_report
from sheetcharge.dyadic import DyadicCube, lex_to_morton
from sheetcharge.haar import haar_matrix
from sheetcharge.increments import (
    BottomSlab,
    CoefficientTable,
    GridSample,
    _coarsen,
    _morton_tile,
    _pyramid_bytes,
    _tile_bits,
    _tile_order,
    _tiled_pyramid,
    _Workspace,
    coefficient_table,
    cube_increments,
    increment_levels,
)
from sheetcharge.sampler import sample_sheet, sample_standard_sheet

from helpers import (
    awkward_grid,
    integer_grid,
    product_grid,
    scattered_grid,
    zero_grid,
)
from oracles import (
    REPORT_STATS,
    corner_sum_cells,
    exact_coefficient_table,
    exact_report,
    haar_indices_up_to,
    haar_primitive_grid,
    lex_cells,
    lex_coarsen,
    lex_increment_levels,
    rectangle_increment,
)


def reference_coefficient_levels(f, max_gen):
    """The per-level loop of coefficient_table with every array kept alive."""
    d = f.dim
    mat = haar_matrix(d)
    levels = []
    by_gen = lex_increment_levels(f.values, max_gen + 1)
    for n in range(max_gen + 1):
        child = lex_to_morton(by_gen[n + 1]).reshape(1 << (n * d), 1 << d)
        full = child @ mat.astype(float)
        levels.append(full[:, 1:] * 2.0 ** (n * d / 2.0))
    return levels


class TestGridSample:
    def test_boundary_must_vanish(self):
        vals = np.ones((3, 3))
        with pytest.raises(ValueError):
            GridSample(2, 1, vals)

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            GridSample(2, 2, np.zeros((3, 3)))

    @pytest.mark.parametrize("hurst", [(0.5,), (0.5, 0.6, 0.7)])
    def test_hurst_length_checked(self, hurst):
        # save_grid packs one Hurst component per axis
        with pytest.raises(ValueError, match="hurst must have 2 components"):
            GridSample(2, 1, np.zeros((3, 3)), hurst=hurst)

    def test_values_frozen(self):
        f = zero_grid(2, 1)
        with pytest.raises(ValueError):
            f.values[0, 0] = 1.0

    def test_writeable_input_copied(self):
        vals = np.multiply.outer(np.arange(5.0), np.arange(5.0))
        f = GridSample(2, 2, vals)
        vals[2, 2] = -1.0
        assert f.values[2, 2] == 4.0 and f.values is not vals

    def test_read_only_view_copied(self):
        # read-only, but its base is writeable and may still change
        base = np.multiply.outer(np.arange(5.0), np.arange(5.0))
        view = base[:]
        view.flags.writeable = False
        f = GridSample(2, 2, view)
        base[1, 1] = -1.0
        assert f.values[1, 1] == 1.0
        assert f.values.base is None and not f.values.flags.writeable

    def test_read_only_owner_taken_over(self):
        vals = np.multiply.outer(np.arange(5.0), np.arange(5.0))
        vals.flags.writeable = False
        assert GridSample(2, 2, vals).values is vals


@pytest.mark.parametrize(
    "cls, shape", [(GridSample, (5, 5)), (BottomSlab, (5, 3))], ids=["grid", "slab"]
)
class TestGridChecks:
    """What GridSample and BottomSlab reject before they look at the shape."""

    @pytest.mark.parametrize(
        "dtype", [np.int64, np.float32, np.bool_, np.complex128, ">f8", object],
        ids=["int64", "float32", "bool", "complex128", "big-endian-float64", "object"],
    )
    def test_values_other_than_float64_rejected(self, cls, shape, dtype):
        # not cast: a cast would round a Fraction or an integer above 2^53
        vals = np.zeros(shape, dtype=dtype)
        with pytest.raises(ValueError, match=f"must be float64, got dtype {vals.dtype}"):
            cls(2, 2, vals)

    @pytest.mark.parametrize(
        "dim, gen, values, message",
        [
            (0, 3, np.array(5.0), "dim must be >= 1, got 0"),
            (-1, 1, np.zeros(3), "dim must be >= 1, got -1"),
            (2, -1, np.zeros((2, 2)), "gen must be >= 0, got -1"),
        ],
        ids=["dim-0", "dim-negative", "gen-negative"],
    )
    def test_dimension_and_generation_checked(self, cls, shape, dim, gen, values, message):
        with pytest.raises(ValueError, match=message):
            cls(dim, gen, values)


class TestCubeIncrements:
    def test_telescopes_to_corner_value(self):
        f = sample_standard_sheet(2, 5, seed=3)
        total = cube_increments(f, 5).sum()
        assert total == pytest.approx(f.corner_value(), rel=1e-12)

    def test_matches_corner_formula_cube_by_cube(self):
        f = sample_standard_sheet(2, 4, seed=9)
        for n in (0, 1, 2, 3):
            arr = cube_increments(f, n)
            for k in range(arr.size):
                cube = DyadicCube(2, n, k)
                assert arr[k] == pytest.approx(
                    rectangle_increment(f.values, cube.box()), rel=1e-12, abs=1e-14
                )

    def test_product_function_generation_one(self):
        f = product_grid(2, 4)
        assert np.allclose(cube_increments(f, 1), 0.25)

    def test_children_aggregation_float(self):
        f = sample_standard_sheet(2, 6, seed=1)
        for n in range(5):
            coarse = cube_increments(f, n)
            fine = cube_increments(f, n + 1).reshape(-1, 4).sum(axis=1)
            assert np.allclose(coarse, fine, rtol=1e-12, atol=1e-14)

    def test_generation_beyond_grid_rejected(self):
        f = zero_grid(2, 2)
        with pytest.raises(ValueError):
            cube_increments(f, 3)

    def test_negative_generation_rejected(self):
        with pytest.raises(ValueError, match="generation -1 is below 0"):
            cube_increments(zero_grid(2, 2), -1)


class TestCoefficientTable:
    def test_product_function_coefficients_vanish(self):
        f = product_grid(2, 4)
        tab = coefficient_table(f, 3)
        assert tab.a_minus1 == pytest.approx(1.0)
        for n in range(4):
            assert np.allclose(tab.level(n), 0.0, atol=1e-14)

    @pytest.mark.parametrize("d", [1, 2])
    def test_biorthogonal_to_haar_primitives(self, d):
        # the table of a primitive is the unit vector at its own index, up to the
        # rounding of the primitive's irrational values at odd n*d
        for idx in haar_indices_up_to(d, 2)[1:]:
            tab = coefficient_table(GridSample(d, 3, haar_primitive_grid(idx, 3)), 2)
            assert tab.a_minus1 == 0
            for n in range(3):
                lev = tab.level(n)
                want = np.zeros(lev.shape)
                if n == idx.gen:
                    want[idx.cube, idx.type - 1] = 1.0
                assert np.allclose(lev, want, rtol=0, atol=1e-15)

    def test_exceptional_coefficient_is_corner(self):
        f = sample_standard_sheet(2, 4, seed=8)
        tab = coefficient_table(f, 2)
        assert tab.a_minus1 == f.corner_value()

    def test_standard_sheet_coefficients_standard_normal(self):
        # across replicates each coefficient has mean ~0 and variance ~1
        reps = 400
        samples = np.empty((reps, 9))
        for rep in range(reps):
            f = sample_standard_sheet(2, 4, seed=100, replicate=rep)
            tab = coefficient_table(f, 1)
            samples[rep] = np.concatenate(
                [tab.level(0).reshape(-1), tab.level(1)[0], tab.level(1)[3]]
            )
        mean = samples.mean(axis=0)
        var = samples.var(axis=0)
        assert np.all(np.abs(mean) <= 3.0 / np.sqrt(reps))
        assert np.all(np.abs(var - 1.0) <= 3.0 * np.sqrt(2.0 / reps))

    def test_horizon_validation(self):
        f = zero_grid(2, 3)
        with pytest.raises(ValueError):
            coefficient_table(f, 3)

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError, match="generation -1 is below 0"):
            coefficient_table(zero_grid(2, 3), -1)

    def test_shapes_validated(self):
        with pytest.raises(ValueError):
            CoefficientTable(2, 1, 0.0, (np.zeros((1, 3)), np.zeros((4, 2))))

    @pytest.mark.parametrize("count", [1, 3])
    def test_one_level_per_generation(self, count):
        levels = tuple(np.zeros((1 << (2 * n), 3)) for n in range(count))
        with pytest.raises(ValueError, match="one level array per generation"):
            CoefficientTable(2, 1, 0.0, levels)

    @pytest.mark.parametrize("n", [-1, 3])
    def test_level_outside_table_rejected(self, n):
        tab = coefficient_table(zero_grid(2, 4), 2)
        with pytest.raises(ValueError, match=f"generation {n} outside table range 0..2"):
            tab.level(n)

    def test_writeable_levels_copied(self):
        levels = (np.ones((1, 3)), np.ones((4, 3)))
        base = np.ones((8, 3))
        tab = CoefficientTable(2, 2, 0.0, levels + (np.ones((16, 3)),))
        view_tab = CoefficientTable(1, 2, 0.0, (base[:1, :1], base[:2, :1], base[:4, :1]))
        levels[1][0, 0] = 5.0
        base[0, 0] = 5.0
        assert tab.level(1)[0, 0] == 1.0 and view_tab.level(2)[0, 0] == 1.0
        for lev in tab.levels + view_tab.levels:
            assert not lev.flags.writeable and lev.base is None

    def test_read_only_owned_levels_taken_over(self):
        levels = (np.ones((1, 1)), np.ones((2, 1)))
        for lev in levels:
            lev.flags.writeable = False
        tab = CoefficientTable(1, 1, 0.0, levels)
        assert all(a is b for a, b in zip(tab.levels, levels, strict=True))

    def test_computed_levels_read_only(self):
        f = sample_standard_sheet(2, 4, seed=1)
        for lev in coefficient_table(f, f.gen - 1).levels:
            assert not lev.flags.writeable and lev.base is None

    @pytest.mark.parametrize(
        "f",
        [
            sample_standard_sheet(1, 7, seed=2),
            sample_standard_sheet(2, 5, seed=3),
            sample_sheet((0.6, 0.9), 5, seed=4),
            sample_sheet((0.7, 0.8, 0.9), 3, seed=5),
            # finest levels of 2^15 or 2^16 rows, more than one 2^14-row chunk;
            # the d=1 and d=2 sheets also have a level of exactly 2^14 rows
            sample_standard_sheet(1, 16, seed=6),
            sample_standard_sheet(2, 9, seed=7),
            sample_sheet((0.6, 0.9), 9, seed=8),
            sample_standard_sheet(3, 6, seed=9),
        ],
    )
    def test_float_table_bit_identical_to_reference(self, f):
        tab = coefficient_table(f, f.gen - 1)
        for lev, want in zip(tab.levels, reference_coefficient_levels(f, f.gen - 1), strict=True):
            assert lev.dtype == want.dtype and np.array_equal(lev, want)


class TestCoarsen:
    """Sibling sums of a Morton level against the reshape-sum of the lexicographic one."""

    @pytest.mark.parametrize("d,gen", [(1, 1), (1, 6), (2, 1), (2, 5), (3, 1), (3, 3)])
    def test_float_bit_identical_to_reshape_sum(self, d, gen):
        rng = np.random.default_rng(10 * d + gen)
        shape = (1 << gen,) * d
        cells = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        # signed zeros, infinities and NaN keep their reshape-sum bits too
        flat = cells.reshape(-1)
        flat[: min(4, flat.size)] = [-0.0, -0.0, 0.0, np.inf][: min(4, flat.size)]
        if flat.size > 8:
            flat[5:8] = [np.nan, -np.inf, 1e308]
        if flat.size > 16:  # two NaN payloads side by side
            flat[12:14] = np.array([0x7FF8000000000001, 0xFFF8000000000002]).view(float)
        got, want = _coarsen(lex_to_morton(cells), d), lex_to_morton(lex_coarsen(cells))
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("d,gen", [(1, 3), (2, 2), (3, 2)])
    def test_signed_zeros_bit_identical_to_reshape_sum(self, d, gen):
        signs = np.random.default_rng(d).integers(0, 2, (1 << gen,) * d)
        for cells in (np.full((1 << gen,) * d, -0.0), np.where(signs == 1, -0.0, 0.0)):
            got, want = _coarsen(lex_to_morton(cells), d), lex_to_morton(lex_coarsen(cells))
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestIncrementPyramid:
    @pytest.mark.parametrize(
        "f",
        [
            sample_standard_sheet(1, 6, seed=1),
            sample_sheet((0.7, 0.9), 5, seed=2),
            sample_standard_sheet(3, 3, seed=3),
        ],
    )
    def test_one_pyramid_matches_cube_increments(self, f):
        # the lexicographic levels, written piece by piece, against the oracle
        levels, want = increment_levels(f, f.gen), lex_increment_levels(f.values)
        for n in range(f.gen + 1):
            assert np.array_equal(lex_to_morton(levels[n]), cube_increments(f, n))
            assert np.array_equal(levels[n], want[n])

    def test_negative_generation_rejected(self):
        with pytest.raises(ValueError, match="generation -1 is below 0"):
            increment_levels(zero_grid(2, 2), -1)

    def test_generation_beyond_grid_rejected(self):
        with pytest.raises(ValueError, match="generation 3 exceeds grid generation 2"):
            increment_levels(zero_grid(2, 2), 3)

    @pytest.mark.parametrize("gen", [8, 9])
    def test_peak_memory_stays_near_the_levels(self, gen):
        # The levels themselves take 4/3 of the finest one; beside them only the
        # tiled pyramid's arrays, so no whole-grid temporary joins them.
        f = sample_standard_sheet(2, gen, seed=0)
        finest = 8 * 4**gen
        tracemalloc.start()
        try:
            levels = increment_levels(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert levels[-1].nbytes == finest
        assert peak <= finest * 4 // 3 + _pyramid_bytes(2, gen)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestDifference:
    """The Morton tiles, and the levels written from them, against np.diff of the box."""

    # d1 N16 is two tiles, d2 N9 four, d3 N6 two
    GRIDS = [
        awkward_grid(d, gen, seed=d * gen) for d, gen in [(1, 0), (1, 16), (2, 1), (2, 9), (3, 6)]
    ]

    @staticmethod
    def assert_bits(got, want):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("f", GRIDS)
    @pytest.mark.parametrize("morton", [False, True])
    def test_cube_grid(self, f, morton):
        want = lex_cells(f.values)
        got = cube_increments(f, f.gen) if morton else increment_levels(f)[-1]
        self.assert_bits(got, lex_to_morton(want) if morton else want)

    @pytest.mark.parametrize("f", GRIDS)
    def test_bottom_slab(self, f):
        # the cubes of the slab x_d <= 2^-n the counterexample scan differences, for
        # every n: the first generation-n cube and the last one that touches x_d = 0
        d = f.dim
        for n in range(f.gen + 1):
            side = 1 << (f.gen - n)
            for c in (0, (1 << n) - 1):
                box = f.values[(slice(c * side, (c + 1) * side + 1),) * (d - 1)][..., : side + 1]
                pyramid = _tiled_pyramid(box, f.gen - n, _Workspace())
                finest = np.concatenate([cells.copy() for *_, cells in pyramid])
                self.assert_bits(finest, lex_to_morton(lex_cells(box)))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestMortonPyramid:
    """The Morton pyramid against lex_to_morton of the lexicographic one, bit for bit."""

    # 2^15-cell slabs: d1 N16 is two slabs, d2 N9 eight of 64 rows, d3 N5 one,
    # d3 N6 eight of 8 rows; at d=2 the sibling sums run in 2^13-parent chunks:
    # d2 N8's finest parent level is two of them and d2 N9's eight
    SIZES = [(1, 0), (1, 3), (1, 16), (2, 0), (2, 1), (2, 8), (2, 9), (3, 2), (3, 5), (3, 6)]

    @staticmethod
    def assert_bits(got, want):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("d,gen", SIZES)
    def test_finest_level(self, d, gen):
        f = awkward_grid(d, gen, seed=10 * d + gen)
        self.assert_bits(cube_increments(f, f.gen), lex_to_morton(lex_cells(f.values)))

    @pytest.mark.parametrize(
        "f",
        [awkward_grid(d, gen, seed=d + gen) for d, gen in SIZES if d * gen <= 16]
        + [
            sample_sheet((0.6, 0.9), 6, seed=5),
        ],
    )
    def test_every_level_survives_an_overwritten_child(self, f):
        want = [lex_to_morton(level) for level in lex_increment_levels(f.values)]
        seen = []
        for n, lo, cells in _tiled_pyramid(f.values, 0, _Workspace()):
            self.assert_bits(cells, want[n][lo : lo + len(cells)])
            seen.append((n, lo, len(cells)))
            cells[...] = 7  # the parent level was summed before this one was yielded
        # Each tile is yielded with its shares of the generations that hold the
        # children of 2^7 parents or more per tile; every coarser generation whole.
        d, tile, tiles = f.dim, seen[0][2], len(want[f.gen]) // seen[0][2]
        share = [tile >> ((f.gen - m) * d) for m in range(f.gen + 1)]  # a tile's cells of m
        deep = [m for m in range(f.gen, -1, -1) if m == f.gen or share[m] >= 1 << (7 + d)]
        assert [(n, lo) for n, lo, _ in seen] == [
            *((m, t * share[m]) for t in range(tiles) for m in deep),
            *((n, 0) for n in range(deep[-1] - 1, -1, -1)),
        ]

    @pytest.mark.parametrize("d,gen", [(1, 1), (1, 16), (2, 1), (2, 9), (3, 1), (3, 6)])
    def test_sibling_sums_match_lexicographic_coarsening(self, d, gen):
        # cells no grid produces: runs of -0.0 siblings, whose sum +0.0 settles
        rng = np.random.default_rng(d * gen)
        cells = rng.standard_normal((1 << gen,) * d)
        cells[rng.integers(0, 2, cells.shape) == 1] = -0.0
        specials = [-0.0] * 4 + [np.nan, np.inf, -np.inf, 1e308]
        cells.reshape(-1)[: len(specials)] = specials[: cells.size]
        got = _coarsen(lex_to_morton(cells), d)
        self.assert_bits(got, lex_to_morton(lex_coarsen(cells)))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestMortonTiles:
    """The tiled finest level against whole-grid oracles, below one tile and across several.

    A tile holds 2^15 cells at d=1, 2^16 at d=2 and 2^17 at d=3: d1 N10, d2 N7 and
    d3 N4 are one partial tile, d1 N17, d2 N10 and d3 N7 are four, sixteen and
    sixteen tiles.
    """

    SIZES = [(1, 10), (1, 17), (2, 7), (2, 10), (3, 4), (3, 7)]
    FLOAT = [
        pytest.param(integer_grid(d, gen, seed=d * gen), id=f"float-d{d}-N{gen}")
        for d, gen in SIZES
    ]
    NONFINITE = [
        pytest.param(awkward_grid(d, gen, seed=d + gen), id=f"nonfinite-d{d}-N{gen}")
        for d, gen in SIZES
    ]

    @staticmethod
    def assert_bits(got, want):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("f", FLOAT)
    def test_cube_increments_match_corner_sums(self, f):
        for n in range(f.gen + 1):
            want = lex_to_morton(corner_sum_cells(f.values, n))
            got = cube_increments(f, n)
            assert got.dtype == np.float64 and np.array_equal(got, want)

    @pytest.mark.parametrize("f", NONFINITE)
    def test_cube_increments_match_lexicographic_pyramid(self, f):
        levels = lex_increment_levels(f.values)
        for n in range(f.gen + 1):
            self.assert_bits(cube_increments(f, n), lex_to_morton(levels[n]))

    @pytest.mark.parametrize("f", FLOAT)
    def test_coefficient_table_matches_corner_sums(self, f):
        d = f.dim
        mat = haar_matrix(d).astype(float)
        tab = coefficient_table(f, f.gen - 1)
        for n, lev in enumerate(tab.levels):
            kids = lex_to_morton(corner_sum_cells(f.values, n + 1)).reshape(-1, 1 << d)
            want = (kids @ mat)[:, 1:] * 2.0 ** (n * d / 2.0)
            assert lev.dtype == want.dtype and np.array_equal(lev, want)

    def test_tiles_allocate_no_index_sized_array_after_the_first(self):
        # np.take copies an index array that is not writeable, on every call.
        f = integer_grid(2, 9, seed=3)
        ws = _Workspace()
        _morton_tile(f.values, 0, ws)
        tracemalloc.start()
        try:
            for lo in range(1 << 16, 1 << 18, 1 << 16):  # the grid's other three tiles
                _morton_tile(f.values, lo, ws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 16  # the tile's int64 order

    def test_no_pass_writes_the_shared_tile_order(self):
        # The order is built once per (d, bits) and read by every later pass;
        # it stays writeable, or np.take would copy it on every tile.
        passes = [
            lambda f: cube_increments(f, 0),
            lambda f: coefficient_table(f, f.gen - 1),
            lambda f: _streamed_report(f, f.gen - 1),
            lambda f: increment_levels(f),
        ]
        for d, gen in [(1, 17), (2, 10), (3, 7), (2, 3)]:
            f = integer_grid(d, gen, seed=d)
            bits = _tile_bits(d, gen)
            _, order = _tile_order(d, bits)
            for run in passes:
                run(f)
                assert _tile_order(d, bits)[1] is order and order.flags.writeable
            assert np.array_equal(order, _tile_order.__wrapped__(d, bits)[1])


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestSmallTiles:
    """The Morton pyramid and tables of 16 to 32 small tiles against whole-level oracles.

    With tiles of 2^(7+d) cells a tile is summed inside itself only for the
    finest products (2^7 rows a tile) and every coarser generation comes
    whole; with 2^(9+d) cells, two generations more at d=1 and one at d=2..4.
    Whole levels of more than 2^7 or 2^9 rows come in blocks of that many.
    """

    GRIDS = [
        pytest.param(sample_standard_sheet(1, 12, seed=1), id="standard-d1-N12"),
        pytest.param(sample_sheet((0.6, 0.9), 7, seed=2), id="fractional-d2-N7"),
        pytest.param(sample_standard_sheet(3, 5, seed=3), id="standard-d3-N5"),
        pytest.param(sample_sheet((0.6, 0.7, 0.8, 0.9), 4, seed=4), id="fractional-d4-N4"),
    ] + [pytest.param(scattered_grid(d, gen, seed=d), id=f"nonfinite-d{d}-N{gen}")
         for d, gen in [(1, 12), (2, 7), (3, 5), (4, 4)]]

    @staticmethod
    def assert_bits(got, want):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("f", GRIDS)
    def test_cube_increments_match_lexicographic_pyramid(self, f, small_tiles):
        levels = lex_increment_levels(f.values)
        for n in range(f.gen + 1):
            self.assert_bits(cube_increments(f, n), lex_to_morton(levels[n]))

    @pytest.mark.parametrize("f", GRIDS)
    def test_lexicographic_levels_match_the_oracle(self, f, small_tiles):
        # every piece written through the Morton-bit view of its level
        for got, want in zip(increment_levels(f), lex_increment_levels(f.values), strict=True):
            self.assert_bits(got, want)

    @pytest.mark.parametrize("f", GRIDS)
    def test_float_table_bit_identical_to_reference(self, f, small_tiles):
        tab = coefficient_table(f, f.gen - 1)
        for lev, want in zip(tab.levels, reference_coefficient_levels(f, f.gen - 1), strict=True):
            self.assert_bits(lev, want)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestWorkspace:
    """Pyramid passes one after another through one workspace, against fresh buffers."""

    @staticmethod
    def pieces(values, stop, ws):
        return [(n, lo, cells.copy()) for n, lo, cells in _tiled_pyramid(values, stop, ws)]

    @pytest.mark.parametrize(
        "d, gens", [(1, (12, 9, 12, 3)), (2, (7, 5, 7, 1)), (3, (5, 4, 5, 2)), (4, (4, 2, 4))]
    )
    def test_reused_workspace_yields_the_pieces_of_fresh_buffers(self, d, gens, small_tiles):
        # Grids of other generations and stops replace some buffers, and a grid of
        # the first shape after them gets the replaced ones back, bit for bit.
        ws = _Workspace()
        for i, gen in enumerate(gens):
            values = scattered_grid(d, gen, seed=i).values
            for stop in sorted({0, gen // 2, gen}):
                got, want = self.pieces(values, stop, ws), self.pieces(values, stop, _Workspace())
                assert [p[:2] for p in got] == [p[:2] for p in want], (gen, stop)
                for (*_, g), (*_, w) in zip(got, want):
                    assert np.array_equal(g.view(np.int64), w.view(np.int64)), (gen, stop)

    @pytest.mark.parametrize("d, gen", [(2, 9), (3, 5)])
    def test_passes_over_one_shape_make_their_buffers_once(self, d, gen):
        ws = _Workspace()
        for seed in range(3):
            for _ in _tiled_pyramid(scattered_grid(d, gen, seed=seed).values, 0, ws):
                pass
            if not seed:
                held = dict(ws._buffers)
            assert ws._buffers.keys() == held.keys()
            assert all(ws._buffers[role] is buf for role, buf in held.items())


def assert_table_matches_exact(tab, oracle):
    """The float table equals the exact one bit for bit where n*d is even, and is
    within 2 ulps of it where n*d is odd; every comparison is made exactly.

    At odd n*d the engine rounds twice: the amplitude 2.0 ** (n*d/2), then
    its product with the integer sign-matrix sum, each by half an ulp of
    its own result, so a coefficient may lie just over one ulp off (1.03 on
    an integer grid at d = 1, N = 12, n = 5), and never much more than 1.5.
    """
    assert oracle.a_minus1 == Fraction(tab.a_minus1)
    for n in range(tab.max_gen + 1):
        got, want = tab.level(n), oracle.level(n)
        assert got.shape == want.shape
        if n * tab.dim % 2 == 0:
            assert (got.astype(object) == want).all(), n
            continue
        for x, w in zip(got.reshape(-1).tolist(), want.reshape(-1).tolist(), strict=True):
            assert abs(w - Fraction(x)) < 2 * Fraction(math.ulp(x)), (n, x, w)


def assert_report_matches_exact(rep, stats):
    """Each statistic equals the exact one where every generation it reads has even
    n*d; otherwise it is within the rounding bound of its float reductions.

    At even n*d the coefficients are integers times 2^(nd/2), their sums
    are exact below 2^53 and the scale factors are powers of two.  At odd
    n*d each |coefficient| is within 3 * 2^-53 of its exact value, a sum of
    2^(nd) of them adds 2^-53 a term, the scaling and the b-terms' running
    sum a few more: (2^(nd) + n + 8) * 2^-53, relative.
    """
    d = rep.dim
    for name in REPORT_STATS:
        for n, (x, w) in enumerate(zip(getattr(rep, name), stats[name])):
            read = range(n + 1) if name == "b_partial_sums" else (n,)
            if all(m * d % 2 == 0 for m in read):
                assert w == Fraction(x), (name, n)
            else:
                rel = Fraction((1 << (n * d)) + n + 8, 1 << 53)
                assert abs(w - Fraction(x)) <= rel * abs(w), (name, n)


def assert_tables_match_exact(f, oracle):
    """The table at the oracle's horizon against the oracle, and the table at every
    lower horizon bit for bit against it: a table's levels do not depend on it."""
    full = coefficient_table(f, oracle.max_gen)
    assert_table_matches_exact(full, oracle)
    for max_gen in range(oracle.max_gen):
        tab = coefficient_table(f, max_gen)
        for lev, want in zip(tab.levels, full.levels[: max_gen + 1], strict=True):
            assert np.array_equal(lev.view(np.int64), want.view(np.int64))


def exact_case(d, gen, max_gen):
    """A float integer grid, and its exact table up to ``max_gen`` and that table's
    report statistics from the oracles."""
    seed = 100 * d + gen
    oracle = exact_coefficient_table(integer_grid(d, gen, seed, exact=True), max_gen)
    return integer_grid(d, gen, seed), oracle, exact_report(oracle)


class TestExactOracle:
    """The float engine against the exact table of the same integer grid, built
    from the corner sums alone (``oracles.exact_coefficient_table``).

    A tile holds 2^15 cells at d=1, 2^16 at d=2 and 2^17 at d=3: d1 N17, d2 N9
    and d3 N6 are four, four and two tiles, the other grids one.  (1, 4), (2, 3)
    and (3, 2) are the sizes of the exact Fraction and Rad2 grids the engine
    ran before it was float64 only.  Each case is (d, N, horizon): d3 N6 stops
    at 4, whose products are still pieces of the tiles, as an exact check of
    generation 5's 2^15 rows of Rad2 numbers costs seconds.
    """

    @pytest.fixture(
        scope="class",
        params=[
            (1, 4, 3), (1, 12, 11), (1, 17, 16), (2, 3, 2), (2, 7, 6), (2, 9, 8),
            (3, 2, 1), (3, 4, 3), (3, 6, 4),
        ],
        ids=lambda case: "d{}-N{}-M{}".format(*case),
    )
    def case(self, request):
        return exact_case(*request.param)

    def test_table(self, case):
        f, oracle, _ = case
        assert_tables_match_exact(f, oracle)

    def test_streamed_report(self, case):
        f, oracle, stats = case
        for max_gen in range(oracle.max_gen + 1):
            assert_report_matches_exact(_streamed_report(f, max_gen), stats)


class TestExactOracleSmallTiles:
    """The engine of 16 to 32 small tiles against the exact oracle, at every horizon."""

    @pytest.fixture(
        scope="class",
        params=[(1, 12, 11), (2, 7, 6), (3, 5, 4)],
        ids=lambda case: "d{}-N{}".format(*case),
    )
    def case(self, request):
        return exact_case(*request.param)

    def test_table_and_streamed_report(self, case, small_tiles):
        f, oracle, stats = case
        assert_tables_match_exact(f, oracle)
        for max_gen in range(f.gen):
            assert_report_matches_exact(_streamed_report(f, max_gen), stats)
