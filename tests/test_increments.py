import itertools
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from sheetcharge import increments
from sheetcharge.dyadic import DyadicCube, Figure, Rectangle, lex_to_morton
from sheetcharge.exact import Rad2, pow2_half
from sheetcharge.haar import haar_indices_up_to, haar_matrix, haar_primitive_grid
from sheetcharge.increments import (
    CoefficientTable,
    GridSample,
    _coarsen,
    _difference,
    _morton_tiles,
    _tiled_pyramid,
    coefficient_table,
    cube_increments,
    figure_increment,
    increment_levels,
    load_coefficients,
    rectangle_increment,
    save_coefficients,
)
from sheetcharge.sampler import sample_sheet, sample_standard_sheet

from helpers import awkward_grid, product_grid, scattered_grid, whole_grid_cells, zero_grid


def frac_rect(lo, hi):
    return Rectangle(tuple(Fraction(x) for x in lo), tuple(Fraction(x) for x in hi))


def reference_coefficient_levels(f, max_gen):
    """The per-level loop of coefficient_table with every array kept alive."""
    d = f.dim
    mat = haar_matrix(d)
    levels = []
    by_gen = increment_levels(f, max_gen + 1)
    for n in range(max_gen + 1):
        child = lex_to_morton(by_gen[n + 1]).reshape(1 << (n * d), 1 << d)
        if f.is_exact:
            full = np.dot(child, mat.astype(object))
            lam = full[:, 1:] * pow2_half(n * d)
        else:
            full = child.astype(float) @ mat.astype(float)
            lam = full[:, 1:] * 2.0 ** (n * d / 2.0)
        levels.append(lam)
    return levels


def exact_random_grid(d, gen, seed, scalar):
    """Grid with random integer cell increments, each times ``scalar`` (exact)."""
    rng = np.random.default_rng(seed)
    cells = rng.integers(-9, 10, size=(1 << gen,) * d).astype(object) * scalar
    core = cells
    for axis in range(d):
        core = np.cumsum(core, axis=axis)
    full = np.full(((1 << gen) + 1,) * d, Fraction(0), dtype=object)
    full[(slice(1, None),) * d] = core
    return GridSample(d, gen, full)


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


class TestRectangleIncrement:
    def test_product_function_factorizes(self):
        f = product_grid(2, 4)
        r = frac_rect((Fraction(1, 4), Fraction(1, 2)), (Fraction(3, 4), Fraction(15, 16)))
        sides = r.side_lengths()
        assert rectangle_increment(f, r) == pytest.approx(float(sides[0] * sides[1]))

    def test_constant_plateau_gives_zero(self):
        vals = np.zeros((5, 5))
        vals[1:, 1:] = 3.0  # constant away from the zero facets
        f = GridSample(2, 2, vals)
        r = frac_rect((Fraction(1, 4), Fraction(1, 4)), (1, 1))
        assert rectangle_increment(f, r) == 0.0

    def test_unit_square_single_corner(self):
        vals = np.zeros((3, 3))
        vals[2, 2] = 0.625
        f = GridSample(2, 1, vals)
        r = frac_rect((0, 0), (1, 1))
        assert rectangle_increment(f, r) == 0.625

    def test_off_grid_corner_rejected(self):
        f = product_grid(2, 2)
        r = frac_rect((0, 0), (Fraction(1, 8), 1))
        with pytest.raises(ValueError):
            rectangle_increment(f, r)


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
                    rectangle_increment(f, cube.box()), rel=1e-12, abs=1e-14
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

    def test_children_aggregation_exact(self):
        rng = np.random.default_rng(2)
        cells = rng.integers(-8, 9, size=(8, 8))
        exact_cells = np.array(
            [[Fraction(int(v), 16) for v in row] for row in cells], dtype=object
        )
        core = exact_cells
        for axis in range(2):
            core = np.cumsum(core, axis=axis)
        full = np.zeros((9, 9), dtype=object)
        full[...] = Fraction(0)
        full[1:, 1:] = core
        f = GridSample(2, 3, full)
        for n in range(3):
            coarse = cube_increments(f, n)
            fine = cube_increments(f, n + 1).reshape(-1, 4).sum(axis=1)
            assert all(a == b for a, b in zip(coarse, fine))

    def test_generation_beyond_grid_rejected(self):
        f = zero_grid(2, 2)
        with pytest.raises(ValueError):
            cube_increments(f, 3)

    def test_negative_generation_rejected(self):
        with pytest.raises(ValueError, match="generation -1 is below 0"):
            cube_increments(zero_grid(2, 2), -1)


class TestFigureIncrement:
    def test_unit_cube_is_corner_value(self):
        f = sample_standard_sheet(2, 4, seed=5)
        fig = Figure(2, (DyadicCube(2, 0, 0),))
        assert figure_increment(f, fig) == pytest.approx(f.corner_value())

    def test_complementary_halves_sum(self):
        f = sample_standard_sheet(2, 4, seed=6)
        left = Figure(2, (DyadicCube(2, 1, 0), DyadicCube(2, 1, 2)))
        right = Figure(2, (DyadicCube(2, 1, 1), DyadicCube(2, 1, 3)))
        assert figure_increment(f, left) + figure_increment(f, right) == pytest.approx(
            f.corner_value(), rel=1e-12
        )

    def test_invariant_under_resplitting(self):
        f = sample_standard_sheet(2, 5, seed=7)
        fig = Figure(2, (DyadicCube(2, 1, 0), DyadicCube(2, 2, 12)))
        split = Figure(2, tuple(DyadicCube(2, 1, 0).children()) + (DyadicCube(2, 2, 12),))
        assert figure_increment(f, fig) == pytest.approx(
            figure_increment(f, split), rel=1e-12
        )

    def test_resolution_mismatch_rejected(self):
        f = zero_grid(2, 2)
        with pytest.raises(ValueError):
            figure_increment(f, Figure(2, (DyadicCube(2, 3, 0),)))


class TestCoefficientTable:
    def test_product_function_coefficients_vanish(self):
        f = product_grid(2, 4)
        tab = coefficient_table(f, 3)
        assert tab.a_minus1 == pytest.approx(1.0)
        for n in range(4):
            assert np.allclose(tab.level(n), 0.0, atol=1e-14)

    @pytest.mark.parametrize("d", [1, 2])
    def test_biorthogonal_to_haar_primitives(self, d):
        # the table of a primitive is the unit vector at its own index
        for idx in haar_indices_up_to(d, 2)[1:]:
            grid = haar_primitive_grid(idx, 3, exact=True)
            f = GridSample(d, 3, grid)
            tab = coefficient_table(f, 2)
            assert tab.a_minus1 == 0
            for n in range(3):
                lev = tab.level(n)
                for k in range(lev.shape[0]):
                    for r in range(1, lev.shape[1] + 1):
                        expected = 1 if (n, k, r) == (idx.gen, idx.cube, idx.type) else 0
                        assert lev[k, r - 1] == expected

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

    def test_csv_json_roundtrip(self, tmp_path):
        f = sample_standard_sheet(2, 4, seed=4)
        tab = coefficient_table(f, 2)
        csv_path = tmp_path / "table.csv"
        json_path = tmp_path / "table.json"
        save_coefficients(tab, csv_path, json_path)
        back = load_coefficients(csv_path, json_path)
        assert back.dim == tab.dim and back.max_gen == tab.max_gen
        assert back.a_minus1 == pytest.approx(tab.a_minus1)
        for n in range(3):
            assert np.array_equal(back.level(n), tab.level(n))

    def test_nan_constant_term_rejected(self, tmp_path):
        tab = CoefficientTable(2, 0, float("nan"), (np.zeros((1, 3)),))
        with pytest.raises(ValueError, match="not JSON compliant"):
            save_coefficients(tab, tmp_path / "table.csv", tmp_path / "table.json")
        assert list(tmp_path.iterdir()) == []

    def test_shapes_validated(self):
        with pytest.raises(ValueError):
            CoefficientTable(2, 1, 0.0, (np.zeros((1, 3)), np.zeros((4, 2))))

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

    @pytest.mark.parametrize(
        "f", [sample_standard_sheet(2, 4, seed=1), exact_random_grid(2, 3, 2, Fraction(1, 3))]
    )
    def test_computed_levels_read_only(self, f):
        for lev in coefficient_table(f, f.gen - 1).levels:
            assert not lev.flags.writeable and lev.base is None

    @pytest.mark.parametrize(
        "f",
        [
            sample_standard_sheet(1, 7, seed=2),
            sample_standard_sheet(2, 5, seed=3),
            sample_sheet((0.6, 0.9), 5, seed=4),
            sample_sheet((0.7, 0.8, 0.9), 3, seed=5),
            GridSample(2, 2, np.multiply.outer(np.arange(5), np.arange(5))),
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

    @pytest.mark.parametrize("scalar", [Fraction(1, 3), Rad2(Fraction(1, 2), Fraction(-2, 3))])
    @pytest.mark.parametrize("d,gen", [(1, 4), (2, 3), (3, 2)])
    def test_exact_table_equals_reference(self, d, gen, scalar):
        f = exact_random_grid(d, gen, seed=10 * d + gen, scalar=scalar)
        tab = coefficient_table(f, gen - 1)
        for lev, want in zip(tab.levels, reference_coefficient_levels(f, gen - 1), strict=True):
            assert lev.dtype == object and np.array_equal(lev, want)


class TestLoadCoefficients:
    @staticmethod
    def saved(tmp_path):
        """The paths of a saved d=2, M=2 table: its CSV and its JSON header."""
        csv_path, json_path = tmp_path / "table.csv", tmp_path / "table.json"
        tab = coefficient_table(sample_standard_sheet(2, 3, seed=4), 2)
        save_coefficients(tab, csv_path, json_path)
        return csv_path, json_path

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda h: {**h, "d": 0}, "header has d=0"),
            (lambda h: {**h, "M": -1}, "M=-1"),
            (lambda h: {**h, "d": 2.0}, "header has d=2.0"),
            (lambda h: {**h, "d": 70}, "header has d=70"),
        ],
        ids=["zero-d", "negative-M", "float-d", "huge-d"],
    )
    def test_rejects_bad_header(self, tmp_path, edit, message):
        csv_path, json_path = self.saved(tmp_path)
        json_path.write_text(json.dumps(edit(json.loads(json_path.read_text()))))
        with pytest.raises(ValueError, match=message):
            load_coefficients(csv_path, json_path)

    def test_header_checked_before_levels_are_allocated(self, tmp_path):
        csv_path, json_path = self.saved(tmp_path)
        json_path.write_text(json.dumps({**json.loads(json_path.read_text()), "M": 8}))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="needs more rows than the CSV holds"):
                load_coefficients(csv_path, json_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 4**8 * 8 // 4  # a quarter of the generation-8 level

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1,-1,1,0.5", "out of range"),
            ("1,4,1,0.5", "out of range"),
            ("3,0,1,0.5", "out of range"),
            ("-1,0,1,0.5", "out of range"),
            ("1,0,0,0.5", "out of range"),
            ("1,0,4,0.5", "out of range"),
            ("1,2,3,nan", "non-finite"),
            ("1,2,3,-inf", "non-finite"),
            ("1,2,3,0.5", "repeats"),
        ],
        ids=["k=-1", "k=4^n", "n=M+1", "n=-1", "r=0", "r=2^d", "nan", "inf", "duplicate"],
    )
    def test_rejects_bad_row(self, tmp_path, row, message):
        csv_path, json_path = self.saved(tmp_path)
        with open(csv_path, "a") as fh:
            fh.write(row + "\n")
        if message != "repeats":  # drop the row the bad one stands for, so only it is wrong
            lines = csv_path.read_text().splitlines(keepends=True)
            csv_path.write_text("".join(lines[:-2] + lines[-1:]))
        with pytest.raises(ValueError, match=message):
            load_coefficients(csv_path, json_path)

    def test_rejects_missing_row(self, tmp_path):
        csv_path, json_path = self.saved(tmp_path)
        lines = csv_path.read_text().splitlines(keepends=True)
        csv_path.write_text("".join(lines[:5] + lines[6:]))
        with pytest.raises(ValueError, match="generation 1 is missing 1 rows"):
            load_coefficients(csv_path, json_path)



def reference_coarsen(cells):
    """Sibling sums through a (half, 2)-per-axis reshape, last sibling axis first."""
    d = cells.ndim
    half = cells.shape[0] // 2
    shaped = cells.reshape(tuple(x for _ in range(d) for x in (half, 2)))
    for axis in reversed(range(1, 2 * d, 2)):
        shaped = shaped.sum(axis=axis)
    return shaped


class TestCoarsen:
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
        got, want = _coarsen(cells, d), reference_coarsen(cells)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("d,gen", [(1, 3), (2, 2), (3, 2)])
    def test_signed_zeros_bit_identical_to_reshape_sum(self, d, gen):
        signs = np.random.default_rng(d).integers(0, 2, (1 << gen,) * d)
        for cells in (np.full((1 << gen,) * d, -0.0), np.where(signs == 1, -0.0, 0.0)):
            got, want = _coarsen(cells, d), reference_coarsen(cells)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("d,gen", [(1, 5), (2, 3), (3, 2)])
    def test_int_identical_to_reshape_sum(self, d, gen):
        cells = np.random.default_rng(d).integers(-(1 << 60), 1 << 60, (1 << gen,) * d)
        got, want = _coarsen(cells, d), reference_coarsen(cells)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("scalar", [Fraction(1, 3), Rad2(Fraction(1, 2), Fraction(-2, 3))])
    @pytest.mark.parametrize("d,gen", [(1, 4), (2, 3), (3, 2)])
    def test_exact_equal_to_reshape_sum(self, d, gen, scalar):
        cells = _difference(exact_random_grid(d, gen, seed=d + gen, scalar=scalar).values)
        got, want = _coarsen(cells, d), reference_coarsen(cells)
        assert got.dtype == object and got.shape == want.shape
        assert all(a == b and type(a) is type(b) for a, b in zip(got.flat, want.flat, strict=True))


class TestIncrementPyramid:
    @pytest.mark.parametrize(
        "f",
        [
            sample_standard_sheet(1, 6, seed=1),
            sample_sheet((0.7, 0.9), 5, seed=2),
            sample_standard_sheet(3, 3, seed=3),
            exact_random_grid(2, 3, seed=4, scalar=Fraction(1, 7)),
        ],
    )
    def test_one_pyramid_matches_cube_increments(self, f):
        # moment-scaling reads every generation from one pyramid
        levels = increment_levels(f, f.gen)
        for n in range(f.gen + 1):
            assert np.array_equal(lex_to_morton(levels[n]), cube_increments(f, n))

    def test_negative_generation_rejected(self):
        with pytest.raises(ValueError, match="generation -1 is below 0"):
            increment_levels(zero_grid(2, 2), -1)

    def test_generation_beyond_grid_rejected(self):
        with pytest.raises(ValueError, match="generation 3 exceeds grid generation 2"):
            increment_levels(zero_grid(2, 2), 3)

    @pytest.mark.parametrize("gen", [8, 9])
    def test_peak_memory_stays_near_the_levels(self, gen):
        # The levels themselves take 4/3 of the finest one; the grid is
        # differenced one slab at a time, so no whole-grid temporary joins them.
        # At N=8 (the fbs-moments sheet) a 2^15-cell slab would be half the
        # finest level; pieces of at most a sixteenth of it keep the bound.
        f = sample_standard_sheet(2, gen, seed=0)
        finest = 8 * 4**gen
        tracemalloc.start()
        try:
            levels = increment_levels(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert levels[-1].nbytes == finest
        assert peak <= 1.5 * finest


def int_grid(d, gen, seed):
    """Grid of int64 values, zero on the x_i = 0 facets."""
    values = np.random.default_rng(seed).integers(-(1 << 40), 1 << 40, ((1 << gen) + 1,) * d)
    for axis in range(d):
        np.moveaxis(values, axis, 0)[0] = 0
    return GridSample(d, gen, values)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestDifference:
    """The slab-wise differencer and the Morton tiles against np.diff of the box, bit for bit."""

    # 2^15-cell slabs: d1 N16 and d2 N9 span several slabs, d3 N6 eight
    GRIDS = [
        *(
            awkward_grid(d, gen, seed=d * gen)
            for d, gen in [(1, 0), (1, 16), (2, 1), (2, 9), (3, 6)]
        ),
        int_grid(1, 16, seed=1),
        int_grid(2, 9, seed=2),
        int_grid(3, 3, seed=3),
        exact_random_grid(2, 3, seed=4, scalar=Fraction(1, 7)),
        exact_random_grid(3, 2, seed=5, scalar=Rad2(Fraction(1, 2), Fraction(-2, 3))),
    ]

    @staticmethod
    def assert_bits(got, want):
        assert got.dtype == want.dtype and got.shape == want.shape
        if got.dtype == object:
            assert all(
                a == b and type(a) is type(b) for a, b in zip(got.flat, want.flat, strict=True)
            )
        else:
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("f", GRIDS)
    @pytest.mark.parametrize("morton", [False, True])
    def test_cube_grid(self, f, morton):
        want = whole_grid_cells(f.values)
        got = cube_increments(f, f.gen) if morton else _difference(f.values)
        self.assert_bits(got, lex_to_morton(want) if morton else want)

    @pytest.mark.parametrize("f", GRIDS)
    def test_bottom_slab(self, f):
        # the box x_d <= 2^-n the counterexample scan differences, for every n
        for n in range(f.gen + 1):
            box = f.values[..., : (1 << (f.gen - n)) + 1]
            self.assert_bits(_difference(box), whole_grid_cells(box))


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
        if got.dtype == object:
            assert all(a == b and type(a) is type(b) for a, b in zip(got, want, strict=True))
        else:
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("d,gen", SIZES)
    def test_finest_level(self, d, gen):
        f = awkward_grid(d, gen, seed=10 * d + gen)
        self.assert_bits(cube_increments(f, f.gen), lex_to_morton(_difference(f.values)))

    @pytest.mark.parametrize(
        "f",
        [awkward_grid(d, gen, seed=d + gen) for d, gen in SIZES if d * gen <= 16]
        + [
            sample_sheet((0.6, 0.9), 6, seed=5),
            exact_random_grid(2, 3, seed=6, scalar=Fraction(1, 7)),
            exact_random_grid(3, 2, seed=7, scalar=Rad2(Fraction(1, 2), Fraction(-2, 3))),
            GridSample(2, 3, np.multiply.outer(np.arange(9), np.arange(9))),
        ],
    )
    def test_every_level_survives_an_overwritten_child(self, f):
        want = [lex_to_morton(level) for level in increment_levels(f)]
        seen = []
        for n, lo, cells in _tiled_pyramid(f.values, 0):
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
        self.assert_bits(got, lex_to_morton(_coarsen(cells, d)))


def corner_sum_cells(values, n):
    """Generation-n cube increments of a grid by the 2^d-corner alternating sum, lexicographic."""
    d = values.ndim
    step = (values.shape[0] - 1) >> n
    total = 0
    for corner in itertools.product((0, 1), repeat=d):
        term = values[tuple(slice(step, None, step) if c else slice(0, -1, step) for c in corner)]
        total = total + term if (d - sum(corner)) % 2 == 0 else total - term
    return total


def integer_grid(d, gen, seed, exact=False):
    """Random integer cell increments summed into a grid: float64 (exact sums) or object ints."""
    cells = np.random.default_rng(seed).integers(-(1 << 20), 1 << 20, (1 << gen,) * d)
    core = cells.astype(object) if exact else cells.astype(float)
    for axis in range(d):
        core = np.cumsum(core, axis=axis)
    full = np.zeros(((1 << gen) + 1,) * d, dtype=core.dtype)
    full[(slice(1, None),) * d] = core
    return GridSample(d, gen, full)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestMortonTiles:
    """The tiled finest level against whole-grid oracles, below one tile and across several.

    A tile holds 2^15 cells at d=1, 2^16 at d=2 and 2^17 at d=3: d1 N10, d2 N7 and
    d3 N4 are one partial tile, d1 N17, d2 N10 and d3 N7 are four, sixteen and
    sixteen tiles.  Of the exact grids, the object integers span two tiles (d1
    N16, d3 N6) and four (d2 N9); the Fraction and Rad2 grids are one tile.
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
    EXACT = [
        pytest.param(exact_random_grid(2, 3, seed=4, scalar=Fraction(1, 7)), id="fraction-d2-N3"),
        pytest.param(
            exact_random_grid(3, 2, seed=5, scalar=Rad2(Fraction(1, 2), Fraction(-2, 3))),
            id="rad2-d3-N2",
        ),
    ]
    # Object products cost microseconds an entry, so of the tiled object grids
    # only the d=2 one has its table checked too.
    EXACT_TILED = [
        pytest.param(integer_grid(d, gen, seed=d, exact=True), id=f"object-d{d}-N{gen}")
        for d, gen in [(1, 16), (3, 6)]
    ]
    EXACT_TABLE = [pytest.param(integer_grid(2, 9, seed=2, exact=True), id="object-d2-N9")]

    @staticmethod
    def assert_bits(got, want):
        assert got.dtype == want.dtype and got.shape == want.shape
        if got.dtype == object:
            assert all(a == b and type(a) is type(b) for a, b in zip(got.flat, want.flat))
        else:
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("f", FLOAT + EXACT + EXACT_TILED + EXACT_TABLE)
    def test_cube_increments_match_corner_sums(self, f):
        for n in range(f.gen + 1):
            want = lex_to_morton(corner_sum_cells(f.values, n))
            got = cube_increments(f, n)
            assert got.dtype == f.values.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("f", NONFINITE)
    def test_cube_increments_match_lexicographic_pyramid(self, f):
        levels = increment_levels(f)
        for n in range(f.gen + 1):
            self.assert_bits(cube_increments(f, n), lex_to_morton(levels[n]))

    @pytest.mark.parametrize("f", FLOAT + EXACT + EXACT_TABLE)
    def test_coefficient_table_matches_corner_sums(self, f):
        d, exact = f.dim, f.is_exact
        mat = haar_matrix(d).astype(object if exact else float)
        tab = coefficient_table(f, f.gen - 1)
        for n, lev in enumerate(tab.levels):
            kids = lex_to_morton(corner_sum_cells(f.values, n + 1)).reshape(-1, 1 << d)
            full = (kids if exact else kids.astype(float)) @ mat
            want = full[:, 1:] * (pow2_half(n * d) if exact else 2.0 ** (n * d / 2.0))
            assert lev.dtype == want.dtype and np.array_equal(lev, want)

    def test_tiles_allocate_no_index_sized_array_after_the_first(self):
        # np.take copies an index array that is not writeable, on every call.
        f = integer_grid(2, 9, seed=3)
        tiles = _morton_tiles(f.values)
        next(tiles)
        tracemalloc.start()
        try:
            count = 1 + sum(1 for _ in tiles)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 4 and peak < 8 << 16  # the tile's int64 order


@pytest.fixture(params=[3, 7, 9])
def small_tiles(request, monkeypatch):
    """Tiles of the children of 2^7 or 2^9 parents: 3 is below the 2^7-parent floor."""
    monkeypatch.setattr(increments, "_CHUNK_BITS", request.param)
    monkeypatch.setattr(increments, "_CHUNK_ROWS", 1 << request.param)
    return request.param


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
        levels = increment_levels(f)
        for n in range(f.gen + 1):
            self.assert_bits(cube_increments(f, n), lex_to_morton(levels[n]))

    @pytest.mark.parametrize("f", GRIDS)
    def test_float_table_bit_identical_to_reference(self, f, small_tiles):
        tab = coefficient_table(f, f.gen - 1)
        for lev, want in zip(tab.levels, reference_coefficient_levels(f, f.gen - 1), strict=True):
            self.assert_bits(lev, want)

    @pytest.mark.parametrize(
        "f",
        [
            pytest.param(integer_grid(2, 6, seed=4, exact=True), id="object-d2-N6"),
            pytest.param(
                exact_random_grid(3, 3, seed=5, scalar=Fraction(1, 3)), id="fraction-d3-N3"
            ),
        ],
    )
    def test_exact_table_equals_reference(self, f, small_tiles):
        tab = coefficient_table(f, f.gen - 1)
        for lev, want in zip(tab.levels, reference_coefficient_levels(f, f.gen - 1), strict=True):
            assert lev.dtype == object and np.array_equal(lev, want)
