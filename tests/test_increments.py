from fractions import Fraction

import numpy as np
import pytest

from sheetcharge.dyadic import DyadicCube, Figure, Rectangle, lex_to_morton
from sheetcharge.exact import Rad2, pow2_half
from sheetcharge.haar import haar_indices_up_to, haar_matrix, haar_primitive_grid
from sheetcharge.increments import (
    CoefficientTable,
    GridSample,
    coefficient_table,
    cube_increments,
    figure_increment,
    increment_levels,
    load_coefficients,
    rectangle_increment,
    save_coefficients,
)
from sheetcharge.sampler import sample_sheet, sample_standard_sheet

from helpers import product_grid, zero_grid


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

    def test_values_frozen(self):
        f = zero_grid(2, 1)
        with pytest.raises(ValueError):
            f.values[0, 0] = 1.0


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

    def test_shapes_validated(self):
        with pytest.raises(ValueError):
            CoefficientTable(2, 1, 0.0, (np.zeros((1, 3)), np.zeros((4, 2))))

    @pytest.mark.parametrize(
        "f",
        [
            sample_standard_sheet(1, 7, seed=2),
            sample_standard_sheet(2, 5, seed=3),
            sample_sheet((0.6, 0.9), 5, seed=4),
            sample_sheet((0.7, 0.8, 0.9), 3, seed=5),
            GridSample(2, 2, np.multiply.outer(np.arange(5), np.arange(5))),
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
