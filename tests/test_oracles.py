"""The oracles of ``oracles.py`` checked against closed forms and brute force."""

from fractions import Fraction

import numpy as np
import pytest

from sheetcharge.dyadic import DyadicCube, Figure, Rectangle
from sheetcharge.increments import GridSample, coefficient_table
from sheetcharge.sampler import HurstVector, sample_standard_sheet, sheet_covariance

from exact import Rad2, pow2_half
from helpers import (
    brute_force_faces,
    integer_grid,
    product_grid,
    random_dyadic_figure,
    zero_grid,
)
from oracles import (
    REPORT_STATS,
    HaarIndex,
    PolynomialField,
    corner_sum_cells,
    exact_coefficient_table,
    exact_report,
    exposed_faces,
    figure_increment,
    flux,
    haar_child_pattern,
    haar_gram_exact,
    haar_indices_up_to,
    haar_matrix_entry,
    haar_primitive_grid,
    increment_covariance,
    lex_cells,
    rectangle_increment,
    schauder_partial_apply,
)

X_FIELD = PolynomialField(2, (((Fraction(1), (1, 0)),), ()))  # v = (x, 0), div v = 1


def frac_rect(lo, hi):
    return Rectangle(tuple(Fraction(x) for x in lo), tuple(Fraction(x) for x in hi))


class TestHaarSystem:
    def test_index_validation(self):
        with pytest.raises(ValueError):
            HaarIndex(2, 0, 0, 0)  # type 0 duplicates the indicator
        with pytest.raises(ValueError):
            HaarIndex(2, 0, 1, 1)  # cube out of range at generation 0
        with pytest.raises(ValueError):
            HaarIndex(2, -1, 0, 1)  # exceptional index carries no type

    def test_average_is_zero(self):
        for idx in haar_indices_up_to(2, 2)[1:]:
            row, _ = haar_child_pattern(idx)
            assert row.sum() == 0

    @pytest.mark.parametrize("d", [1, 2])
    def test_exact_l1_norms(self, d):
        for idx in haar_indices_up_to(d, 2)[1:]:
            row, e = haar_child_pattern(idx)
            support_cell = Fraction(1, 1 << ((idx.gen + 1) * d))
            l1 = pow2_half(e) * int(np.abs(row).sum()) * support_cell
            assert l1 == pow2_half(-idx.gen * d)

    @pytest.mark.parametrize("d", [1, 2])
    def test_child_values_are_scaled_sign_matrix_rows(self, d):
        for gen in range(3):
            for k in range(1 << (gen * d)):
                scale = pow2_half(gen * d)
                for r in range(1, 1 << d):
                    row, e = haar_child_pattern(HaarIndex(d, gen, k, r))
                    for l in range(1 << d):
                        assert row[l] * pow2_half(e) == scale * haar_matrix_entry(d, r, l)

    @pytest.mark.parametrize("d", [1, 2])
    def test_gram_is_identity(self, d):
        gram = haar_gram_exact(d, 3)
        m = gram.shape[0]
        for i in range(m):
            for j in range(m):
                assert gram[i, j] == (1 if i == j else 0)


class TestPrimitive:
    def test_exceptional_primitive_is_product(self):
        grid = haar_primitive_grid(HaarIndex.exceptional(2), 2)
        xs = np.arange(5) / 4
        assert np.allclose(grid, np.multiply.outer(xs, xs))

    def test_first_haar_primitive_peaks_at_center(self):
        grid = haar_primitive_grid(HaarIndex(1, 0, 0, 1), 2, exact=True)
        assert grid[2] == Fraction(1, 2)  # integral over [0, 1/2]
        assert grid[4] == 0  # mean zero over the whole interval
        assert grid[0] == 0

    def test_vanishes_on_zero_facets(self):
        grid = haar_primitive_grid(HaarIndex(2, 1, 2, 3), 3, exact=True)
        assert all(v == 0 for v in grid[0, :])
        assert all(v == 0 for v in grid[:, 0])


class TestRectangleIncrement:
    def test_product_function_factorizes(self):
        f = product_grid(2, 4)
        r = frac_rect((Fraction(1, 4), Fraction(1, 2)), (Fraction(3, 4), Fraction(15, 16)))
        sides = r.side_lengths()
        assert rectangle_increment(f.values, r) == pytest.approx(float(sides[0] * sides[1]))

    def test_constant_plateau_gives_zero(self):
        vals = np.zeros((5, 5))
        vals[1:, 1:] = 3.0  # constant away from the zero facets
        f = GridSample(2, 2, vals)
        r = frac_rect((Fraction(1, 4), Fraction(1, 4)), (1, 1))
        assert rectangle_increment(f.values, r) == 0.0

    def test_unit_square_single_corner(self):
        vals = np.zeros((3, 3))
        vals[2, 2] = 0.625
        f = GridSample(2, 1, vals)
        r = frac_rect((0, 0), (1, 1))
        assert rectangle_increment(f.values, r) == 0.625

    def test_off_grid_corner_rejected(self):
        f = product_grid(2, 2)
        r = frac_rect((0, 0), (Fraction(1, 8), 1))
        with pytest.raises(ValueError):
            rectangle_increment(f.values, r)


class TestFigureIncrement:
    def test_unit_cube_is_corner_value(self):
        f = sample_standard_sheet(2, 4, seed=5)
        fig = Figure(2, (DyadicCube(2, 0, 0),))
        assert figure_increment(f.values, fig) == pytest.approx(f.corner_value())

    def test_complementary_halves_sum(self):
        f = sample_standard_sheet(2, 4, seed=6)
        left = Figure(2, (DyadicCube(2, 1, 0), DyadicCube(2, 1, 2)))
        right = Figure(2, (DyadicCube(2, 1, 1), DyadicCube(2, 1, 3)))
        halves = figure_increment(f.values, left) + figure_increment(f.values, right)
        assert halves == pytest.approx(f.corner_value(), rel=1e-12)

    def test_invariant_under_resplitting(self):
        f = sample_standard_sheet(2, 5, seed=7)
        fig = Figure(2, (DyadicCube(2, 1, 0), DyadicCube(2, 2, 12)))
        split = Figure(2, tuple(DyadicCube(2, 1, 0).children()) + (DyadicCube(2, 2, 12),))
        assert figure_increment(f.values, fig) == pytest.approx(
            figure_increment(f.values, split), rel=1e-12
        )

    def test_resolution_mismatch_rejected(self):
        f = zero_grid(2, 2)
        with pytest.raises(ValueError):
            figure_increment(f.values, Figure(2, (DyadicCube(2, 3, 0),)))


def corner_expansion_covariance(H, rect_a, rect_b):
    """Brute-force oracle: expand both increments over all corner pairs."""
    total = 0.0
    for ca, sa in rect_a.corners():
        for cb, sb in rect_b.corners():
            total += sa * sb * sheet_covariance(
                H, [float(x) for x in ca], [float(x) for x in cb]
            )
    return total


class TestIncrementCovariance:
    def test_cube_variance_is_volume_power(self):
        r = frac_rect((Fraction(1, 4), Fraction(1, 2)), (Fraction(1, 2), Fraction(3, 4)))
        H = HurstVector((0.7, 0.9))
        vol = float(r.volume())
        assert increment_covariance(H, r, r) == pytest.approx(vol ** (2 * H.hbar))

    def test_disjoint_brownian_increments_uncorrelated(self):
        r1 = frac_rect((0,), (Fraction(1, 2),))
        r2 = frac_rect((Fraction(1, 2),), (1,))
        assert increment_covariance((0.5,), r1, r2) == pytest.approx(0.0, abs=1e-15)

    def test_adjacent_intervals_normalized(self):
        r1 = frac_rect((0,), (Fraction(1, 2),))
        r2 = frac_rect((Fraction(1, 2),), (1,))
        cov = increment_covariance((0.75,), r1, r2)
        norm = cov / (0.5**0.75 * 0.5**0.75)
        assert norm == pytest.approx(2**0.5 - 1, rel=1e-12)

    @pytest.mark.parametrize(
        "d,H", [(1, (0.5,)), (1, (0.8,)), (2, (0.5, 0.5)), (2, (0.8, 0.9))]
    )
    def test_matches_corner_expansion(self, d, H):
        rng = np.random.default_rng(42)
        for _ in range(20):
            denom = 16
            coords = rng.integers(0, denom, size=(2, 2, d))
            rects = []
            for pair in coords:
                lo = np.minimum(pair[0], pair[1])
                hi = np.maximum(pair[0], pair[1]) + 1
                rects.append(
                    Rectangle(
                        tuple(Fraction(int(a), denom) for a in lo),
                        tuple(Fraction(int(b), denom) for b in hi),
                    )
                )
            exact = increment_covariance(H, rects[0], rects[1])
            brute = corner_expansion_covariance(H, rects[0], rects[1])
            assert exact == pytest.approx(brute, rel=1e-12, abs=1e-13)


class TestExactCoefficientTable:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_corner_sums_are_the_cell_differences(self, d):
        f = integer_grid(d, 3, seed=d)
        for n in range(4):
            step = 1 << (3 - n)
            coarse = f.values[(slice(None, None, step),) * d]
            assert np.array_equal(corner_sum_cells(f.values, n), lex_cells(coarse))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_product_function_coefficients_vanish(self, d):
        tab = exact_coefficient_table(product_grid(d, 3, exact=True), 2)
        assert tab.a_minus1 == 1
        for n in range(3):
            assert tab.level(n).shape == (1 << (n * d), (1 << d) - 1)
            assert all(c == 0 for c in tab.level(n).flat)

    @pytest.mark.parametrize("d", [1, 2])
    def test_biorthogonal_to_haar_primitives(self, d):
        # the table of a primitive is the unit vector at its own index
        for idx in haar_indices_up_to(d, 2)[1:]:
            tab = exact_coefficient_table(haar_primitive_grid(idx, 3, exact=True), 2)
            assert tab.a_minus1 == 0
            for n in range(3):
                lev = tab.level(n)
                for k in range(lev.shape[0]):
                    for r in range(1, lev.shape[1] + 1):
                        expected = 1 if (n, k, r) == (idx.gen, idx.cube, idx.type) else 0
                        assert lev[k, r - 1] == expected

    def test_odd_amplitude_is_carried_exactly(self):
        tab = exact_coefficient_table(integer_grid(1, 4, seed=3, exact=True), 3)
        for n in range(4):
            kinds = {type(c) for c in tab.level(n).flat}
            assert kinds == ({Rad2} if n % 2 else {Fraction})
        assert all(c.a == 0 for c in tab.level(1).flat)

    def test_float_grid_rejected(self):
        with pytest.raises(TypeError, match="got dtype float64"):
            exact_coefficient_table(product_grid(2, 3).values, 2)

    @pytest.mark.parametrize("max_gen", [-1, 3])
    def test_horizon_checked(self, max_gen):
        with pytest.raises(ValueError, match=f"need 0 <= max_gen < 3, got {max_gen}"):
            exact_coefficient_table(product_grid(2, 3, exact=True), max_gen)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_report_of_one_primitive(self, d):
        # one coefficient 1 at (n, k, r) = (1, 1, 1): at generation 1, A and the
        # b-term are its scale factors, T is 1 over the 2^d cubes, S is T scaled
        grid = haar_primitive_grid(HaarIndex(d, 1, 1, 1), 3, exact=True)
        stats = exact_report(exact_coefficient_table(grid, 2))
        assert sorted(stats) == sorted(REPORT_STATS)
        scale = pow2_half(d - 2)
        assert stats["criterion_a"] == [0, pow2_half(-(d + 2)), 0]
        assert stats["b_terms"] == [0, scale, 0]
        assert stats["b_partial_sums"] == [0, scale, scale]
        assert stats["t_stats"] == [0, Fraction(1, 1 << d), 0]
        assert stats["s_stats"] == [0, scale * Fraction(1, 1 << d), 0]


class TestSchauderPartialApply:
    def test_unit_cube_gives_constant_term(self):
        f = haar_primitive_grid(HaarIndex(2, 1, 1, 2), 4)
        sample = GridSample(2, 4, 0.75 * f + np.asarray(
            haar_primitive_grid(HaarIndex.exceptional(2), 4)
        ))
        tab = coefficient_table(sample, 3)
        whole = Figure(2, (DyadicCube(2, 0, 0),))
        assert schauder_partial_apply(tab, 3, whole) == pytest.approx(tab.a_minus1)

    def test_product_function_reproduces_figure_increment(self):
        f = product_grid(2, 4)
        tab = coefficient_table(f, 3)
        rng = np.random.default_rng(8)
        for _ in range(5):
            fig = random_dyadic_figure(rng, 2, 3, 5)
            assert schauder_partial_apply(tab, 3, fig) == pytest.approx(
                figure_increment(f.values, fig), rel=1e-12, abs=1e-14
            )

    def test_single_primitive_quarter(self):
        grid = haar_primitive_grid(HaarIndex(2, 0, 0, 1), 3, exact=True)
        tab = exact_coefficient_table(grid, 2)
        fig = Figure(2, (DyadicCube(2, 1, 0),))
        assert schauder_partial_apply(tab, 2, fig) == Fraction(1, 4)

    def test_exact_reproduction_for_finite_combinations(self):
        # a finite Haar-primitive combination is recovered on figures exactly
        rng = np.random.default_rng(21)
        indices = haar_indices_up_to(2, 2)
        coeffs = {
            idx: Fraction(int(rng.integers(-8, 9)), 8)
            for idx in rng.choice(len(indices), size=6, replace=False).astype(int).tolist()
            for idx in [indices[idx]]
        }
        grid = np.zeros((9, 9), dtype=object)
        grid[...] = Fraction(0)
        for idx, c in coeffs.items():
            grid = grid + c * haar_primitive_grid(idx, 3, exact=True)
        tab = exact_coefficient_table(grid, 2)
        for seed in range(6):
            fig = random_dyadic_figure(np.random.default_rng(seed), 2, 3, 7)
            assert schauder_partial_apply(tab, 2, fig) == figure_increment(grid, fig)

    def test_figure_finer_than_horizon_rejected(self):
        f = haar_primitive_grid(HaarIndex(2, 0, 0, 1), 4)
        tab = coefficient_table(GridSample(2, 4, f), 1)
        fig = Figure(2, (DyadicCube(2, 3, 0),))
        with pytest.raises(ValueError):
            schauder_partial_apply(tab, 1, fig)


class TestPolynomialField:
    def test_divergence_integral_linear(self):
        box = DyadicCube(2, 1, 0).box()
        assert X_FIELD.divergence_integral(box) == Fraction(1, 4)

    def test_evaluate(self):
        field = PolynomialField(
            2, (((Fraction(2), (1, 1)),), ((Fraction(1), (0, 2)),))
        )
        pts = np.array([[0.5, 0.25], [1.0, 1.0]])
        vals = field.evaluate(pts)
        assert vals[0] == pytest.approx([2 * 0.5 * 0.25, 0.25**2])
        assert vals[1] == pytest.approx([2.0, 1.0])


class TestExposedFaces:
    @pytest.mark.parametrize("seed", range(5))
    def test_against_counting_oracle(self, seed):
        rng = np.random.default_rng(seed)
        picks = rng.choice(16, size=5, replace=False)
        fig = Figure(2, tuple(DyadicCube(2, 2, int(k)) for k in picks))
        _, faces = exposed_faces(fig)
        assert set(faces) == brute_force_faces(fig)

    def test_against_counting_oracle_3d(self):
        rng = np.random.default_rng(3)
        picks = rng.choice(64, size=9, replace=False)
        fig = Figure(3, tuple(DyadicCube(3, 2, int(k)) for k in picks))
        _, faces = exposed_faces(fig)
        assert set(faces) == brute_force_faces(fig)


class TestFlux:
    def test_divergence_one_on_unit_square(self):
        fig = Figure(2, (DyadicCube(2, 0, 0),))
        assert flux(X_FIELD, fig, 3) == pytest.approx(1.0)

    def test_rotation_field_is_divergence_free(self):
        field = PolynomialField(2, (((Fraction(-1), (0, 1)),), ((Fraction(1), (1, 0)),)))
        rng = np.random.default_rng(4)
        fig = random_dyadic_figure(rng, 2, 2, 5)
        assert flux(field, fig, 4) == pytest.approx(0.0, abs=1e-12)

    def test_one_dimensional_flux_is_endpoint_difference(self):
        field = PolynomialField(1, (((Fraction(1), (2,)),),))  # v(x) = x^2
        fig = Figure(1, (DyadicCube(1, 2, 0), DyadicCube(1, 2, 1)))  # [0, 1/2]
        assert flux(field, fig, 0) == pytest.approx(0.25)  # v(1/2) - v(0)

    def test_empty_figure(self):
        assert flux(X_FIELD, Figure(2), 2) == 0.0

    @pytest.mark.parametrize("seed", range(3))
    def test_gauss_green_error_decays_order_two(self, seed):
        field = PolynomialField(
            2,
            (
                ((Fraction(1), (1, 0)), (Fraction(1, 100), (1, 2))),
                ((Fraction(1, 2), (0, 1)), (Fraction(1, 100), (2, 1))),
            ),
        )
        rng = np.random.default_rng(seed)
        fig = random_dyadic_figure(rng, 2, 3, 4 + seed)
        exact = float(field.divergence_integral_figure(fig))
        errs = [abs(flux(field, fig, L) - exact) for L in range(2, 7)]
        assert all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
        # empirical order ~ 4x error reduction per level
        for i in range(len(errs) - 1):
            assert errs[i] / errs[i + 1] == pytest.approx(4.0, rel=0.2)

    def test_additivity_under_split(self):
        field = PolynomialField(
            2,
            (
                ((Fraction(1), (1, 2)),),
                ((Fraction(1), (3, 0)), (Fraction(1, 2), (0, 1))),
            ),
        )
        rng = np.random.default_rng(11)
        cubes = tuple(DyadicCube(2, 2, int(k)) for k in rng.choice(16, 8, replace=False))
        whole = Figure(2, cubes)
        part_a = Figure(2, cubes[:3])
        part_b = Figure(2, cubes[3:])
        for level in (2, 4):
            assert flux(field, whole, level) == pytest.approx(
                flux(field, part_a, level) + flux(field, part_b, level), rel=1e-12
            )

    def test_quad_level_validation(self):
        field = PolynomialField(1, (((Fraction(1), (1,)),),))  # v(x) = x
        with pytest.raises(ValueError):
            flux(field, Figure(1, (DyadicCube(1, 0, 0),)), -1)
