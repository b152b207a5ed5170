import itertools
from fractions import Fraction

import numpy as np
import pytest

from sheetcharge.dyadic import DyadicCube, Figure
from sheetcharge.haar import (
    HaarIndex,
    StepFunction,
    haar_indices_up_to,
    haar_primitive_grid,
    haar_step,
    indicator_expansion,
)
from sheetcharge.increments import GridSample, coefficient_table, figure_increment
from sheetcharge.charge import (
    GridField,
    PolynomialField,
    field_from_json,
    flux,
    integrate_haar_over_figure,
    linear_field,
    schauder_partial_apply,
    step_inner_product,
)

from helpers import random_dyadic_figure


class TestStepInnerProduct:
    def test_constants(self):
        one2 = StepFunction(2, 2, np.ones(16))
        one1 = StepFunction(2, 1, np.ones(4))
        assert step_inner_product(one2, one1) == 1.0

    def test_haar_against_support_indicator(self):
        g = haar_step(HaarIndex(2, 1, 2, 1), 3, exact=True)
        ind = np.zeros(4, dtype=object)
        ind[...] = Fraction(0)
        ind[2] = Fraction(1)
        u = StepFunction(2, 1, ind)
        assert step_inner_product(g, u) == 0

    def test_bilinear(self):
        rng = np.random.default_rng(3)
        f = StepFunction(2, 2, rng.standard_normal(16))
        u = StepFunction(2, 2, rng.standard_normal(16))
        doubled = StepFunction(2, 2, 2 * np.asarray(f.values))
        assert step_inner_product(doubled, u) == pytest.approx(
            2 * step_inner_product(f, u)
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            step_inner_product(StepFunction(1, 1, np.ones(2)), StepFunction(2, 1, np.ones(4)))


class TestHaarOverFigure:
    def test_direct_cell_sum_example(self):
        fig = Figure(2, (DyadicCube(2, 1, 0),))
        val = integrate_haar_over_figure(2, 0, 0, 1, fig, exact=True)
        assert val == Fraction(1, 4)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_step_cell_sum(self, seed):
        # oracle: integrate by refining figure and Haar step to a common grid
        rng = np.random.default_rng(seed)
        for d, exact in itertools.product((1, 2, 3), (True, False)):
            gen = 3 if d < 3 else 2  # resolves every Haar child up to generation 1
            fig = random_dyadic_figure(rng, d, gen, 6)
            indices = haar_indices_up_to(d, 1)[1:]
            if d == 2:
                indices.append(HaarIndex(2, 2, 9, 3))  # one generation-2 function too
            ind = np.zeros(1 << (gen * d), dtype=object if exact else float)
            ind[...] = Fraction(0) if exact else 0.0
            for cube in fig.cubes:
                scale = gen - cube.gen
                base = cube.index << (d * scale)
                for off in range(1 << (d * scale)):
                    ind[base + off] = Fraction(1) if exact else 1.0
            u = StepFunction(d, gen, ind)
            for idx in indices:
                g = haar_step(idx, gen, exact=exact)
                got = integrate_haar_over_figure(d, idx.gen, idx.cube, idx.type, fig, exact=exact)
                want = step_inner_product(g, u)
                assert got == (want if exact else pytest.approx(want, rel=1e-12, abs=1e-15))

    def test_coarse_member_swallows_support(self):
        fig = Figure(2, (DyadicCube(2, 0, 0),))
        assert integrate_haar_over_figure(2, 1, 2, 3, fig, exact=True) == 0

    @pytest.mark.parametrize("exact", [True, False])
    def test_dimension_mismatch_rejected(self, exact):
        fig = Figure(1, (DyadicCube(1, 2, 1),))
        with pytest.raises(ValueError, match="dimension mismatch"):
            integrate_haar_over_figure(2, 0, 0, 1, fig, exact=exact)

    @pytest.mark.parametrize("exact", [True, False])
    def test_cube_out_of_range_rejected(self, exact):
        fig = Figure(2, (DyadicCube(2, 1, 0),))
        with pytest.raises(ValueError, match="cube number out of range"):
            integrate_haar_over_figure(2, 0, 5, 1, fig, exact=exact)

    @pytest.mark.parametrize("exact", [True, False])
    def test_type_zero_rejected(self, exact):
        fig = Figure(2, (DyadicCube(2, 1, 0),))
        with pytest.raises(ValueError, match="type number"):
            integrate_haar_over_figure(2, 0, 0, 0, fig, exact=exact)

    @pytest.mark.parametrize("exact", [True, False])
    def test_type_beyond_range_rejected_when_no_cube_qualifies(self, exact):
        fig = Figure(2, (DyadicCube(2, 0, 0),))  # swallows every support: no cube qualifies
        with pytest.raises(ValueError, match="type number"):
            integrate_haar_over_figure(2, 0, 0, 7, fig, exact=exact)

    def test_exceptional_index_rejected(self):
        with pytest.raises(ValueError, match="exceptional"):
            integrate_haar_over_figure(2, -1, 0, 0, Figure(2))

    @pytest.mark.parametrize("d,max_gen", [(1, 3), (2, 3), (3, 2)])
    def test_indicator_expansion_integrates_each_ancestor(self, d, max_gen):
        # both callers of the Haar cube rule: the coefficients of 1_Q are the
        # integrals of the Haar functions over the one-cube figure Q
        for gen in range(max_gen + 1):
            for k in range(1 << (gen * d)):
                cube = DyadicCube(d, gen, k)
                fig = Figure(d, (cube,))
                want = {HaarIndex.exceptional(d): cube.volume()}
                for n in range(gen):
                    a = cube.ancestor(n).index
                    for r in range(1, 1 << d):
                        want[HaarIndex(d, n, a, r)] = integrate_haar_over_figure(
                            d, n, a, r, fig, exact=True
                        )
                assert repr(indicator_expansion(cube)) == repr(want)  # same order, types, values


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
        from helpers import product_grid

        f = product_grid(2, 4)
        tab = coefficient_table(f, 3)
        rng = np.random.default_rng(8)
        for _ in range(5):
            fig = random_dyadic_figure(rng, 2, 3, 5)
            assert schauder_partial_apply(tab, 3, fig) == pytest.approx(
                figure_increment(f, fig), rel=1e-12, abs=1e-14
            )

    def test_single_primitive_quarter(self):
        grid = haar_primitive_grid(HaarIndex(2, 0, 0, 1), 3, exact=True)
        f = GridSample(2, 3, grid)
        tab = coefficient_table(f, 2)
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
        f = GridSample(2, 3, grid)
        tab = coefficient_table(f, 2)
        for seed in range(6):
            fig = random_dyadic_figure(np.random.default_rng(seed), 2, 3, 7)
            assert schauder_partial_apply(tab, 2, fig) == figure_increment(f, fig)

    def test_figure_finer_than_horizon_rejected(self):
        f = haar_primitive_grid(HaarIndex(2, 0, 0, 1), 4)
        tab = coefficient_table(GridSample(2, 4, f), 1)
        fig = Figure(2, (DyadicCube(2, 3, 0),))
        with pytest.raises(ValueError):
            schauder_partial_apply(tab, 1, fig)


class TestPolynomialField:
    def test_divergence_integral_linear(self):
        field = linear_field([[1, 0], [0, 0]])  # v = (x, 0), div = 1
        box = DyadicCube(2, 1, 0).box()
        assert field.divergence_integral(box) == Fraction(1, 4)

    def test_evaluate(self):
        field = PolynomialField(
            2, (((Fraction(2), (1, 1)),), ((Fraction(1), (0, 2)),))
        )
        pts = np.array([[0.5, 0.25], [1.0, 1.0]])
        vals = field.evaluate(pts)
        assert vals[0] == pytest.approx([2 * 0.5 * 0.25, 0.25**2])
        assert vals[1] == pytest.approx([2.0, 1.0])

    def test_json_roundtrip(self):
        field = PolynomialField(
            2, (((Fraction(1, 3), (2, 0)),), ((Fraction(-1), (0, 1)),))
        )
        back = field_from_json(field.to_json())
        assert back == field

    def test_linear_from_json(self):
        field = field_from_json({"kind": "linear", "matrix": [[0, -1], [1, 0]]})
        pts = np.array([[0.25, 0.75]])
        assert field.evaluate(pts)[0] == pytest.approx([-0.75, 0.25])

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            field_from_json({"kind": "mystery"})


class TestGridField:
    def test_interpolates_linear_exactly(self):
        xs = np.arange(5) / 4
        vx = np.add.outer(xs, 2 * xs)
        vy = np.add.outer(3 * xs, 0 * xs)
        field = GridField(2, 2, np.stack([vx, vy]))
        pts = np.array([[0.3, 0.6], [0.875, 0.125]])
        assert field.component(0, pts) == pytest.approx(pts[:, 0] + 2 * pts[:, 1])
        assert field.component(1, pts) == pytest.approx(3 * pts[:, 0])

    def test_json_roundtrip(self):
        xs = np.arange(3) / 2
        vx = np.multiply.outer(xs, xs)
        field = GridField(2, 1, np.stack([vx, vx]))
        back = field_from_json(field.to_json())
        assert np.allclose(back.values, field.values)


class TestFlux:
    def test_divergence_one_on_unit_square(self):
        field = linear_field([[1, 0], [0, 0]])
        fig = Figure(2, (DyadicCube(2, 0, 0),))
        assert flux(field, fig, 3) == pytest.approx(1.0)

    def test_rotation_field_is_divergence_free(self):
        field = field_from_json({"kind": "linear", "matrix": [[0, -1], [1, 0]]})
        rng = np.random.default_rng(4)
        fig = random_dyadic_figure(rng, 2, 2, 5)
        assert flux(field, fig, 4) == pytest.approx(0.0, abs=1e-12)

    def test_one_dimensional_flux_is_endpoint_difference(self):
        field = PolynomialField(1, (((Fraction(1), (2,)),),))  # v(x) = x^2
        fig = Figure(1, (DyadicCube(1, 2, 0), DyadicCube(1, 2, 1)))  # [0, 1/2]
        assert flux(field, fig, 0) == pytest.approx(0.25)  # v(1/2) - v(0)

    def test_empty_figure(self):
        field = linear_field([[1, 0], [0, 0]])
        assert flux(field, Figure(2), 2) == 0.0

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
        with pytest.raises(ValueError):
            flux(linear_field([[1]]), Figure(1, (DyadicCube(1, 0, 0),)), -1)
