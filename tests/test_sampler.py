from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from sheetcharge import sampler
from sheetcharge.dyadic import Rectangle
from sheetcharge.increments import cube_increments
from sheetcharge.sampler import (
    HurstVector,
    axis_cholesky,
    axis_kernel_matrix,
    fbm_kernel,
    grid_to_csv,
    increment_covariance,
    load_grid,
    replicate_rng,
    sample_sheet,
    sample_sheet_ensemble,
    sample_standard_sheet,
    save_grid,
    sheet_covariance,
)

from helpers import product_grid


def frac_rect(lo, hi):
    return Rectangle(tuple(Fraction(x) for x in lo), tuple(Fraction(x) for x in hi))


def corner_expansion_covariance(H, rect_a, rect_b):
    """Brute-force oracle: expand both increments over all corner pairs."""
    total = 0.0
    for ca, sa in rect_a.corners():
        for cb, sb in rect_b.corners():
            total += sa * sb * sheet_covariance(
                H, [float(x) for x in ca], [float(x) for x in cb]
            )
    return total


class TestKernel:
    def test_half_is_min(self):
        for t, tp in [(0.3, 0.8), (0.5, 0.5), (1.0, 0.25)]:
            assert fbm_kernel(0.5, t, tp) == pytest.approx(min(t, tp))

    def test_diagonal(self):
        assert fbm_kernel(0.7, 0.6, 0.6) == pytest.approx(0.6**1.4)

    def test_zero_argument(self):
        assert fbm_kernel(0.9, 0.0, 0.7) == 0.0

    def test_range_validation(self):
        with pytest.raises(ValueError):
            fbm_kernel(1.0, 0.5, 0.5)
        with pytest.raises(ValueError):
            HurstVector((0.5, 0.0))


class TestSheetCovariance:
    def test_unit_corner(self):
        assert sheet_covariance((0.5, 0.5), (1, 1), (1, 1)) == 1.0

    def test_product_of_minima(self):
        s, t = (0.25, 0.75), (0.5, 0.5)
        assert sheet_covariance((0.5, 0.5), s, t) == pytest.approx(0.25 * 0.5)

    def test_zero_coordinate(self):
        assert sheet_covariance((0.7, 0.9), (0.0, 0.5), (0.5, 0.5)) == 0.0


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


class TestSampler:
    def test_reproducible(self):
        a = sample_sheet((0.8, 0.9), 3, seed=5)
        b = sample_sheet((0.8, 0.9), 3, seed=5)
        assert np.array_equal(a.values, b.values)
        c = sample_sheet((0.8, 0.9), 3, seed=6)
        assert not np.array_equal(a.values, c.values)

    def test_standard_reproducible(self):
        a = sample_standard_sheet(2, 4, seed=5)
        b = sample_standard_sheet(2, 4, seed=5)
        assert np.array_equal(a.values, b.values)

    def test_replicates_are_distinct_streams(self):
        g1 = replicate_rng(1, 0).standard_normal(4)
        g2 = replicate_rng(1, 1).standard_normal(4)
        assert not np.allclose(g1, g2)

    def test_boundary_zeros(self):
        f = sample_sheet((0.6,), 4, seed=2)
        assert f.values[0] == 0.0
        g = sample_standard_sheet(2, 3, seed=2)
        assert np.all(g.values[0, :] == 0) and np.all(g.values[:, 0] == 0)

    def test_axis_factor_reproduces_kernel(self):
        for h in (0.5, 0.8):
            fac, jitter = axis_cholesky(h, 5)
            cov = axis_kernel_matrix(h, 5)
            assert jitter == 0.0
            assert np.allclose(fac @ fac.T, cov, atol=1e-12)

    def test_unit_corner_variance(self):
        reps = 4000
        vals = [
            f.values[-1, -1]
            for f in sample_sheet_ensemble((0.7, 0.9), 2, 11, reps)
        ]
        assert np.var(vals) == pytest.approx(1.0, abs=4 * np.sqrt(2.0 / reps))

    def test_standard_sheet_increment_variance(self):
        # generation-n cube increments have variance 2^(-nd)
        reps, gen = 300, 4
        for n in (1, 3):
            pool = []
            for rep in range(reps):
                f = sample_standard_sheet(2, gen, seed=21, replicate=rep)
                pool.append(cube_increments(f, n))
            pool = np.concatenate(pool)
            target = 2.0 ** (-2 * n)
            se = target * np.sqrt(2.0 / pool.size)
            assert abs(pool.var() - target) <= 3 * se

    def test_standard_sheet_disjoint_increments_uncorrelated(self):
        reps = 2000
        a = np.empty(reps)
        b = np.empty(reps)
        for rep in range(reps):
            f = sample_standard_sheet(2, 2, seed=31, replicate=rep)
            incs = cube_increments(f, 1)
            a[rep], b[rep] = incs[0], incs[3]
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) <= 3.0 / np.sqrt(reps)

    def test_fractional_increment_variance_matches_volume_power(self):
        H = HurstVector((0.8, 0.9))
        reps = 1500
        pools = {1: [], 2: []}
        for f in sample_sheet_ensemble(H, 3, 13, reps):
            for n in pools:
                pools[n].append(cube_increments(f, n))
        for n, chunks in pools.items():
            pool = np.concatenate(chunks)
            target = (2.0 ** (-2 * n)) ** (2 * H.hbar)
            se = target * np.sqrt(2.0 / pool.size)  # iid lower bound on the SE
            assert abs(pool.var() - target) <= 6 * se

    def test_kronecker_grid_covariance(self):
        # MC covariance over the whole grid vs the tensor-product target
        H, gen, reps = (0.8, 0.9), 2, 10000
        n_pts = 1 << gen
        flat = np.empty((reps, n_pts * n_pts))
        for rep, f in enumerate(sample_sheet_ensemble(H, gen, 17, reps)):
            flat[rep] = f.values[1:, 1:].reshape(-1)
        emp = flat.T @ flat / reps
        c1 = axis_kernel_matrix(0.8, gen)
        c2 = axis_kernel_matrix(0.9, gen)
        target = np.kron(c1, c2)
        var_prod = np.outer(np.diag(target), np.diag(target)) + target**2
        z = (emp - target) / np.sqrt(var_prod / reps)
        assert (np.abs(z) <= 3).mean() >= 0.985

    def test_standard_path_matches_cholesky_law(self):
        # the fast cumulative-sum path and the factor path share the target
        # covariance, compared here exactly at the kernel level
        cov = axis_kernel_matrix(0.5, 3)
        t = np.arange(1, 9) / 8
        assert np.allclose(cov, np.minimum.outer(t, t))


class TestSerialization:
    def test_binary_roundtrip(self, tmp_path):
        f = sample_sheet((0.7, 0.9), 3, seed=23)
        path = tmp_path / "sample.grid"
        save_grid(f, path)
        back = load_grid(path)
        assert back.dim == f.dim and back.gen == f.gen
        assert back.hurst == f.hurst and back.seed == f.seed
        assert np.array_equal(back.values, f.values)

    def test_binary_roundtrip_without_hurst(self, tmp_path):
        from sheetcharge.increments import GridSample

        f = GridSample(1, 2, np.array([0.0, 1.0, 2.0, 1.0, 0.5]))
        path = tmp_path / "plain.grid"
        save_grid(f, path)
        back = load_grid(path)
        assert back.hurst is None and back.seed is None
        assert np.array_equal(back.values, f.values)

    def test_csv_export(self, tmp_path):
        f = sample_standard_sheet(2, 1, seed=3)
        path = tmp_path / "sample.csv"
        grid_to_csv(f, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "i,j,x,y,value"
        assert len(lines) == 1 + 9

    @staticmethod
    def reference_csv_2d(f, path):
        """Cell-by-cell d=2 export, the reference for grid_to_csv's row writer."""
        denom = 1 << f.gen
        with open(path, "w") as fh:
            fh.write("i,j,x,y,value\n")
            for i in range(f.values.shape[0]):
                for j in range(f.values.shape[1]):
                    fh.write(
                        f"{i},{j},{format(i / denom, '.17g')},"
                        f"{format(j / denom, '.17g')},"
                        f"{format(float(f.values[i, j]), '.17g')}\n"
                    )

    @pytest.mark.parametrize("exact", [False, True])
    def test_csv_export_matches_reference_bytes(self, tmp_path, exact):
        f = product_grid(2, 3, exact=True) if exact else sample_sheet((0.6, 0.8), 4, seed=1)
        grid_to_csv(f, tmp_path / "fast.csv")
        self.reference_csv_2d(f, tmp_path / "slow.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "slow.csv").read_bytes()

    def test_csv_export_rejects_high_dim(self, tmp_path):
        f = sample_standard_sheet(3, 1, seed=3)
        with pytest.raises(ValueError):
            grid_to_csv(f, tmp_path / "x.csv")


class TestAxisFactorCache:
    """The cached factor path against factors built directly by axis_cholesky."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        sampler._axis_factor.cache_clear()
        yield
        sampler._axis_factor.cache_clear()

    @staticmethod
    def direct_sample(H, gen, seed, replicate):
        factors = [axis_cholesky(h, gen)[0] for h in H]
        noise = replicate_rng(seed, replicate).standard_normal((1 << gen,) * len(H))
        core = sampler._apply_factors(factors, noise)
        full = np.zeros(((1 << gen) + 1,) * len(H))
        full[(slice(1, None),) * len(H)] = core
        return full

    @pytest.mark.parametrize(
        "H,gen",
        [
            ((0.7,), 6),
            ((0.8, 0.8), 4),
            ((0.6, 0.9), 4),
            ((0.7, 0.7, 0.7), 3),
            ((0.55, 0.7, 0.9), 3),
        ],
    )
    def test_matches_direct_factors(self, H, gen):
        for seed in (0, 7):
            for rep, f in enumerate(sample_sheet_ensemble(H, gen, seed, 3)):
                assert np.array_equal(f.values, self.direct_sample(H, gen, seed, rep))
                assert f.meta["jitter"] == [0.0] * len(H)
            g = sample_sheet(H, gen, seed, replicate=5)
            assert np.array_equal(g.values, self.direct_sample(H, gen, seed, 5))

    def test_one_factorization_per_distinct_h_and_gen(self, monkeypatch):
        calls = Counter()
        real = sampler.axis_cholesky

        def counting(h, gen):
            calls[(h, gen)] += 1
            return real(h, gen)

        monkeypatch.setattr(sampler, "axis_cholesky", counting)
        for seed in range(3):
            for _ in sample_sheet_ensemble((0.7, 0.9, 0.7), 3, seed, 4):
                pass
            sample_sheet((0.9, 0.7), 3, seed, replicate=2)
            sample_sheet((0.7,), 4, seed)
        assert calls == {(0.7, 3): 1, (0.9, 3): 1, (0.7, 4): 1}

    def test_cached_factor_is_read_only(self):
        fac, jitter = sampler._axis_factor(0.8, 3)
        assert not fac.flags.writeable
        with pytest.raises(ValueError):
            fac[0, 0] = 1.0
        assert np.array_equal(fac, axis_cholesky(0.8, 3)[0])
        assert jitter == 0.0
