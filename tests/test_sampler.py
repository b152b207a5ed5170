import struct
import threading
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from sheetcharge import sampler
from sheetcharge.dyadic import Rectangle
from sheetcharge.increments import GridSample, cube_increments
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

    @pytest.mark.parametrize(
        "f",
        [sample_sheet((0.7, 0.9), 3, seed=23), product_grid(2, 2, exact=True)],
        ids=["float", "exact"],
    )
    def test_binary_bytes_match_header_and_tobytes(self, tmp_path, f):
        save_grid(f, tmp_path / "sample.grid")
        hurst = f.hurst if f.hurst is not None else (float("nan"),) * f.dim
        seed = f.seed if f.seed is not None else -1
        want = (
            sampler._GRID_MAGIC
            + struct.pack(f"<qq{f.dim}dq", f.dim, f.gen, *hurst, seed)
            + np.asarray(f.values, dtype="<f8").tobytes()
        )
        assert (tmp_path / "sample.grid").read_bytes() == want

    def test_binary_export_does_not_copy_the_grid(self, tmp_path):
        f = sample_sheet((0.6, 0.8), 8, seed=1)
        tracemalloc.start()
        try:
            save_grid(f, tmp_path / "sample.grid")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= f.values.nbytes // 8

    def test_csv_export(self, tmp_path):
        f = sample_standard_sheet(2, 1, seed=3)
        path = tmp_path / "sample.csv"
        grid_to_csv(f, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "i,j,x,y,value"
        assert len(lines) == 1 + 9

    @staticmethod
    def reference_csv(f, path):
        """Cell-by-cell d <= 2 export, the reference for grid_to_csv's row templates."""
        denom = 1 << f.gen
        with open(path, "w") as fh:
            fh.write("i,x,value\n" if f.dim == 1 else "i,j,x,y,value\n")
            for idx in np.ndindex(f.values.shape):
                fields = [str(i) for i in idx] + [format(i / denom, ".17g") for i in idx]
                fh.write(",".join(fields) + f",{format(float(f.values[idx]), '.17g')}\n")

    @staticmethod
    def with_specials(d, gen, seed):
        """A fractional sheet whose first interior points hold the awkward floats."""
        values = np.array(sample_sheet((0.6, 0.8)[:d], gen, seed=seed).values)
        specials = [-0.0, 5e-324, 1e-5, 1e17, np.nan, np.inf, -np.inf, -1e-300, 1 / 3]
        points = list(np.ndindex(((1 << gen),) * d))[: len(specials)]
        for point, value in zip(points, specials):
            values[tuple(i + 1 for i in point)] = value
        return GridSample(d, gen, values)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: sample_sheet((0.6,), 0, seed=1),
            lambda: sample_sheet((0.6, 0.8), 0, seed=1),
            lambda: product_grid(1, 3, exact=True),
            lambda: sample_standard_sheet(2, 5, seed=2),
            # 2^10 + 1 and 2^11 + 1 points: a full block plus one, and two plus one
            lambda: sample_standard_sheet(1, 10, seed=3),
            lambda: sample_sheet((0.7,), 11, seed=4),
            lambda: TestSerialization.with_specials(1, 4, seed=5),
            lambda: TestSerialization.with_specials(2, 3, seed=6),
        ],
        ids=[
            "d1-N0", "d2-N0", "d1-exact", "d2-standard",
            "d1-block-plus-one", "d1-two-blocks-plus-one", "d1-specials", "d2-specials",
        ],
    )
    def test_csv_export_matches_cell_by_cell_bytes(self, tmp_path, make):
        self.assert_reference_bytes(make(), tmp_path)

    @pytest.mark.parametrize("exact", [False, True])
    def test_csv_export_matches_reference_bytes(self, tmp_path, exact):
        f = product_grid(2, 3, exact=True) if exact else sample_sheet((0.6, 0.8), 4, seed=1)
        self.assert_reference_bytes(f, tmp_path)

    def assert_reference_bytes(self, f, tmp_path):
        grid_to_csv(f, tmp_path / "fast.csv")
        self.reference_csv(f, tmp_path / "slow.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "slow.csv").read_bytes()

    def test_csv_specials_are_written(self, tmp_path):
        grid_to_csv(self.with_specials(2, 3, seed=6), tmp_path / "x.csv")
        values = [line.rsplit(",", 1)[1] for line in (tmp_path / "x.csv").read_text().splitlines()]
        for text in ("-0", "4.9406564584124654e-324", "1.0000000000000001e-05", "1e+17",
                     "nan", "inf", "-inf"):
            assert text in values

    def test_csv_export_rejects_high_dim(self, tmp_path):
        f = sample_standard_sheet(3, 1, seed=3)
        with pytest.raises(ValueError):
            grid_to_csv(f, tmp_path / "x.csv")

    @staticmethod
    def saved_bytes(tmp_path):
        path = tmp_path / "sample.grid"
        save_grid(sample_sheet((0.7, 0.9), 3, seed=23), path)
        return path, path.read_bytes()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda b: b[:-8], "payload has 640 bytes, not the 8 \\* 9\\^2"),
            (lambda b: b + bytes(8), "payload has 656 bytes"),
            (lambda b: b[:20], "header is truncated"),
            (lambda b: b[:30], "header is truncated"),
            # d = 2^40 claims a header longer than the file; nothing of that size is read
            (lambda b: b[:8] + struct.pack("<qq", 1 << 40, 3) + b[24:], "header is truncated"),
            (lambda b: b[:8] + struct.pack("<qq", 2, 62) + b[24:], "payload has 648 bytes"),
            (lambda b: b[:8] + struct.pack("<qq", 0, 3) + b[24:], "header has d=0"),
            (lambda b: b[:-8] + struct.pack("<d", float("nan")), "non-finite"),
            (lambda b: b[:-8] + struct.pack("<d", -float("inf")), "non-finite"),
        ],
        ids=["short", "long", "head-16", "head-24", "huge-d", "huge-N", "zero-d", "nan", "inf"],
    )
    def test_load_rejects_malformed_file(self, tmp_path, edit, message):
        path, data = self.saved_bytes(tmp_path)
        path.write_bytes(edit(data))
        with pytest.raises(ValueError, match=message):
            load_grid(path)

    def test_loaded_values_are_read_only(self, tmp_path):
        path, _ = self.saved_bytes(tmp_path)
        back = load_grid(path)
        assert not back.values.flags.writeable


def reference_standard_sheet(d, gen, seed, replicate=0):
    """The standard sheet as np.cumsum along each axis of the scaled noise, embedded."""
    core = replicate_rng(seed, replicate).standard_normal((1 << gen,) * d)
    core = core * 2.0 ** (-gen * d / 2.0)
    for axis in range(d):
        core = np.cumsum(core, axis=axis)
    full = np.zeros(((1 << gen) + 1,) * d)
    full[(slice(1, None),) * d] = core
    return full


class TestStandardSheetInPlace:
    @pytest.mark.parametrize("d,gens", [(1, (0, 1, 5, 10)), (2, (0, 1, 4, 7)), (3, (1, 2, 4))])
    def test_bit_identical_to_cumsum(self, d, gens):
        for gen in gens:
            for seed in range(5):
                got = sample_standard_sheet(d, gen, seed).values
                want = reference_standard_sheet(d, gen, seed)
                assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize(
        "d, gen, block",
        # default blocks: d1 N17 is two, d2 N9 and d3 N6 four; a block smaller
        # than a row (d2, d3) draws one row at a time
        [(1, 17, None), (2, 9, None), (3, 6, None), (1, 5, 8), (2, 5, 16), (3, 3, 4)],
    )
    def test_block_draw_equals_one_whole_draw(self, monkeypatch, d, gen, block):
        if block is not None:
            monkeypatch.setattr(sampler, "_NOISE_BLOCK", block)
        for seed in range(3):
            # the whole noise drawn at once, scaled into the grid and summed in place
            full = np.zeros(((1 << gen) + 1,) * d)
            core = full[(slice(1, None),) * d]
            noise = replicate_rng(seed, 0).standard_normal((1 << gen,) * d)
            np.multiply(noise, 2.0 ** (-gen * d / 2.0), out=core)
            for axis in range(d - 1):
                rows = np.moveaxis(core, axis, 0)
                for i in range(1, rows.shape[0]):
                    rows[i] += rows[i - 1]
            np.cumsum(core, axis=d - 1, out=core)
            got = sample_standard_sheet(d, gen, seed).values
            assert np.array_equal(got.view(np.int64), full.view(np.int64))

    def test_peak_memory_about_one_grid(self):
        # the noise goes straight into the grid: no whole-grid temporary beside it
        grid = 8 * ((1 << 11) + 1) ** 2
        tracemalloc.start()
        try:
            sample_standard_sheet(2, 11, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * grid

    def test_replicate_stream(self):
        got = sample_standard_sheet(2, 4, seed=3, replicate=2).values
        want = reference_standard_sheet(2, 4, seed=3, replicate=2)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize(
        "draw",
        [lambda: sample_standard_sheet(2, 3, seed=1), lambda: sample_sheet((0.7, 0.8), 3, seed=1)],
    )
    def test_values_read_only_and_owned(self, draw):
        values = draw().values
        assert not values.flags.writeable and values.base is None
        with pytest.raises(ValueError):
            values[1, 1] = 0.0


class TestAxisFactorCache:
    """The cached factor path against factors built directly by axis_cholesky."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        sampler._axis_factor.cache_clear()
        yield
        sampler._axis_factor.cache_clear()

    @staticmethod
    def direct_sample(H, gen, seed, replicate):
        core = replicate_rng(seed, replicate).standard_normal((1 << gen,) * len(H))
        for axis, h in enumerate(H):  # mode product with each directly built factor
            fac = axis_cholesky(h, gen)[0]
            core = np.moveaxis(np.tensordot(fac, core, axes=(1, axis)), 0, axis)
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

    def test_peak_memory_with_cached_factor(self):
        # At most two grid-sized arrays at once: a mode product's input and output,
        # then the core and the zero-padded grid it is copied into.
        sample_sheet((0.7, 0.9), 9, seed=0)  # factors both kernels
        tracemalloc.start()
        try:
            f = sample_sheet((0.7, 0.9), 9, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * f.values.nbytes

    def test_cached_factor_is_read_only(self):
        fac, jitter = sampler._axis_factor(0.8, 3)
        assert not fac.flags.writeable
        with pytest.raises(ValueError):
            fac[0, 0] = 1.0
        assert np.array_equal(fac, axis_cholesky(0.8, 3)[0])
        assert jitter == 0.0


def split_parts(n, cores):
    """Row blocks the mode product should use: a power of two, each >= 1024 rows."""
    parts = 1
    while 2 * parts <= cores and n // (2 * parts) >= 1024:
        parts *= 2
    return parts


class CountingThreads:
    """Stands in for the ``threading`` module in ``sampler``; counts started threads."""

    def __init__(self):
        self.started = 0
        counter = self

        class Thread(threading.Thread):
            def start(self):
                counter.started += 1
                super().start()

        self.Thread = Thread


openblas_only = pytest.mark.skipif(
    not sampler._openblas(), reason="row blocks are bit-safe only under OpenBLAS"
)


class TestSplitModeProduct:
    """The row-split product against the tensordot it replaced, bit for bit."""

    @staticmethod
    def lower_factor(n, seed):
        fac = np.random.default_rng(seed).standard_normal((n, n))
        fac[~np.tri(n, dtype=bool)] = 0.0
        return fac

    @openblas_only
    @pytest.mark.parametrize(
        "d,gen",
        [(1, g) for g in range(2, 13)]
        + [(2, g) for g in range(2, 12)]
        + [(3, g) for g in range(2, 8)],
    )
    def test_bit_equal_to_tensordot(self, monkeypatch, d, gen):
        n = 1 << gen
        fac = self.lower_factor(n, gen)
        core = np.random.default_rng(gen + 1).standard_normal((n,) * d)
        for axis in range(d):
            want = np.moveaxis(np.tensordot(fac, core, axes=(1, axis)), 0, axis)
            for cores in (1, 2, 4, 8):
                threads = CountingThreads()
                monkeypatch.setattr(sampler, "threading", threads)
                monkeypatch.setattr(sampler, "_cores", lambda: cores)
                got = sampler._mode_product(fac, core, axis)
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (axis, cores)
                assert threads.started == split_parts(n, cores) - 1

    @openblas_only
    def test_sheet_independent_of_core_count(self, monkeypatch):
        # The fbs-criteria size, where two cores split both products in halves.
        H = (0.3, 0.9)
        draws = []
        for cores in (1, 2):
            monkeypatch.setattr(sampler, "_cores", lambda: cores)
            draws.append(sample_sheet(H, 11, seed=1).values)
        assert np.array_equal(draws[0].view(np.int64), draws[1].view(np.int64))
        core = replicate_rng(1, 0).standard_normal((1 << 11,) * 2)
        for axis, h in enumerate(H):  # the tensordot mode products of the parent code
            fac = sampler._axis_factor(h, 11)[0]
            core = np.moveaxis(np.tensordot(fac, core, axes=(1, axis)), 0, axis)
        assert np.array_equal(draws[1][1:, 1:].view(np.int64), core.view(np.int64))

    def test_split_draw_peak_memory(self, monkeypatch):
        # The split product writes into one preallocated output, so the draw
        # still holds at most two grid-sized arrays at once.
        monkeypatch.setattr(sampler, "_cores", lambda: 2)
        sample_sheet((0.9, 0.9), 11, seed=0)  # factors the kernel outside the trace
        tracemalloc.start()
        try:
            f = sample_sheet((0.9, 0.9), 11, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * f.values.nbytes

    def test_no_thread_below_the_split_size(self, monkeypatch):
        # The fbs-moments sheet (d=2, N=8): 256-row products never split,
        # whatever the core count.
        threads = CountingThreads()
        monkeypatch.setattr(sampler, "threading", threads)
        monkeypatch.setattr(sampler, "_cores", lambda: 8)
        sample_sheet((0.7, 0.7), 8, seed=0)
        assert threads.started == 0

    def test_one_block_without_openblas(self, monkeypatch):
        monkeypatch.setattr(sampler, "_openblas", lambda: False)
        assert sampler._cores() == 1
