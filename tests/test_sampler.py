import hashlib
import json
import math
import os
import struct
import subprocess
import sys
import threading
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sheetcharge import increments, sampler
from sheetcharge.increments import BottomSlab, GridSample, cube_increments
from sheetcharge.sampler import (
    HurstVector,
    axis_cholesky,
    fbm_kernel,
    grid_to_csv,
    load_grid,
    replicate_rng,
    sample_sheet,
    sample_sheet_ensemble,
    sample_standard_sheet,
    save_grid,
    sheet_covariance,
)

from helpers import (
    axis_kernel_matrix,
    dense_axis_cholesky,
    schur_factor,
    tile_noise,
    whole_factor,
)
from oracles import loop_noise_layers


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

    @pytest.mark.parametrize("h", [0.0, -0.2, 1.3, float("nan")])
    def test_exponent_outside_unit_interval_rejected(self, h):
        with pytest.raises(ValueError, match="must lie in"):
            fbm_kernel(h, 0.5, 0.5)

    @given(st.floats(0.05, 0.95), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_symmetric(self, h, t, tp):
        assert fbm_kernel(h, t, tp) == fbm_kernel(h, tp, t)

    def test_arrays_evaluate_pointwise(self):
        t = np.linspace(0.0, 1.0, 5)
        out = fbm_kernel(0.7, t[:, None], t[None, :])
        assert out.shape == (5, 5)
        for i, a in enumerate(t):
            for j, b in enumerate(t):
                assert out[i, j] == fbm_kernel(0.7, a, b)


class TestHurstVector:
    def test_needs_a_component(self):
        with pytest.raises(ValueError, match="at least one component"):
            HurstVector(())

    @pytest.mark.parametrize("comps", [(0.5, 1.0), (-0.1,), (0.5, float("nan"))])
    def test_component_outside_unit_interval_rejected(self, comps):
        with pytest.raises(ValueError, match="must lie in"):
            HurstVector(comps)

    def test_dim_hbar_and_of(self):
        H = HurstVector((0.6, 0.9, 0.3))
        assert H.dim == 3 and H.hbar == pytest.approx(0.6)
        assert HurstVector.of(H) is H
        assert HurstVector.of([0.6, 0.9, 0.3]) == H
        assert type(HurstVector((np.float32(0.5),)).components[0]) is float


class TestSheetCovariance:
    def test_unit_corner(self):
        assert sheet_covariance((0.5, 0.5), (1, 1), (1, 1)) == 1.0

    def test_product_of_minima(self):
        s, t = (0.25, 0.75), (0.5, 0.5)
        assert sheet_covariance((0.5, 0.5), s, t) == pytest.approx(0.25 * 0.5)

    def test_zero_coordinate(self):
        assert sheet_covariance((0.7, 0.9), (0.0, 0.5), (0.5, 0.5)) == 0.0

    @pytest.mark.parametrize(
        "s, t", [((0.5,), (0.5, 0.5)), ((0.5, 0.5), (0.5, 0.5, 0.5))], ids=["s-short", "t-long"]
    )
    def test_point_dimension_must_match(self, s, t):
        with pytest.raises(ValueError, match="point dimension"):
            sheet_covariance((0.7, 0.9), s, t)

    @given(st.floats(0.05, 0.95), st.floats(0.05, 0.95), *[st.floats(0.0, 1.0)] * 4)
    def test_product_of_axis_kernels(self, h1, h2, s1, s2, t1, t2):
        want = fbm_kernel(h1, s1, t1) * fbm_kernel(h2, s2, t2)
        assert sheet_covariance((h1, h2), (s1, s2), (t1, t2)) == pytest.approx(want, abs=1e-15)


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
            fac = whole_factor(axis_cholesky(h, 5))
            cov = axis_kernel_matrix(h, 5)
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

    def test_binary_bytes_match_header_and_tobytes(self, tmp_path):
        f = sample_sheet((0.7, 0.9), 3, seed=23)
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
            lambda: sample_standard_sheet(2, 5, seed=2),
            # 2^10 + 1 and 2^11 + 1 points: a full block plus one, and two plus one
            lambda: sample_standard_sheet(1, 10, seed=3),
            lambda: sample_sheet((0.7,), 11, seed=4),
            lambda: TestSerialization.with_specials(1, 4, seed=5),
            lambda: TestSerialization.with_specials(2, 3, seed=6),
        ],
        ids=[
            "d1-N0", "d2-N0", "d2-standard",
            "d1-block-plus-one", "d1-two-blocks-plus-one", "d1-specials", "d2-specials",
        ],
    )
    def test_csv_export_matches_cell_by_cell_bytes(self, tmp_path, make):
        self.assert_reference_bytes(make(), tmp_path)

    def test_csv_export_matches_reference_bytes(self, tmp_path):
        self.assert_reference_bytes(sample_sheet((0.6, 0.8), 4, seed=1), tmp_path)

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
            (lambda b: b"SHEETGRX" + b[8:], "not a grid sample file"),
        ],
        ids=[
            "short", "long", "head-16", "head-24", "huge-d", "huge-N", "zero-d", "nan", "inf",
            "magic",
        ],
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
    core = tile_noise(d, gen, seed, replicate) * 2.0 ** (-gen * d / 2.0)
    for axis in range(d):
        core = np.cumsum(core, axis=axis)
    full = np.zeros(((1 << gen) + 1,) * d)
    full[(slice(1, None),) * d] = core
    return full


def whole_draw_standard_sheet(d, gen, seed, replicate=0):
    """The whole noise scaled into the grid and summed in place.

    Axis by axis over the whole grid, every axis but the last row by row,
    as the sampler sums each layer of tiles.
    """
    full = np.zeros(((1 << gen) + 1,) * d)
    core = full[(slice(1, None),) * d]
    np.multiply(tile_noise(d, gen, seed, replicate), 2.0 ** (-gen * d / 2.0), out=core)
    for axis in range(d - 1):
        rows = np.moveaxis(core, axis, 0)
        for i in range(1, rows.shape[0]):
            rows[i] += rows[i - 1]
    np.cumsum(core, axis=d - 1, out=core)
    return full


class NamedThreads(threading.Thread):
    """Stands in for ``threading.Thread``; records the name of each thread started."""

    names: list = []

    def start(self):
        NamedThreads.names.append(self.name)
        super().start()


@pytest.fixture
def noise_threads(monkeypatch):
    """Names of the noise-draw pool's threads started while the test runs."""
    NamedThreads.names = []
    monkeypatch.setattr(threading, "Thread", NamedThreads)
    yield lambda: [name for name in NamedThreads.names if name.startswith("noise-draw")]


class RecordingJumps(np.random.Philox):
    """A draw's Philox whose jump to tile ``fail`` raises; records each tile jumped to,
    and the thread that jumped.  A draw jumps its workers' generators to their tiles
    with ``advance(t << 128)``."""

    def __init__(self, seed_seq, fail=None):
        super().__init__(seed_seq)
        self.fail, self.tiles, self.threads = fail, [], []

    def advance(self, delta):
        t = delta >> 128
        self.tiles.append(t)
        self.threads.append(threading.current_thread().name)
        if t == self.fail:
            raise RuntimeError("draw failed")
        return super().advance(delta)


class Jumps(list):
    """The RecordingJumps of each draw's workers, in order; tile ``fail`` raises in each."""

    fail = None


@pytest.fixture
def jumps(monkeypatch):
    """The draws' RecordingJumps while the test runs, in a Jumps list."""
    made = Jumps()

    def recording(seed, *stream):
        made.append(RecordingJumps(np.random.SeedSequence(seed, spawn_key=stream), made.fail))
        return np.random.Generator(made[-1])

    monkeypatch.setattr(sampler, "replicate_rng", recording)
    return made


class TestStandardSheetInPlace:
    @pytest.mark.parametrize("d,gens", [(1, (0, 1, 5, 10)), (2, (0, 1, 4, 7)), (3, (1, 2, 4))])
    def test_bit_identical_to_cumsum(self, d, gens):
        for gen in gens:
            for seed in range(5):
                got = sample_standard_sheet(d, gen, seed).values
                want = reference_standard_sheet(d, gen, seed)
                assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_tile_boxes(self):
        # 2^15 points, 256 x 256 and 64 x 64 x 32 cells, or the whole grid if smaller
        assert [sampler._noise_bits(d, 20) for d in (1, 2, 3, 4)] == [15, 16, 17, 18]
        assert sampler._noise_buffers(1, 20) == ((1 << 15,), 1 << 15)
        assert sampler._noise_buffers(2, 11) == ((256, 256), 1 << 16)
        assert sampler._noise_buffers(3, 7) == ((64, 64, 32), 1 << 16)  # two calls a tile
        assert sampler._noise_buffers(2, 3) == ((8, 8), 64)
        assert sampler._noise_buffers(3, 5) == ((32, 32, 32), 1 << 15)

    def test_noise_tile_is_fixed_apart_from_the_pyramid_chunk(self, monkeypatch):
        # The noise tile is the pyramid's tile at its default chunk size, but a
        # retuned chunk changes no bit: the stream rule has its own constant.
        for d in (1, 2, 3, 4):
            for gen in range(1, 12):
                assert sampler._noise_bits(d, gen) == increments._tile_bits(d, gen), (d, gen)
        want = reference_standard_sheet(2, 10, seed=1)
        for chunk_bits in (3, 9, 16):
            monkeypatch.setattr(increments, "_CHUNK_BITS", chunk_bits)
            got = sample_standard_sheet(2, 10, seed=1).values
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), chunk_bits

    def test_one_tile_keeps_the_stream(self):
        # d = 1 to N = 15, d = 2 to N = 8 and d = 3 to N = 5: the one tile is the
        # unjumped stream, one draw of it in C order, the 0.2.0 noise.
        for d, gen in ((1, 15), (2, 8), (3, 5)):
            got = sample_standard_sheet(d, gen, 4, replicate=2).values[(slice(1, None),) * d]
            noise = replicate_rng(4, 2).standard_normal((1 << gen,) * d) * 2.0 ** (-gen * d / 2)
            for axis in range(d):
                noise = np.cumsum(noise, axis=axis)
            assert np.array_equal(got.view(np.int64), noise.view(np.int64)), d

    def test_reset_and_advanced_philox_draws_the_jumped_tiles(self):
        # A worker's generator is set back to the stream's state and advanced by
        # t * 2^128 for tile t, after drawing other tiles: tile 0 and the last of
        # the 1024 tiles of a d=2, N=13 grid among them.
        box, size = sampler._noise_buffers(2, 13)
        last = (1 << (2 * 13 - sampler._noise_bits(2, 13))) - 1
        assert last == 1023 and size == math.prod(box)
        rng = replicate_rng(6, 3)
        state = rng.bit_generator.state
        for t in (5, 0, last, 1, 77, 0, last - 1):
            rng.bit_generator.state = state
            rng.bit_generator.advance(t << 128)
            got = rng.standard_normal(size)
            jumped = replicate_rng(6, 3).bit_generator.jumped(t)
            want = np.random.Generator(jumped).standard_normal(size)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), t

    @pytest.mark.parametrize(
        "d, gen, call",
        # default calls: d1 N17 is four tiles of one call, d2 N9 four tiles of
        # one call in two layers, d3 N6 two tiles of two calls, d2 N10 sixteen
        # tiles, d3 N7 sixteen in two layers, d4 N5 four tiles of two calls;
        # a call smaller than a tile row (d2, d3, d4) draws one row at a time
        [(1, 17, None), (2, 9, None), (3, 6, None), (1, 5, 8), (2, 5, 16), (3, 3, 4),
         (2, 10, None), (3, 7, None), (4, 5, None), (4, 3, 4)],
    )
    def test_block_draw_equals_one_whole_draw(self, monkeypatch, d, gen, call):
        # Tile by tile, call by call and layer by layer, carry row and all, the
        # bits of whole-grid sums of the stream rule's noise.
        if call is not None:
            monkeypatch.setattr(sampler, "_NOISE_CALL", call)
        for cores in (1, 2):  # drawn inline, and pooled
            monkeypatch.setattr(sampler, "_cores", lambda: cores)
            for seed in range(3):
                got = sample_standard_sheet(d, gen, seed).values.view(np.int64)
                for want in (whole_draw_standard_sheet(d, gen, seed),
                             reference_standard_sheet(d, gen, seed)):
                    assert np.array_equal(got, want.view(np.int64)), (cores, seed)

    def test_pooled_sheet_under_thread_switches(self, monkeypatch):
        # Switching every microsecond: two workers on one tile buffer, or a layer
        # summed before its tiles were in, would change the bits.
        monkeypatch.setattr(sampler, "_NOISE_CALL", 256)
        cases = [(2, 10, 4), (3, 7, 3), (4, 5, 8)]
        want = [reference_standard_sheet(d, gen, 2) for d, gen, _ in cases]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for (d, gen, cores), w in zip(cases, want):
                monkeypatch.setattr(sampler, "_cores", lambda: cores)
                got = []
                within_a_minute(lambda: got.append(sample_standard_sheet(d, gen, 2).values))
                assert np.array_equal(got[0].view(np.int64), w.view(np.int64)), d
        finally:
            sys.setswitchinterval(interval)

    def test_tile_error_reaches_the_caller(self, monkeypatch, jumps):
        # Layers (tiles 0, 2) and (1, 3): tile 3, worker 1's in the second layer,
        # fails; the sample raises it and leaves no thread behind.
        monkeypatch.setattr(sampler, "_cores", lambda: 2)
        jumps.fail = 3
        baseline = threading.active_count()
        with pytest.raises(RuntimeError, match="draw failed"):
            within_a_minute(lambda: sample_standard_sheet(2, 9, seed=0))
        assert threading.active_count() == baseline
        tiles = {t: name for j in jumps for t, name in zip(j.tiles, j.threads)}
        assert tiles[2] == tiles[3] == "noise-draw-1" and tiles[0] != "noise-draw-1"
        assert set(tiles) in ({0, 2, 3}, {0, 1, 2, 3})  # worker 0 may stop before tile 1

    def test_caller_error_stops_the_draw(self, monkeypatch):
        # Work on the second layer fails in the caller: no later layer is drawn,
        # and no thread is left.
        monkeypatch.setattr(sampler, "_cores", lambda: 2)
        core = np.zeros((1 << 10, 1 << 10))  # four layers of four tiles
        scratch = [np.empty(1 << 16) for _ in range(2)]

        def then(lo, hi):
            if lo:
                raise KeyError("work failed")

        baseline = threading.active_count()
        with pytest.raises(KeyError, match="work failed"):
            within_a_minute(lambda: sampler._draw_noise(core, 10, 0, 0, scratch, then=then))
        assert threading.active_count() == baseline
        assert core[:512].all() and not core[512:].any()

    def test_bits_independent_of_cores_and_blas_threads(self):
        # Whole standard sheets of four and eight tiles per layer, a slab, and a
        # fractional sheet whose products have two blocks, at 1, 2, 4 and 8
        # cores, in processes with one and two BLAS threads.
        code = (
            "import hashlib, json; from sheetcharge import sampler\n"
            "draws = [lambda: sampler.sample_standard_sheet(2, 10, 1),\n"
            "         lambda: sampler.sample_standard_sheet(3, 7, 1),\n"
            "         lambda: sampler.sample_standard_sheet(3, 7, 1, slab=2),\n"
            "         lambda: sampler.sample_sheet((0.3, 0.9), 11, 1)]\n"
            "out = []\n"
            "for cores in (1, 2, 4, 8):\n"
            "    sampler._cores = lambda: cores\n"
            "    out.append([hashlib.sha256(f().values.tobytes()).hexdigest() for f in draws])\n"
            "print(json.dumps(out))"
        )
        src = os.path.dirname(os.path.dirname(sampler.__file__))
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            done = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
            )
            digests.extend(json.loads(done.stdout))
        assert all(d == digests[0] for d in digests)
        want = hashlib.sha256(reference_standard_sheet(2, 10, 1).tobytes()).hexdigest()
        assert digests[0][0] == want

    def test_no_thread_for_one_block(self, monkeypatch, noise_threads):
        # One tile (d2 N8, the fbs-moments size), one core, one tile per layer
        # (d = 1), or a fractional sheet: drawn inline.
        monkeypatch.setattr(sampler, "_cores", lambda: 8)
        sample_standard_sheet(2, 8, seed=0)
        sample_standard_sheet(3, 5, seed=0)
        sample_standard_sheet(1, 17, seed=0)
        sample_sheet((0.7, 0.7), 8, seed=0)
        sample_sheet((0.6, 0.8), 10, seed=0)
        assert noise_threads() == []
        monkeypatch.setattr(sampler, "_cores", lambda: 1)
        sample_standard_sheet(2, 11, seed=0)
        sample_sheet((0.6, 0.8), 11, seed=0)
        assert noise_threads() == []
        monkeypatch.setattr(sampler, "_cores", lambda: 2)
        sample_standard_sheet(2, 9, seed=0)  # two layers of two tiles
        assert noise_threads() == ["noise-draw-1"] * 2
        NamedThreads.names.clear()
        sample_sheet((0.6, 0.8), 11, seed=0)  # eight layers of eight tiles, pooled products
        assert noise_threads() == []

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
        got = sample_standard_sheet(2, 9, seed=3, replicate=2).values
        want = reference_standard_sheet(2, 9, seed=3, replicate=2)
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


class TestBottomSlab:
    @pytest.mark.parametrize(
        "d, gen, call",
        # default calls: d1 N17 is four tiles, d2 N9 four, d3 N7 sixteen, d4 N5
        # four; calls of 4 values hold 4 points (d1) or one tile row
        [(1, 17, None), (1, 10, 4), (2, 9, None), (2, 6, 4), (3, 7, None), (3, 4, 4),
         (4, 5, None), (4, 3, 4)],
    )
    def test_slab_is_the_whole_sheet_cut_bit_for_bit(self, monkeypatch, d, gen, call):
        # The kept tiles are drawn whole, so the kept values get the whole
        # sheet's additions in the same order; n = N - 1 is thinner than a tile
        # layer wherever there is more than one tile.
        if call is not None:
            monkeypatch.setattr(sampler, "_NOISE_CALL", call)
        want = reference_standard_sheet(d, gen, seed=5, replicate=1)
        for cores in (1, 2):  # the whole sheet drawn inline, and pooled
            monkeypatch.setattr(sampler, "_cores", lambda: cores)
            whole = sample_standard_sheet(d, gen, seed=5, replicate=1).values
            assert np.array_equal(whole.view(np.int64), want.view(np.int64))
            for n in sorted({0, 1, 2, gen - 1}):
                slab = sample_standard_sheet(d, gen, seed=5, replicate=1, slab=n)
                cut = (1 << (gen - n)) + 1
                assert isinstance(slab, BottomSlab) and (slab.dim, slab.gen) == (d, gen)
                assert slab.values.shape == ((1 << gen) + 1,) * (d - 1) + (cut,)
                got, want_cut = slab.values.view(np.int64), whole[..., :cut].view(np.int64)
                assert np.array_equal(got, want_cut), (cores, n)

    def test_slab_draws_only_its_tiles(self, jumps):
        # d3 N7: sixteen tiles of 64 x 64 x 32 cells, four at the bottom; a slab
        # of 32 cells of the last axis or fewer draws those four only, layer by
        # layer along axis 0, and one of 64 cells the eight of two tiles.
        sample_standard_sheet(3, 7, seed=0, slab=2)
        sample_standard_sheet(3, 7, seed=0, slab=5)
        sample_standard_sheet(3, 7, seed=0, slab=1)
        assert [j.tiles for j in jumps] == [[0, 4, 2, 6], [0, 4, 2, 6], [0, 1, 4, 5, 2, 3, 6, 7]]

    def test_slab_draw_starts_no_thread(self, monkeypatch, noise_threads):
        # Two tiles per layer on two cores: the whole sheet pools them, a slab
        # draws inline.
        monkeypatch.setattr(sampler, "_cores", lambda: 2)
        sample_standard_sheet(2, 9, seed=0, slab=1)
        sample_standard_sheet(2, 9, seed=0, slab=0)
        assert noise_threads() == []
        sample_standard_sheet(2, 9, seed=0)
        assert noise_threads() == ["noise-draw-1"] * 2

    def test_slab_values_read_only_and_owned(self):
        values = sample_standard_sheet(3, 4, seed=1, slab=2).values
        assert not values.flags.writeable and values.base is None

    @pytest.mark.parametrize("slab", [-1, 5])
    def test_slab_outside_the_grid_raises(self, slab):
        with pytest.raises(ValueError, match="0 <= slab <= N"):
            sample_standard_sheet(2, 4, seed=0, slab=slab)

    @pytest.mark.parametrize(
        "shape", [(17, 4), (17, 18), (17, 33), (16, 5), (17,), (17, 1), ()],
        ids=["cut-3", "cut-17", "over", "short-axis", "flat", "no-cell", "scalar"],
    )
    def test_bad_slab_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="expected a slab"):
            BottomSlab(2, 4, np.zeros(shape))

    def test_slab_copies_a_writeable_array(self):
        values = np.zeros((5, 3))
        slab = BottomSlab(2, 2, values)
        values[1, 1] = 1.0
        assert not slab.values.any() and not slab.values.flags.writeable


class TestNoiseLayers:
    """The tiles a draw enumerates against every tile of the grid decoded and filtered."""

    @pytest.mark.parametrize(
        "d, gen, bits",
        # bits: the stream rule's _NOISE_BITS, or smaller for many tiles per grid
        [(1, 3, 14), (1, 17, 14), (1, 9, 2), (2, 9, 14), (2, 5, 1), (2, 6, 3),
         (3, 7, 14), (3, 4, 1), (3, 5, 2)],
    )
    def test_whole_and_cut_grids_match_the_filtered_loop(self, monkeypatch, d, gen, bits):
        monkeypatch.setattr(sampler, "_NOISE_BITS", bits)
        n = 1 << gen
        for cut in sorted({n, n >> 1, n >> 3, 3, 2, 1}):
            got = sampler._noise_layers(d, gen, cut)
            assert got == loop_noise_layers(d, gen, cut), cut
            assert all(tiles for tiles in got)

    def test_a_thin_cut_of_a_deep_grid_lists_its_tiles_alone(self):
        # 2^45 tiles, of which the first two cells reach one, and 2^85 at N = 100
        assert sampler._noise_layers(1, 60, 2) == [[(0, (0,))]]
        assert sampler._noise_layers(1, 100, 1 << 16) == [[(0, (0,))], [(1, (1 << 15,))]]


class TestWorkspaceDraw:
    """Draws through one workspace, one after another, against draws of their own."""

    @staticmethod
    def assert_bits(got, want):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize(
        "H", [(0.7,), (0.5,), (0.6, 0.8), (0.5, 0.7), (0.5, 0.8, 0.5), (0.55, 0.7, 0.9)]
    )
    def test_reused_workspace_draws_the_fresh_bits(self, H):
        # N = 5, 4, 5: the second shape replaces the grid, the third makes one
        # again; a pyramid pass runs through the workspace between draws, as
        # moment-scaling's does, over the Morton cells buffer the draw used.
        d, ws = len(H), increments._Workspace()
        for rep, gen in enumerate((5, 4, 5, 5)):
            before = None if ws._grid is None else weakref.ref(ws._grid)  # keeps it no more alive
            f = sample_sheet(H, gen, seed=3, replicate=rep, ws=ws)
            self.assert_bits(f.values, sample_sheet(H, gen, seed=3, replicate=rep).values)
            assert not f.values.flags.writeable and f.values.base is None
            for axis in range(d):  # never written, so zero after reuse
                assert not f.values[(slice(None),) * axis + (0,)].any()
            if rep == 3:  # the shape of the draw before, whose grid nothing holds
                assert f.values is before()
            for _ in increments._tiled_pyramid(f.values, 0, ws):
                pass
            del f

    def test_held_sheet_keeps_its_bytes(self):
        ws = increments._Workspace()
        first = sample_sheet((0.6, 0.8), 5, seed=1, ws=ws)
        kept = first.values.copy()
        view = sample_sheet((0.6, 0.8), 5, seed=1, replicate=1, ws=ws).values[1:]
        second = sample_sheet((0.6, 0.8), 5, seed=1, replicate=2, ws=ws)
        self.assert_bits(first.values, kept)
        assert view.base is not second.values and second.values is not first.values
        self.assert_bits(view, sample_sheet((0.6, 0.8), 5, seed=1, replicate=1).values[1:])
        self.assert_bits(second.values, sample_sheet((0.6, 0.8), 5, seed=1, replicate=2).values)

    def test_ensemble_draws_through_the_workspace(self):
        ws = increments._Workspace()
        for rep in range(3):
            (f,) = sample_sheet_ensemble((0.7, 0.7), 4, 2, range(rep, rep + 1), ws=ws)
            assert f.values is ws._grid
            self.assert_bits(f.values, sample_sheet((0.7, 0.7), 4, 2, replicate=rep).values)

    def test_split_products_share_the_workspace_scratch(self, monkeypatch):
        # Blocks of 8 indices on two cores: two leaf buffers, the first of them
        # the Morton cells buffer.
        monkeypatch.setattr(sampler, "_BLOCK", 8)
        monkeypatch.setattr(sampler, "_cores", lambda: 2)
        ws = increments._Workspace()
        for rep in range(3):
            f = sample_sheet((0.6, 0.9), 6, seed=0, replicate=rep, ws=ws)
            self.assert_bits(f.values, sample_sheet((0.6, 0.9), 6, seed=0, replicate=rep).values)
            del f
        assert set(ws._buffers) == {("cells",), ("draw", 1)}


class TestAxisFactorCache:
    """The cached factor path against factors built directly by axis_cholesky."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        sampler._axis_factor.cache_clear()
        yield
        sampler._axis_factor.cache_clear()

    @staticmethod
    def direct_sample(H, gen, seed, replicate):
        core = tile_noise(len(H), gen, seed, replicate)
        for axis, h in enumerate(H):  # mode product with each directly built factor
            core = leafwise_tensordot(whole_factor(axis_cholesky(h, gen)), core, axis)
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
                assert "jitter" not in f.meta
            g = sample_sheet(H, gen, seed, replicate=5)
            assert np.array_equal(g.values, self.direct_sample(H, gen, seed, 5))

    @pytest.mark.parametrize(
        "H, gen, call",
        # calls of one row and less (d2, d3), and the default: one tile to
        # N = 8 at d = 2 and N = 5 at d = 3, sixteen at d2 N10, two at d3 N6,
        # and the whole d = 1 sheet
        [((0.6, 0.8), 5, 16), ((0.55, 0.7, 0.9), 3, 4), ((0.7,), 11, None),
         ((0.6, 0.8), 10, None), ((0.55, 0.7, 0.9), 5, None), ((0.6, 0.7, 0.8), 6, None)],
    )
    def test_block_draw_equals_one_whole_draw(self, monkeypatch, H, gen, call):
        if call is not None:
            monkeypatch.setattr(sampler, "_NOISE_CALL", call)
        for cores in (1, 2):  # one worker: every product here has one block
            monkeypatch.setattr(sampler, "_cores", lambda: cores)
            for seed in (0, 3):
                got = sample_sheet(H, gen, seed, replicate=1).values
                want = self.direct_sample(H, gen, seed, 1)
                assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_one_factorization_per_distinct_h_and_gen(self, monkeypatch):
        calls = Counter()
        real = sampler.axis_cholesky

        def counting(h, gen, **kwargs):
            calls[(h, gen)] += 1
            return real(h, gen, **kwargs)

        monkeypatch.setattr(sampler, "axis_cholesky", counting)
        for seed in range(3):
            for _ in sample_sheet_ensemble((0.7, 0.9, 0.7), 3, seed, 4):
                pass
            sample_sheet((0.9, 0.7), 3, seed, replicate=2)
            sample_sheet((0.7,), 4, seed)
        assert calls == {(0.7, 3): 1, (0.9, 3): 1, (0.7, 4): 1}

    def test_peak_memory_with_cached_factor(self):
        # The grid and one scratch array of two 256-row leaves' worth (half a grid
        # at N = 9); the products run in place, so there is no second grid.
        sample_sheet((0.7, 0.9), 9, seed=0)  # factors both kernels
        tracemalloc.start()
        try:
            f = sample_sheet((0.7, 0.9), 9, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.55 * f.values.nbytes

    def test_cached_factor_is_read_only(self):
        # One leaf up to 256 rows, eight at N = 11: each is fac[lo:hi, :hi], bit for bit.
        for gen in (0, 3, 8, 9, 11):
            fac, leaves = schur_factor(0.8, gen), sampler._axis_factor(0.8, gen)
            assert len(leaves) == -(-(1 << gen) // 256)
            for k, leaf in enumerate(leaves):
                lo, hi = 256 * k, min(256 * (k + 1), 1 << gen)
                assert not leaf.flags.writeable
                with pytest.raises(ValueError):
                    leaf[0, 0] = 1.0
                assert leaf.flags.f_contiguous
                assert np.array_equal(leaf.view(np.int64), fac[lo:hi, :hi].view(np.int64))


class TestSchurFactor:
    """``axis_cholesky`` (Schur on the noise's Toeplitz covariance) against the dense oracle."""

    HS = (0.001, 0.05, 0.3, 0.5, 0.7, 0.9, 0.99, 0.9999)

    @pytest.mark.parametrize("gen", range(12))
    def test_backward_error_against_dense_oracle(self, gen):
        # The kernel is ill-conditioned near h = 1, so the two factors drift apart
        # there (6.6e-9 of max|L| at h = 0.9999, N = 11) while both reproduce it.
        for h in self.HS:
            kernel, fac = axis_kernel_matrix(h, gen), whole_factor(axis_cholesky(h, gen))
            dense = dense_axis_cholesky(h, gen)
            assert np.array_equal(fac, np.tril(fac))
            assert np.abs(fac @ fac.T - kernel).max() <= 1e-12 * np.abs(kernel).max(), h
            assert np.abs(fac - dense).max() <= 1e-8 * np.abs(dense).max(), h

    @pytest.mark.parametrize("gen", range(12))
    def test_half_is_scaled_all_ones_triangle(self, gen):
        want = 2.0 ** (-gen / 2) * np.tri(1 << gen)
        got = whole_factor(axis_cholesky(0.5, gen))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("h, step", [(1.0, 1), (float("nan"), 1)])
    def test_singular_kernel_raises(self, h, step):
        with pytest.raises(sampler.SamplerError, match=f"h={h}, N=4.*Schur step {step} "):
            axis_cholesky(h, 4)

    def test_peak_memory_leaves(self):
        # The leaves, one chunk of 256 summed rows and a few vectors: the whole
        # factor never exists, so the peak is 0.88 of it at N = 10, not 1.63.
        n = 1 << 10
        tracemalloc.start()
        try:
            axis_cholesky(0.9, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (n * (n + 256) // 2 + 256 * n + 8 * n)


def leafwise_tensordot(fac, core, axis):
    """tensordot of each 256-row leaf of ``fac`` with the rows of ``core`` it reads.

    On the last axis the rows of ``core`` come first, as in the product: at
    d = 1 a leaf is then the same vector-matrix BLAS call, whose sums run in
    another order than the matrix-vector one.
    """
    n, last = fac.shape[0], axis == core.ndim - 1
    out = np.empty(core.shape)
    for lo in range(0, n, 256):
        hi = min(lo + 256, n)
        rows = np.take(core, range(hi), axis=axis)
        if last:
            part = np.tensordot(rows, fac[lo:hi, :hi], axes=(axis, 1))
        else:
            part = np.moveaxis(np.tensordot(fac[lo:hi, :hi], rows, axes=(1, axis)), 0, axis)
        out[(slice(None),) * axis + (slice(lo, hi),)] = part
    return out


def leaf_blocks(fac):
    """The leaves ``fac[lo:hi, :hi]`` of a factor, 256 rows each, Fortran-ordered as kept."""
    n = fac.shape[0]
    return tuple(np.asfortranarray(fac[lo : lo + 256, : lo + 256]) for lo in range(0, n, 256))


def pool_workers(d, n, cores, block=1024):
    """Threads the mode product should use: one per core and block, from d = 2."""
    return min(cores, -(-n // block)) if d > 1 else 1


@pytest.fixture
def pools(monkeypatch):
    """The workers of each mode product's ``sampler._pool`` call, in call order."""
    workers, pool = [], sampler._pool

    def counting(name, count, k, work):
        if name == "mode-product":  # not a noise draw's
            workers.append(k)
        pool(name, count, k, work)

    monkeypatch.setattr(sampler, "_pool", counting)
    return workers


def in_place(leaves, core, axis, workers=None):
    """``_mode_product`` with the scratch arrays ``sample_sheet`` would give it, or ``workers``."""
    gen = core.shape[axis].bit_length() - 1
    size = sampler._scratch_size(core.ndim, gen)
    if workers is None:
        workers = sampler._workers(core.ndim, gen)
    sampler._mode_product(leaves, core, axis, [np.empty(size) for _ in range(workers)])


def within_a_minute(work):
    """Run ``work`` on a thread and fail, instead of hanging, if it has not ended in 60 s."""
    raised = []

    def target():
        try:
            work()
        except BaseException as exc:  # handed to the test thread below
            raised.append(exc)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(60)
    assert not thread.is_alive(), "the product did not end"
    if raised:
        raise raised[0]


def padded(core, fill=np.nan):
    """``core`` copied into the interior of a grid padded by ``fill``, and that interior view."""
    full = np.full(tuple(k + 1 for k in core.shape), fill)
    interior = full[(slice(1, None),) * core.ndim]
    interior[...] = core
    return full, interior


class TestSplitModeProduct:
    """The in-place leaf product against tensordot: leaf by leaf bit for bit, whole to 1e-13.

    Every product runs on the interior view of a grid whose 0-facets hold
    NaN: a product that read the padding would spread NaN, and one that
    wrote to a reshaped copy would leave the noise behind.
    """

    @staticmethod
    def lower_factor(n, seed):
        """A random lower triangle, Fortran-ordered like ``axis_cholesky``'s leaves.

        A vector-matrix leaf (d = 1) sums in another order for the other layout.
        """
        fac = np.random.default_rng(seed).standard_normal((n, n))
        fac[~np.tri(n, dtype=bool)] = 0.0
        return np.asfortranarray(fac)

    @pytest.mark.parametrize(
        "d,gen,block",
        [(1, g, None) for g in range(2, 13)]
        + [(2, g, None) for g in range(2, 12)]
        + [(3, g, None) for g in range(2, 8)]
        # blocks of 16: at d = 3 the axes beside the cut one stay whole
        + [(1, 9, 16), (2, 6, 16), (3, 5, 16), (3, 6, 16)],
    )
    def test_bit_equal_to_tensordot(self, monkeypatch, pools, d, gen, block):
        if block is not None:
            monkeypatch.setattr(sampler, "_BLOCK", block)
        n = 1 << gen
        fac = self.lower_factor(n, gen)
        leaves = leaf_blocks(fac)
        core = np.random.default_rng(gen + 1).standard_normal((n,) * d)
        for axis in range(d):
            want = leafwise_tensordot(fac, core, axis)
            for cores in (1, 2, 4, 8):
                pools.clear()
                monkeypatch.setattr(sampler, "_cores", lambda: cores)
                full, interior = padded(core)
                in_place(leaves, interior, axis)
                got = full[(slice(1, None),) * d]
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (axis, cores)
                for k in range(d):  # the padding is neither read nor written
                    assert np.isnan(np.moveaxis(full, k, 0)[0]).all()
                assert pools == [pool_workers(d, n, cores, block or 1024)]

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_close_to_tensordot(self, data):
        d = data.draw(st.integers(1, 3), label="d")
        gen = data.draw(st.integers(0, {1: 12, 2: 10, 3: 6}[d]), label="N")
        axis = data.draw(st.integers(0, d - 1), label="axis")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        n = 1 << gen
        fac = self.lower_factor(n, seed)
        core = np.random.default_rng(seed + 1).standard_normal((n,) * d)
        full, interior = padded(core, 0.0)
        in_place(leaf_blocks(fac), interior, axis)
        want = np.moveaxis(np.tensordot(fac, core, axes=(1, axis)), 0, axis)
        scale = np.moveaxis(np.tensordot(np.abs(fac), np.abs(core), axes=(1, axis)), 0, axis)
        assert np.all(np.abs(full[(slice(1, None),) * d] - want) <= 1e-13 * scale)

    def test_scratch_arrays_are_the_leaf_buffers(self, monkeypatch, pools):
        # The product allocates nothing of its own and runs one worker per
        # scratch array over its three blocks; the bits stay those of the
        # leafwise oracle.
        n, block = 2048, 128
        monkeypatch.setattr(sampler, "_BLOCK", block)
        fac = self.lower_factor(n, 5)
        core = np.random.default_rng(6).standard_normal((n, 3 * block))
        want = leafwise_tensordot(fac, core, 0)
        leaves = leaf_blocks(fac)
        for count in (1, 3):
            pools.clear()
            scratch = [np.empty(256 * block + 5) for _ in range(count)]  # longer is fine
            full, interior = padded(core)
            tracemalloc.start()
            try:
                sampler._mode_product(leaves, interior, 0, scratch)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert np.array_equal(full[1:, 1:].view(np.int64), want.view(np.int64))
            assert peak < 256 * block * 8 // 2  # half a leaf buffer: room for the threads only
            assert pools == [count]

    def test_leaf_error_is_raised_without_a_hang(self, monkeypatch, pools):
        # A leaf that fails ends its worker, the others stop at their next
        # block, and the error is raised once all have ended.  The last leaf
        # runs first, the first last.
        n = 2048
        monkeypatch.setattr(sampler, "_BLOCK", 16)
        for workers in (2, 8):
            for bad in (7, 5, 0):
                pools.clear()
                leaves = list(leaf_blocks(self.lower_factor(n, 1)))
                leaves[bad] = np.ones((256, 7))  # 7 columns: matmul rejects the shapes
                _, interior = padded(np.ones((n, 8 * 16)))  # eight blocks
                baseline = threading.active_count()
                with pytest.raises(ValueError):
                    within_a_minute(lambda: in_place(leaves, interior, 0, workers))
                assert pools == [workers]
                assert threading.active_count() == baseline

    def test_blocks_under_thread_switches(self, monkeypatch, pools):
        # Two, three and eight workers on fewer cores, switching every
        # microsecond: two workers on one leaf buffer, or a block written by a
        # worker other than its own, would change the bits.  The blocks are 16
        # columns wide: OpenBLAS sums blocks of 4 in another order than the
        # oracle's whole width.
        monkeypatch.setattr(sampler, "_BLOCK", 16)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for n, cols, workers in ((2048, 64, 2), (2048, 128, 8), (4096, 48, 3)):
                fac = self.lower_factor(n, 2)
                core = np.random.default_rng(3).standard_normal((n, cols))
                want = leafwise_tensordot(fac, core, 0)
                for _ in range(5):
                    pools.clear()
                    full, interior = padded(core)
                    within_a_minute(lambda: in_place(leaf_blocks(fac), interior, 0, workers))
                    assert np.array_equal(full[1:, 1:].view(np.int64), want.view(np.int64))
                    assert pools == [workers]
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("block", [None, 256])
    def test_sheet_independent_of_core_count(self, monkeypatch, pools, block):
        # The fbs-criteria size: each product has two blocks, or eight of 256
        # indices, so that four and eight workers run too.
        if block is not None:
            monkeypatch.setattr(sampler, "_BLOCK", block)
        H = (0.3, 0.9)
        draws = []
        for cores in (1, 2, 4, 8):
            monkeypatch.setattr(sampler, "_cores", lambda: cores)
            draws.append(sample_sheet(H, 11, seed=1).values)
        for draw in draws[1:]:
            assert np.array_equal(draws[0].view(np.int64), draw.view(np.int64))
        blocks = 2048 // (block or 1024)
        assert pools == [min(cores, blocks) for cores in (1, 2, 4, 8) for _ in H]
        core = tile_noise(2, 11, 1)
        for axis, h in enumerate(H):
            core = leafwise_tensordot(whole_factor(axis_cholesky(h, 11)), core, axis)
        assert np.array_equal(draws[0][1:, 1:].view(np.int64), core.view(np.int64))

    def test_sheet_independent_of_blas_threads(self):
        # The factor uses no BLAS and every leaf is one BLAS call of fixed shape.
        code = (
            "import hashlib; from sheetcharge.sampler import sample_sheet; "
            "print(hashlib.sha256(sample_sheet((0.3, 0.9), 11, 1).values.tobytes()).hexdigest())"
        )
        src = os.path.dirname(os.path.dirname(sampler.__file__))
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            done = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
            )
            digests.add(done.stdout.strip())
        assert len(digests) == 1

    def test_split_draw_peak_memory(self, monkeypatch):
        # The grid and one leaf buffer per worker, 1/16 grid each at N = 11.
        monkeypatch.setattr(sampler, "_cores", lambda: 2)
        sample_sheet((0.9, 0.9), 11, seed=0)  # factors the kernel outside the trace
        tracemalloc.start()
        try:
            f = sample_sheet((0.9, 0.9), 11, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.15 * f.values.nbytes

    def test_no_thread_below_the_split_size(self, monkeypatch, pools):
        # The fbs-moments sheet (d=2, N=8) and the fbs-export one (N=10): below
        # 2048 rows each product is one block and starts no thread, whatever the
        # core count; so is a 1-D product, of a single row.
        monkeypatch.setattr(sampler, "_cores", lambda: 8)
        sample_sheet((0.7, 0.7), 8, seed=0)
        sample_sheet((0.6, 0.8), 10, seed=0)
        sample_sheet((0.7,), 12, seed=0)
        assert pools == [1] * 5
