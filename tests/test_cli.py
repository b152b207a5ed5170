import json
import warnings

import numpy as np
import pytest

from sheetcharge import cli, experiment
from sheetcharge.cli import main
from sheetcharge.criteria import build_report, moment_scaling_fit
from sheetcharge.experiment import ExperimentConfig, counterexample_figure
from sheetcharge.increments import coefficient_table, cube_increments
from sheetcharge.sampler import (
    SamplerError,
    load_grid,
    replicate_rng,
    sample_sheet,
    sample_standard_sheet,
    sheet_covariance,
)

from helpers import holder_ratio_by_level, zero_grid


def write_config(tmp_path, **kwargs):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(kwargs))
    return path


def run_cli(args):
    return main([str(a) for a in args])


class TestSubcommands:
    def test_simulate_writes_grid_and_csv(self, tmp_path):
        cfg = write_config(tmp_path, d=2, N=3, H=[0.7, 0.9], seeds=[5], out=str(tmp_path / "out"))
        assert run_cli(["simulate", "--config", cfg]) == 0
        grid = load_grid(tmp_path / "out" / "sample_seed5.grid")
        assert grid.gen == 3 and grid.hurst == (0.7, 0.9)
        assert (tmp_path / "out" / "sample_seed5.csv").exists()
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_covariance_check_z_scores(self, tmp_path):
        cfg = write_config(
            tmp_path,
            d=2, N=3, H=[0.8, 0.9], seeds=[3], replicates=10000, pairs=10,
            out=str(tmp_path / "out"),
        )
        assert run_cli(["covariance-check", "--config", cfg]) == 0
        lines = (tmp_path / "out" / "covariance_check.csv").read_text().strip().splitlines()
        assert lines[0] == "pair,empirical,exact,z"
        zs = [abs(float(line.rsplit(",", 1)[1])) for line in lines[1:]]
        assert len(zs) == 10
        assert sum(z <= 3 for z in zs) >= 9

    def test_brownian_dichotomy(self, tmp_path):
        cfg = write_config(tmp_path, d=2, N=5, M=4, seeds=list(range(6)), out=str(tmp_path / "out"))
        assert run_cli(["brownian-dichotomy", "--config", cfg]) == 0
        summary = json.loads((tmp_path / "out" / "brownian_dichotomy.json").read_text())
        assert len(summary["mean_abs_by_gen"]) == 5
        # crude sanity at a shallow level
        assert summary["mean_abs_by_gen"][4] == pytest.approx(np.sqrt(2 / np.pi), abs=0.2)

    def test_fractional_criteria(self, tmp_path):
        cfg = write_config(
            tmp_path, d=2, N=6, M=5, H=[0.9, 0.9], seeds=[0, 1], out=str(tmp_path / "out"),
        )
        assert run_cli(["fractional-criteria", "--config", cfg]) == 0
        summary = json.loads((tmp_path / "out" / "fractional_criteria.json").read_text())
        assert summary["reference_rate"] == pytest.approx(-0.8)
        assert len(summary["fitted_log2_ratio_by_seed"]) == 2

    def test_holder_scan(self, tmp_path):
        cfg = write_config(
            tmp_path, d=2, N=5, M=4, H=[0.9, 0.9], gamma=[0.6, 0.7], seeds=[2],
            out=str(tmp_path / "out"),
        )
        assert run_cli(["holder-scan", "--config", cfg]) == 0
        lines = (tmp_path / "out" / "holder_scan.csv").read_text().strip().splitlines()
        assert lines[0] == "seed,gamma,n,ratio"
        assert len(lines) == 1 + 2 * 5

    def test_moment_scaling(self, tmp_path):
        cfg = write_config(
            tmp_path, d=2, N=5, H=[0.5, 0.5], q=[2.0], seeds=[4], replicates=50,
            gens=[1, 2, 3], out=str(tmp_path / "out"),
        )
        assert run_cli(["moment-scaling", "--config", cfg]) == 0
        summary = json.loads((tmp_path / "out" / "moment_scaling.json").read_text())
        fit = summary["fits"][0]
        assert fit["reference_slope"] == pytest.approx(1.0)
        assert fit["slope"] == pytest.approx(1.0, abs=0.1)

    def test_counterexample(self, tmp_path):
        cfg = write_config(
            tmp_path, d=2, N=8, n=2, p_max=7, seeds=[1, 2, 3], out=str(tmp_path / "out"),
        )
        assert run_cli(["counterexample", "--config", cfg]) == 0
        lines = (tmp_path / "out" / "counterexample.csv").read_text().strip().splitlines()
        assert len(lines) == 4
        from sheetcharge.dyadic import Figure

        fig = Figure.from_json((tmp_path / "out" / "counterexample_figure_seed1.json").read_text())
        assert fig.dim == 2


class TestCliContract:
    def test_invalid_config_nonzero_exit(self, tmp_path, capsys):
        cfg = write_config(tmp_path, d=2, N=3, M=5, seeds=[1])
        assert run_cli(["simulate", "--config", cfg]) == 2
        assert "invalid config" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad",
        [
            {"N": 8.5},
            {"N": 4.0},
            {"d": True},
            {"replicates": "3"},
            {"M": 2.0},
            {"seeds": [1.5]},
            {"gens": [1, 2.0]},
        ],
    )
    def test_non_integer_field_rejected(self, tmp_path, capsys, bad):
        cfg = write_config(tmp_path, **{"d": 1, "N": 4, "seeds": [1], **bad})
        assert run_cli(["simulate", "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert "must be an integer" in capsys.readouterr().err

    def test_fit_min_gen_beyond_fit_range_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, d=2, N=6, H=[0.9, 0.9], fit_min_gen=9, seeds=[0])
        assert run_cli(["fractional-criteria", "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert "fit_min_gen" in capsys.readouterr().err

    def test_fit_min_gen_checked_for_fractional_criteria_only(self, tmp_path):
        # default fit_min_gen=3 exceeds M-1=1 here; other subcommands do not fit
        cfg = write_config(tmp_path, d=1, N=3, seeds=[0], out=str(tmp_path / "out"))
        assert run_cli(["brownian-dichotomy", "--config", cfg]) == 0

    def test_gens_outside_grid_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, d=1, N=4, H=[0.7], gens=[-1, 2], seeds=[0])
        assert run_cli(["moment-scaling", "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert "gens" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert run_cli(["simulate", "--config", tmp_path / "nope.json"]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_config_not_utf8(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # the default out directory would land here
        cfg = tmp_path / "config.json"
        cfg.write_bytes(b"\xff\xfe{}")  # a UTF-16 byte-order mark
        assert run_cli(["simulate", "--config", cfg]) == 2
        assert "cannot read config" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_out_that_cannot_be_a_directory(self, tmp_path, capsys, out):
        cfg = write_config(tmp_path, d=1, N=3, seeds=[0])
        (tmp_path / "afile").write_text("kept")
        assert run_cli(["simulate", "--config", cfg, "--out", tmp_path / out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("sheetcharge: cannot write output: ") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "config.json"]
        assert (tmp_path / "afile").read_text() == "kept"

    def test_sampler_failure_exits_one_with_a_message(self, tmp_path, monkeypatch, capsys):
        def singular(cfg):
            raise SamplerError("kernel not positive definite")

        monkeypatch.setattr(cli, "run", singular)
        cfg = write_config(tmp_path, d=1, N=3, H=[0.7], seeds=[0])
        assert run_cli(["simulate", "--config", cfg, "--out", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert err == "sheetcharge: sampler failure: kernel not positive definite\n"

    def test_seed_and_out_overrides(self, tmp_path):
        cfg = write_config(tmp_path, d=1, N=3, seeds=[1, 2, 3])
        out = tmp_path / "elsewhere"
        assert run_cli(["simulate", "--config", cfg, "--seed", 9, "--out", out]) == 0
        assert (out / "sample_seed9.grid").exists()
        assert not (out / "sample_seed1.grid").exists()

    def test_manifest_roundtrip_bit_identical(self, tmp_path):
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        cfg = write_config(
            tmp_path, d=2, N=4, M=3, seeds=[0, 1], out=str(out1),
        )
        assert run_cli(["brownian-dichotomy", "--config", cfg]) == 0
        manifest = out1 / "manifest.json"
        assert run_cli(["brownian-dichotomy", "--config", manifest, "--out", out2]) == 0
        a = (out1 / "brownian_dichotomy.csv").read_bytes()
        b = (out2 / "brownian_dichotomy.csv").read_bytes()
        assert a == b

    def test_rerun_same_config_bit_identical(self, tmp_path):
        for out in ("a", "b"):
            cfg = write_config(
                tmp_path, d=2, N=6, n=2, p_max=5, seeds=[3], out=str(tmp_path / out),
            )
            assert run_cli(["counterexample", "--config", cfg]) == 0
        a = (tmp_path / "a" / "counterexample.csv").read_bytes()
        b = (tmp_path / "b" / "counterexample.csv").read_bytes()
        assert a == b


class TestConfigRejectedBeforeWriting:
    """Malformed configs exit 2 with "invalid config" and leave no output directory."""

    @pytest.mark.parametrize(
        "subcommand, obj",
        [
            pytest.param("simulate", {"d": 1, "N": 3, "seeds": 5}, id="seeds-scalar"),
            pytest.param("holder-scan", {"d": 1, "N": 3, "gamma": 5}, id="gamma-scalar"),
            pytest.param("simulate", {"d": 1, "N": 3, "H": ["x"]}, id="H-word"),
            pytest.param("simulate", {"d": 1, "N": 3, "H": ["0.7"]}, id="H-numeric-string"),
            pytest.param("simulate", {"d": 1, "N": 3, "H": [1.5]}, id="H-above-1"),
            pytest.param(
                "moment-scaling", {"d": 1, "N": 6, "H": [0.7], "replicates": 50, "q": ["a"]},
                id="q-word",
            ),
            pytest.param("counterexample", {"d": 2, "N": 4, "n": 1, "hbar": "x"}, id="hbar-word"),
            pytest.param("holder-scan", {"d": 1, "N": 3, "gamma": [1.5]}, id="gamma-above-1"),
            pytest.param("holder-scan", {"d": 1, "N": 3, "gamma": [0]}, id="gamma-zero"),
            pytest.param(
                "moment-scaling", {"d": 1, "N": 6, "H": [0.7], "replicates": 50, "q": [0]},
                id="q-zero",
            ),
            pytest.param("covariance-check", {"d": 1, "N": 3}, id="covariance-no-H"),
            pytest.param(
                "fractional-criteria", {"d": 1, "N": 6, "fit_min_gen": 1}, id="criteria-no-H"
            ),
            pytest.param("moment-scaling", {"d": 1, "N": 6, "replicates": 50}, id="moments-no-H"),
            pytest.param("moment-scaling", {"d": 1, "N": 3, "H": [0.7]}, id="moments-one-gen"),
            pytest.param(  # 7 * 2^2 = 28 < 32 samples at generation 2
                "moment-scaling", {"d": 1, "N": 4, "H": [0.7], "replicates": 7, "gens": [2, 3]},
                id="moments-too-few",
            ),
            pytest.param(  # one row per replicate: a repeated generation cannot pool twice
                "moment-scaling",
                {"d": 1, "N": 5, "H": [0.7], "replicates": 8, "gens": [3, 3, 4]},
                id="gens-repeated",
            ),
            # Above any machine's physical memory: a 550 GB grid, a 3^40-point grid,
            # and at d=1 a 1 MiB grid whose 2^17 x 2^17 axis factor needs 128 GiB.
            pytest.param("simulate", {"d": 3, "N": 12}, id="memory-grid-d3"),
            pytest.param("simulate", {"d": 40, "N": 1}, id="memory-grid-d40"),
            pytest.param(
                "fractional-criteria", {"d": 1, "N": 17, "H": [0.7]}, id="memory-axis-kernel"
            ),
            pytest.param("simulate", [1, 2], id="top-level-list"),
            pytest.param("simulate", {"d": 0, "N": 3}, id="d-zero"),
            pytest.param("simulate", {"d": 1, "N": 0}, id="N-zero"),
            pytest.param("simulate", {"d": 1, "N": 3, "M": -1}, id="M-negative"),
            pytest.param(
                "moment-scaling", {"d": 1, "N": 6, "H": [0.7], "replicates": 0},
                id="replicates-zero",
            ),
            pytest.param("simulate", {"d": 1, "N": 3, "seeds": [-1]}, id="seed-negative"),
            pytest.param("simulate", {"d": 1, "N": 3, "out": 5}, id="out-number"),
            pytest.param("counterexample", {"d": 2, "N": 4, "n": -1}, id="n-negative"),
            pytest.param(
                "counterexample", {"d": 2, "N": 4, "n": 1, "hbar": float("nan")}, id="hbar-nan"
            ),
            pytest.param(  # 2^(-p*d*hbar) would overflow
                "counterexample", {"d": 2, "N": 4, "n": 0, "hbar": -1e6}, id="hbar-negative"
            ),
            pytest.param("counterexample", {"d": 2, "N": 4, "n": 0, "hbar": 1}, id="hbar-one"),
            pytest.param(
                "covariance-check", {"d": 1, "N": 3, "H": [0.6], "pairs": -2}, id="pairs-negative"
            ),
            pytest.param(
                "covariance-check", {"d": 1, "N": 3, "H": [0.6], "pairs": 0}, id="pairs-zero"
            ),
            pytest.param(  # replicate 10^6's noise would be the pair picker's stream
                "covariance-check",
                {"d": 1, "N": 3, "H": [0.6], "replicates": 10**6 + 1},
                id="replicates-share-picker-stream",
            ),
        ],
    )
    def test_rejected(self, tmp_path, monkeypatch, capsys, subcommand, obj):
        monkeypatch.chdir(tmp_path)  # the default out directory would land here
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(obj))
        assert run_cli([subcommand, "--config", cfg]) == 2
        assert "invalid config" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_covariance_check_takes_replicates_up_to_the_picker_stream(self):
        cfg = ExperimentConfig("covariance-check", d=1, N=3, H=(0.6,), replicates=10**6)
        assert cfg.replicates == 10**6

    def test_moment_scaling_counts_pooled_samples(self, tmp_path):
        # 8 * 2^2 = 32 and 8 * 2^3 = 64 samples: both generations reach the fit's 32
        cfg = write_config(tmp_path, d=1, N=4, H=[0.7], replicates=8, gens=[2, 3], seeds=[0])
        assert run_cli(["moment-scaling", "--config", cfg, "--out", tmp_path / "out"]) == 0


def run_report(tmp_path, subcommand, **config):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, **config)
    assert run_cli([subcommand, "--config", cfg, "--out", out]) == 0
    return out


def text_of(header, rows):
    return header + "\n" + "".join(row + "\n" for row in rows)


class TestReportBytes:
    """Each CSV rebuilt from the library calls with a plain f-string formatter."""

    def test_brownian_dichotomy(self, tmp_path):
        out = run_report(tmp_path, "brownian-dichotomy", d=2, N=5, M=4, seeds=[0, 3])
        rows = []
        for seed in (0, 3):
            rep = build_report(coefficient_table(sample_standard_sheet(2, 5, seed), 4))
            rows += [f"{seed},{n},{name},{value:.17g}" for n, name, value in rep.rows()]
        want = text_of("seed,n,stat_name,value", rows)
        assert (out / "brownian_dichotomy.csv").read_text() == want

    def test_holder_scan(self, tmp_path):
        out = run_report(
            tmp_path, "holder-scan", d=2, N=4, H=[0.6, 0.8], gamma=[0.5, 1], seeds=[2, 5]
        )
        rows = []
        for seed in (2, 5):
            f = sample_sheet((0.6, 0.8), 4, seed)
            for gamma in (0.5, 1.0):
                ratios = holder_ratio_by_level(f, gamma, 3)
                rows += [f"{seed},{gamma:.17g},{n},{r:.17g}" for n, r in enumerate(ratios)]
        want = text_of("seed,gamma,n,ratio", rows)
        assert (out / "holder_scan.csv").read_text() == want

    def test_moment_scaling(self, tmp_path):
        out = run_report(
            tmp_path, "moment-scaling", d=2, N=4, H=[0.7, 0.7], q=[1, 2.5], replicates=3,
            seeds=[4], gens=[1, 2, 3],
        )
        sheets = [sample_sheet((0.7, 0.7), 4, 4, rep) for rep in range(3)]
        samples = {n: np.concatenate([cube_increments(f, n) for f in sheets]) for n in (1, 2, 3)}
        rows = []
        for q in (1.0, 2.5):
            for n, lv, lm, count in moment_scaling_fit(samples, q, 2).points:
                rows.append(f"{q:.17g},{n},{lv:.17g},{lm:.17g},{count}")
        want = text_of("q,n,log2_volume,log2_moment,count", rows)
        assert (out / "moment_scaling.csv").read_text() == want

    def test_counterexample(self, tmp_path):
        out = run_report(tmp_path, "counterexample", d=2, N=6, n=2, p_max=5, seeds=[1, 7])
        rows = []
        for seed in (1, 7):
            fig, rep = counterexample_figure(sample_standard_sheet(2, 6, seed), 2, 5, 0.5)
            rows.append(
                f"{seed},{rep.coverage:.17g},{rep.increment:.17g},{rep.threshold_sum:.17g},"
                f"{rep.volume:.17g},{rep.perimeter:.17g},{sum(rep.selected_per_level)}"
            )
            figure_text = (out / f"counterexample_figure_seed{seed}.json").read_text()
            assert figure_text == fig.to_json() + "\n"
        want = text_of("seed,coverage,increment,threshold_sum,volume,perimeter,selected", rows)
        assert (out / "counterexample.csv").read_text() == want

    def test_covariance_check(self, tmp_path):
        H, N, reps = (0.8, 0.6), 3, 40
        out = run_report(
            tmp_path, "covariance-check", d=2, N=N, H=list(H), seeds=[3], replicates=reps,
            pairs=4,
        )
        picker = replicate_rng(3, 10**6)
        pairs = [
            tuple(tuple(int(j) for j in picker.integers(1, 9, size=2)) for _ in "st")
            for _ in range(4)
        ]
        emp = np.zeros(4)
        for rep in range(reps):
            f = sample_sheet(H, N, 3, rep)
            emp += [f.values[s] * f.values[t] for s, t in pairs]
        emp /= reps
        rows = []
        for e, (s, t) in zip(emp, pairs):
            sp, tp = [j / 8 for j in s], [j / 8 for j in t]
            exact = sheet_covariance(H, sp, tp)
            var = sheet_covariance(H, sp, sp) * sheet_covariance(H, tp, tp) + exact**2
            z = (e - exact) / (var / reps) ** 0.5
            rows.append(f'"{s}|{t}",{e:.17g},{exact:.17g},{z:.17g}')
        want = text_of("pair,empirical,exact,z", rows)
        assert (out / "covariance_check.csv").read_text() == want


class TestJsonReports:
    @pytest.mark.parametrize(
        "subcommand, config",
        [
            ("brownian-dichotomy", {"d": 1, "N": 4}),
            ("fractional-criteria", {"d": 1, "N": 5, "H": [0.8], "fit_min_gen": 1}),
            ("moment-scaling", {"d": 1, "N": 5, "H": [0.6], "replicates": 16}),
            ("counterexample", {"d": 2, "N": 4, "n": 1}),
        ],
    )
    def test_indent_two_with_trailing_newline(self, tmp_path, subcommand, config):
        out = run_report(tmp_path, subcommand, seeds=[0, 1], **config)
        reports = [p for p in out.glob("*.json") if not p.name.startswith("counterexample_fig")]
        assert len(reports) == 2
        for path in reports:
            text = path.read_text()
            sort_keys = path.name == "manifest.json"
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=sort_keys) + "\n"

    def test_degenerate_moment_fit_written_as_null(self, tmp_path):
        # At q = 400 the moments of generations 4 and 5 underflow to 0, whose log2 is -inf.
        fits = []
        for q in ([2.0, 400.0], [2.0]):
            out = run_report(tmp_path, "moment-scaling", d=2, N=6, H=[0.7, 0.7], q=q, replicates=4)
            fits.append(strict_json(out / "moment_scaling.json")["fits"])
        (two, degenerate), (alone,) = fits
        assert two == alone and "degenerate" not in two
        assert degenerate["slope"] is None and degenerate["delta_hat"] is None
        assert degenerate["degenerate"] is True

    def test_degenerate_seed_slope_written_as_null(self, tmp_path, monkeypatch):
        # A zero sheet has zero b-terms, whose log2 is -inf, at seed 1.
        sample_for = experiment._sample_for
        monkeypatch.setattr(
            experiment, "_sample_for",
            lambda cfg, seed: zero_grid(cfg.d, cfg.N) if seed == 1 else sample_for(cfg, seed),
        )
        out = run_report(
            tmp_path, "fractional-criteria", d=1, N=5, H=[0.8], fit_min_gen=1, seeds=[0, 1],
        )
        summary = strict_json(out / "fractional_criteria.json")
        first, second = summary["fitted_log2_ratio_by_seed"]
        assert isinstance(first, float) and second is None
        assert summary["degenerate_seeds"] == [1]

    def test_degenerate_configs_warn_nothing(self, tmp_path, monkeypatch):
        # The -inf log2 of a zero moment or b-term is a flagged result, not a warning.
        sample_for = experiment._sample_for
        monkeypatch.setattr(
            experiment, "_sample_for",
            lambda cfg, seed: zero_grid(cfg.d, cfg.N) if seed == 1 else sample_for(cfg, seed),
        )
        moments, slopes = tmp_path / "moments", tmp_path / "slopes"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            moments.mkdir()
            out = run_report(
                moments, "moment-scaling", d=2, N=6, H=[0.7, 0.7], q=[2.0, 400.0], replicates=4
            )
            assert strict_json(out / "moment_scaling.json")["fits"][1]["degenerate"] is True
            slopes.mkdir()
            out = run_report(
                slopes, "fractional-criteria", d=1, N=5, H=[0.8], fit_min_gen=1, seeds=[0, 1]
            )
            assert strict_json(out / "fractional_criteria.json")["degenerate_seeds"] == [1]
        assert [str(w.message) for w in caught] == []


def strict_json(path):
    """Parse ``path``, failing on the NaN and Infinity constants strict JSON has not."""
    return json.loads(path.read_text(), parse_constant=lambda c: pytest.fail(f"JSON holds {c}"))
