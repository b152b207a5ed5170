import json

import numpy as np
import pytest

from sheetcharge.cli import main
from sheetcharge.sampler import load_grid


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
