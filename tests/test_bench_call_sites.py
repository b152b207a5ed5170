"""Every call site the benchmark's tracer wraps must exist in the package.

A traced benchmark run fails with "call site gone" when a wrapped module
attribute is missing; this test fails the same refactor at test time.  A
runner that bypasses a wrapped attribute leaves its counts at 0, which
fails bench-smoke's traced job for experiment.sheets; the counterexample
runner, which pools its draws, is checked for that here too.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def wrapped_call_sites() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module_name, attr) for module_name, attr, *_ in tracer.WRAPS]


@pytest.mark.parametrize("module_name, attr", wrapped_call_sites())
def test_wrapped_call_site_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))


def test_counterexample_draws_and_scans_through_the_wrapped_call_sites(monkeypatch, tmp_path):
    # bench-smoke fails bs-slab-d3 when the traced experiment.sheets reads 0, and
    # the tracer's scan count reads .dim from the scan's first argument.
    from sheetcharge import experiment, sampler

    draws, scans = [], []
    draw, scan = experiment.sample_standard_sheet, experiment.counterexample_figure

    def counting_draw(d, gen, seed, *args, **kwargs):
        draws.append(seed)
        return draw(d, gen, seed, *args, **kwargs)

    def counting_scan(f, *args, **kwargs):
        scans.append(f.dim)
        return scan(f, *args, **kwargs)

    monkeypatch.setattr(sampler, "_cores", lambda: 2)
    monkeypatch.setattr(experiment, "sample_standard_sheet", counting_draw)
    monkeypatch.setattr(experiment, "counterexample_figure", counting_scan)
    experiment.run(experiment.ExperimentConfig(
        subcommand="counterexample", d=3, N=5, n=1, seeds=range(5), out=str(tmp_path),
    ))
    assert sorted(draws) == list(range(5))
    assert scans == [3] * 5
