"""Every call site the benchmark's tracer wraps must exist in the package.

A traced benchmark run fails with "call site gone" when a wrapped module
attribute is missing; this test fails the same refactor at test time.
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
