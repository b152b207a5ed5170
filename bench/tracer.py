"""Spans and counts recorded from outside sheetcharge.

The traced benchmark run replaces public functions at the module attributes
the runners and layers call through (``sheetcharge.experiment.coefficient_table``,
``sheetcharge.increments.lex_to_morton``, ...) with wrappers that open a
span around each call.  Nothing under ``src/`` changes; the wrappers only
observe arguments and results, so a traced run must write byte-identical
outputs.

A span records its name, its parent span, wall time (``perf_counter_ns``),
process CPU time and the process RSS high-water mark at its end.  Spans
are kept in memory and written once by the caller.  Counts are computed
from arguments and results (array shapes, report fields), never timed, so
they repeat exactly from run to run.
"""

from __future__ import annotations

import functools
import importlib
import resource
import time
from collections import Counter


class Tracer:
    """In-memory span recorder for one traced run; spans share ``run_id``."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._next_id = 0

    def _open(self, name: str) -> tuple:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent, name, time.perf_counter_ns(), time.process_time_ns()

    def _close(self, token: tuple, keep: bool = True) -> None:
        end, cpu_end = time.perf_counter_ns(), time.process_time_ns()
        sid, parent, name, start, cpu_start = token
        self._stack.pop()
        if keep:
            self.spans.append({
                "run_id": self.run_id,
                "id": sid,
                "parent": parent,
                "name": name,
                "start_ns": start,
                "wall_ns": end - start,
                "cpu_ns": cpu_end - cpu_start,
                "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            })

    def wrap(self, func, name: str, count=None):
        """``func`` with a span around every call; ``count(counts, result, *args)``."""

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            token = self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(token)
            if count is not None:
                count(self.counts, result, *args, **kwargs)
            return result

        return wrapper

    def wrap_generator(self, genfunc, name: str, count=None):
        """``genfunc`` with a span around every ``next()``, not around the consumer."""

        @functools.wraps(genfunc)
        def wrapper(*args, **kwargs):
            it = genfunc(*args, **kwargs)
            while True:
                token = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    self._close(token, keep=False)
                    return
                except BaseException:
                    self._close(token)
                    raise
                self._close(token)
                if count is not None:
                    count(self.counts, item)
                yield item

        return wrapper

    def install(self) -> None:
        """Patch every call site in WRAPS; record the ones the program lacks."""
        for module_name, attr, name, count, kind in WRAPS:
            module = importlib.import_module(module_name)
            func = getattr(module, attr, None)
            if func is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrap = self.wrap_generator if kind == "gen" else self.wrap
            setattr(module, attr, wrap(func, name, count))
        runners = importlib.import_module("sheetcharge.experiment").SUBCOMMANDS
        for sub, func in list(runners.items()):
            runners[sub] = self.wrap(func, "experiment.runner")


def _cells(counts, result, f, *args, **kwargs) -> None:
    counts["increments.cells"] += (1 << f.gen) ** f.dim


def _draw(counts, g) -> None:
    n = 1 << g.gen
    counts["experiment.sheets"] += 1
    # Dense mode products: one (n x n) by (n x n^(d-1)) product per axis.
    counts["sampler.mode_product_flops"] += 2 * g.dim * n ** (g.dim + 1)
    counts["sampler.jitter_nonzero"] += int(any(j != 0 for j in g.meta.get("jitter", ())))


def _standard(counts, g, *args, **kwargs) -> None:
    counts["experiment.sheets"] += 1


def _coefficients(counts, tab, *args, **kwargs) -> None:
    counts["increments.coefficient_entries"] += sum(int(lev.size) for lev in tab.levels)


def _morton(counts, result, arr, *args, **kwargs) -> None:
    counts["dyadic.lex_to_morton.bytes"] += int(arr.nbytes)


def _scan(counts, result, f, n, p_max, *args, **kwargs) -> None:
    _, report = result
    counts["experiment.counterexample.cubes_scanned"] += sum(
        1 << (p * (f.dim - 1)) for p in range(n, p_max + 1)
    )
    counts["experiment.counterexample.cubes_selected"] += sum(report.selected_per_level)


# (module, attribute, span name, count hook, kind).  Each entry is a call
# site: the attribute a runner or a layer looks the function up through.
WRAPS = [
    ("sheetcharge.cli", "run", "experiment.run", None, "call"),
    ("sheetcharge.sampler", "axis_cholesky", "sampler.axis_cholesky", None, "call"),
    ("sheetcharge.experiment", "sample_sheet_ensemble", "sampler.fbs_draw", _draw, "gen"),
    ("sheetcharge.experiment", "sample_standard_sheet", "sampler.standard", _standard, "call"),
    ("sheetcharge.experiment", "grid_to_csv", "sampler.grid_to_csv", None, "call"),
    ("sheetcharge.experiment", "save_grid", "sampler.save_grid", None, "call"),
    ("sheetcharge.experiment", "coefficient_table", "increments.coefficient_table",
     _coefficients, "call"),
    ("sheetcharge.experiment", "increment_levels", "increments.increment_levels", _cells, "call"),
    ("sheetcharge.increments", "increment_levels", "increments.increment_levels", _cells, "call"),
    ("sheetcharge.criteria", "increment_levels", "increments.increment_levels", _cells, "call"),
    ("sheetcharge.experiment", "cube_increments", "increments.cube_increments", _cells, "call"),
    ("sheetcharge.increments", "lex_to_morton", "dyadic.lex_to_morton", _morton, "call"),
    ("sheetcharge.experiment", "figure_perimeter", "dyadic.figure_perimeter", None, "call"),
    ("sheetcharge.experiment", "build_report", "criteria.build_report", None, "call"),
    ("sheetcharge.experiment", "moment_scaling_fit", "criteria.moment_scaling_fit", None, "call"),
    ("sheetcharge.experiment", "counterexample_figure", "experiment.counterexample_figure",
     _scan, "call"),
]


def self_times(spans: list[dict]) -> dict[int, int]:
    """Span id -> wall time minus the part of it its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(
                (s["start_ns"], s["start_ns"] + s["wall_ns"])
            )
    out = {}
    for s in spans:
        covered, reach = 0, s["start_ns"]
        for lo, hi in sorted(children.get(s["id"], [])):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = s["wall_ns"] - covered
    return out
