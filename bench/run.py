"""Benchmark for sheetcharge: five CLI workloads timed from outside the program.

    python3 bench/run.py --workload fbs-criteria --seed 0 --seconds 25 --trace 0

Run it from anywhere; it uses the ``src/`` directory next to ``bench/``.

``--trace 0`` reports the end-to-end metrics.  It runs
``python3 -m sheetcharge.cli SUBCOMMAND --config config.json --out out`` in
fresh processes until ``--seconds`` is used up.  After each such run it
starts fresh interpreters that run ``sheetcharge.cli.main`` with
``sheetcharge.cli.run`` replaced by a stub that only creates the output
directory, so they import the program, load and validate the config and
create the directory (``setup_s``).  Each CLI run gives wall time
from spawn to exit (``run_s``), user plus system CPU (``cpu_s``) and peak
RSS (``peak_rss_mb``, the median over the runs).
Before each CLI run it runs ``reference.py``, a fixed job that uses nothing
from sheetcharge, and reports the three times at a fixed host speed: the
mean of each is scaled by ``REFERENCE_S`` over the reference's mean time.

``--trace 1`` reports the per-layer metrics.  It makes one untraced CLI run
and then at least two traced runs, each in a fresh process running
``trace_child.py``: that calls ``sheetcharge.cli.main`` with the public
functions wrapped in spans (see ``tracer.py``).  Times are medians over the
traced runs; counts must repeat exactly, and every wrapped call site must
still exist in the program.

Every run's outputs are checked (see ``workloads.py``): a nonzero exit or a
failed check counts as a failed run.  Outputs of every run in an
invocation, traced or not, must be byte-identical to those of the first.
``--seed`` is the workload seed base; base 0 reproduces the digests
recorded in ``digests.json``.

Standard output: every metric by name with its unit, the machine facts,
and as the last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record (facts, every
sample, the spans) is written to ``.bench_out/results/``.

``--default-malloc`` runs the children under glibc's default mmap
threshold instead of the pinned one, for comparison with the recorded
baseline.  ``--record-digests`` runs every workload once at seed base 0 and records
its CSV digests under the library's current ``__version__``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import self_times
from workloads import WORKLOADS, check_outputs, file_digests

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DIGESTS = BENCH / "digests.json"

# One BLAS thread.  On two shared cores OpenBLAS's second thread spins while
# idle: it doubled cpu_s on fbs-moments (4.8 s against 2.1 s) with no gain
# in run_s, and it widened the spread of run_s on fbs-criteria.
BLAS_THREADS = 1
# A fixed glibc mmap threshold, so that every array of 1 MiB or more is
# mapped and unmapped and peak RSS tracks live data.  With the default
# dynamic threshold, bs-slab-d3 peaked anywhere from 120 to 152 MB for the
# same program, depending on its allocation history.  The default initial
# value (128 KiB) cost fbs-moments 0.8 s of page faults; 1 MiB costs nothing
# measurable.  peak_rss_mb is therefore measured under this setting, not
# under the allocator configuration a user of sheetcharge gets by default.
MALLOC_MMAP_THRESHOLD: int | None = 1 << 20
# setup_s comes from fresh interpreters run after each CLI run, for a
# quarter of that run's wall time, so that setup and CLI runs sample the same
# stretch of time: on shared cores the host's speed shifts from one stretch
# of seconds to the next, and a block of setups at the start of an
# invocation sees only one of them.
SETUP_SHARE = 0.25
MIN_RUNS = 3
MIN_TRACED_RUNS = 2
# run_s, cpu_s and setup_s are given at a fixed host speed: the mean time of
# the runs is multiplied by REFERENCE_S over the mean time of reference.py,
# a fixed job run in a fresh process before every CLI run, for at least
# REFERENCE_SHARE of the previous CLI run's wall time.  On a shared 2-vCPU
# KVM guest (Xeon, Sapphire Rapids) every kind of work slowed and sped up
# together by up to 2x over minutes, with no steal time: bs-dichotomy went
# from 7.3 s to 4.4 s in one sweep.  No statistic inside one run removes
# that; the ratio to a job timed in the same stretch does.  Ratios of means
# track it best, because a long CLI run averages the host's speed over its
# whole length: on 5-minute traces of alternating reference and CLI runs,
# the spread of 25 s windows was 0.04-0.05 for ratios of means, 0.07-0.10
# for ratios of medians and 0.09-0.20 unscaled.  REFERENCE_S is the
# reference's wall and CPU time in a quiet stretch on that guest, so the
# values read as seconds there.  The unscaled means are printed and
# recorded too.
REFERENCE_S = 0.45
REFERENCE_SHARE = 0.25
# Every process is killed at this many seconds after the invocation started,
# so a hung program still ends the invocation well within three minutes.
HARD_LIMIT_S = 150

END_TO_END = {"run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# Span names whose self time is reported as "<name>.s".
SELF_TIMED = [
    "sampler.fbs_draw",
    "sampler.standard",
    "sampler.grid_to_csv",
    "sampler.save_grid",
    "increments.coefficient_table",
    "increments.increment_levels",
    "increments.cube_increments",
    "dyadic.lex_to_morton",
    "dyadic.figure_perimeter",
    "criteria.build_report",
    "criteria.moment_scaling_fit",
    "experiment.counterexample_figure",
]
CALLED = [
    "sampler.axis_cholesky",
    "sampler.fbs_draw",
    "sampler.standard",
    "increments.coefficient_table",
    "increments.increment_levels",
    "increments.cube_increments",
    "dyadic.lex_to_morton",
]
COUNTS = {
    "sampler.mode_product_flops": "flop",
    "sampler.jitter_nonzero": "count",
    "experiment.sheets": "count",
    "experiment.bytes_written": "B",
    "increments.cells": "count",
    "increments.coefficient_entries": "count",
    "dyadic.lex_to_morton.bytes": "B",
    "experiment.counterexample.cubes_scanned": "count",
    "experiment.counterexample.cubes_selected": "count",
}
# Per-layer metrics that must repeat exactly from run to run.
EXACT = [f"{name}.calls" for name in CALLED] + list(COUNTS) + [
    "experiment.counterexample.select_ratio"
]
PER_LAYER = {
    "sampler.axis_cholesky.s": "s",
    "sampler.axis_cholesky.first_s": "s",
    **{f"{name}.s": "s" for name in SELF_TIMED},
    **{f"{name}.calls": "count" for name in CALLED},
    "experiment.runner_self.s": "s",
    **COUNTS,
    "experiment.counterexample.select_ratio": "ratio",
    "trace.total_s": "s",
    "trace.overhead": "ratio",
    "trace.peak_rss_mb": "MB",
}

# The CLI's own main, with the experiment replaced by creating its directory.
SETUP_CODE = """\
import sys
from pathlib import Path
from sheetcharge import cli
def make_out(cfg):
    Path(cfg.out).mkdir(parents=True, exist_ok=True)
    return []
cli.run = make_out
raise SystemExit(cli.main(sys.argv[1:]))
"""

FACTS_CODE = """\
import ctypes, glob, json, os, platform
import numpy, sheetcharge
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = config = None
libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
for path in glob.glob(os.path.join(libs, "*openblas*")):
    lib = ctypes.CDLL(path)
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            fn = getattr(lib, prefix + "get_num_threads" + suffix, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                get_config = getattr(lib, prefix + "get_config" + suffix)
                get_config.restype = ctypes.c_char_p
                config = get_config().decode()
print(json.dumps({
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "blas": blas.get("name"),
    "blas_version": blas.get("version"),
    "blas_threads": threads,
    "blas_config": config,
    "sheetcharge_version": sheetcharge.__version__,
    "sheetcharge_file": sheetcharge.__file__,
}))
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, wrong import path)."""


def child_env(work: Path) -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
        OMP_NUM_THREADS=str(BLAS_THREADS),
        TMPDIR=str(work),
    )
    env.pop("MALLOC_MMAP_THRESHOLD_", None)
    if MALLOC_MMAP_THRESHOLD is not None:
        env["MALLOC_MMAP_THRESHOLD_"] = str(MALLOC_MMAP_THRESHOLD)
    return env


def measure(argv: list[str], cwd: Path, timeout: float) -> dict:
    """Run one process to exit: status, wall time, CPU time and peak RSS.

    The process is killed after ``timeout`` seconds and reported as failed.
    """
    with open(cwd / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=child_env(cwd), stdout=subprocess.DEVNULL, stderr=err
        )
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    sample = {
        "exit": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "problems": [],
    }
    if proc.returncode != 0:
        tail = (cwd / "stderr.txt").read_text(errors="replace").strip().splitlines()[-3:]
        sample["problems"].append(f"exit {proc.returncode}: {' | '.join(tail)}")
    return sample


def git_commit() -> str:
    """HEAD from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts(work: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", FACTS_CODE], cwd=work, env=child_env(work),
        capture_output=True, text=True, timeout=HARD_LIMIT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"cannot import sheetcharge from {SRC}: {proc.stderr.strip()}")
    facts = json.loads(proc.stdout)
    if not Path(facts["sheetcharge_file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"sheetcharge imported from {facts['sheetcharge_file']}, not {SRC}")
    facts.update(
        nproc=len(os.sched_getaffinity(0)),
        git_commit=git_commit(),
        blas_threads_requested=BLAS_THREADS,
        malloc_mmap_threshold=MALLOC_MMAP_THRESHOLD,
    )
    return facts


class Invocation:
    """One benchmark invocation: a workload, a seed base and a deadline."""

    def __init__(self, workload: str, base: int, seconds: float, work: Path) -> None:
        self.wl = WORKLOADS[workload]
        self.base = base
        start = self.start = time.perf_counter()
        self.deadline = start + seconds
        self.hard_limit = start + HARD_LIMIT_S
        self.work = work
        self.facts = machine_facts(work)
        self.version = self.facts["sheetcharge_version"]
        self.platform = f"numpy {self.facts['numpy']} {self.facts['blas_config']}"
        digests = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        self.recorded = (
            digests.get(self.version, {}).get(self.platform, {}).get(self.wl.name)
            if base == 0 else None
        )
        self.reference: dict | None = None  # file digests of the first run
        (work / "config.json").write_text(json.dumps(self.wl.config_for(base)))

    def measure(self, argv: list[str]) -> dict:
        start = time.perf_counter()
        sample = measure(argv, self.work, max(0.1, self.hard_limit - start))
        sample["start_s"] = start - self.start
        return sample

    def cli_argv(self, out: str) -> list[str]:
        return [sys.executable, "-m", "sheetcharge.cli", self.wl.subcommand,
                "--config", "config.json", "--out", out]

    def _fresh_out(self) -> Path:
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        return out

    def check(self, sample: dict, out: Path) -> dict:
        """Check one run's outputs against the recorded digests and the first run."""
        if sample["exit"] != 0:
            return {}
        problems, counts = check_outputs(self.wl, out, self.base, self.recorded)
        digests = file_digests(out)
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            problems.append("outputs differ from the first run of this invocation")
        sample["problems"] += problems
        return counts

    def cli_run(self) -> dict:
        out = self._fresh_out()
        sample = self.measure(self.cli_argv("out"))
        sample["counts"] = self.check(sample, out)
        return sample

    def reference_run(self) -> dict:
        return self.measure([sys.executable, str(BENCH / "reference.py")])

    def setup_run(self) -> dict:
        shutil.rmtree(self.work / "setup_out", ignore_errors=True)
        sample = self.measure([sys.executable, "-c", SETUP_CODE] + self.cli_argv("setup_out")[3:])
        if sample["exit"] == 0 and not (self.work / "setup_out").is_dir():
            sample["problems"].append("setup did not create the output directory")
        return sample

    def traced_run(self, index: int) -> dict:
        out = self._fresh_out()
        spans_path = self.work / "spans.json"
        run_id = f"{self.wl.name}-seed{self.base}-pid{os.getpid()}-{index}"
        argv = [sys.executable, str(BENCH / "trace_child.py"), str(spans_path), run_id,
                *self.cli_argv("out")[3:]]
        sample = self.measure(argv)
        counts = self.check(sample, out)
        if sample["exit"] != 0:
            return sample
        record = json.loads(spans_path.read_text())
        for site in record["missing_call_sites"]:
            sample["problems"].append(f"traced call site {site} is gone from the program")
        for name, value in counts.items():
            traced = record["counts"].setdefault(name, value)
            if traced != value:
                sample["problems"].append(f"{name}: traced {traced}, outputs {value}")
        sample["trace"] = record
        return sample

    def repeat(self, step, minimum: int) -> list[dict]:
        """Call ``step`` at least ``minimum`` times, then while another call fits."""
        samples: list[dict] = []
        last = 0.0
        while True:
            now = time.perf_counter()
            fits = now + last <= self.deadline
            short = len(samples) < minimum and (not samples or now < self.hard_limit)
            if not (fits or short):
                break
            start = time.perf_counter()
            samples.append(step(len(samples)))
            last = time.perf_counter() - start
        return samples


def _ok(samples: list[dict]) -> list[dict]:
    return [s for s in samples if not s["problems"]] or samples


def end_to_end(inv: Invocation) -> tuple[dict, dict, list[dict]]:
    """Scaled metrics, unscaled means and every sample of one invocation."""
    refs: list[dict] = []
    setups: list[dict] = []
    last_wall = 0.0

    def step(index: int) -> dict:
        nonlocal last_wall
        spent = 0.0
        while not spent or spent < REFERENCE_SHARE * last_wall:
            refs.append(inv.reference_run())
            spent += refs[-1]["wall_s"]
        sample = inv.cli_run()
        last_wall = sample["wall_s"]
        spent = 0.0
        while spent < SETUP_SHARE * sample["wall_s"]:
            setups.append(inv.setup_run())
            spent += setups[-1]["wall_s"]
        return sample

    runs = inv.repeat(step, MIN_RUNS)
    good = _ok(runs)
    raw = {
        "run_s": statistics.fmean(s["wall_s"] for s in good),
        "cpu_s": statistics.fmean(s["cpu_s"] for s in good),
        "setup_s": statistics.fmean(s["wall_s"] for s in _ok(setups)),
        "reference_s": statistics.fmean(s["wall_s"] for s in _ok(refs)),
        "reference_cpu_s": statistics.fmean(s["cpu_s"] for s in _ok(refs)),
    }
    wall_scale = REFERENCE_S / raw["reference_s"]
    metrics = {
        "run_s": raw["run_s"] * wall_scale,
        "cpu_s": raw["cpu_s"] * REFERENCE_S / raw["reference_cpu_s"],
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in good),
        "setup_s": raw["setup_s"] * wall_scale,
    }
    for kind, samples in (("reference", refs), ("setup", setups), ("cli", runs)):
        for s in samples:
            s["kind"] = kind
    return metrics, raw, refs + setups + runs


def layer_metrics(record: dict) -> dict:
    """Per-layer metrics of one traced run, from its spans and counts."""
    spans = record["spans"]
    selfs = self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for s in sorted(spans, key=lambda s: s["start_ns"]):
        by_name.setdefault(s["name"], []).append(s)

    def self_s(name: str, skip: int = 0) -> float:
        return sum(selfs[s["id"]] for s in by_name.get(name, [])[skip:]) / 1e9

    cholesky = by_name.get("sampler.axis_cholesky", [])
    m = {
        "sampler.axis_cholesky.s": self_s("sampler.axis_cholesky", skip=1),
        "sampler.axis_cholesky.first_s": cholesky[0]["wall_ns"] / 1e9 if cholesky else 0.0,
        **{f"{name}.s": self_s(name) for name in SELF_TIMED},
        **{f"{name}.calls": len(by_name.get(name, [])) for name in CALLED},
        "experiment.runner_self.s": self_s("experiment.runner"),
    }
    counts = record["counts"]
    m.update({name: counts.get(name, 0) for name in COUNTS})
    scanned = m["experiment.counterexample.cubes_scanned"]
    selected = m["experiment.counterexample.cubes_selected"]
    m["experiment.counterexample.select_ratio"] = selected / scanned if scanned else 0.0
    return m


def per_layer(inv: Invocation) -> tuple[dict, list[dict]]:
    untraced = inv.cli_run()
    untraced["kind"] = "cli"
    traced = inv.repeat(inv.traced_run, MIN_TRACED_RUNS)
    per_run = []
    for s in traced:
        s["kind"] = "traced"
        if "trace" in s:
            m = layer_metrics(s["trace"])
            m["trace.total_s"] = s["wall_s"]
            m["trace.overhead"] = s["wall_s"] / untraced["wall_s"]
            m["trace.peak_rss_mb"] = s["peak_rss_mb"]
            per_run.append(m)
    if not per_run:  # every traced run failed; the result says correct=false
        per_run = [dict.fromkeys(PER_LAYER, 0)]
    for name in EXACT:
        values = {m[name] for m in per_run}
        if len(values) > 1:
            traced[0]["problems"].append(f"{name} differs across traced runs: {values}")
    metrics = {
        name: (statistics.median_low if name in EXACT else statistics.median)(
            m[name] for m in per_run
        )
        for name in PER_LAYER
    }
    return metrics, [untraced] + traced


def record_digests() -> int:
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    for name in WORKLOADS:
        work = OUT / "work" / f"record-{name}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            inv = Invocation(name, 0, 0, work)
            inv.recorded = None
            sample = inv.cli_run()
            if sample["problems"]:
                print(f"{name}: {sample['problems']}", file=sys.stderr)
                return 1
            recorded = digests.setdefault(inv.version, {}).setdefault(inv.platform, {})
            recorded[name] = {
                k: v for k, v in file_digests(work / "out").items() if k.endswith(".csv")
            }
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(f"{name}: {len(recorded[name])} CSV digests for {inv.version}, {inv.platform}")
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    global MALLOC_MMAP_THRESHOLD
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="workload seed base")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--default-malloc", action="store_true",
                        help="leave glibc's mmap threshold at its default")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if args.default_malloc:
        MALLOC_MMAP_THRESHOLD = None
    # On SIGTERM, unwind through measure(), which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "sheetcharge" / "__init__.py").is_file():
        print(f"bench: no sheetcharge sources under {SRC}", file=sys.stderr)
        return 2
    if args.record_digests:
        return record_digests()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    work = OUT / "work" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inv = Invocation(args.workload, args.seed, args.seconds, work)
        raw: dict = {}
        if args.trace:
            metrics, samples = per_layer(inv)
            units = PER_LAYER
        else:
            metrics, raw, samples = end_to_end(inv)
            units = END_TO_END
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for s in samples if s["problems"])
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    spans = [s.pop("trace") for s in samples if "trace" in s]
    record = {
        "workload": args.workload,
        "seed_base": args.seed,
        "seeds": inv.wl.seed_list(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "library_version": inv.version,
        "digests_checked": inv.recorded is not None,
        # Children inherit this as their starting ru_maxrss; it must stay
        # below every peak_rss_mb reported.
        "harness_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "facts": inv.facts,
        "failed_frac": failed / len(samples),
        "reference_s_nominal": REFERENCE_S,
        "raw_means": raw,
        "samples": samples,
        "spans": spans,
        "result": result,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for name, unit in units.items():
        print(f"{name:44} {metrics[name]!r} {unit}")
    print(f"{'failed_frac':44} {failed / len(samples)!r} ratio ({failed}/{len(samples)})")
    for name, value in raw.items():
        print(f"# raw mean {name}: {value!r} s")
    for s in samples:
        for problem in s["problems"]:
            print(f"# FAILED {s['kind']} run: {problem}")
    for key, value in inv.facts.items():
        print(f"# {key}: {value}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
