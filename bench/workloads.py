"""The benchmark's workloads: pinned configs, why each is in the set, and
the checks every run's outputs must pass.

Two kinds of check run on every output directory:

- version-independent sanity checks (finite values, expected row counts,
  the half-normal calibration of the standard sheet, coverage in [0, 1],
  finite fitted slopes), for any seed base;
- at seed base 0, the sha256 of every CSV against ``digests.json``, keyed
  by the library's ``__version__`` and then by the numeric platform (numpy
  version and OpenBLAS build and core type), because BLAS kernels for
  another CPU may round differently.  A version or platform with no
  recorded digests gets the sanity checks only.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

HALF_NORMAL_MEAN = math.sqrt(2.0 / math.pi)
# Grid file header: magic, int64 d and N, d float64 Hurst components, int64 seed.
GRID_HEADER_BYTES = 8 + 16 + 8


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    config: dict
    seeds: tuple[int, ...]
    why: str

    def seed_list(self, base: int) -> list[int]:
        """Seed base b shifts the list by b times its length: bases never overlap."""
        return [base * len(self.seeds) + s for s in self.seeds]

    def config_for(self, base: int) -> dict:
        return {**self.config, "seeds": self.seed_list(base)}


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "fbs-criteria", "fractional-criteria",
            {"d": 2, "N": 11, "H": [0.9, 0.9]}, (0, 1, 2),
            "per-seed Cholesky factors and large mode products; largest arrays, "
            "so the peak-RSS workload (RSS measured with glibc's mmap threshold "
            "pinned at 1 MiB)",
        ),
        Workload(
            "bs-dichotomy", "brownian-dichotomy",
            {"d": 2, "N": 11}, tuple(range(10)),
            "no factor or mode product: white-noise cumsum, increment pyramid, "
            "Morton reorder, coefficient butterflies and criteria",
        ),
        Workload(
            "fbs-moments", "moment-scaling",
            {"d": 2, "N": 8, "H": [0.7, 0.7], "replicates": 200, "q": [1, 2]}, (0,),
            "many small sheets share one factor; per-replicate draws and "
            "re-coarsening dominate at small N",
        ),
        Workload(
            "bs-slab-d3", "counterexample",
            {"d": 3, "N": 7, "n": 2}, tuple(range(20)),
            "the only d=3 workload and the only one that runs the thin-slab "
            "counterexample scan",
        ),
        Workload(
            "fbs-export", "simulate",
            {"d": 2, "N": 10, "H": [0.6, 0.8]}, (0,),
            "write side of the sampler: two distinct per-axis factors and a "
            "1M-row CSV export, nothing downstream",
        ),
    ]
}


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON value {name}")


def _load_json(path: Path):
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def _scan(path: Path) -> tuple[str, int, bool]:
    """sha256, newline count and whether the text holds "nan" or "inf".

    Reads in chunks: the harness must stay small, because a child started
    by fork or vfork inherits the parent's RSS high-water mark as its own
    starting ru_maxrss, which would inflate the children's peak_rss_mb.
    Python prints non-finite floats as nan/inf; no header or stat name in
    these reports contains either string.
    """
    digest, lines, nonfinite, tail = hashlib.sha256(), 0, False, b""
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
            lines += chunk.count(b"\n")
            window = tail + chunk
            nonfinite = nonfinite or b"nan" in window or b"inf" in window
            tail = chunk[-2:]
    return digest.hexdigest(), lines, nonfinite


def file_digests(out: Path) -> dict[str, str]:
    """sha256 of every file in an output directory, by file name."""
    return {p.name: _scan(p)[0] for p in sorted(out.iterdir()) if p.is_file()}


def _expected_rows(wl: Workload, seeds: list[int]) -> dict[str, int]:
    c = wl.config
    gens = c["N"]  # generations 0..M with M = N - 1
    if wl.subcommand == "fractional-criteria":
        return {"fractional_criteria.csv": len(seeds) * gens * 5}
    if wl.subcommand == "brownian-dichotomy":
        return {"brownian_dichotomy.csv": len(seeds) * gens * 5}
    if wl.subcommand == "moment-scaling":
        return {"moment_scaling.csv": len(c["q"]) * (gens - 2)}
    if wl.subcommand == "counterexample":
        return {"counterexample.csv": len(seeds)}
    if wl.subcommand == "simulate":
        return {f"sample_seed{s}.csv": ((1 << c["N"]) + 1) ** c["d"] for s in seeds}
    raise ValueError(f"no checks for {wl.subcommand}")


def check_outputs(
    wl: Workload, out: Path, base: int, recorded: dict[str, str] | None
) -> tuple[list[str], dict[str, int]]:
    """Problems found in one run's outputs, and the counts read from them.

    ``recorded`` maps CSV names to their sha256 at seed base ``base``, or is
    None when nothing was recorded for this version, platform and base.
    """
    problems: list[str] = []
    seeds = wl.seed_list(base)
    if not (out / "manifest.json").is_file():
        problems.append("manifest.json missing")
    for name, rows in _expected_rows(wl, seeds).items():
        path = out / name
        if not path.is_file():
            problems.append(f"{name} missing")
            continue
        _, lines, nonfinite = _scan(path)
        if lines - 1 != rows:
            problems.append(f"{name}: {lines - 1} rows, want {rows}")
        if nonfinite:
            problems.append(f"{name}: non-finite value")
    reports = {}
    for path in sorted(out.glob("*.json")):
        try:
            reports[path.name] = _load_json(path)
        except (ValueError, OSError) as exc:
            problems.append(f"{path.name}: {exc}")
    counts = {"experiment.bytes_written": sum(p.stat().st_size for p in out.iterdir())}
    problems += _sanity(wl, out, seeds, reports, counts)
    if recorded is not None:
        got = {k: v for k, v in file_digests(out).items() if k.endswith(".csv")}
        for name in sorted(set(recorded) | set(got)):
            if recorded.get(name) != got.get(name):
                problems.append(f"{name}: sha256 differs from the recorded digest")
    return problems, counts


def _sanity(wl, out, seeds, reports, counts) -> list[str]:
    problems = []
    if wl.subcommand == "brownian-dichotomy":
        summary = reports.get("brownian_dichotomy.json", {})
        top = summary.get("mean_abs_by_gen", [None])[-1]
        if not _finite(top) or abs(top - HALF_NORMAL_MEAN) > 0.01:
            problems.append(f"top-generation mean_abs {top} not near sqrt(2/pi)")
    elif wl.subcommand == "fractional-criteria":
        slopes = reports.get("fractional_criteria.json", {}).get("fitted_log2_ratio_by_seed")
        if not slopes or len(slopes) != len(seeds) or not all(map(_finite, slopes)):
            problems.append(f"fitted slopes {slopes} not one finite value per seed")
    elif wl.subcommand == "moment-scaling":
        fits = reports.get("moment_scaling.json", {}).get("fits", [])
        if len(fits) != len(wl.config["q"]) or not all(_finite(f.get("slope")) for f in fits):
            problems.append("moment-scaling fits missing or with non-finite slopes")
    elif wl.subcommand == "counterexample":
        selected = 0
        path = out / "counterexample.csv"
        lines = path.read_text().splitlines()[1:] if path.is_file() else []
        for line in lines:
            fields = line.split(",")
            coverage = float(fields[1])
            if not 0.0 <= coverage <= 1.0:
                problems.append(f"coverage {coverage} outside [0, 1]")
            selected += int(fields[6])
        counts["experiment.counterexample.cubes_selected"] = selected
        for seed in seeds:
            if f"counterexample_figure_seed{seed}.json" not in reports:
                problems.append(f"figure for seed {seed} missing")
    elif wl.subcommand == "simulate":
        d, n_pts = wl.config["d"], (1 << wl.config["N"]) + 1
        want = GRID_HEADER_BYTES + 8 * d + 8 * n_pts**d
        for seed in seeds:
            path = out / f"sample_seed{seed}.grid"
            size = path.stat().st_size if path.is_file() else None
            if size != want:
                problems.append(f"{path.name}: {size} bytes, want {want}")
    return problems
