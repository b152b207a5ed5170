"""Run-to-run spread of the benchmark's metrics, against BENCHMARK.json's bounds.

    python3 bench/spread.py --seeds 0-9
    python3 bench/spread.py --seeds 0-1 --trace 1

Runs ``run.py`` once per workload of BENCHMARK.json and seed, one after
another, at its ``run_seconds``, and then repeats that whole sweep as a
second set.  With ``--trace 0``, for each workload and end-to-end metric
it prints the median of each set's values and the distance between their
first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the metric's bound; a spread at or above a
third of the bound is marked.  It also prints how much the second median
is worse than the first.  With ``--trace 1`` it prints per-layer medians
and checks that every count is identical for a seed across the sets.
``--default-malloc`` is passed on to ``run.py``.  ``--save FILE`` writes
every value, the unscaled mean times and the machine facts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import EXACT

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SETS = 2


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def sweep(seeds: list[int], trace: int, extra: list[str]) -> tuple[dict, dict]:
    """values[workload][metric] -> one value per seed, in seed order; machine facts."""
    values: dict = {w: {} for w in WORKLOADS}
    facts: dict = {}
    for seed in seeds:
        for w in WORKLOADS:
            argv = [sys.executable, str(BENCH / "run.py"), "--workload", w, "--seed", str(seed),
                    "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace), *extra]
            out = subprocess.run(argv, capture_output=True, text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{w} seed {seed}: correct=false", file=sys.stderr)
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            path = BENCH.parent / ".bench_out" / "results" / f"{w}-seed{seed}-trace{trace}.json"
            record = json.loads(path.read_text())
            for name, value in record.get("raw_means", {}).items():
                values[w].setdefault(f"raw.{name}", []).append(value)
            facts = record["facts"]
    return values, facts


def report_spread(sets: list[dict]) -> None:
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    for w in WORKLOADS:
        for name, bound in bounds.items():
            medians = []
            for values in sets:
                q1, med, q3 = statistics.quantiles(values[w][name], n=4)
                spread = (q3 - q1) / med
                medians.append(med)
                mark = "" if spread < bound / 3 else "  <-- spread >= bound/3"
                print(f"{w:14} {name:12} median {med:.6g}  spread {spread:.4f}  "
                      f"bound {bound}{mark}")
            print(f"{w:14} {name:12} second median worse by "
                  f"{medians[-1] / medians[0] - 1:+.4f}")


def report_layers(sets: list[dict]) -> None:
    for w in WORKLOADS:
        for name, first in sets[0][w].items():
            if name in EXACT:
                same = all(values[w][name] == first for values in sets)
                print(f"{w:14} {name:44} {first[0]!r}{'' if same else '  <-- differs'}")
            else:
                med = statistics.median(v for values in sets for v in values[w][name])
                print(f"{w:14} {name:44} median {med:.6g}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--default-malloc", action="store_true")
    parser.add_argument("--save", type=Path)
    args = parser.parse_args()
    seeds = seed_range(args.seeds)
    extra = ["--default-malloc"] if args.default_malloc else []
    sweeps = [sweep(seeds, args.trace, extra) for _ in range(SETS)]
    sets = [values for values, _ in sweeps]
    if args.save:
        saved = {"seeds": seeds, "trace": args.trace, "facts": sweeps[-1][1], "sets": sets}
        args.save.write_text(json.dumps(saved, indent=1) + "\n")
    (report_layers if args.trace else report_spread)(sets)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
