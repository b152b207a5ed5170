"""The bytes of every report of every subcommand, on tiny configs.

Each case runs one subcommand in-process and compares the sha256 of every
file it writes, the manifest aside (it names the output directory), with
the digests in ``output_digests.json``.  Those are keyed, as the
benchmark's ``bench/digests.json`` is, by the library's ``__version__``
(a version that changes a random stream says so) and then by numpy
version and OpenBLAS runtime configuration (core type included), because
BLAS kernels for another CPU may round differently; on a platform with no
entry the test skips and names the platform.

Record the digests of the current code with

    PYTHONPATH=src python tests/test_outputs.py --record

which adds or replaces this platform's entry under the current version.
A change that is meant to keep every output byte must pass this test
unchanged.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from sheetcharge import __version__, experiment
from helpers import noise_tile_bits

DIGESTS = Path(__file__).with_name("output_digests.json")

# name -> config.  The grids are small, but several span more than one Morton
# tile, a counterexample cube spans more than one tile at n = 0, and the
# pooled subcommands run more than one sheet.
CASES = {
    "simulate-d1": {"subcommand": "simulate", "d": 1, "N": 5, "seeds": [0, 1]},
    "simulate-d2-H": {"subcommand": "simulate", "d": 2, "N": 3, "H": [0.6, 0.8]},
    "covariance-check": {
        "subcommand": "covariance-check", "d": 2, "N": 3, "H": [0.7, 0.9],
        "replicates": 20, "pairs": 5,
    },
    "brownian-dichotomy": {"subcommand": "brownian-dichotomy", "d": 2, "N": 9, "seeds": [0, 1]},
    "fractional-criteria": {
        "subcommand": "fractional-criteria", "d": 2, "N": 6, "H": [0.8, 0.9],
        "fit_min_gen": 1,
    },
    "holder-scan-d2": {
        "subcommand": "holder-scan", "d": 2, "N": 9, "seeds": [0, 1], "gamma": [0.4, 0.7],
    },
    "holder-scan-d2-H": {"subcommand": "holder-scan", "d": 2, "N": 6, "H": [0.7, 0.8], "M": 4},
    "holder-scan-d3": {"subcommand": "holder-scan", "d": 3, "N": 6, "seeds": [2]},
    "moment-scaling-d1": {
        "subcommand": "moment-scaling", "d": 1, "N": 10, "H": [0.7], "replicates": 6,
        "q": [1, 2], "gens": [2, 5, 10],
    },
    "moment-scaling-d2": {
        "subcommand": "moment-scaling", "d": 2, "N": 5, "H": [0.7, 0.7], "replicates": 5,
    },
    "moment-scaling-d3": {
        "subcommand": "moment-scaling", "d": 3, "N": 4, "H": [0.6, 0.7, 0.8], "replicates": 3,
        "gens": [1, 2, 4],
    },
    "counterexample-d1": {
        "subcommand": "counterexample", "d": 1, "N": 8, "n": 2, "seeds": [0, 1], "hbar": 0.9,
    },
    "counterexample-d1-H": {
        "subcommand": "counterexample", "d": 1, "N": 6, "n": 1, "H": [0.7], "hbar": 0.9,
        "seeds": [0, 1, 2, 3],
    },
    "counterexample-d2": {"subcommand": "counterexample", "d": 2, "N": 9, "n": 0, "seeds": [0, 1]},
    "counterexample-d2-slab": {
        "subcommand": "counterexample", "d": 2, "N": 8, "n": 3, "p_max": 6, "seeds": [4],
    },
    "counterexample-d2-H": {
        "subcommand": "counterexample", "d": 2, "N": 6, "n": 1, "H": [0.7, 0.8], "hbar": 0.9,
    },
    "counterexample-d3": {"subcommand": "counterexample", "d": 3, "N": 6, "n": 1, "seeds": [0, 3]},
    "counterexample-d3-H": {
        "subcommand": "counterexample", "d": 3, "N": 4, "n": 0, "H": [0.6, 0.7, 0.8],
    },
}


def numeric_platform() -> str:
    """``numpy <version> <OpenBLAS runtime configuration>``, as the benchmark keys digests."""
    config = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                     "openblas_get_config64_", "openblas_get_config"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                config = fn().decode()
                break
    return f"numpy {np.__version__} {config}"


def output_digests(name: str, out: Path) -> dict[str, str]:
    """sha256 of every file case ``name`` writes into ``out``, the manifest aside."""
    cfg = experiment.ExperimentConfig(**CASES[name], out=str(out))
    experiment.run(cfg)
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.name != "manifest.json"
    }


def recorded(version: str = __version__) -> dict:
    """This platform's digests under ``version``, by case name."""
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    return table.get(version, {}).get(numeric_platform(), {})


def one_tile(name: str) -> bool:
    """Whether case ``name``'s grid is one noise tile."""
    d, gen = CASES[name]["d"], CASES[name]["N"]
    return noise_tile_bits(d, gen) == d * gen


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_keep_their_bytes(name, tmp_path):
    want = recorded().get(name)
    if want is None:
        pytest.skip(f"no digests recorded for {name} on {numeric_platform()}")
    assert output_digests(name, tmp_path) == want


def test_one_tile_outputs_keep_their_0_2_0_bytes():
    # 0.3.0 keys the noise per Morton tile, and tile 0 is the 0.2.0 stream: a
    # grid of one tile (d = 1 to N = 15, d = 2 to N = 8, d = 3 to N = 5) keeps
    # every byte, and every case of more tiles writes other bytes.
    old, new = recorded("0.2.0"), recorded("0.3.0")
    if not old or not new:
        pytest.skip(f"no 0.2.0 and 0.3.0 digests recorded on {numeric_platform()}")
    assert {"simulate-d1", "moment-scaling-d1", "counterexample-d1", "counterexample-d1-H",
            "fractional-criteria", "moment-scaling-d2", "counterexample-d2-slab",
            "moment-scaling-d3"} <= {name for name in CASES if one_tile(name)}
    for name in sorted(CASES):
        assert (old[name] == new[name]) == one_tile(name), name


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(f"usage: {sys.argv[0]} --record")
    import tempfile

    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    with tempfile.TemporaryDirectory() as tmp:
        table.setdefault(__version__, {})[numeric_platform()] = {
            name: output_digests(name, Path(tmp) / name) for name in sorted(CASES)
        }
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"{len(CASES)} cases recorded for {__version__} on {numeric_platform()}")
