"""One traced, in-process run of a sheetcharge subcommand.

    python3 bench/trace_child.py SPANS RUN_ID SUBCOMMAND --config CONFIG --out OUT

Installs the wrappers from ``tracer.py`` (``sheetcharge.cli.run`` among
them, under the span ``experiment.run``), calls ``sheetcharge.cli.main``
with the arguments after RUN_ID, and writes the spans, counts and any call
sites the program no longer has to SPANS as JSON.  ``run.py --trace 1``
starts it in a fresh process, so every traced run pays the same cold costs
as a CLI run.  PYTHONPATH must point at the ``src/`` directory under test.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from tracer import Tracer


def main(argv: list[str]) -> int:
    spans_path, run_id, *cli_argv = argv
    tracer = Tracer(run_id)
    tracer.install()
    from sheetcharge import cli

    status = cli.main(cli_argv)
    record = {
        "run_id": run_id,
        "spans": tracer.spans,
        "counts": dict(tracer.counts),
        "missing_call_sites": tracer.missing,
    }
    Path(spans_path).write_text(json.dumps(record) + "\n")
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
