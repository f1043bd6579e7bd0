"""The measured process of one benchmark repetition.

Usage::

    python3 child.py SRC_DIR RESULT_JSON MODE -- PASTCAST_ARGS...

It imports ``pastcast`` from ``SRC_DIR`` and runs the CLI exactly as the
``pastcast`` command does (``pastcast.cli.main``), with a timer around the
subcommand's runner.  ``MODE`` is one of:

* ``run``: time the runner; nothing else is instrumented.
* ``setup``: return where the runner would begin, so the process covers
  only interpreter start, ``import pastcast``, config load and validation.
* ``trace``: also record spans over every layer (see ``spans.py``).

The exit code is the CLI's.  RESULT_JSON receives the CLI exit code, the
runner's start and end on the system-wide monotonic clock (comparable
with the parent's), the peak resident set size, and in ``trace`` mode the
per-layer report.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

MODES = ("run", "setup", "trace")


def main(argv) -> int:
    src_dir, result_path, mode = Path(argv[0]).resolve(), argv[1], argv[2]
    if mode not in MODES or argv[3] != "--":
        raise SystemExit(f"usage: child.py SRC_DIR RESULT_JSON {{{'|'.join(MODES)}}} -- ARGS")
    cli_args = argv[4:]
    sys.path.insert(0, str(src_dir))

    import pastcast
    from pastcast import cli, experiments

    if src_dir not in Path(pastcast.__file__).resolve().parents:
        raise SystemExit(f"pastcast imported from {pastcast.__file__}, not from {src_dir}")

    tracer = None
    if mode == "trace":
        from spans import Tracer, instrument

        tracer = Tracer()
        modules = {
            name.rpartition(".")[2]: module
            for name, module in list(sys.modules.items())
            if name == "pastcast" or name.startswith("pastcast.")
        }
        instrument(tracer, modules)

    marks: dict[str, float] = {}
    command = cli_args[0]
    runner = experiments.RUNNERS[command]

    def timed(config, out_dir):
        marks["runner_start"] = time.monotonic()
        if mode == "setup":
            return {}
        try:
            return runner(config, out_dir)
        finally:
            marks["runner_end"] = time.monotonic()

    experiments.RUNNERS[command] = timed
    rc = cli.main(cli_args)
    result = {
        "rc": rc,
        **marks,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = tracer.report()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
