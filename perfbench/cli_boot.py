"""Run one mapgeom CLI call with the benchmark's spans installed.

    python3 perfbench/cli_boot.py <spans.json> <subcommand> [options...]

Imports ``mapgeom.cli`` (timed as the span ``cli.import``), installs the
wrappers of :mod:`tracer`, calls ``mapgeom.cli.main`` (the span
``cli.main``) and writes the spans as JSON for the parent to adopt.  The
exit code is the CLI's.
"""

import json
import sys
from time import perf_counter

started = perf_counter()
import mapgeom.cli  # noqa: E402

imported = perf_counter()

import tracer as tracing  # noqa: E402


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    trace = tracing.Tracer()
    trace.record("cli.import", started, imported)
    tracing.install(trace)
    idx = trace.begin("cli.main")
    try:
        return mapgeom.cli.main(argv)
    finally:
        trace.end(idx)
        with open(spans_file, "w") as fh:
            json.dump(trace.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
