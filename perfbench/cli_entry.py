"""Traced stand-in for ``python -m logres.cli``, used by the traced catalog_emit run.

Usage: cli_entry.py SPANS_FILE CLI_ARGS...

Times the import of ``logres.cli``, installs the span wrappers, runs
``logres.cli.main`` and writes its spans and counts to SPANS_FILE.  The
library's stdout and exit code pass through unchanged.
"""

import time

START_NS = time.perf_counter_ns()

import sys  # noqa: E402

from spans import Tracer  # noqa: E402


def main() -> int:
    dump, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    rec = tracer.open("cli.import")
    import logres.cli
    tracer.close(rec)
    tracer.install()
    rec = tracer.open("cli.main")
    code = 2
    try:
        code = logres.cli.main(argv)
    finally:
        tracer.close(rec, raised=sys.exc_info()[0] is not None)
        tracer.uninstall()
        sys.stdout.flush()
        tracer.dump(dump, {"script_s": (time.perf_counter_ns() - START_NS) / 1e9})
    return code


if __name__ == "__main__":
    sys.exit(main())
