"""Traced stand-in for ``python -c "from lorentz2d.cli import main; ..."``.

    python3 perfbench/cli_child.py TIMING_JSON [lorentz2d arguments ...]

Runs the CLI exactly as the untraced invocation does (same exit code,
same traceback on a crash) and writes to TIMING_JSON the
``time.perf_counter()`` reading at interpreter start-up, the import time
of ``lorentz2d.cli`` and the time spent in ``main``.  The parent reads
the same monotonic clock before starting the child, which gives the
interpreter start-up time.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def _run() -> int:
    timing_path, args = sys.argv[1], sys.argv[2:]
    timing = {"start": _START, "import_s": float("nan"), "main_s": float("nan")}
    try:
        before = time.perf_counter()
        from lorentz2d.cli import main
        timing["import_s"] = time.perf_counter() - before
        before = time.perf_counter()
        try:
            return main(args)
        finally:
            timing["main_s"] = time.perf_counter() - before
    finally:
        with open(timing_path, "w") as fh:
            json.dump(timing, fh)


if __name__ == "__main__":
    sys.exit(_run())
