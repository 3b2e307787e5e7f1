"""Traced stand-in for the ``kklab`` console script.

Usage: python -X importtime perfbench/launcher.py TOTALS_JSON [kklab arguments]

Installs the span recorder on kklab's layer boundaries, runs
``kklab.cli.main`` on the remaining arguments, and exits with main's exit
code. Before exiting it writes the request's per-layer totals to
TOTALS_JSON, with the seconds spent computing them (``post_s``) so that
the caller can take them out of the request's wall time.
"""

import json
import sys
import time

from spans import SpanRecorder, install_kklab, layer_totals


def run(totals_path: str, argv: list[str]) -> int:
    from kklab import cli

    rec = SpanRecorder()
    install_kklab(rec)
    try:
        return cli.main(argv)
    finally:
        t0 = time.perf_counter()
        totals = layer_totals(rec.spans).get(None, {})
        totals["post_s"] = time.perf_counter() - t0
        with open(totals_path, "w") as fh:
            json.dump(totals, fh)


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2:]))
