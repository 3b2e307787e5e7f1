"""Digest a fixed matrix of kklab CLI requests, for byte-for-byte comparison.

Usage, from the root of a kklab checkout:

    python3 tools/cli_digests.py DIR

Writes dilute Lorentz (omega_p 1, omega_res 1, gamma 0.1) inputs on three
grids into DIR, then runs every transform direction and ``validate`` on
each, plus the ``scharnhorst`` table and both ``clock`` orientations. Two
more grids, too short for the top-decade tail fit, get ``model`` and
``validate`` alone; ``lib_digests.py`` takes ``GRIDS`` without them. Then
come the ``CONTRACT`` requests, which probe the exit codes other than 0 and
pin the help texts, whose usage lines list every flag of a subcommand. Last,
the ``READER`` inputs, written into DIR by this script, take the CSV
reader's other paths: spaced cells, blank and comment lines between rows, a
unit tag after the data and a cell only Python's ``float`` reads get
``transform``; a header-only file and a non-numeric cell get ``transform``
and ``validate``.
Every request goes through ``kklab.cli.main`` in this process, with DIR as
the working directory, so no path outside DIR enters an output. The
program runs from this checkout's ``src/``.

Prints one line per request:

    EXIT SHA256(output file) SHA256(stdout and stderr) NAME

An output the request did not write is hashed as ``-``. An exception that
escapes ``main`` is printed as ``uncaught TYPE`` in place of EXIT (the
console script would exit 1 with a traceback), except argparse's exit from
an older ``main``, which is printed as its code. Warnings count as stderr by
their category and message alone: their source line moves with any edit. Run it in two checkouts and ``diff`` the two printouts to show
that a change keeps every output, exit code and diagnostic.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from kklab.cli import main  # noqa: E402

GRIDS = ("log:0.01:100:2048", "lin:0:100:1024", "log:0.001:1000:4096")
# 5 and 7 nodes in the top decade, where the tail fit needs 8
SMALL_GRIDS = ("log:0.01:100:20", "log:0.01:100:28")
# (name, output file, argv) after the inputs above: usage errors, help texts,
# numerical failures, and inputs at the edges of the calculators and audit
CONTRACT = (
    ("transform without --direction", "c-nodir.csv",
     ["transform", "--in", "lorentz0.csv", "--out", "c-nodir.csv"]),
    ("--help", "help.out", ["--help"]),
    ("transform --help", "help-transform.out", ["transform", "--help"]),
    ("validate --help", "help-validate.out", ["validate", "--help"]),
    ("transform --tail-exponent alone", "c-tail.csv",
     ["transform", "--direction", "re-from-im", "--tail-exponent", "3",
      "--in", "lorentz0.csv", "--out", "c-tail.csv"]),
    (f"{SMALL_GRIDS[0]} transform re-from-im", "c-small.csv",
     ["transform", "--direction", "re-from-im", "--in", f"lorentz{len(GRIDS)}.csv",
      "--out", "c-small.csv"]),
    ("clock perpendicular degenerate", "c-clock-degenerate.json",
     ["clock", "--L", "1e-14", "--beta", "0.6", "--orientation", "perpendicular",
      "--out", "c-clock-degenerate.json"]),
    ("clock parallel L 1e-64", "c-clock-tiny.json",
     ["clock", "--L", "1e-64", "--beta", "0.3", "--orientation", "parallel",
      "--out", "c-clock-tiny.json"]),
    ("log:1:100:400 model", "band.csv",
     ["model", "lorentz", "--omega-p", "1", "--omega-res", "3", "--gamma", "0.3",
      "--grid", "log:1:100:400", "--out", "band.csv"]),
    ("log:1:100:400 validate", "c-band.json",
     ["validate", "--in", "band.csv", "--out", "c-band.json"]),
)


def _reader_inputs(n: int = 512) -> dict[str, str]:
    """CSV texts of a dilute Lorentz spectrum on n log nodes over 0.01..100,
    by file name, each taking one of the reader's paths."""
    rows = []
    for k in range(n):
        w = 0.01 * 10.0 ** (4.0 * k / (n - 1))
        idx = 1.0 + 0.5 / (1.0 - w * w - 0.1j * w)
        rows.append([f"{w:.17g}", f"{idx.real:.17g}", f"{idx.imag:.17g}"])
    header = "omega,re_n,im_n"

    def text(lines):
        return "\n".join([header, *lines]) + "\n"

    plain = [",".join(r) for r in rows]
    underscore = [r[:] for r in rows]
    underscore[200][2] = "1_0"  # Im n, which every transform reads
    non_numeric = [r[:] for r in rows]
    non_numeric[300][2] = "abc"
    return {
        "r-spaced.csv": text(" , ".join(r) for r in rows),
        "r-gaps.csv": text([*plain[:100], "", "# a comment", *plain[100:]]),
        "r-unit-after.csv": text([*plain, "# unit: normalized"]),
        "r-underscore.csv": text(",".join(r) for r in underscore),
        "r-header-only.csv": text([]),
        "r-non-numeric.csv": text(",".join(r) for r in non_numeric),
    }


READER = _reader_inputs()
TRANSFORMS = {
    "re-from-im": [],
    "im-from-re": [],
    "subtracted": ["--omega0", "0", "--g0-re", "0.5", "--g0-im", "0.01"],
    "subtracted-at-infinity": ["--re-inf", "1.01", "--im-inf", "0.001"],
}


def requests() -> list[tuple[str, str, list[str]]]:
    """(name, output file, argv) of every request, inputs first."""
    reqs = []
    for i, grid in enumerate((*GRIDS, *SMALL_GRIDS)):
        src = f"lorentz{i}.csv"
        reqs.append((f"{grid} model", src,
                     ["model", "lorentz", "--omega-p", "1", "--omega-res", "1",
                      "--gamma", "0.1", "--grid", grid, "--out", src]))
        for direction, flags in TRANSFORMS.items() if grid in GRIDS else ():
            out = f"g{i}-{direction}.csv"
            reqs.append((f"{grid} transform {direction}", out,
                         ["transform", "--direction", direction, *flags,
                          "--in", src, "--out", out]))
        out = f"g{i}-validate.json"
        reqs.append((f"{grid} validate", out, ["validate", "--in", src, "--out", out]))
    reqs.append(("scharnhorst", "scharnhorst.csv",
                 ["scharnhorst", "--L", "1e-6,1e-15", "--out", "scharnhorst.csv"]))
    for orientation in ("parallel", "perpendicular"):
        out = f"clock-{orientation}.json"
        reqs.append((f"clock {orientation}", out,
                     ["clock", "--L", "1e-14", "--beta", "0.3",
                      "--orientation", orientation, "--out", out]))
    reqs += CONTRACT
    for src in READER:
        stem = src.removesuffix(".csv")
        out = f"{stem}-re-from-im.csv"
        reqs.append((f"{src} transform re-from-im", out,
                     ["transform", "--direction", "re-from-im", "--in", src, "--out", out]))
        if src in ("r-header-only.csv", "r-non-numeric.csv"):
            reqs.append((f"{src} validate", f"{stem}-validate.json",
                         ["validate", "--in", src, "--out", f"{stem}-validate.json"]))
    return reqs


def run(argv: list[str], out: Path) -> tuple[int | str, str, str]:
    """Exit code, output digest and stdout-and-stderr digest of one request."""
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with (warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err),
          contextlib.redirect_stdout(err)):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except (SystemExit, Exception) as exc:
            # a main older than kklab.NumericalError let argparse's exit escape
            code = exc.code if isinstance(exc, SystemExit) else f"uncaught {type(exc).__name__}"
    for w in caught:
        err.write(f"{w.category.__name__}: {w.message}\n")
    out_digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else "-"
    return code, out_digest, hashlib.sha256(err.getvalue().encode()).hexdigest()


def print_digests(directory: str) -> None:
    os.environ["COLUMNS"] = "80"  # argparse wraps --help to the terminal's width
    os.makedirs(directory, exist_ok=True)
    os.chdir(directory)
    for src, text in READER.items():
        Path(src).write_text(text)
    for name, out, argv in requests():
        code, out_digest, err_digest = run(argv, Path(out))
        print(code, out_digest, err_digest, name, flush=True)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: cli_digests.py DIR")
    print_digests(sys.argv[1])
