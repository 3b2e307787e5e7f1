"""Replay many cycles of the benchmark's requests through its own gates.

Usage, from the root of a kklab checkout:

    python3 tools/gate_sweep.py

Replays every slot of ``audit_batch`` for seeds 0-9 over 20 cycles, and
every slot of ``cli_large`` for seeds 0-4 over 10 cycles, in this process and
without timing. Requests come from ``perfbench/schedule.py``. An
``audit_batch`` request runs the library calls of ``perfbench/worker.py`` and
its ``gate``. A ``cli_large`` request writes the benchmark's input CSV, runs
``kklab.cli.main`` on the benchmark's arguments and passes the exit code and
the output file to ``checks.check_cli``. Nothing under ``perfbench/`` is
edited. The program runs from this checkout's ``src/``.

A benchmark run stops at the first cycle boundary after its deadline, so a
faster program runs more cycles and meets more of the seeded inputs. The
sweep gates those inputs, for several seeds, before a benchmark run does.

Prints every failed request and one total line per workload, and exits 1 if
any request failed. The total line also gives the largest oracle error of
the workload's passing requests and, where their outcomes count it (the
library's ``audit_batch``; the CLI writes no error estimate), the error
estimate's coverage as hit/total interior nodes: the benchmark's
``oracle_err_max`` and ``err_coverage`` over many more requests than one
timed run, so a numerical change shows its effect on them untimed. A
workload with more than one direction (``cli_large``) also gets a line of
the largest oracle error per direction, so a change to one transform is
not hidden under another's maximum.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
import traceback
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import checks  # noqa: E402
import schedule  # noqa: E402
import worker  # noqa: E402
from kklab import ComplexIndexSpectrum, FrequencyGrid, GridUnit  # noqa: E402
from kklab.cli import main  # noqa: E402

# workload -> (seeds, cycles)
SWEEPS = {"audit_batch": (range(10), 20), "cli_large": (range(5), 10)}


def audit_outcome(req: dict, tmp: Path) -> dict:
    grid = FrequencyGrid(req["nu"], GridUnit.NORMALIZED)
    results, error = worker.run_request(ComplexIndexSpectrum(grid, req["re"], req["im"]))
    return worker.gate(req, results, error)


def cli_outcome(req: dict, tmp: Path) -> dict:
    in_path, out_path = tmp / "in.csv", tmp / "out"
    out_path.unlink(missing_ok=True)
    if "nu" in req:
        in_path.write_text(schedule.spectrum_csv(req))
    with contextlib.redirect_stderr(io.StringIO()), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            code = main(schedule.cli_args(req, str(in_path), str(out_path)))
        except Exception as exc:  # the console script would exit 1 with a traceback
            detail = "".join(traceback.format_exception_only(type(exc), exc)).strip()
            return checks.outcome("wrong", f"uncaught {detail}")
    out_text = out_path.read_text() if out_path.exists() else None
    return checks.check_cli(req, code, out_text)


OUTCOME = {"audit_batch": audit_outcome, "cli_large": cli_outcome}


def sweep(workload: str, tmp: Path) -> tuple[int, int, dict[str, float], int, int]:
    """(failed, attempted, max oracle error by direction, coverage hits,
    coverage total) over the workload's seeds and cycles."""
    seeds, cycles = SWEEPS[workload]
    failed = attempted = hit = total = 0
    err = {}
    for seed in seeds:
        for i in range(cycles * len(schedule.WORKLOADS[workload])):
            req = schedule.request(workload, seed, i)
            got = OUTCOME[workload](req, tmp)
            attempted += 1
            what = req["direction"] or req["kind"]
            if got["outcome"] == "ok":  # the benchmark's metrics read these alone
                if "oracle_err" in got:
                    err[what] = max(err.get(what, 0.0), got["oracle_err"])
                hit, total = hit + got.get("cov_hit", 0), total + got.get("cov_total", 0)
                continue
            failed += 1
            print(f"{workload} seed {seed} request {i} ({what}, {req['cls']}, "
                  f"n {req['n']}): {got['outcome']}: {got['reason']}", flush=True)
    return failed, attempted, err, hit, total


def run() -> int:
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for workload in SWEEPS:
            failed, attempted, err, hit, total = sweep(workload, Path(tmp))
            coverage = f"{hit}/{total} = {hit / total:.5f}" if total else "not counted"
            print(f"{workload}: {failed} failed of {attempted} requests; "
                  f"oracle_err max {max(err.values(), default=0.0):.6g}; "
                  f"coverage {coverage}", flush=True)
            if len(err) > 1:
                print(f"{workload}: oracle_err max by direction: "
                      + "; ".join(f"{what} {e:.6g}" for what, e in sorted(err.items())),
                      flush=True)
            failures += failed
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(run())
