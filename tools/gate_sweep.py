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

Last comes a class that no workload holds: 300 seeded Gaussian absorption
lines (``gaussian_closed_form`` in ``tests/conftest.py``), draw i from
``np.random.default_rng(i)``. Each draws an amplitude A = 10^U(-2, -0.5), a
centre nu0 = 10^U(-0.7, 0.7), a width s = nu0 10^U(-2, -0.3) and
round(10^U(log10 512, log10 4096)) log nodes on 0.01-100; odd draws add
white noise of sigma = 10^U(-9, -4) to both parts. A draw passes when
``audit`` raises nothing, warnings included, and reads
``consistent_with_unity``. Its total line also gives the largest
re-from-im error against the closed form on the interior nodes
(``interior_mask``) of the clean draws, reported and not gated.
"""

from __future__ import annotations

import contextlib
import io
import math
import sys
import tempfile
import traceback
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

import checks  # noqa: E402
import schedule  # noqa: E402
import worker  # noqa: E402
from conftest import gaussian_closed_form, interior_mask  # noqa: E402
from kklab import (ComplexIndexSpectrum, Dichotomy, FrequencyGrid, GridUnit, audit,  # noqa: E402
                   kk_re_from_im)
from kklab.cli import main  # noqa: E402

# workload -> (seeds, cycles)
SWEEPS = {"audit_batch": (range(10), 20), "cli_large": (range(5), 10)}
GAUSSIAN_DRAWS = 300


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


def gaussian_draw(i: int) -> tuple[tuple[float, float, float], float, ComplexIndexSpectrum]:
    """Draw i of the Gaussian class: the line (A, nu0, s), the noise sigma
    (0 on even draws) and the spectrum."""
    rng = np.random.default_rng(i)
    amplitude, centre = 10.0 ** rng.uniform(-2.0, -0.5), 10.0 ** rng.uniform(-0.7, 0.7)
    line = amplitude, centre, centre * 10.0 ** rng.uniform(-2.0, -0.3)
    nu = np.geomspace(1e-2, 1e2, round(10.0 ** rng.uniform(math.log10(512), math.log10(4096))))
    index = gaussian_closed_form(nu, *line)
    re, im, sigma = index.real, index.imag, 0.0
    if i % 2:
        sigma = 10.0 ** rng.uniform(-9.0, -4.0)
        re, im = re + sigma * rng.standard_normal(nu.size), im + sigma * rng.standard_normal(nu.size)
    return line, sigma, ComplexIndexSpectrum(FrequencyGrid(nu, GridUnit.NORMALIZED), re, im)


def gaussian_sweep() -> tuple[int, float]:
    """(failed draws, max interior re-from-im error of the clean draws)."""
    failed, err = 0, 0.0
    for i in range(GAUSSIAN_DRAWS):
        line, sigma, spec = gaussian_draw(i)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                verdict = audit(spec).dichotomy
        except Exception as exc:
            verdict = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        if verdict is not Dichotomy.CONSISTENT_WITH_UNITY:
            failed += 1
            print(f"gaussian draw {i} (A, nu0, s = {', '.join(f'{x:.4g}' for x in line)}, "
                  f"n {spec.grid.size}, sigma {sigma:.3g}): {verdict}", flush=True)
        elif not sigma:  # the audit's round trip is the cached transform
            inside = interior_mask(spec.grid)
            want = gaussian_closed_form(spec.grid.values, *line).real
            err = max(err, float(np.max(np.abs(kk_re_from_im(spec).spectrum.re - want)[inside])))
    return failed, err


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
    failed, err = gaussian_sweep()
    print(f"gaussian: {failed} failed of {GAUSSIAN_DRAWS} draws; re-from-im interior error "
          f"max {err:.6g} over the clean draws", flush=True)
    return 1 if failures + failed else 0


if __name__ == "__main__":
    sys.exit(run())
