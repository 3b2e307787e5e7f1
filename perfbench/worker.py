"""Long-lived library process of the ``audit_batch`` workload.

Usage: python perfbench/worker.py SEED SECONDS MAX_REQUESTS TRACED SPEED_FILE

For each spectrum of the seeded corpus it times ``kklab.audit``,
``kklab.kk_re_from_im`` and ``kklab.kk_im_from_re`` back to back, then
gates the results outside the timed region. Each record carries the
request's monotonic start and end, for the caller's host-speed scaling. It
stops at the first cycle boundary after SECONDS scaled by the host-speed
monitor writing SPEED_FILE, or after MAX_REQUESTS requests when that is
positive, and prints one JSON object with a record per request.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import kklab
from kklab.pvquad import TailFitError

import checks
import hostspeed
import schedule
from spans import SpanRecorder, install_kklab, layer_totals

STAGES = ("audit", "re-from-im", "im-from-re")


def run_request(spectrum) -> tuple[list, BaseException | None]:
    """The three library calls of one request; stops at the first error."""
    results: list = []
    try:
        results.append(kklab.audit(spectrum))
        results.append(kklab.kk_re_from_im(spectrum))
        results.append(kklab.kk_im_from_re(spectrum))
    except Exception as exc:  # gated below: a diagnostic or a wrong outcome
        return results, exc
    return results, None


def gate(req: dict, results: list, error: BaseException | None) -> dict:
    """Outcome of one request, with its oracle error and coverage counts."""
    if error is not None:
        # a constant offset leaves Re n - 1 without a decaying tail, so the
        # im-from-re transform may refuse it with the tail-fit diagnostic
        expected_refusal = req["cls"] == "offset" and len(results) == 2
        if not isinstance(error, TailFitError):
            detail = "".join(traceback.format_exception_only(type(error), error)).strip()
            return checks.outcome("wrong", f"{STAGES[len(results)]}: {detail}")
        if not expected_refusal:
            return checks.outcome("diagnostic", f"{STAGES[len(results)]}: {error}")
    verdict = results[0].dichotomy.value
    if verdict != schedule.EXPECTED_VERDICT[req["cls"]]:
        return checks.outcome("wrong", f"verdict {verdict}")
    errs, hit, total = [], 0, 0
    for direction, res in zip(STAGES[1:], results[1:]):
        est = np.asarray(res.error_estimate)
        if not (np.all(np.isfinite(est)) and np.all(est >= 0)):
            return checks.outcome("wrong", f"{direction}: bad error_estimate")
        got = checks.check_transform_output(req, res.spectrum.re, res.spectrum.im, direction)
        if got["outcome"] != "ok":
            return got
        if "oracle_err" in got:
            errs.append(got["oracle_err"])
            h, t = checks.coverage_counts(req, res, direction)
            hit, total = hit + h, total + t
    if errs:
        return checks.outcome("ok", oracle_err=max(errs), cov_hit=hit, cov_total=total)
    return checks.outcome("ok")


def main(seed: int, seconds: float, max_requests: int, traced: bool, speed_file: Path) -> dict:
    rec = SpanRecorder()
    if traced:
        install_kklab(rec)
    records, seen = [], set()
    reused = calls = 0
    start = time.monotonic()
    i = 0
    while (i < max_requests) if max_requests > 0 else not schedule.cycle_done(
            "audit_batch", i, lambda: hostspeed.scaled_since(speed_file, start), seconds):
        req = schedule.request("audit_batch", seed, i)
        grid = kklab.FrequencyGrid(req["nu"], kklab.GridUnit.NORMALIZED)
        spectrum = kklab.ComplexIndexSpectrum(grid, req["re"], req["im"])
        rec.request = i
        t0 = time.monotonic()
        results, error = run_request(spectrum)
        t1 = time.monotonic()
        grid_key = hashlib.sha1(req["nu"].tobytes()).hexdigest()
        # every stage started runs one transform: audit and re-from-im build
        # the odd folded operator, im-from-re the even one
        for kind in ("odd", "odd", "even")[:len(results) + (error is not None)]:
            reused += (grid_key, kind) in seen
            seen.add((grid_key, kind))
            calls += 1
        records.append({"index": i, "wall_s": t1 - t0, "t0": t0, "t1": t1, "n": req["n"],
                        "cls": req["cls"], "direction": "audit", "sigma": req.get("sigma"),
                        **gate(req, results, error)})
        i += 1
    totals = layer_totals(rec.spans) if traced else {}
    for r in records:
        r["totals"] = totals.get(r["index"], {})
    return {"records": records, "transform_calls": calls, "reused_calls": reused}


if __name__ == "__main__":
    seed, seconds, max_requests, traced, speed_file = sys.argv[1:6]
    print(json.dumps(main(int(seed), float(seconds), int(max_requests), traced == "1",
                          Path(speed_file))))
