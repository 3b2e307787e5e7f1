"""Per-request correctness gate and accuracy against closed-form oracles.

Every request ends in one of three outcomes:

``ok``
    the exit code (or raised exception) is the one the contract promises for
    this input and every output check passes;
``diagnostic``
    the program refused with its documented numerical-failure diagnostic
    (CLI exit code 3, or a ``TailFitError`` from the library) on an input
    that should have produced a result. The request failed, but the program
    did not return a wrong answer;
``wrong``
    anything else: an unexpected exit code or exception, output that is
    missing, non-finite or does not load back, a changed pass-through column,
    a wrong verdict, or an error against the oracle above the tolerance.

Failed requests (``diagnostic`` and ``wrong``) count against the success
ratio and stay out of the latency metrics; a ``wrong`` outcome also makes the
run's ``correct`` flag false.
"""

from __future__ import annotations

import json
import math

import numpy as np

from schedule import EXPECTED_VERDICT, lorentz

# criterion-01 oracle tolerances on interior nodes, applied to log grids of
# 2048 nodes or more
ORACLE_MIN_NODES = 2048
RE_TOL, IM_TOL = 1e-3, 2e-3

# the program's default physical constants (c, alpha, lambda_c, k)
C_LIGHT, ALPHA, LAMBDA_C, K_COEFF = 2.99792458e8, 1.0 / 137.0, 3.9e-13, 1e-2
CALC_RTOL = 1e-12

# exit codes of the CLI contract
EXIT_OK, EXIT_BRANCH, EXIT_NUMERICAL = 0, 1, 3


def interior_mask(nu: np.ndarray) -> np.ndarray:
    """Nodes outside the top and bottom half-decade of the grid."""
    return (nu >= nu[0] * math.sqrt(10.0)) & (nu <= nu[-1] / math.sqrt(10.0))


def outcome(status: str, reason: str = "", **extra) -> dict:
    return {"outcome": status, "reason": reason, **extra}


def parse_spectrum_csv(text: str) -> np.ndarray:
    """Rows of (omega, re_n, im_n) from the program's CSV output format."""
    lines = text.splitlines()
    if len(lines) < 4 or not lines[0].startswith("# unit:") or lines[1] != "omega,re_n,im_n":
        raise ValueError("output is not a kklab CSV spectrum")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[2:]])
    if data.ndim != 2 or data.shape[1] != 3:
        raise ValueError("output rows must have 3 columns")
    return data


def oracle_error(req: dict, out_re: np.ndarray, out_im: np.ndarray, direction: str):
    """(interior max error, tolerance) of a transform output against the
    closed form of the request's underlying oscillator."""
    true_re, true_im = lorentz(req["params"], req["nu"])
    mask = interior_mask(req["nu"])
    if direction == "im-from-re":
        return float(np.max(np.abs(out_im - true_im)[mask])), IM_TOL
    return float(np.max(np.abs(out_re - true_re)[mask])), RE_TOL


def check_transform_output(req: dict, out_re, out_im, direction: str) -> dict:
    """Gate a transform result given as arrays (CLI output or library)."""
    if not (np.all(np.isfinite(out_re)) and np.all(np.isfinite(out_im))):
        return outcome("wrong", "non-finite output")
    # the column a transform does not compute passes through unchanged
    kept, given = (out_re, req["re"]) if direction == "im-from-re" else (out_im, req["im"])
    if not np.array_equal(kept, given):
        return outcome("wrong", "pass-through column changed")
    if req["cls"] not in ("lorentz", "noisy"):
        return outcome("ok")
    err, tol = oracle_error(req, out_re, out_im, direction)
    if req["n"] >= ORACLE_MIN_NODES and not err < tol:
        return outcome("wrong", f"oracle error {err:.3g} >= {tol:g}", oracle_err=err)
    return outcome("ok", oracle_err=err) if req["cls"] == "lorentz" else outcome("ok")


def _close(a: float, b: float, rtol: float = CALC_RTOL) -> bool:
    return math.isfinite(a) and abs(a - b) <= rtol * abs(b)


def delta_c_over_c(L: float) -> float:
    return K_COEFF * ALPHA ** 2 * (LAMBDA_C / L) ** 4


def clock_ticks(L: float, beta: float, orientation: str) -> tuple[float, float, float]:
    """(rest, moving direct, moving gamma-dilated) light-clock ticks."""
    c, v = C_LIGHT, beta * C_LIGHT
    rest = 2.0 * L / (c * (1.0 + delta_c_over_c(L)))
    gamma = 1.0 / math.sqrt(1.0 - beta ** 2)
    if beta == 0.0:
        direct = rest
    elif orientation == "perpendicular":
        Lm = L / gamma
        w = c * (1.0 + delta_c_over_c(Lm))
        u_fwd = (w + v) / (1.0 + w * v / c ** 2)
        u_bwd = (w - v) / (1.0 - w * v / c ** 2)
        direct = Lm / (u_fwd - v) + Lm / (u_bwd + v)
    else:
        s = c * (1.0 + delta_c_over_c(L))
        direct = 2.0 * L / math.sqrt(s ** 2 - v ** 2)
    return rest, direct, gamma * rest


def check_cli(req: dict, code: int, out_text: str | None) -> dict:
    """Gate one CLI request from its exit code and output file text."""
    kind = req["kind"]
    expected = EXIT_OK
    if kind == "validate":
        verdict = EXPECTED_VERDICT[req["cls"]]
        expected = EXIT_OK if verdict == "consistent_with_unity" else EXIT_BRANCH
    if code == EXIT_NUMERICAL:
        return outcome("diagnostic", "exit 3 (numerical failure)")
    if code != expected:
        return outcome("wrong", f"exit {code}, expected {expected}")
    if out_text is None:
        return outcome("wrong", "no output file")
    try:
        if kind == "transform":
            data = parse_spectrum_csv(out_text)
            if data.shape[0] != req["n"] or not np.array_equal(data[:, 0], req["nu"]):
                return outcome("wrong", "output grid differs from input grid")
            return check_transform_output(req, data[:, 1], data[:, 2], req["direction"])
        if kind == "validate":
            doc = json.loads(out_text)
            if doc["dichotomy"] != verdict:
                return outcome("wrong", f"verdict {doc['dichotomy']}, expected {verdict}")
            if not math.isfinite(doc["kk_residual"]):
                return outcome("wrong", "non-finite kk_residual")
            return outcome("ok")
        if kind == "scharnhorst":
            rows = [line for line in out_text.splitlines() if line and not line.startswith("#")]
            table = [[float(x) for x in r.split(",")] for r in rows[1:]]
            if len(table) != len(req["L"]):
                return outcome("wrong", "row count differs from the separations asked for")
            for (L, dc, ratio, n_perp), L_req in zip(table, req["L"]):
                want = delta_c_over_c(L_req)
                if not (L == L_req and _close(dc, want) and _close(n_perp, 1.0 - want)
                        and _close(ratio, LAMBDA_C / (L * want))):
                    return outcome("wrong", f"table row for L = {L_req!r} disagrees with the formula")
            return outcome("ok")
        doc = json.loads(out_text)
        rest, direct, sr = clock_ticks(req["L"], req["beta"], req["orientation"])
        if not (_close(doc["tick_rest_s"], rest) and _close(doc["tick_moving_direct_s"], direct)
                and _close(doc["tick_moving_sr_s"], sr)
                and abs(doc["inconsistency"] - abs(direct - sr) / sr) <= 1e-12):
            return outcome("wrong", "clock ticks disagree with the closed form")
        return outcome("ok")
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return outcome("wrong", f"output does not load back: {exc}")


def coverage_counts(req: dict, result, direction: str) -> tuple[int, int]:
    """(interior nodes whose true error is within error_estimate, interior
    nodes) for a library TransformResult on a clean Lorentz request."""
    true_re, true_im = lorentz(req["params"], req["nu"])
    mask = interior_mask(req["nu"])
    out = result.spectrum.im if direction == "im-from-re" else result.spectrum.re
    truth = true_im if direction == "im-from-re" else true_re
    err = np.abs(out - truth)[mask]
    return int(np.sum(err <= np.asarray(result.error_estimate)[mask])), int(mask.sum())
