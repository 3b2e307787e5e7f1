"""Seeded request schedules for the benchmark workloads.

Each workload is a fixed cycle of request slots. A slot fixes what a request
is (direction, node count, spectrum class, oscillator); the seed draws the
details of every request: the oscillator strength, the noise realization and
its level inside a decade, the subtraction offset, the flipped band, the
node count of the one-off audit grids and the calculator arguments. Request
``i`` is generated from ``(seed, i)`` alone, so a traced replay sees the same
inputs, and the same seed always gives byte-identical files.

The seed scales the oscillator strength omega_p but leaves grids, line
positions and widths alone. The transforms are linear in n - 1, so the
oracle error scales smoothly with omega_p^2; moving a node or a line by a
fraction of a grid spacing instead changes the error of an under-resolved
line erratically, which would make the accuracy metrics differ from seed to
seed for no reason in the program.

The slots are fixed rather than drawn, and a run is a whole number of
cycles: the client checks the ``--seconds`` deadline only between cycles
(see ``cycle_done``). Every seed therefore measures the same mix of sizes,
directions and spectrum classes, and runs with different seeds can be
compared. The deadline is in host-speed-scaled seconds (``hostspeed.py``).
On the code the benchmark was defined on, each cycle takes longer than the
run length in BENCHMARK.json, so a run is one cycle however fast the shared
machine happens to be that minute. Sizes follow log-uniform ladders.

Only numpy is used here: inputs are built from closed forms, never from the
program under test.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

GRID_LO, GRID_HI = 1e-2, 1e2
UNIT = "normalized"

# The ten dilute Lorentz oscillators (omega_p, omega_res, gamma) of the
# library's causality-audit acceptance corpus.
PALETTE = (
    (1.0, 1.0, 0.1), (0.5, 1.0, 0.1), (1.0, 0.3, 0.1), (0.8, 0.5, 0.2),
    (0.3, 1.0, 0.3), (1.2, 0.7, 0.15), (2.0, 0.5, 0.5), (1.0, 1.0, 1.0),
    (0.6, 2.0, 0.12), (0.9, 1.5, 0.25),
)
STRENGTH_JITTER = 0.005  # omega_p within +-0.5 % (log) of the slot's oscillator
SIZE_JITTER = 0.02      # one-off audit grids: node count within +-2 % (log)


def _slot(kind, direction=None, n=0, palette=0, cls="lorentz", **extra):
    return {"kind": kind, "direction": direction, "n": n, "palette": palette,
            "cls": cls, **extra}


def _ladder(lo: int, hi: int, steps: int) -> list[int]:
    return [round(lo * (hi / lo) ** (k / (steps - 1))) for k in range(steps)]


_L = _ladder(2048, 16384, 7)        # 2048 2896 4096 5793 8192 11585 16384

# cli_large: a fresh kklab process per request, as the CLI is used. On files
# of 2k-16k nodes the quadrature kernel is nearly all the time of a spectrum
# request. Every direction and validate run once or more per cycle on other
# sizes and oscillators; the calculator subcommands ride along, their time
# nearly all cold start. The three 4096-node re-from-im requests are the
# middle of the cycle's latency ranking, a third or more away from the
# requests ranked next to them, so the median latency is always one of three
# like requests and does not hop between requests of different cost.
CLI_LARGE = (
    _slot("transform", "subtracted", _L[0], 0),
    _slot("transform", "re-from-im", _L[2], 8),
    _slot("transform", "im-from-re", _L[4], 0),
    _slot("transform", "re-from-im", _L[2], 0),
    _slot("validate", "validate", _L[3], 0),
    _slot("scharnhorst", cls="calculator"),
    _slot("transform", "im-from-re", _L[0], 9),
    _slot("transform", "re-from-im", _L[2], 5),
    _slot("clock", cls="calculator"),
    _slot("transform", "subtracted-at-infinity", _L[3], 9),
    _slot("validate", "validate", _L[6], 8),
)

# audit_batch: one library process audits a corpus whose spectra mostly share
# two log grids. Classes and their expected verdicts follow the library's
# audit acceptance corpus; the noisy slots take one noise level from each
# decade of 1e-9..1e-6 (the level drawn inside its decade). The 2896-node
# grids are drawn per request, so they are never shared. The last eight slots
# repeat the clean classes with other oscillators.
AUDIT_BATCH = (
    _slot("audit", n=2048, palette=0),
    _slot("audit", n=2048, palette=5, cls="offset"),
    _slot("audit", n=4096, palette=1, cls="noisy", noise_decade=-7),
    _slot("audit", n=4096, palette=5),
    _slot("audit", n=2048, palette=0, cls="flipped"),
    _slot("audit", n=2048, palette=1, cls="noisy", noise_decade=-9),
    _slot("audit", n=2048, palette=1, cls="noisy", noise_decade=-8),
    _slot("audit", n=2896, palette=8, shared=False),
    _slot("audit", n=2048, palette=3),
    _slot("audit", n=2048, palette=9, cls="offset"),
    _slot("audit", n=2048, palette=3, cls="flipped"),
    _slot("audit", n=4096, palette=9),
    _slot("audit", n=2048, palette=6, cls="flipped"),
    _slot("audit", n=4096, palette=0),
    _slot("audit", n=2048, palette=4, cls="offset"),
    _slot("audit", n=2896, palette=7, shared=False),
)

WORKLOADS = {"cli_large": CLI_LARGE, "audit_batch": AUDIT_BATCH}

EXPECTED_VERDICT = {"lorentz": "consistent_with_unity", "noisy": "consistent_with_unity",
                    "offset": "superluminal_branch", "flipped": "amplification_branch"}


def cycle_done(workload: str, index: int, elapsed: Callable[[], float], seconds: float) -> bool:
    """True when request ``index`` would open a new cycle and ``elapsed()``,
    the run's host-speed-scaled seconds so far, has reached ``seconds``."""
    return index > 0 and index % len(WORKLOADS[workload]) == 0 and elapsed() >= seconds


def log_grid(n: int) -> np.ndarray:
    return np.geomspace(GRID_LO, GRID_HI, n)


def lorentz(params, nu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form dilute Lorentz index, the transform oracle."""
    wp, wr, g = params
    n = 1.0 + (wp ** 2 / 2.0) / (wr ** 2 - nu ** 2 - 1j * g * nu)
    return n.real, n.imag


def request(workload: str, seed: int, index: int) -> dict:
    """The ``index``-th request of a run: its slot plus seeded details."""
    slots = WORKLOADS[workload]
    req = dict(slots[index % len(slots)])
    req["index"] = index
    rng = np.random.default_rng([seed, index])
    if req["kind"] == "scharnhorst":
        count = int(rng.integers(2, 6))
        req["L"] = sorted(float(x) for x in 10.0 ** rng.uniform(-15.0, -6.0, count))
        return req
    if req["kind"] == "clock":
        req["L"] = float(10.0 ** rng.uniform(-13.0, -6.0))
        req["beta"] = float(rng.uniform(0.0, 0.9))
        req["orientation"] = ("parallel", "perpendicular")[int(rng.integers(2))]
        return req
    n = req["n"]
    if not req.get("shared", True):
        n = req["n"] = round(n * math.exp(rng.uniform(-SIZE_JITTER, SIZE_JITTER)))
    wp, wr, gamma = PALETTE[req["palette"]]
    wp *= math.exp(rng.uniform(-STRENGTH_JITTER, STRENGTH_JITTER))
    req["params"] = (wp, wr, gamma)
    nu = log_grid(n)
    re, im = lorentz(req["params"], nu)
    if req["cls"] == "offset":
        re = re - rng.uniform(0.05, 0.15)
    elif req["cls"] == "flipped":
        half_width = rng.uniform(0.05, 0.15)  # decades either side of omega_res
        band = np.abs(np.log10(nu / wr)) <= half_width
        im = np.where(band, -im, im)
    elif req["cls"] == "noisy":
        sigma = 10.0 ** (req["noise_decade"] + rng.uniform(0.25, 0.75))
        req["sigma"] = float(sigma)
        re = re + sigma * rng.standard_normal(n)
        im = im + sigma * rng.standard_normal(n)
    if req["direction"] == "subtracted":
        # subtraction below the grid at omega0 = 0, with G(0) from the closed
        # form: n(0) = 1 + omega_p^2 / (2 omega_res^2), Im n(0) = 0
        req["g0_re"] = 1.0 + wp ** 2 / (2.0 * wr ** 2)
    req["nu"], req["re"], req["im"] = nu, re, im
    return req


def spectrum_csv(req: dict) -> str:
    """The request's spectrum in the program's CSV input format."""
    lines = [f"# unit: {UNIT}", "omega,re_n,im_n"]
    lines += [f"{w:.17g},{r:.17g},{i:.17g}" for w, r, i in zip(req["nu"], req["re"], req["im"])]
    return "\n".join(lines) + "\n"


def cli_args(req: dict, in_path: str, out_path: str) -> list[str]:
    """kklab command-line arguments for a CLI request."""
    kind = req["kind"]
    if kind == "transform":
        args = ["transform", "--direction", req["direction"], "--in", in_path, "--out", out_path]
        if req["direction"] == "subtracted":
            args += ["--omega0", "0", "--g0-re", repr(req["g0_re"])]
        return args
    if kind == "validate":
        return ["validate", "--in", in_path, "--out", out_path]
    if kind == "scharnhorst":
        return ["scharnhorst", "--L", ",".join(repr(x) for x in req["L"]), "--out", out_path]
    return ["clock", "--L", repr(req["L"]), "--beta", repr(req["beta"]),
            "--orientation", req["orientation"], "--out", out_path]
