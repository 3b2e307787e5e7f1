"""Digest kklab's library outputs, error estimates included, for byte-for-byte comparison.

Usage, from the root of a kklab checkout:

    python3 tools/lib_digests.py [--save FILE.npz]
    python3 tools/lib_digests.py --compare OLD.npz NEW.npz

The library-side twin of ``cli_digests.py``. The CLI writes no error
estimate, so that script cannot see a change in those bits; this one hashes
the arrays the library returns. It runs, in this process:

- the dilute Lorentz spectrum (omega_p 1, omega_res 1, gamma 0.1) on
  ``cli_digests.py``'s three grids: all four transforms, ``audit``, and
  ``kk_subtracted`` at the interior points omega0 = 0.5 and 2.0 with
  ``on_collision="continuity"``, whose poles leave a gap at the collision
  zone;
- the same spectrum and calls on ``ZERO_GRID``, ``np.r_[0.0,
  np.geomspace(1e-2, 1e2, 2047)]``: the one grid here that samples
  omega = 0 and is geometric above it, so its positive nodes take the FFT
  operators and its omega = 0 node the head model and the scalar rule.
  Its ``subtracted`` call at omega0 = 0 sits on that node, which leaves no
  collision zone;
- two cycles of seed 0 of the benchmark's ``audit_batch`` spectra: all four
  transforms and ``audit``;
- one cycle of seed 0 of the benchmark's ``cli_large`` spectra: each
  request's own transform, or ``audit`` for ``validate``.

Requests come from ``perfbench/schedule.py``, and nothing under
``perfbench/`` is edited. Every spectrum runs twice, ``cold`` and then
``warm``: the FFT operators' per-grid plan caches, where the checkout has
them, are cleared before the cold pass, and the warm pass reuses what the
cold pass built. The transform result cache, where the checkout has one, is
cleared before each pass, so the warm pass runs every transform again on
warm plans. The program runs from this checkout's ``src/``.

Prints one line per call:

    SHA256(values) SHA256(error_estimate) NAME

The values are the returned spectrum's Re n and Im n bytes; an audit hashes
its report JSON and prints ``-`` for the estimate; a call that raises hashes
its exception's type and message. Run it in two checkouts and ``diff`` the
two printouts to show that a change keeps every bit.

``--save FILE.npz`` also stores what each line hashes: the values, the
error estimate, the report JSON or the exception's text. ``--compare``
reads two such files, from two checkouts, and prints a line for every call
whose outputs differ: for a transform max |dvalue| / max |value| and
max |destimate| / max |estimate|; for an audit the report field that moved
most, as |dfield| / |field|, or the fields that are not numbers; for a
refusal both texts. It prints nothing for the lines whose outputs are equal,
and last "N of M lines moved", a line only in one file counting as moved.
It exits 1 when any line moved and 0 when none did, so a script can gate on
it as on ``gate_sweep.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
import schedule  # noqa: E402
from cli_digests import GRIDS  # noqa: E402
from kklab import (ComplexIndexSpectrum, FrequencyGrid, GridUnit,  # noqa: E402
                   LorentzOscillatorParams, audit, kk, kk_im_from_re,
                   kk_re_from_im, kk_subtracted, kk_subtracted_at_infinity,
                   lorentz_index, pvquad)

# the constants of cli_digests.py's subtracted requests
TRANSFORMS = {
    "re-from-im": kk_re_from_im,
    "im-from-re": kk_im_from_re,
    "subtracted": lambda s: kk_subtracted(s, 0.0, 0.5, 0.01),
    "subtracted-at-infinity": lambda s: kk_subtracted_at_infinity(s, 1.01, 0.001),
}
# interior subtraction points: the poles skip the nodes around omega0
INTERIOR = {
    f"subtracted omega0={w0:g}":
        lambda s, w0=w0: kk_subtracted(s, w0, 0.5, 0.01, on_collision="continuity")
    for w0 in (0.5, 2.0)
}
AUDIT_CYCLES = 2
ZERO_GRID = "0+log:0.01:100:2047"


def grid_of(spec: str) -> FrequencyGrid:
    """The grid of a ``log:MIN:MAX:COUNT`` or ``lin:MIN:MAX:COUNT`` spec,
    with the node 0 below it for a ``0+`` prefix."""
    if spec.startswith("0+"):
        return FrequencyGrid(np.r_[0.0, grid_of(spec[2:]).values], GridUnit.NORMALIZED)
    kind, lo, hi, count = spec.split(":")
    make = FrequencyGrid.log_spaced if kind == "log" else FrequencyGrid.linear
    return make(float(lo), float(hi), int(count), GridUnit.NORMALIZED)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def outputs(call) -> tuple[np.ndarray | str, np.ndarray | None]:
    """A transform's Re n and Im n, end to end, and its error estimate; an
    audit's report JSON, or a refusal's type and message, and None."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = call()
    except Exception as exc:  # a refusal is an output too
        return f"{type(exc).__name__}: {exc}", None
    if hasattr(res, "to_json"):
        return res.to_json(), None
    spec = res.spectrum
    return np.concatenate([spec.re, spec.im]), res.error_estimate


def digest(output) -> str:
    if output is None:
        return "-"
    return _sha(output.encode() if isinstance(output, str) else output.tobytes())


def spectra():
    """(name, spectrum, calls) of every spectrum, calls as (label, function)."""
    every = [*TRANSFORMS.items(), ("audit", audit)]
    params = LorentzOscillatorParams(1.0, 1.0, 0.1)
    for grid in (*GRIDS, ZERO_GRID):
        yield grid, lorentz_index(params, grid_of(grid)), [*every, *INTERIOR.items()]
    for workload, cycles in (("audit_batch", AUDIT_CYCLES), ("cli_large", 1)):
        for i in range(cycles * len(schedule.WORKLOADS[workload])):
            req = schedule.request(workload, 0, i)
            if "nu" not in req:
                continue
            spec = ComplexIndexSpectrum(FrequencyGrid(req["nu"], GridUnit.NORMALIZED),
                                        req["re"], req["im"])
            calls = every
            if workload == "cli_large":
                direction = req["direction"]
                if direction == "validate":
                    calls = [("audit", audit)]
                elif direction == "subtracted":
                    calls = [(direction,
                              lambda s, g0=req["g0_re"]: kk_subtracted(s, 0.0, g0, 0.0))]
                else:
                    calls = [(direction, TRANSFORMS[direction])]
            yield f"{workload} {i} {req['cls']} {req['n']}", spec, calls


def print_digests(save: str | None = None) -> None:
    saved = {}
    # a checkout without a plan cache runs every call cold
    plans = [pvquad._folded_plan] if hasattr(pvquad, "_folded_plan") else []
    results = [kk._at_infinity] if hasattr(kk, "_at_infinity") else []
    for name, spec, calls in spectra():
        for plan in plans:
            plan.cache_clear()
        for state in ("cold", "warm"):
            for cache in results:
                cache.cache_clear()
            for label, fn in calls:
                line = f"{name} {label} {state}"
                values, errors = outputs(lambda: fn(spec))
                print(digest(values), digest(errors), line, flush=True)
                saved[f"v {line}"] = np.asarray(values)
                if errors is not None:
                    saved[f"e {line}"] = errors
    if save:
        np.savez_compressed(save, **saved)


def _leaves(tree, path=""):
    """(path, leaf) of every leaf of a parsed report."""
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from _leaves(value, f"{path}.{key}")
    elif isinstance(tree, list):
        for i, value in enumerate(tree):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, tree


def _relative(old: np.ndarray, new: np.ndarray) -> str:
    scale = np.max(np.abs(old)) if old.size else 0.0
    return f"{np.max(np.abs(new - old)) / scale:.2g}" if scale else "inf"


def _text(output: np.ndarray) -> str:
    return str(output) if output.dtype.kind == "U" else "values"


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _report_change(old: str, new: str) -> str:
    old_leaves, new_leaves = dict(_leaves(json.loads(old))), dict(_leaves(json.loads(new)))
    moved = sorted(k for k in old_leaves.keys() | new_leaves.keys()
                   if old_leaves.get(k) != new_leaves.get(k))
    other = [k for k in moved
             if not (_number(old_leaves.get(k)) and _number(new_leaves.get(k)))]
    if other:
        return "fields " + " ".join(other)
    change = {k: abs(new_leaves[k] - old_leaves[k]) / abs(old_leaves[k]) if old_leaves[k]
              else float("inf") for k in moved}
    field = max(change, key=change.get)
    return f"report {field[1:]} {change[field]:.2g}"


def compare(old_path: str, new_path: str) -> int:
    """Print how every call's outputs moved between two ``--save`` files, and
    last "N of M lines moved"; return N."""
    moved = 0
    with np.load(old_path) as old, np.load(new_path) as new:
        old_lines = [key[2:] for key in old.files if key.startswith("v ")]
        new_lines = [key[2:] for key in new.files if key.startswith("v ")]
        for line in old_lines:
            if f"v {line}" not in new.files:
                print(f"{line}: only in {old_path}")
                moved += 1
        for line in new_lines:
            change = _change(line, old, new, old_path, new_path)
            if change:
                print(f"{line}: {change}")
                moved += 1
    print(f"{moved} of {len(set(old_lines) | set(new_lines))} lines moved")
    return moved


def _change(line: str, old, new, old_path: str, new_path: str) -> str | None:
    """How one line's outputs moved, or None where they are equal."""
    if f"v {line}" not in old.files:
        return f"only in {new_path}"
    a, b = old[f"v {line}"], new[f"v {line}"]
    if a.dtype.kind == "U" or b.dtype.kind == "U":
        if a.tobytes() == b.tobytes():
            return None
        if str(a).startswith("{") and str(b).startswith("{"):
            return _report_change(str(a), str(b))
        return f"{_text(a)} -> {_text(b)}"
    ea, eb = old[f"e {line}"], new[f"e {line}"]
    if a.tobytes() != b.tobytes() or ea.tobytes() != eb.tobytes():
        return f"value {_relative(a, b)} estimate {_relative(ea, eb)}"
    return None


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--save", metavar="FILE.npz", help="also store every line's outputs")
    parser.add_argument("--compare", nargs=2, metavar=("OLD.npz", "NEW.npz"),
                        help="print how the outputs moved between two saved runs; exit 1 if any did")
    args = parser.parse_args()
    if args.compare:
        sys.exit(1 if compare(*args.compare) else 0)
    else:
        print_digests(args.save)
