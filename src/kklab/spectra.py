"""Frequency grids and complex refractive-index spectra: data model and file I/O.

Grids are stored explicitly (non-uniform allowed) so that log-spaced grids,
which the dispersion integrals need to cover several decades, are first-class.
All types are immutable values; all operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

__all__ = [
    "GridUnit",
    "FrequencyGrid",
    "ComplexIndexSpectrum",
    "AbsorptionSpectrum",
    "SpectrumFormatError",
    "load_spectrum",
    "save_spectrum",
    "absorption_from_im",
    "im_from_absorption",
    "resample",
]

CSV_HEADER = "omega,re_n,im_n"


class GridUnit(str, Enum):
    """Unit tag for a frequency grid.

    ``SI_RAD_PER_S`` is required wherever the speed of light enters
    (absorption coefficients, plate-separation calculators); the transform
    core itself is dimensionless and accepts either tag.
    """

    SI_RAD_PER_S = "si_rad_per_s"
    NORMALIZED = "normalized"


class SpectrumFormatError(ValueError):
    """A spectrum file failed to parse or violates the grid invariants."""


def _as_readonly(a, dtype=float) -> np.ndarray:
    if (isinstance(a, np.ndarray) and a.dtype == dtype and a.base is None
            and not a.flags.writeable):
        return a  # already a read-only array of its own: share it
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class FrequencyGrid:
    """Strictly increasing, non-negative, finite frequencies (length >= 2)."""

    values: np.ndarray
    unit: GridUnit = GridUnit.SI_RAD_PER_S

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise ValueError("frequency grid must be one-dimensional")
        if v.size < 2:
            raise ValueError("need >= 2 samples")
        if not np.all(np.isfinite(v)):
            raise ValueError("frequencies must be finite")
        if v[0] < 0.0:
            raise ValueError("frequencies must be >= 0")
        if not np.all(np.diff(v) > 0.0):
            raise ValueError("grid must be strictly increasing")
        object.__setattr__(self, "values", _as_readonly(v))
        object.__setattr__(self, "unit", GridUnit(self.unit))

    @classmethod
    def log_spaced(cls, lo: float, hi: float, n: int,
                   unit: GridUnit = GridUnit.SI_RAD_PER_S) -> "FrequencyGrid":
        if lo <= 0:
            raise ValueError("log-spaced grid needs lo > 0")
        return cls(np.geomspace(lo, hi, n), unit)

    @classmethod
    def linear(cls, lo: float, hi: float, n: int,
               unit: GridUnit = GridUnit.SI_RAD_PER_S) -> "FrequencyGrid":
        return cls(np.linspace(lo, hi, n), unit)

    @property
    def size(self) -> int:
        return int(self.values.size)

    def span_decades(self) -> float:
        """log10(max/min); infinite when the grid touches zero."""
        if self.values[0] == 0.0:
            return math.inf
        return math.log10(self.values[-1] / self.values[0])

    def same_nodes(self, other: "FrequencyGrid") -> bool:
        return self.unit == other.unit and np.array_equal(self.values, other.values)


@dataclass(frozen=True, eq=False)
class ComplexIndexSpectrum:
    """Sampled complex refractive index n(omega) = re + i*im on a grid.

    ``re_is_placeholder`` marks spectra whose real part is a sentinel
    (e.g. reconstructed from absorption data alone) rather than measured.
    """

    grid: FrequencyGrid
    re: np.ndarray
    im: np.ndarray
    re_is_placeholder: bool = False

    def __post_init__(self):
        re = np.asarray(self.re, dtype=float)
        im = np.asarray(self.im, dtype=float)
        n = self.grid.size
        if re.shape != (n,) or im.shape != (n,):
            raise ValueError(f"re/im must have grid length {n}")
        if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
            raise ValueError("re/im entries must be finite")
        object.__setattr__(self, "re", _as_readonly(re))
        object.__setattr__(self, "im", _as_readonly(im))


@dataclass(frozen=True, eq=False)
class AbsorptionSpectrum:
    """Absorption coefficient alpha0(omega) in 1/m on a frequency grid."""

    grid: FrequencyGrid
    alpha0: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.alpha0, dtype=float)
        if a.shape != (self.grid.size,):
            raise ValueError(f"alpha0 must have grid length {self.grid.size}")
        if not np.all(np.isfinite(a)):
            raise ValueError("alpha0 entries must be finite")
        object.__setattr__(self, "alpha0", _as_readonly(a))


# ---------------------------------------------------------------------------
# File I/O
#
# CSV: header line "omega,re_n,im_n", one sample per line, "#" starts a
# comment. A "# unit: <tag>" comment carries the grid unit; absent that, the
# caller's ``unit`` argument applies. JSON: object with "unit", "omega",
# "re_n", "im_n". Both round-trip bit-exactly (17 significant digits).
# ---------------------------------------------------------------------------

def _parse_rows(rows: list[str]) -> np.ndarray:
    """(len(rows), 3) array of the data rows, read in one pass by numpy's C
    parser, which reads a stripped cell as ``float`` does or refuses it; on a
    refusal or rows not 3 wide, ``float`` reads them row by row and names the
    first bad row."""
    try:
        if rows:  # loadtxt warns on no data
            out = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
            if out.shape[1] == 3:
                return out
    except ValueError:
        pass
    out = np.empty((len(rows), 3))
    for i, row in enumerate(rows):
        parts = [p.strip() for p in row.split(",")]
        if len(parts) != 3:
            raise SpectrumFormatError(
                f"malformed row {i + 1}: expected 3 columns, got {len(parts)}")
        try:
            out[i] = [float(p) for p in parts]
        except ValueError:
            raise SpectrumFormatError(f"non-numeric value at row {i + 1}: {row!r}")
    return out


def _parse_csv(text: str, unit: GridUnit | None) -> tuple[np.ndarray, np.ndarray, np.ndarray, GridUnit]:
    rows = []
    saw_header = False
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            body = stripped.lstrip("#").strip()
            if body.lower().startswith("unit:"):
                tag = body.split(":", 1)[1].strip()
                try:
                    unit = GridUnit(tag)
                except ValueError:
                    _parse_rows(rows)  # a bad row above the tag is reported first
                    raise SpectrumFormatError(f"unknown unit tag {tag!r}")
            continue
        if not saw_header:
            if stripped.replace(" ", "") != CSV_HEADER:
                raise SpectrumFormatError(
                    f"expected header {CSV_HEADER!r}, got {stripped!r}")
            saw_header = True
            continue
        rows.append(stripped)
    omega, re_n, im_n = _parse_rows(rows).T
    if unit is None:
        unit = GridUnit.SI_RAD_PER_S
    return omega, re_n, im_n, unit


def _validate_loaded(omega: np.ndarray, re_n: np.ndarray, im_n: np.ndarray,
                     unit: GridUnit) -> ComplexIndexSpectrum:
    if omega.size < 2:
        raise SpectrumFormatError("need >= 2 samples")
    for name, arr in (("omega", omega), ("re_n", re_n), ("im_n", im_n)):
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            raise SpectrumFormatError(f"non-finite {name} at row {bad[0] + 1}")
    bad = np.flatnonzero(omega < 0)
    if bad.size:
        raise SpectrumFormatError(f"negative frequency at row {bad[0] + 1}")
    bad = np.flatnonzero(np.diff(omega) <= 0)
    if bad.size:
        raise SpectrumFormatError(f"non-monotone grid at row {bad[0] + 2}")
    return ComplexIndexSpectrum(FrequencyGrid(omega, unit), re_n, im_n)


def load_spectrum(path: str | Path, format: str = "csv",
                  unit: GridUnit | None = None) -> ComplexIndexSpectrum:
    """Load a complex-index spectrum from a CSV or JSON file.

    Parse failures and invariant violations (non-monotone grid, negative
    frequency, non-numeric cell) raise :class:`SpectrumFormatError` with the
    offending row number.
    """
    path = Path(path)
    if format == "csv":
        omega, re_n, im_n, unit = _parse_csv(path.read_text(encoding="utf-8-sig"), unit)
    elif format == "json":
        import json
        try:
            doc = json.loads(path.read_text(encoding="utf-8-sig"))
        except json.JSONDecodeError as exc:
            raise SpectrumFormatError(f"invalid JSON: {exc}") from exc
        try:
            unit = GridUnit(doc["unit"])
            omega = np.asarray(doc["omega"], dtype=float)
            re_n = np.asarray(doc["re_n"], dtype=float)
            im_n = np.asarray(doc["im_n"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise SpectrumFormatError(f"bad JSON spectrum object: {exc}") from exc
        if not (omega.shape == re_n.shape == im_n.shape):
            raise SpectrumFormatError("omega/re_n/im_n arrays differ in length")
    else:
        raise ValueError(f"unknown format {format!r}")
    return _validate_loaded(omega, re_n, im_n, unit)


def save_spectrum(s: ComplexIndexSpectrum, path: str | Path, format: str = "csv") -> None:
    """Write a spectrum; output re-loads bit-exactly."""
    path = Path(path)
    if format == "csv":
        cells = np.stack([s.grid.values, s.re, s.im], axis=1).ravel().tolist()
        body = ("%.17g,%.17g,%.17g\n" * s.grid.size) % tuple(cells)
        path.write_text(f"# unit: {s.grid.unit.value}\n{CSV_HEADER}\n{body}")
    elif format == "json":
        import json
        doc = {
            "unit": s.grid.unit.value,
            "omega": s.grid.values.tolist(),
            "re_n": s.re.tolist(),
            "im_n": s.im.tolist(),
        }
        path.write_text(json.dumps(doc, indent=1) + "\n")
    else:
        raise ValueError(f"unknown format {format!r}")


# ---------------------------------------------------------------------------
# Absorption maps and resampling
# ---------------------------------------------------------------------------

def absorption_from_im(s: ComplexIndexSpectrum, constants) -> AbsorptionSpectrum:
    """alpha0 = 2 * Im n(omega) * omega / c, element-wise.

    Requires an SI grid: on a normalized grid the conversion is undefined
    without a frequency scale.
    """
    if s.grid.unit is not GridUnit.SI_RAD_PER_S:
        raise ValueError("absorption conversion needs an si_rad_per_s grid")
    alpha0 = 2.0 * s.im * s.grid.values / constants.c
    return AbsorptionSpectrum(s.grid, alpha0)


def im_from_absorption(a: AbsorptionSpectrum, constants) -> ComplexIndexSpectrum:
    """Invert the absorption map: Im n = alpha0 * c / (2 omega).

    The real part is unknown to this map; it is filled with the vacuum value
    1.0 and flagged via ``re_is_placeholder``. A grid containing omega = 0 is
    rejected (the caller must drop the DC sample).
    """
    if a.grid.unit is not GridUnit.SI_RAD_PER_S:
        raise ValueError("absorption conversion needs an si_rad_per_s grid")
    if a.grid.values[0] == 0.0:
        raise ValueError("grid contains omega = 0; drop the DC sample first")
    im = a.alpha0 * constants.c / (2.0 * a.grid.values)
    return ComplexIndexSpectrum(a.grid, np.ones_like(im), im, re_is_placeholder=True)


def resample(s: ComplexIndexSpectrum, target: FrequencyGrid) -> ComplexIndexSpectrum:
    """Monotone piecewise-cubic (PCHIP) resampling onto ``target``.

    PCHIP cannot overshoot, so a one-signed Im n stays one-signed; ordinary
    splines can ring near sharp resonances and fake amplification bands.
    Extrapolation is refused.
    """
    if target.unit != s.grid.unit:
        raise ValueError("target grid unit differs from source")
    if s.grid.same_nodes(target):
        return ComplexIndexSpectrum(s.grid, s.re, s.im, s.re_is_placeholder)
    src = s.grid.values
    if target.values[0] < src[0] or target.values[-1] > src[-1]:
        raise ValueError("target grid extends outside the source grid (extrapolation)")
    # imported here so that `import kklab` needs only numpy
    from scipy.interpolate import PchipInterpolator

    re = PchipInterpolator(src, s.re)(target.values)
    im = PchipInterpolator(src, s.im)(target.values)
    return ComplexIndexSpectrum(target, re, im, s.re_is_placeholder)
