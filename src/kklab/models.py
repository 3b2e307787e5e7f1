"""Closed-form refractive-index models.

The dilute single-oscillator Lorentz form is the test oracle for the
transform engine: it satisfies the dispersion relations for n - 1 exactly
(the full square-root form only approximately), its real and imaginary parts
are both available in closed form, and its high-frequency tail is an exact
power law. The boundary-vacuum index gives the static perpendicular value
between parallel mirrors; its frequency dependence is out of scope (the
underlying perturbative result holds only far below the electron mass).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # imported on use: the calculators need no numpy
    from .spectra import ComplexIndexSpectrum, FrequencyGrid

__all__ = [
    "PhysicalConstants",
    "LorentzOscillatorParams",
    "lorentz_index",
    "delta_c_over_c",
    "scharnhorst_index_perp",
    "scharnhorst_index_parallel",
]


@dataclass(frozen=True)
class PhysicalConstants:
    """Single source of truth for every dimensional number in the package.

    Defaults: c in m/s; alpha = 1/137; the electron Compton wavelength
    hbar/(m c) = 3.9e-13 m; and the dimensionless boundary-vacuum
    coefficient k ~ 1e-2. ``k_coeff`` may be set to 0 to switch the vacuum
    effect off (used by the relativity consistency checks).
    """

    c: float = 2.99792458e8
    alpha: float = 1.0 / 137.0
    lambda_c: float = 3.9e-13
    k_coeff: float = 1e-2

    def __post_init__(self):
        for name in ("c", "alpha", "lambda_c"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0")
        if not 0.0 <= self.k_coeff < math.inf:
            raise ValueError("k_coeff must be finite and >= 0")


@dataclass(frozen=True)
class LorentzOscillatorParams:
    """Plasma frequency, resonance frequency and damping rate (grid units)."""

    omega_p: float
    omega_res: float
    gamma_d: float

    def __post_init__(self):
        if self.omega_p < 0:
            raise ValueError("omega_p must be >= 0")
        if self.omega_res <= 0:
            raise ValueError("omega_res must be > 0")
        if self.gamma_d <= 0:
            raise ValueError("gamma_d must be > 0")


def lorentz_index(p: LorentzOscillatorParams, grid: FrequencyGrid) -> ComplexIndexSpectrum:
    """Dilute Lorentz oscillator:

        n(w) = 1 + (omega_p**2 / 2) / (omega_res**2 - w**2 - i*gamma_d*w)

    Im n > 0 for all w > 0 (passive) and n -> 1 at both ends. The Drude
    limit is reached by passing a tiny ``omega_res``. The large-w tail is
    Im n ~ gamma_d * omega_p**2 / (2 w**3).
    """
    from .spectra import ComplexIndexSpectrum

    w = grid.values
    n = 1.0 + (p.omega_p ** 2 / 2.0) / (p.omega_res ** 2 - w ** 2 - 1j * p.gamma_d * w)
    return ComplexIndexSpectrum(grid, n.real, n.imag)


def delta_c_over_c(L: float, constants: PhysicalConstants) -> float:
    """Fractional perpendicular velocity shift k*alpha^2*(lambda_c/L)^4.

    L must be finite and > 0, and the shift must not overflow a float.
    """
    if not 0.0 < L < math.inf:
        raise ValueError("plate separation L must be finite and > 0")
    try:
        shift = constants.k_coeff * constants.alpha ** 2 * (constants.lambda_c / L) ** 4
    except OverflowError:
        shift = math.inf
    if not math.isfinite(shift):
        raise ValueError(f"the shift k*alpha^2*(lambda_c/L)^4 overflows at L = {L!r} m")
    return shift


def scharnhorst_index_perp(L: float, constants: PhysicalConstants) -> float:
    """Static vacuum index perpendicular to the mirrors:

        n_perp(0) = 1 - k * alpha**2 * (lambda_c / L)**4

    so the perpendicular signal speed c/n_perp exceeds c. For tiny plate
    separations the formula goes non-positive; that regime is flagged with a
    warning, never clamped, since it is exactly where the effect would be
    large.
    """
    n = 1.0 - delta_c_over_c(L, constants)
    if n <= 0.0:
        warnings.warn(
            f"n_perp = {n:.3g} <= 0 at L = {L:.3g} m: outside the weak-shift regime",
            stacklevel=2)
    return n


def scharnhorst_index_parallel() -> float:
    """Vacuum index parallel to the mirror surfaces: exactly 1, any L."""
    return 1.0
