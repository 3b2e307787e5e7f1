"""Boundary-vacuum velocity-shift calculators and the light-clock experiment.

The velocity shift between parallel mirrors scales as the inverse fourth
power of the plate separation,

    delta_c / c = k * alpha**2 * (lambda_c / L)**4,

and the measurement-uncertainty floor for any velocity determination over a
baseline L with probe wavelength lambda is delta_v = c * lambda / L. Their
ratio, (lambda/lambda_c) * (1/(k alpha**2)) * (L/lambda_c)**3, exceeds 1 by
many orders of magnitude for any realizable separation: the shift is
unmeasurable. Published reference values that disagree with the formula
evaluated at its own constants (1.6e-36 at 1 um and 1.6 at 1 fm versus the
arithmetic 1.23e-32 and 1.23e4, a uniform ~1e4 normalization gap) are
carried as annotations in table output, never substituted into computation.

The light clock quantifies the frame-consistency problem: with a
length-dependent photon speed, observers in relative motion disagree on
which separation (and hence which speed) to feed the velocity-addition
formula. The moving-frame construction here is a modeling choice, not an
established result: contract the gap, evaluate the shift at the contracted
gap, velocity-add the resulting leg speed with the boost, and sum the
out-and-back legs. The shift is applied symmetrically to both legs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

from . import NumericalError
from .models import PhysicalConstants, delta_c_over_c, scharnhorst_index_perp

__all__ = [
    "Orientation",
    "ScharnhorstScenario",
    "LightClockScenario",
    "ClockComparison",
    "LengthScaleRow",
    "DegenerateClockError",
    "delta_c_over_c",
    "delta_v",
    "measurability_ratio",
    "invariant_length",
    "length_scale_table",
    "format_length_scale_table",
    "light_clock_tick",
]

LENGTH_TABLE_HEADER = "L_m,delta_c_over_c,measurability_ratio,n_perp"


class Orientation(str, Enum):
    """Clock motion relative to the mirror surfaces.

    PARALLEL is the textbook time-dilation arrangement (photon path tilts);
    PERPENDICULAR is the length-contraction arrangement (motion along the
    bounce axis, which is also the direction of the modified vacuum index).
    """

    PARALLEL = "parallel"
    PERPENDICULAR = "perpendicular"


class DegenerateClockError(NumericalError):
    """Leg speed at or beyond c/beta: the bounce ordering degenerates in the
    moving frame and the construction stops being meaningful."""


@dataclass(frozen=True)
class ScharnhorstScenario:
    """Plate separation and probe wavelength, both in meters."""

    L: float
    probe_wavelength: float
    constants: PhysicalConstants = field(default_factory=PhysicalConstants)

    def __post_init__(self):
        for name in ("L", "probe_wavelength"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0")


@dataclass(frozen=True)
class LightClockScenario:
    """Rest-frame mirror separation, boost and orientation."""

    L: float
    beta: float
    orientation: Orientation
    constants: PhysicalConstants = field(default_factory=PhysicalConstants)

    def __post_init__(self):
        if not 0.0 < self.L < math.inf:
            raise ValueError("L must be finite and > 0")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError("beta must lie in [0, 1)")
        object.__setattr__(self, "orientation", Orientation(self.orientation))


@dataclass(frozen=True)
class ClockComparison:
    """Rest tick, directly constructed moving tick, naive gamma-dilated tick,
    and their relative disagreement."""

    tick_rest: float
    tick_moving_direct: float
    tick_moving_sr: float
    inconsistency: float

    def __post_init__(self):
        if min(self.tick_rest, self.tick_moving_direct, self.tick_moving_sr) <= 0:
            raise ValueError("tick periods must be > 0")

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "tick_rest_s": self.tick_rest,
            "tick_moving_direct_s": self.tick_moving_direct,
            "tick_moving_sr_s": self.tick_moving_sr,
            "inconsistency": self.inconsistency,
        }


@dataclass(frozen=True)
class LengthScaleRow:
    L: float
    delta_c_over_c: float
    measurability_ratio: float
    n_perp: float


def delta_v(L: float, wavelength: float, constants: PhysicalConstants) -> float:
    """Minimum velocity-measurement uncertainty c*lambda/L in m/s."""
    if not (0.0 < L < math.inf and 0.0 < wavelength < math.inf):
        raise ValueError("L and wavelength must be finite and > 0")
    return constants.c * wavelength / L


def measurability_ratio(s: ScharnhorstScenario) -> float:
    """delta_v / delta_c for the scenario.

    Equals (lambda/lambda_c) / (k alpha^2) * (L/lambda_c)^3; at
    lambda = lambda_c the coefficient is 1/(k alpha^2) ~ 1.88e6 (published
    companion value of the bound: 1.5e6). Ratios >> 1 mean the shift is
    buried under the measurement floor. The ratio is inf when the shift is
    0: with k_coeff = 0, or at a separation so large that (lambda_c/L)^4
    underflows, there is nothing to measure.
    """
    dv = delta_v(s.L, s.probe_wavelength, s.constants)
    dc = s.constants.c * delta_c_over_c(s.L, s.constants)
    return math.inf if dc == 0.0 else dv / dc


def invariant_length(target_ratio: float, constants: PhysicalConstants) -> float:
    """Plate separation at which delta_c/c reaches ``target_ratio``:

        L = lambda_c * (k alpha^2 / target)^(1/4)

    target 1.0 lands at order 10 fm with the default constants, the scale at
    which an invariant length would have to live for the shift to be O(1).
    """
    if target_ratio <= 0:
        raise ValueError("target_ratio must be > 0")
    ka2 = constants.k_coeff * constants.alpha ** 2
    if ka2 == 0.0:
        raise ValueError("k_coeff = 0: no length reaches a positive shift")
    return constants.lambda_c * (ka2 / target_ratio) ** 0.25


def length_scale_table(L_values: Sequence[float], constants: PhysicalConstants,
                       probe_wavelength: float | None = None) -> list[LengthScaleRow]:
    """One row per separation: (L, delta_c/c, delta_v/delta_c, n_perp).

    ``probe_wavelength`` defaults to the Compton wavelength, matching the
    convention under which the measurability bound is quoted.
    """
    lam = constants.lambda_c if probe_wavelength is None else probe_wavelength
    rows = []
    for L in L_values:
        scen = ScharnhorstScenario(L, lam, constants)
        rows.append(LengthScaleRow(
            L=float(L),
            delta_c_over_c=delta_c_over_c(L, constants),
            measurability_ratio=measurability_ratio(scen),
            n_perp=scharnhorst_index_perp(L, constants),
        ))
    return rows


def format_length_scale_table(rows: Sequence[LengthScaleRow]) -> str:
    """CSV text for a length-scale table, with reference-value annotations."""
    lines = [
        "# delta_c_over_c = k*alpha^2*(lambda_c/L)^4 evaluated as printed, never rescaled",
        "# literature reference values: delta_c_over_c = 1.6e-36 at L = 1e-06 m and 1.6 at",
        "# L = 1e-15 m (their 1e36 ratio matches the L^-4 law; the absolute normalization",
        "# differs from the formula at its own constants by ~1e4)",
        "# literature measurability coefficient 1.5e6; formula value 1/(k*alpha^2) = 1.8769e6",
        LENGTH_TABLE_HEADER,
    ]
    for r in rows:
        lines.append(f"{r.L:.17g},{r.delta_c_over_c:.17g},"
                     f"{r.measurability_ratio:.17g},{r.n_perp:.17g}")
    return "\n".join(lines) + "\n"


def light_clock_tick(sc: LightClockScenario) -> ClockComparison:
    """Tick periods for a vacuum light clock in its rest frame and a boosted
    frame.

    Rest frame: the photon bounces normal to the mirrors at c*(1 + delta(L)),
    so tick_rest = 2L / (c (1 + delta(L))).

    Perpendicular motion: the gap contracts to L' = L/gamma; the leg speed
    c*(1 + delta(L')) (the contracted gap decides the shift: this is the
    frame ambiguity under test) is velocity-added with the boost, and the
    out-and-back closing times over the contracted gap are summed. Raises
    :class:`DegenerateClockError` when beta*(1 + delta(L')) >= 1, where the
    return leg's addition denominator crosses zero and the bounce ordering
    degenerates; this is reported, not computed through.

    Parallel motion: the gap is uncontracted; the photon runs the standard
    tilted path at speed c*(1 + delta(L)), giving
    2L / sqrt(s^2 - v^2). With delta = 0 this is exactly the textbook
    gamma * 2L/c.

    tick_moving_sr is the naive gamma * tick_rest; ``inconsistency`` is
    their relative disagreement, identically 0 when k_coeff = 0.
    """
    c = sc.constants.c
    v = sc.beta * c
    d_rest = delta_c_over_c(sc.L, sc.constants)
    tick_rest = 2.0 * sc.L / (c * (1.0 + d_rest))
    gamma = 1.0 / math.sqrt(1.0 - sc.beta ** 2)
    tick_sr = gamma * tick_rest

    # w v / c^2 and the tilted path's speed are taken in units of c: c ** 2
    # overflows for c above about 1.3e154
    if sc.beta == 0.0:
        direct = tick_rest
    elif sc.orientation is Orientation.PERPENDICULAR:
        L_moving = sc.L / gamma
        d = delta_c_over_c(L_moving, sc.constants)
        if sc.beta * (1.0 + d) >= 1.0:
            raise DegenerateClockError(
                f"leg speed {1.0 + d:.6g} c >= 1/beta = {1.0 / sc.beta:.6g} c: "
                "bounce ordering degenerates in the moving frame")
        w = c * (1.0 + d)
        u_fwd = (w + v) / (1.0 + (1.0 + d) * sc.beta)
        u_bwd = (w - v) / (1.0 - (1.0 + d) * sc.beta)
        direct = L_moving / (u_fwd - v) + L_moving / (u_bwd + v)
    else:
        s = 1.0 + d_rest  # above 1e8 the root rounds to s; s ** 2 overflows past 1e154
        direct = 2.0 * sc.L / c / (s if s > 1e150 else math.sqrt(s ** 2 - sc.beta ** 2))

    inconsistency = abs(direct - tick_sr) / tick_sr
    return ClockComparison(tick_rest, direct, tick_sr, inconsistency)
