"""Causality and consistency audits for sampled index spectra.

The audit tests the real-axis consequences of upper-half-plane analyticity
rather than analyticity itself: the high-frequency asymptote of Re n, the
sign of Im n (passivity), boundedness of |n|^2, and self-consistency under
the transform pair. The dichotomy classification follows the two escape
routes a bounded non-unity vacuum index would have to take: either the
front-velocity asymptote Re n(inf) drops below 1 (superluminal branch) or
Im n goes negative somewhere (amplification branch).

"Infinity" is operationalized as a 1/w^2 fit over the top decade of data;
the result is an extrapolation and is therefore reported with an
uncertainty, and branch calls use a 3-sigma threshold so quadrature noise
is not flagged as superluminal physics.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .kk import roundtrip_residual
from .pvquad import (NonIntegrableTailError, TailFitError, TailModel, _line_fit, noise_floor,
                     top_decade)
from .spectra import ComplexIndexSpectrum

__all__ = [
    "Dichotomy",
    "AsymptoteFitError",
    "CausalityReport",
    "estimate_asymptote",
    "detect_amplification",
    "check_bounded",
    "audit",
]

_DEFAULT_K0 = 1e6  # generous |n|^2 bound applied when the caller supplies none


class Dichotomy(str, Enum):
    CONSISTENT_WITH_UNITY = "consistent_with_unity"
    SUPERLUMINAL_BRANCH = "superluminal_branch"
    AMPLIFICATION_BRANCH = "amplification_branch"
    BOTH = "both"
    INCONCLUSIVE = "inconclusive"


class AsymptoteFitError(ValueError):
    """Top-decade 1/w^2 model misfit, or too few top-decade nodes: the
    asymptote estimate is unreliable."""


@dataclass(frozen=True, eq=False)
class CausalityReport:
    """Machine-readable audit verdict (JSON schema version 1); a field the
    audit could not compute, an asymptote or ``kk_residual``, is None."""

    asymptote_re: float | None
    asymptote_re_uncertainty: float | None
    asymptote_im: float | None
    asymptote_im_uncertainty: float | None
    amplification_bands: tuple[tuple[float, float], ...]
    amplification_band_nodes: tuple[tuple[int, int], ...]
    kk_residual: float | None
    bounded_ok: bool
    max_abs_index_sq: float
    boundedness_constant: float
    dichotomy: Dichotomy
    assumptions: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "asymptote_re": self.asymptote_re,
            "asymptote_re_uncertainty": self.asymptote_re_uncertainty,
            "asymptote_im": self.asymptote_im,
            "asymptote_im_uncertainty": self.asymptote_im_uncertainty,
            "amplification_bands": [list(b) for b in self.amplification_bands],
            "amplification_band_nodes": [list(b) for b in self.amplification_band_nodes],
            "kk_residual": self.kk_residual,
            "bounded": {
                "ok": self.bounded_ok,
                "max_sq": self.max_abs_index_sq,
                "k0": self.boundedness_constant,
            },
            "dichotomy": self.dichotomy.value,
            "assumptions": list(self.assumptions),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _top_decade_fit(nu: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Fit y ~ a + b/nu^2 over the :func:`~kklab.pvquad.top_decade`.

    Returns (a, uncertainty). The uncertainty is the larger of the parameter
    standard error and the regression standard error, so deterministic model
    structure is not mistaken for precision. Raises
    :class:`AsymptoteFitError` when fewer than 3 top-decade nodes remain
    (two fit exactly and leave no uncertainty) or when the residuals exceed
    10x the uncertainty (the 1/w^2 model does not describe the data, so no
    asymptote claim should be made).
    """
    sel = top_decade(nu)
    x = 1.0 / nu[sel] ** 2
    if x.size < 3:
        raise AsymptoteFitError(f"top-decade 1/w^2 fit needs >= 3 nodes, got {x.size}")
    a, _, resid, cov00 = _line_fit(x, y[sel])
    s_reg = math.sqrt(float(resid @ resid) / (x.size - 2))
    unc = max(s_reg * math.sqrt(cov00), s_reg)
    max_resid = float(np.max(np.abs(resid)))
    if max_resid > 10.0 * unc:
        raise AsymptoteFitError(
            f"top-decade 1/w^2 fit misfit: max residual {max_resid:.3g} "
            f"exceeds 10 x uncertainty {unc:.3g}")
    return a, unc


def estimate_asymptote(s: ComplexIndexSpectrum) -> tuple[float, float]:
    """Estimate Re n(inf) from the top decade of the grid.

    Raises :class:`AsymptoteFitError` when the grid spans under 3 decades,
    so that its "top decade" is not meaningfully asymptotic, or when the
    top-decade fit is unreliable (see :func:`_top_decade_fit`).
    """
    if s.grid.span_decades() < 3.0:
        raise AsymptoteFitError("asymptote estimate needs a grid spanning >= 3 decades")
    return _top_decade_fit(s.grid.values, s.re)


def detect_amplification(s: ComplexIndexSpectrum, floor: float = 0.0) -> list[tuple[int, int]]:
    """Maximal node intervals where Im n < -floor.

    ``floor`` (>= 0) is a noise allowance: tiny negative excursions from
    quadrature or measurement noise are not amplification. Returns inclusive
    (start, stop) node index pairs, disjoint and maximal.
    """
    if floor < 0:
        raise ValueError("floor must be >= 0")
    edges = np.flatnonzero(np.diff(np.concatenate([[False], s.im < -floor, [False]])))
    return [(int(start), int(stop) - 1) for start, stop in zip(edges[::2], edges[1::2])]


def check_bounded(s: ComplexIndexSpectrum, k0: float) -> tuple[bool, float]:
    """Test the boundedness condition |n(w)|^2 <= K0 on the grid."""
    if not 0.0 < k0 < math.inf:
        raise ValueError("K0 must be finite and > 0")
    max_sq = float(np.max(s.re ** 2 + s.im ** 2))
    return max_sq <= k0, max_sq


def audit(s: ComplexIndexSpectrum, tail: TailModel | None = None,
          k0: float | None = None) -> CausalityReport:
    """Run the four sub-checks and classify the spectrum.

    Branch logic: superluminal_branch when the asymptote sits below 1 by
    more than 3 uncertainties and no amplification band exists;
    amplification_branch when bands exist and the asymptote does not;
    both when both indicators fire; consistent_with_unity when neither;
    inconclusive when the asymptote fit fails, or the round trip's tail fit
    (``kk_residual`` is then None) for any reason but a non-integrable tail.

    The Im n asymptote is estimated and reported the same way but renders
    no verdict. Amplification bands are sought below minus the noise floor
    of Im n's top decade (:func:`~kklab.pvquad.noise_floor`), so measurement
    noise around a vanishing Im n is not called amplification.

    ``tail`` overrides the round trip's fitted power-law tail. ``k0`` is the
    |n|^2 bound K0; when it is unset a generous default bound of 1e6 is
    applied and recorded in the assumptions. The bound is checked before the
    round-trip transform, so a bad K0 fails fast.
    """
    assumptions = ["im_odd_assumed"]  # the round trip's folded transform presupposes it

    asym_re: float | None = None
    asym_re_unc: float | None = None
    try:
        asym_re, asym_re_unc = estimate_asymptote(s)
    except AsymptoteFitError:
        pass

    asym_im: float | None = None
    asym_im_unc: float | None = None
    try:
        asym_im, asym_im_unc = _top_decade_fit(s.grid.values, s.im)
    except AsymptoteFitError:
        pass

    band_nodes = detect_amplification(s, floor=noise_floor(s.grid.values, s.im))
    nu = s.grid.values
    bands = tuple((float(nu[i]), float(nu[j])) for i, j in band_nodes)

    if k0 is None:
        k0 = _DEFAULT_K0
        assumptions.append("k0_defaulted")
    bounded_ok, max_sq = check_bounded(s, k0)

    try:
        kk_res = roundtrip_residual(s, tail)
    except NonIntegrableTailError:
        raise  # the spectrum needs a subtracted relation: say so, not "inconclusive"
    except TailFitError:
        kk_res = None

    has_bands = len(band_nodes) > 0
    if asym_re is None or kk_res is None:
        verdict = Dichotomy.INCONCLUSIVE
    else:
        superluminal = asym_re < 1.0 - 3.0 * asym_re_unc
        if superluminal and has_bands:
            verdict = Dichotomy.BOTH
        elif superluminal:
            verdict = Dichotomy.SUPERLUMINAL_BRANCH
        elif has_bands:
            verdict = Dichotomy.AMPLIFICATION_BRANCH
        else:
            verdict = Dichotomy.CONSISTENT_WITH_UNITY

    return CausalityReport(
        asymptote_re=asym_re,
        asymptote_re_uncertainty=asym_re_unc,
        asymptote_im=asym_im,
        asymptote_im_uncertainty=asym_im_unc,
        amplification_bands=bands,
        amplification_band_nodes=tuple(band_nodes),
        kk_residual=kk_res,
        bounded_ok=bounded_ok,
        max_abs_index_sq=max_sq,
        boundedness_constant=float(k0),
        dichotomy=verdict,
        assumptions=tuple(assumptions),
    )
