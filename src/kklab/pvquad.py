"""Principal-value quadrature for simple poles on the integration path.

The finite-domain engine uses singularity subtraction,

    P int f(nu)/(nu - w) dnu
        = int [f(nu) - f(w)]/(nu - w) dnu + f(w) * ln|(b - w)/(a - w)|,

which works on arbitrary non-uniform grids (log grids included) and leaves a
smooth integrand for composite Simpson quadrature. Semi-infinite integrals
are completed by a single power-law tail model fitted to the last decade of
data; the tail piece is summed as a series in (pole/cutoff).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import simpson

__all__ = [
    "PoleIntegrand",
    "TailModel",
    "QuadratureResult",
    "PoleLocationError",
    "TailFitError",
    "NonIntegrableTailError",
    "pv_integrate",
    "fit_tail",
    "tail_integral",
    "pv_semi_infinite",
]

_EPS = np.finfo(float).eps


class PoleLocationError(ValueError):
    """Pole at a domain endpoint, too close to one, or inadequately bracketed."""


class TailFitError(ValueError):
    """The last-decade samples do not support a power-law tail fit."""


class NonIntegrableTailError(TailFitError):
    """Fitted tail exponent p <= 1: the spectrum cannot satisfy an
    unsubtracted dispersion relation."""

    def __init__(self, exponent: float):
        self.exponent = float(exponent)
        super().__init__(
            f"fitted tail exponent p = {exponent:.6g} <= 1 (non-integrable tail); "
            "a subtracted dispersion relation is required")


@dataclass(frozen=True, eq=False)
class PoleIntegrand:
    """Sampled integrand f(nu) with a simple-pole kernel 1/(nu - pole).

    Nodes must be strictly increasing and finite; the pole may lie inside or
    outside [nu[0], nu[-1]] but not at an endpoint.
    """

    nu: np.ndarray
    values: np.ndarray
    pole: float

    def __post_init__(self):
        nu = np.asarray(self.nu, dtype=float)
        f = np.asarray(self.values, dtype=float)
        if nu.ndim != 1 or nu.size < 4:
            raise ValueError("need >= 4 nodes")
        if f.shape != nu.shape:
            raise ValueError("values must match node count")
        if not (np.all(np.isfinite(nu)) and np.all(np.isfinite(f))):
            raise ValueError("nodes and values must be finite")
        if not np.all(np.diff(nu) > 0):
            raise ValueError("nodes must be strictly increasing")
        if not math.isfinite(self.pole):
            raise ValueError("pole must be finite")
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "values", f)

    @classmethod
    def from_callable(cls, func: Callable[[np.ndarray], np.ndarray],
                      nu: np.ndarray, pole: float) -> "PoleIntegrand":
        nu = np.asarray(nu, dtype=float)
        return cls(nu, np.asarray(func(nu), dtype=float), pole)

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.nu[0]), float(self.nu[-1])


@dataclass(frozen=True)
class TailModel:
    """Power-law tail f(nu) ~ amplitude * nu**(-exponent) beyond ``cutoff``.

    ``exponent`` must exceed 0 so that f(nu)/(nu - pole) stays integrable at
    infinity; :func:`fit_tail` additionally rejects exponents <= 1, which
    signal a spectrum needing a subtraction.
    """

    exponent: float
    amplitude: float
    cutoff: float

    def __post_init__(self):
        if not (math.isfinite(self.exponent) and math.isfinite(self.amplitude)
                and math.isfinite(self.cutoff)):
            raise ValueError("tail parameters must be finite")
        if self.exponent <= 0.0:
            raise ValueError(f"tail exponent must be > 0, got {self.exponent}")
        if self.cutoff <= 0.0:
            raise ValueError("tail cutoff must be > 0")


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    tail_contribution: float = 0.0

    def __post_init__(self):
        if self.error_estimate < 0.0:
            raise ValueError("error_estimate must be >= 0")


# ---------------------------------------------------------------------------
# Local cubic interpolation (pole value / derivative between or at nodes)
# ---------------------------------------------------------------------------

def _stencil(nu: np.ndarray, x: float) -> slice:
    """Four-node window around x, clipped to the array."""
    i = int(np.searchsorted(nu, x))
    lo = max(0, min(i - 2, nu.size - 4))
    return slice(lo, lo + 4)

def _lagrange_weights(xs: np.ndarray, x: float) -> np.ndarray:
    w = np.ones_like(xs)
    for j in range(xs.size):
        for m in range(xs.size):
            if m != j:
                w[j] *= (x - xs[m]) / (xs[j] - xs[m])
    return w

def local_cubic_value(nu: np.ndarray, f: np.ndarray, x: float) -> float:
    """Cubic Lagrange interpolation of f at x through the 4 nearest nodes."""
    sl = _stencil(nu, x)
    return float(_lagrange_weights(nu[sl], x) @ f[sl])

def local_cubic_slope(nu: np.ndarray, f: np.ndarray, x: float) -> float:
    """Derivative at x of the cubic through the 4 nearest nodes."""
    sl = _stencil(nu, x)
    xs, ys = nu[sl], f[sl]
    # derivative of the Lagrange form
    total = 0.0
    for j in range(4):
        dl = 0.0
        for m in range(4):
            if m == j:
                continue
            term = 1.0 / (xs[j] - xs[m])
            for k in range(4):
                if k != j and k != m:
                    term *= (x - xs[k]) / (xs[j] - xs[k])
            dl += term
        total += ys[j] * dl
    return float(total)


# ---------------------------------------------------------------------------
# Finite-domain principal value
# ---------------------------------------------------------------------------

def _coarse_indices(n: int) -> np.ndarray:
    idx = np.arange(0, n, 2)
    if idx[-1] != n - 1:
        idx = np.append(idx, n - 1)
    return idx


def simpson_estimate(q: np.ndarray, nu: np.ndarray,
                     offset: float = 0.0) -> tuple[float, float, float]:
    """Composite Simpson of q over nu, plus ``offset``, with its error terms.

    Returns (value, |full - half|, floor): the full-grid value, its distance
    to the every-other-node value (``offset`` is added to both before they
    are differenced) and the rounding floor 4 eps int |q|. The error
    estimate is the sum of the last two.
    """
    i_full = float(simpson(q, x=nu)) + offset
    ci = _coarse_indices(nu.size)
    i_half = float(simpson(q[ci], x=nu[ci])) + offset
    floor = 4.0 * _EPS * float(np.trapezoid(np.abs(q), nu))
    return i_full, abs(i_full - i_half), floor


def pv_integrate(f: PoleIntegrand) -> QuadratureResult:
    """P int f(nu)/(nu - pole) dnu over the sampled domain.

    A pole inside the domain must be bracketed by >= 2 nodes on each side
    and sit at least half a local grid spacing away from either endpoint.
    A pole outside the domain reduces to regular composite quadrature.
    The error estimate comes from a full-grid vs half-grid comparison and is
    deliberately conservative for smooth integrands.
    """
    nu, fv, w = f.nu, f.values, float(f.pole)
    a, b = f.domain
    scale = max(abs(a), abs(b))
    tol = 1e-13 * scale

    if abs(w - a) <= tol or abs(w - b) <= tol:
        raise PoleLocationError(f"pole {w!r} lies at a domain endpoint")
    # ill-conditioned whether the pole sits just inside or just outside
    if abs(w - a) < 0.5 * (nu[1] - nu[0]) or abs(b - w) < 0.5 * (nu[-1] - nu[-2]):
        raise PoleLocationError(
            f"pole {w!r} within half a grid spacing of a domain endpoint")

    inside = a < w < b
    if inside:
        dist = nu - w
        hit = np.flatnonzero(np.abs(dist) <= tol)
        n_below = int(np.sum(dist < -tol))
        n_above = int(np.sum(dist > tol))
        if n_below < 2 or n_above < 2:
            raise PoleLocationError(
                f"pole {w!r} must be bracketed by >= 2 nodes on each side")

        if hit.size:
            f_at = float(fv[hit[0]])
        else:
            f_at = local_cubic_value(nu, fv, w)

        with np.errstate(divide="ignore", invalid="ignore"):
            q = (fv - f_at) / dist
        for idx in hit:
            q[idx] = local_cubic_slope(nu, fv, w)

        log_term = f_at * math.log(abs((b - w) / (a - w)))
    else:
        q = fv / (nu - w)
        log_term = 0.0

    value, diff, floor = simpson_estimate(q, nu, log_term)
    return QuadratureResult(value, diff + floor)


# ---------------------------------------------------------------------------
# Power-law tail: fit and semi-infinite completion
# ---------------------------------------------------------------------------

def fit_tail(nu: np.ndarray, values: np.ndarray, floor: float = 0.0) -> TailModel:
    """Least-squares power law |f| ~ A * nu**(-p) from log-log samples.

    Callers pass the last decade of their data. Requires >= 8 samples
    spanning at least a factor 4 in nu, all of one sign (exact zeros are
    dropped). When every |f| is at or below ``floor`` the tail is declared
    empty (A = 0). A fitted p <= 1 raises :class:`NonIntegrableTailError`.
    """
    nu = np.asarray(nu, dtype=float)
    f = np.asarray(values, dtype=float)
    if nu.size < 8:
        raise TailFitError(f"need >= 8 tail samples, got {nu.size}")
    if not np.all(np.diff(nu) > 0) or nu[0] <= 0:
        raise TailFitError("tail nodes must be positive and strictly increasing")
    if not (np.all(np.isfinite(nu)) and np.all(np.isfinite(f))):
        raise TailFitError("tail samples must be finite")
    if nu[-1] / nu[0] < 4.0:
        raise TailFitError("tail samples must span >= a factor 4 in frequency")

    if np.max(np.abs(f)) <= floor:
        return TailModel(exponent=2.0, amplitude=0.0, cutoff=float(nu[-1]))

    nz = f != 0.0
    if np.count_nonzero(nz) < 2:
        raise TailFitError("too few nonzero samples for a power-law fit")
    signs = np.sign(f[nz])
    if signs.max() != signs.min():
        raise TailFitError("sign-alternating tail: power-law model invalid")
    sign = float(signs[0])

    slope, intercept = np.polyfit(np.log(nu[nz]), np.log(np.abs(f[nz])), 1)
    p = -float(slope)
    if p <= 1.0:
        raise NonIntegrableTailError(p)
    if abs(intercept) > 690.0:  # exp() overflow: data is not power-law-like
        raise TailFitError(
            "tail samples decay far faster than any power law; "
            "pass a floor or an explicit TailModel")
    amp = sign * math.exp(float(intercept))
    return TailModel(exponent=p, amplitude=amp, cutoff=float(nu[-1]))


def tail_integral(t: TailModel, pole: float) -> float:
    """int_cutoff^inf A nu**(-p) / (nu - pole) dnu via the series

        sum_{j>=0} A * pole**j / ((p + j) * cutoff**(p + j)),

    truncated when terms fall below 1e-16 relative. Converges for
    |pole| < cutoff (the pole may be negative: that is the mirror-kernel
    1/(nu + |pole|) with no singularity on the path).
    """
    if abs(pole) >= t.cutoff:
        raise ValueError(
            f"tail series does not converge: |pole| = {abs(pole)!r} >= cutoff = {t.cutoff!r}")
    if t.amplitude == 0.0:
        return 0.0
    base = t.amplitude / (t.cutoff ** t.exponent)
    ratio = pole / t.cutoff
    total = 0.0
    rpow = 1.0
    for j in range(100_000):
        term = base * rpow / (t.exponent + j)
        total += term
        if abs(term) <= 1e-16 * abs(total):
            return total
        rpow *= ratio
    raise ValueError(
        f"tail series failed to converge: pole {pole!r} too close to cutoff {t.cutoff!r}")


def pv_semi_infinite(f: PoleIntegrand, tail: TailModel) -> QuadratureResult:
    """Finite + tail pipeline: pv_integrate over the sampled domain plus the
    power-law completion from ``tail.cutoff`` (normally the top node) to
    infinity."""
    fin = pv_integrate(f)
    tl = tail_integral(tail, f.pole)
    return QuadratureResult(fin.value + tl, fin.error_estimate, tl)
