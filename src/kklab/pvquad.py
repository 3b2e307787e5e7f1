"""Principal-value quadrature for simple poles on the integration path.

The finite-domain engine uses singularity subtraction,

    P int f(nu)/(nu - w) dnu
        = int [f(nu) - f(w)]/(nu - w) dnu + f(w) * ln|(b - w)/(a - w)|,

which works on arbitrary non-uniform grids (log grids included) and leaves a
smooth integrand for composite Simpson quadrature. Semi-infinite integrals
are completed by a single power-law tail model fitted to the last decade of
data; the tail piece is summed as a series in (pole/cutoff).

:func:`pv_integrate` evaluates one pole on :func:`difference_quotient`, the
integrand that :mod:`kklab.kk` also takes at w = 0 and at a subtraction point.
:func:`pv_at_nodes` evaluates the same rule for many poles on grid nodes, a
block of rows at a time, with the scalar path as its reference. It takes
sampled arrays that are the same for every pole: the numerator g over
nu - w and the pole-free numerator h over nu + w.
:func:`pv_folded_at_nodes` gives the same sums for the folded integrands
(nu a + w b)/(nu + w), whose partial fractions are g = (a + b)/2 and h =
(a - b)/2: those of :mod:`kklab.kk`'s folded transforms and, by parity, of
its subtracted relation on the full axis. Every operator takes its poles
as one block of nodes nu[lo:hi], which kk starts after its 3 head nodes. On a
geometric block it takes the far part of its sums as FFT convolutions, in
O(M log M) instead of O(N M), sums the near part directly, and caches the
block's grid-only setup; any other grid goes to :func:`pv_at_nodes`. Of
the near part, the top-extension nodes lie above every pole: on the rows
up to a quarter of the lowest of them their kernels are power series in
the pole, the far-field expansion of fast multipole methods, summed
against the data's moments. All of them take g(w) and g'(w) at the pole
from one cubic rule, the Lagrange value and slope weights of its four
nearest nodes, h / (nu + w) at its exact value on every node, and give
one error estimate (:func:`simpson_estimate`): the full-grid Simpson sum
less the every-other-node one, taken as one sum against the difference of
their weights, plus a rounding floor. Simpson weights are closed-form
numpy, so the module needs no scipy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import NumericalError

__all__ = [
    "PoleIntegrand",
    "TailModel",
    "QuadratureResult",
    "PoleLocationError",
    "TailFitError",
    "NonIntegrableTailError",
    "difference_quotient",
    "pv_integrate",
    "pv_at_nodes",
    "pv_folded_at_nodes",
    "simpson_weights",
    "top_decade",
    "noise_floor",
    "fit_tail",
    "tail_integral",
    "tail_parity",
    "pv_semi_infinite",
]

_EPS = np.finfo(float).eps
# elements per temporary of the blocked operator: bounds its memory at any
# grid size, while each block stays large enough for numpy to run at speed
_BLOCK_ELEMENTS = 1 << 16
_NOISE_SIGMAS = 5.0
# a node within this distance of a pole, relative to the largest |nu|, is the
# pole's own node: its quotient takes the cubic slope there
_NODE_RTOL = 1e-13
# A pole block is geometric when every node lies within this relative
# distance of nu_0 r^j. Log grids, read back from CSV or not, deviate by up to
# 3.5e-15; nodes 5e-14 off left 16384-node sums 5.5e-12 off pv_at_nodes'.
_GEOMETRIC_RTOL = 1e-14
# Node pairs with |j - k| up to a band B are summed directly on a geometric
# block: the fewest nodes whose ratio r^B reaches exp(span), and at most
# _FFT_BAND (_band). Near the diagonal the kernels are largest, and they
# magnify a node's deviation from the ideal progression by about
# 1/(|j - k| ln r); the far part's bound on the rounding floor overshoots
# the exact floor most there too. Both follow the span |j - k| ln r, not
# the node count. The folded transforms take _FOLDED_BAND_SPAN, the span
# 16384-node 4-decade grids already ran at under the cap: B = 4, 8 and 16
# at 2048, 4096 and 8192 nodes, and 32 at 16384. On 2048-8192-node CSV
# Lorentz grids of 4 decades their values sit at most 3.8e-13 off the
# blocked operator's (1.3e-13 at twice the span; 5.6e-13 at 16384 nodes),
# and the floor bound at most 7.64 times the exact floor on re-from-im and
# 4.34 on im-from-re (7.67 at 16384 nodes), under the tests' 1e-12 and 8.
# A third of the span left 16384-node re-from-im 1.9e-12 off and its bound
# 8.4 times the floor. kk_subtracted takes _BAND_SPAN, twice as wide: at
# the folded span its sums at w0 = 0.5 on 8192 nodes sat up to 1.52e-12
# off the blocked operator's, against 5.0e-13 at its own.
_BAND_SPAN = 0.0355  # kk_subtracted: r^B >= 1.036
_FOLDED_BAND_SPAN = 0.01775  # the folded transforms: r^B >= 1.018
_FFT_BAND = 32
# grid plans of the FFT path kept at once (1.24 MB each at 4096 nodes): a
# batch alternating between two grids keeps both while a third comes and goes
_PLAN_CACHE_SIZE = 3


class PoleLocationError(NumericalError):
    """Pole at a domain endpoint, too close to one, or inadequately bracketed."""


class TailFitError(NumericalError):
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

def _cubic_weights(xs: np.ndarray, x: np.ndarray, slope: bool) -> np.ndarray:
    """(4, N) weights at the points x (N,) of the cubic through the stencils
    xs (4, N), a row per stencil node: the Lagrange basis l_j(x) = prod_{m != j}
    (x - xs_m)/(xs_j - xs_m) or, with ``slope``, its slope l_j'(x) =
    sum_{m != j} 1/(xs_j - xs_m) prod_{k != j, m} (x - xs_k)/(xs_j - xs_k).
    Every difference is taken once, on contiguous rows; the products and the
    sum run over m and k in ascending order."""
    to_x = x - xs  # x - xs_k
    apart = xs[:, None] - xs  # xs_j - xs_m
    # x on stencil node k on every row, as on the pole rows of the operators:
    # the slope terms with the factor x - xs_k are 0, and adding 0 moves no sum
    zero = [not np.any(row) for row in to_x] if slope else None
    out = np.zeros(xs.shape) if slope else np.ones(xs.shape)
    for j in range(4):
        others = [m for m in range(4) if m != j]
        for m in others:
            rest = [k for k in others if k != m]
            if not slope:
                out[j] *= to_x[m] / apart[j, m]
            elif not any(zero[k] for k in rest):
                term = 1.0 / apart[j, m]
                for k in rest:
                    term *= to_x[k]
                    term /= apart[j, k]
                out[j] += term
    return out

def local_cubic_value(nu: np.ndarray, f: np.ndarray, x: float) -> float:
    """Cubic Lagrange interpolation of f at x through the 4 nearest nodes."""
    sl = _stencil(nu, x)
    return float(_cubic_weights(nu[sl, None], np.array([x]), slope=False)[:, 0] @ f[sl])

def local_cubic_slope(nu: np.ndarray, f: np.ndarray, x: float) -> float:
    """Derivative at x of the cubic through the 4 nearest nodes, summed as
    :func:`pv_at_nodes` sums g's slope on its pole nodes: the weights sum to
    0, so they take the stencil values less the third, the node at or just
    above x unless the stencil is clipped at an end."""
    sl = _stencil(nu, x)
    fs = f[sl]
    return float(np.sum(_cubic_weights(nu[sl, None], np.array([x]), slope=True)[:, 0]
                        * (fs - fs[2])))


# ---------------------------------------------------------------------------
# Finite-domain principal value
# ---------------------------------------------------------------------------

def simpson_weights(x: np.ndarray) -> np.ndarray:
    """Weights w with w @ y equal to composite Simpson of y over the nodes x.

    Non-uniform spacing is allowed. For an even node count the last
    interval takes Cartwright's three-point correction, as
    ``scipy.integrate.simpson`` does. Needs >= 3 nodes.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 3:
        raise ValueError("Simpson weights need >= 3 nodes")
    h = np.diff(x)
    m = n if n % 2 else n - 1  # nodes covered by whole parabolic panels
    h0, h1 = h[0:m - 1:2], h[1:m - 1:2]
    hsum = h0 + h1
    w = np.zeros(n)
    w[0:m - 2:2] += hsum / 6.0 * (2.0 - h1 / h0)
    w[1:m - 1:2] += hsum / 6.0 * (hsum * (hsum / (h0 * h1)))
    w[2:m:2] += hsum / 6.0 * (2.0 - h0 / h1)
    if n % 2 == 0:
        a, b = h[-2], h[-1]
        w[-1] += (2.0 * b * b + 3.0 * a * b) / (6.0 * (a + b))
        w[-2] += (b * b + 3.0 * a * b) / (6.0 * a)
        w[-3] -= b ** 3 / (6.0 * a * (a + b))
    return w


def _estimator_weights(nu: np.ndarray) -> np.ndarray:
    """(3, M) weight rows of the Simpson estimator on the nodes nu: the
    full-grid Simpson weights, those less the every-other-node grid's (zero
    off its nodes), and the trapezoid weights of the rounding floor."""
    weights = np.empty((3, nu.size))
    weights[:2] = simpson_weights(nu)
    # the every-other-node grid: the even nodes, and the last
    half = simpson_weights(np.append(nu[:-1:2], nu[-1]))
    weights[1, :-1:2] -= half[:-1]
    weights[1, -1] -= half[-1]
    h, trap = np.diff(nu), weights[2]
    trap[:-1] = h
    trap[-1] = 0.0
    trap[1:] += h
    trap *= 0.5
    return weights


def _finish(full, diff, abs_sum, offset):
    """(value, error estimate) from the three weighted sums of q: the
    full-grid sum plus ``offset``, and |full - half| plus the rounding floor
    4 eps int |q|."""
    return full + offset, np.abs(diff) + 4.0 * _EPS * abs_sum


def _pole_rows(nu: np.ndarray, lo: int, hi: int):
    """Estimator weights (3, M), stencil slope weights (N, 4) and log terms
    ln|(b - w)/(a - w)| of the poles w = nu[k], lo <= k < hi, each with >= 2
    nodes on each side and the stencil nu[k - 2:k + 2]. The slope weights are
    column-major: :func:`_pole_slopes` reads them a stencil column at a time."""
    if lo < 2 or hi > nu.size - 2:
        raise PoleLocationError("every pole must be bracketed by >= 2 nodes on each side")
    poles = nu[lo:hi]
    stencils = np.stack([nu[lo + i:hi + i] for i in range(-2, 2)])
    slope_w = _cubic_weights(stencils, poles, slope=True).T
    return (_estimator_weights(nu), slope_w,
            np.log(np.abs((nu[-1] - poles) / (nu[0] - poles))))


def simpson_estimate(q: np.ndarray, nu: np.ndarray,
                     offset: float = 0.0) -> tuple[float, float]:
    """Composite Simpson of q over nu, plus ``offset``, and its error estimate.

    Returns (value, estimate). The estimate is |full - half|, the full-grid
    Simpson sum less the every-other-node one, taken as one sum of q against
    the difference of their weights, plus the rounding floor 4 eps int |q|.
    Every operator of this module gives its poles this estimate.
    """
    weights = _estimator_weights(nu)
    full, diff = q @ np.ascontiguousarray(weights[:2].T)
    value, error = _finish(full, diff, np.abs(q) @ weights[2], offset)
    return float(value), float(error)


def difference_quotient(nu: np.ndarray, f: np.ndarray, x: float, fx: float) -> np.ndarray:
    """(f - fx)/(nu - x), the regular integrand of the singularity-subtracted
    rule, with the cubic slope at x (:func:`local_cubic_slope`) on every node
    within 1e-13 max|nu| of x, where :func:`pv_integrate` puts a pole on a node."""
    dist = nu - x
    with np.errstate(divide="ignore", invalid="ignore"):
        q = (f - fx) / dist
    q[np.abs(dist) <= _NODE_RTOL * np.max(np.abs(nu))] = local_cubic_slope(nu, f, x)
    return q


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
    tol = _NODE_RTOL * max(abs(a), abs(b))

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

        f_at = float(fv[hit[0]]) if hit.size else local_cubic_value(nu, fv, w)
        q = difference_quotient(nu, fv, w, f_at)
        log_term = f_at * math.log(abs((b - w) / (a - w)))
    else:
        q = fv / (nu - w)
        log_term = 0.0

    return QuadratureResult(*simpson_estimate(q, nu, log_term))


def _pole_slopes(g, lo, hi, slope_w) -> np.ndarray:
    """The stencil slope of g at each pole w = nu[lo:hi] (:func:`_pole_rows`).
    The weights sum to 0, so they are summed against g - g(w): at the lowest
    data node they reach about 1e5 and would magnify the rounding of g
    itself into the slope."""
    g_at = g[lo:hi]
    # a stencil column, a shifted slice of g, at a time, summed left to right
    # as np.sum sums the rows of an (N, 4) array
    slope = (g[lo - 2:hi - 2] - g_at) * slope_w[:, 0]
    for i in range(1, 4):
        slope += (g[lo + i - 2:hi + i - 2] - g_at) * slope_w[:, i]
    return slope


def pv_at_nodes(nu: np.ndarray, g: np.ndarray, h: np.ndarray,
                lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """P int [g(nu)/(nu - w) + h(nu)/(nu + w)] dnu at every pole w in nu[lo:hi].

    ``g`` and ``h`` are arrays of nu's shape, the same for every pole. Only
    the g part has a pole, so the row of pole w sums the quotient

        q = (g - g(w)) / (nu - w) + h / (nu + w),

    whose first term takes the stencil slope of g on the pole node, and the
    second its exact value h(w) / 2w there, plus the log term
    g(w) ln|(nu[-1] - w)/(nu[0] - w)|. Every pole needs >= 2 nodes on each
    side. Row k - lo gets, up to rounding, the value and error estimate of
    ``simpson_estimate(difference_quotient(nu, g, w, g(w)) + h / (nu + w),
    nu, log term)``. Rows are evaluated a block at a time in the same two
    buffers, so the operator holds about 2 * _BLOCK_ELEMENTS elements
    whatever the number of poles. Returns (values, error estimates).
    """
    nu = np.asarray(nu, dtype=float)
    weights, slope_w, logs = _pole_rows(nu, lo, hi)
    slopes = _pole_slopes(g, lo, hi, slope_w)
    # a C-contiguous copy: BLAS sums the transposed view in another order
    pair = np.ascontiguousarray(weights[:2].T)
    poles, g_at = nu[lo:hi], g[lo:hi]
    values, errors = np.empty(poles.size), np.empty(poles.size)
    step = max(1, _BLOCK_ELEMENTS // nu.size)
    # two block buffers, reused by every block: fresh temporaries of this
    # size go back to the OS and fault in again, block after block
    q_buf = np.empty((min(step, poles.size), nu.size))
    work_buf = np.empty_like(q_buf)
    for start in range(0, poles.size, step):
        blk = slice(start, start + step)
        w = poles[blk, None]
        q, work = q_buf[:w.size], work_buf[:w.size]
        np.subtract(g, g_at[blk, None], out=q)
        with np.errstate(divide="ignore", invalid="ignore"):
            q /= np.subtract(nu, w, out=work)
        # the pole nodes lo + start + i, on the diagonal from that column
        np.fill_diagonal(q[:, lo + start:], slopes[blk])
        # no pole here: the pole node takes h(w) / 2w too
        q += np.divide(h, np.add(nu, w, out=work), out=work)
        sums = q @ pair
        values[blk], errors[blk] = _finish(sums[:, 0], sums[:, 1],
                                           np.abs(q, out=work) @ weights[2], g_at[blk] * logs[blk])
    return values, errors


def _geometric_log_ratio(x: np.ndarray) -> float | None:
    """ln r when every x_j lies within _GEOMETRIC_RTOL of x_0 r^j, for
    positive blocks of at least 4 * _FFT_BAND nodes; None otherwise."""
    n = x.size
    if n < 4 * _FFT_BAND or x[0] <= 0.0:
        return None
    log_r = math.log(x[-1] / x[0]) / (n - 1)
    ideal = x[0] * np.exp(log_r * np.arange(n))
    return log_r if np.max(np.abs(x - ideal) / ideal) <= _GEOMETRIC_RTOL else None


def _band(log_r: float, span: float) -> int:
    """The direct band B of a geometric block of ratio exp(log_r): the
    least B with B ln r >= span, at most _FFT_BAND."""
    return min(_FFT_BAND, math.ceil(span / log_r))


def _read_only(*plan) -> tuple:
    """The plan, with every array in it, those of its tuples too, read-only."""
    for member in plan:
        if isinstance(member, np.ndarray):
            member.flags.writeable = False
        elif isinstance(member, tuple):
            _read_only(*member)
    return plan


class _TopPlan(NamedTuple):
    """Grid-only setup of :func:`_top_sums` for a pole block and the nodes
    above it; see :func:`_top_plan`."""

    split: int  # the rows below it take the series
    ratio: np.ndarray  # w / c of the series rows
    blocks: tuple  # (start, stop, powers) of each block of series rows
    weights: np.ndarray  # (3, T) estimator weights of the top nodes
    kernels: np.ndarray  # (2, T, P) c^p / nu_j^(p+1), and times (-1)^p
    minus: np.ndarray  # (T, n - split) nu_j - w of the quotient rows
    plus: np.ndarray  # nu_j + w


def _top_plan(nu, weights, lo, hi) -> _TopPlan:
    """The :class:`_TopPlan` of the poles w = nu[lo:hi], positive and
    ascending, and the top nodes nu[hi:] above them. c is the least top
    node: rows with w <= c/4 take the series, in blocks that each span w/c
    from their largest down to its square and take the powers
    _series_power(w/c) of their largest, and the rows above the quotient
    block. A series block is held to _BLOCK_ELEMENTS."""
    x, w = nu[hi:], nu[lo:hi]
    c = x[0]
    split = int(np.searchsorted(w, 0.25 * c, side="right"))
    ratio = w[:split] / c
    blocks, stop = [], split
    while stop:
        # down to the square of the block's largest w/c, so the block's
        # powers are at most about twice what its lowest row needs
        largest = ratio[stop - 1]
        powers = _series_power(largest) + 1
        start = max(stop - max(1, _BLOCK_ELEMENTS // powers),
                    int(np.searchsorted(ratio, largest * largest, side="right")))
        blocks.append((start, stop, powers))
        stop = start
    powers = blocks[0][2] if blocks else 0
    scaled = np.vander(c / x, powers, increasing=True) / x[:, None]  # c^p / nu_j^(p+1)
    # times (-1)^p, for (-w)^p: the kernel 1/(nu_j + w)
    kernels = np.stack([scaled, scaled * (-1.0) ** np.arange(powers)])
    above = x[:, None], w[split:]
    # column-major: BLAS sums a weight row strided, in the order that set the
    # operators' bits
    return _TopPlan(split, ratio, tuple(blocks[::-1]), np.asfortranarray(weights[:, hi:]),
                    kernels, np.subtract(*above), np.add(*above))


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _folded_plan(nu_bytes: bytes, lo: int, hi: int, log_r: float, band: int) -> tuple:
    """Read-only grid-only part of pv_folded_at_nodes' FFT path on the
    geometric block nu[lo:hi] of ratio exp(log_r) with the direct band
    ``band``: FFT size, (3, M) weights, slope weights, a, b, |a|, |b|
    kernel spectra (the far kernels, and in the band +-(1/2) / (1 + r^m),
    the pole-free part of the split), (3, n) weights / w, their
    1/(nu - w) convolutions, the log terms and the :class:`_TopPlan` of the
    nodes above the block. The kernel rows are filled on slices of their
    offsets, and each spectrum is transformed once. Every member keeps the
    bits of a build through masks over the whole FFT length."""
    nu = np.frombuffer(nu_bytes)
    from numpy import fft  # on first use: ``import kklab`` stays without it

    weights, slope_w, logs = _pole_rows(nu, lo, hi)
    n = hi - lo
    # >= 2n - 1: no wrap-around. A power of two: a 3 2^a length built the
    # plan faster, but left kk_subtracted's sums at 11585 nodes and w0 = 0.5
    # 1.14e-12 off the blocked operator's, against 7.53e-13
    size = 1 << (2 * n - 2).bit_length()
    # x = m ln r for the offsets m = j - k in wrap-around order: 0 < m < n
    # at [m], -n < m < 0 at [size + m]
    m = np.arange(size)
    m[n:] -= size
    x = log_r * m
    # the far offsets band < |m| < n and the band 0 < |m| <= band, as
    # slices: a geometric block has n >= 4 _FFT_BAND > band nodes
    far = slice(band + 1, n), slice(size - n + 1, size - band)
    near = slice(1, band + 1), slice(size - band, size)
    # rows a, b, |a|, |b| of the a and b terms, then 1/(nu - w) and its |.|
    kernels = np.zeros((6, size))
    with np.errstate(over="ignore"):
        for s in far:
            kernels[0, s] = -1.0 / np.expm1(2.0 * x[s])
            kernels[1, s] = -0.5 / np.sinh(x[s])
            kernels[4, s] = -1.0 / np.expm1(x[s])
    # the band's pole-free part (a - b) / (2 (nu + w)): +-(1/2) / (1 + r^m)
    for s in near:
        kernels[0, s] = 0.5 / (1.0 + np.exp(x[s]))
        kernels[1, s] = -kernels[0, s]
    np.abs(kernels[:2], out=kernels[2:4])
    np.abs(kernels[4], out=kernels[5])
    over_nu = weights[:, lo:hi] / nu[lo:hi]
    spectrum, nu_kernels = fft.rfft(over_nu, size), fft.rfft(kernels[4:])
    spectrum[:2] *= nu_kernels[0]
    spectrum[2] *= nu_kernels[1]
    return _read_only(size, weights, slope_w, fft.rfft(kernels[:4]), over_nu,
                      fft.irfft(spectrum, size)[:, :n].copy(), logs,
                      _top_plan(nu, weights, lo, hi))


def _near_sums(nu, weights, slope_w, lo, hi, band, g, h, top) -> np.ndarray:
    """The (3, n) Simpson sums of the poles w = nu[lo:hi], a geometric block,
    over their own nodes, which take :func:`pv_at_nodes`' stencil slope of
    g plus h(w) / 2w, the band 0 < |j - lo - k| <= ``band``, the nodes below
    the block and the nodes above it, of ``top``, a :class:`_TopPlan`. Each
    row adds its terms in one order: by offset m, node k + m before node
    k - m, then the nodes below one at a time, then the sum of the top nodes
    from :func:`_top_sums`. Each offset costs about 17 passes over arrays of
    the block's length.

    The band sums the quotient of ``g`` alone, one integrand for every
    pole: the two members of an offset, node k + m on row k and node k on
    row k + m, share (g(nu_j) - g(w_k)) / (nu_j - w_k). A node j below the
    block takes pv_at_nodes' quotient, that shared one plus
    h_j / (nu_j + w_k). A g that is 0 on the whole block, as kk_subtracted's
    D(w) call has, skips the band: its quotients are all 0, and adding 0
    moves no sum.
    """
    f_at, n, w = g[lo:hi], hi - lo, nu[lo:hi]
    slope = _pole_slopes(g, lo, hi, slope_w) + h[lo:hi] / (2.0 * w)
    sums = weights[:, lo:hi] * np.stack([slope, slope, np.abs(slope)])
    buf = np.empty((6, n))  # (q, q, |q|), d = nu - w, the numerator x of x / d, nu + w

    def spread(q):  # q = (q[0], q[0], |q[0]|)
        q[1] = q[0]
        np.abs(q[0], q[2])
        return q

    def add(rows, j, q, terms):  # rows += weights[:, j] q
        np.add(rows, np.multiply(weights[:, j], q, terms), rows)

    if not np.any(f_at):
        band = 0  # every band quotient is 0
    for m in range(1, band + 1):
        q, d, x = buf[:3, m:], buf[3, m:], buf[4, m:]
        right, left = slice(lo + m, hi), slice(lo, hi - m)
        np.subtract(nu[right], nu[left], d)
        np.divide(np.subtract(g[right], g[left], x), d, q[0])
        add(sums[:, :n - m], right, spread(q), buf[3:, m:])  # d and x are spent
        add(sums[:, m:], left, q, q)
    q, d, x, s = buf[:3], buf[3], buf[4], buf[5]
    for j in range(lo):
        col = slice(j, j + 1)
        np.subtract(nu[col], w, d)
        np.divide(np.subtract(g[col], f_at, x), d, q[0])
        q[0] += np.divide(h[col], np.add(nu[col], w, s), s)
        add(sums, col, spread(q), q)
    sums += _top_sums(g, h, lo, hi, top)
    return sums


def _top_sums(g, h, lo, hi, top: _TopPlan) -> np.ndarray:
    """The (3, n) Simpson sums over the top nodes nu_j = nu[hi:]
    (:func:`_top_plan`) of the poles w = nu[lo:hi]: those of pv_at_nodes'
    quotient q = (g_j - g(w)) / (nu_j - w) + h_j / (nu_j + w), the rounding
    floor's at or above its own.

    With c the least nu_j, rows with w <= c/4 take the kernels
    1/(nu_j -+ w) as the series sum_p (+-w)^p / nu_j^(p+1), the far-field
    expansion of fast multipole methods: a Vandermonde block of w/c against
    moments c^p / nu_j^(p+1) of W_j g_j, W_j h_j and W_j, the last times
    g(w), scaled by c^p so nothing overflows on an SI grid. Each block of
    these rows, from its largest w/c down to that one's square, sums the
    powers to _series_power(w/c) of its largest: 29 at w/c = 1/4, 8 at
    1/256. Their floor is the far part's upper bound (|g_j| + |g(w)|) /
    (nu_j - w) + |h_j| / (nu_j + w) of |q|, whose kernels are the same
    series. The rows above take a block of quotients against the weights,
    and the exact floor. Either block is held to _BLOCK_ELEMENTS.
    """
    wt = top.weights
    g_j, h_j = g[hi:], h[hi:]
    f_at = g[lo:hi]
    sums = np.empty((3, hi - lo))
    if top.blocks:
        data = np.stack([wt[0] * g_j, wt[1] * g_j, wt[2] * np.abs(g_j), wt[0], wt[1], wt[2]])
        moments = data @ top.kernels[0]
        h_data = np.stack([wt[0] * h_j, wt[1] * h_j, wt[2] * np.abs(h_j)])
        moments[:3] += h_data @ top.kernels[1]
        for start, stop, powers in top.blocks:
            rows = slice(start, stop)
            # (w/c)^p, a row per power: numpy's vander builds it a pole at
            # a time, several times slower
            ratio = top.ratio[rows]
            vander = np.empty((powers, ratio.size))
            vander[0] = 1.0
            for p in range(1, powers):
                np.multiply(vander[p - 1], ratio, vander[p])
            series = moments[:, :powers] @ vander
            sums[:2, rows] = series[:2] - f_at[rows] * series[3:5]
            sums[2, rows] = series[2] + np.abs(f_at[rows]) * series[5]
    # the exact floor: the terms of q cancel on the rows near the top nodes,
    # where the bound came to about ten times it
    step = max(1, _BLOCK_ELEMENTS // g_j.size)
    for start in range(top.split, hi - lo, step):
        rows, cols = slice(start, start + step), slice(start - top.split, start - top.split + step)
        q = np.subtract(g_j[:, None], f_at[rows])
        q /= top.minus[:, cols]
        q += h_j[:, None] / top.plus[:, cols]
        sums[:2, rows] = wt[:2] @ q
        sums[2, rows] = wt[2] @ np.abs(q, out=q)
    return sums


def pv_folded_at_nodes(nu: np.ndarray, a, b, lo: int, hi: int,
                       span: float = _FOLDED_BAND_SPAN) -> tuple[np.ndarray, np.ndarray]:
    """:func:`pv_at_nodes` for the folded integrands

        f_k(nu) = (nu a(nu) + w b(nu)) / (nu + w),   w = nu[k],

    with a pole at every node of the block nu[lo:hi]. ``a`` and ``b`` are
    arrays of nu's shape or scalars. Every pole needs >= 2 nodes on each
    side. Returns (values, error estimates), equal to pv_at_nodes' up to
    rounding.

    The folded kernel splits by partial fractions,

        f_k(nu) / (nu - w) = g(nu) / (nu - w) + h(nu) / (nu + w),
        g = (a + b) / 2,   h = (a - b) / 2,

    and as f_k(w) = g(w) the subtracted integrand splits alike. g and h are
    formed once, and a block that is not geometric is one pv_at_nodes call
    on them; it takes no cache slot.

    On a geometric block, nu_j = nu_lo r^(j - lo), the kernels of the
    Simpson sums are functions of m = k - j alone,

        nu a / (nu^2 - w^2) = (a/nu) / (1 - r^2m)
        w b / (nu^2 - w^2)  = (b/nu) r^m / (1 - r^2m)
        1 / (nu - w)        = (1/nu) / (1 - r^m),

    so their block sums beyond the band |m| = B are convolutions, taken by
    numpy.fft, one FFT of each of a and b. The band spans a node ratio
    r^B >= exp(``span``), B = _band(ln r, span). The folded transforms take
    the default _FOLDED_BAND_SPAN, r^B >= 1.018: 4 nodes at 2048 nodes per
    4 decades, 16 at 8192 and 32 from 16384 up. kk_subtracted takes
    _BAND_SPAN, twice as wide. For 0 < |m| <= B the a and b kernels carry
    the pole-free h part, +-(1/nu) / (2 (1 + r^m)); the g part there, the
    pole rows and the nodes below the block (kk's 3 head nodes) are summed
    directly by :func:`_near_sums`, and the nodes above it (kk's 48
    top-extension nodes) by their moments (:func:`_top_sums`).
    The full and the full-minus-half Simpson weights enter as their own
    convolutions, so the error estimate is :func:`simpson_estimate`'s; its
    rounding floor's convolved part is the upper bound with |a|, |b| and the
    |kernels|, clipped at 0.

    A geometric block's grid-only setup is a plan, cached by nu's bytes,
    (lo, hi) and the band (_PLAN_CACHE_SIZE entries): warm calls give the
    bits of cold ones.
    """
    nu = np.asarray(nu, dtype=float)
    a = np.broadcast_to(np.asarray(a, dtype=float), nu.shape)
    b = np.broadcast_to(np.asarray(b, dtype=float), nu.shape)
    g, h = 0.5 * (a + b), 0.5 * (a - b)
    log_r = _geometric_log_ratio(nu[lo:hi])
    if log_r is None:
        return pv_at_nodes(nu, g, h, lo, hi)
    from numpy import fft

    band = _band(log_r, span)
    size, weights, slope_w, kernels, over_nu, conv_nu, logs, top = _folded_plan(
        nu.tobytes(), lo, hi, log_r, band)
    # the band takes the split's singular part g over nu - w; its h part is
    # in the kernels
    sums = _near_sums(nu, weights, slope_w, lo, hi, band, g, h, top)
    # the far terms: the FFT convolutions of the a and b terms of the three
    # sums, the floor's row with the |kernels|, less the 1/(nu - w) terms,
    # which every row k multiplies by its own f_k(w) = g(w) and which are
    # the plan's; for the rounding floor the upper bound with |f_k(w)|, each
    # convolution clipped at 0
    f_at, n = g[lo:hi], hi - lo
    products = None
    for d, kind in ((a[lo:hi], 0), (b[lo:hi], 1)):
        if np.any(d):
            spectrum = fft.rfft(over_nu * np.stack([d, d, np.abs(d)]), size)
            spectrum[:2] *= kernels[kind]
            spectrum[2] *= kernels[kind + 2]
            products = spectrum if products is None else np.add(products, spectrum, out=products)
    conv = np.zeros((3, n)) if products is None else fft.irfft(products, size)[:, :n]
    sums[:2] += conv[:2] - f_at * conv_nu[:2]
    sums[2] += np.maximum(conv[2], 0.0) + np.abs(f_at) * np.maximum(conv_nu[2], 0.0)
    return _finish(*sums, f_at * logs)


# ---------------------------------------------------------------------------
# Power-law tail: fit and semi-infinite completion
# ---------------------------------------------------------------------------

def top_decade(nu: np.ndarray) -> np.ndarray:
    """Mask of the nodes nu >= nu_max/10, the decade that the tail fit, the
    noise floor and the audit's asymptote fits read as the approach to
    infinity."""
    nu = np.asarray(nu)
    return nu >= nu[-1] / 10.0


def noise_floor(nu: np.ndarray, f: np.ndarray) -> float:
    """Noise allowance 5 sigma for the samples f(nu), from the top decade.

    sigma = 1.4826 median|second difference of f| / sqrt(6) is a robust
    estimate of white noise: a smooth tail contributes little curvature
    there, and the median ignores isolated outliers. Only the
    :func:`top_decade` enters, because resonance curvature lower down would
    inflate it. The median is np.median's, bit for bit, taken by
    np.partition: np.median would import numpy.ma.
    """
    top = np.asarray(f, dtype=float)[top_decade(nu)]
    if top.size < 3:
        return 0.0
    d2 = np.abs(top[2:] - 2.0 * top[1:-1] + top[:-2])
    mid = d2.size // 2
    part = np.partition(d2, mid if d2.size % 2 else [mid - 1, mid])
    median = part[mid] if d2.size % 2 else 0.5 * (part[mid - 1] + part[mid])
    return _NOISE_SIGMAS * 1.4826 * float(median) / math.sqrt(6.0)


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, np.ndarray, float]:
    """Least-squares line y ~ a + b x through n >= 2 points, x not all equal,
    in closed form about the means:

        b = sum (x - xm)(y - ym) / Sxx,   a = ym - b xm,   Sxx = sum (x - xm)^2.

    Returns a, b, the residuals y - a - b x, taken as (y - ym) - b (x - xm),
    and (D^T D)^-1_00 = 1/n + xm^2 / Sxx of the design D = [1, x], whose
    root times the regression's standard error is a's standard error."""
    xm, ym = np.mean(x), np.mean(y)
    dx, dy = x - xm, y - ym
    sxx = float(dx @ dx)
    b = float(dx @ dy) / sxx
    return float(ym - b * xm), b, dy - b * dx, 1.0 / x.size + float(xm) ** 2 / sxx


def fit_tail(nu: np.ndarray, values: np.ndarray, floor: float = 0.0) -> TailModel:
    """Least-squares power law |f| ~ A * nu**(-p) from log-log samples.

    Callers pass the :func:`top_decade` of their data. Requires >= 8 samples
    spanning at least a factor 4 in nu. ``floor`` is a noise allowance
    (see :func:`noise_floor`): samples with |f| <= floor are dropped (at the
    default 0 only exact zeros), and the rest must be all of one sign. When
    every |f| is at or below ``floor`` the tail is declared empty (A = 0).
    A fitted p <= 1 raises :class:`NonIntegrableTailError`.
    """
    return _fit_tail(nu, values, floor, subtracted=False)


def _fit_tail(nu: np.ndarray, values: np.ndarray, floor: float,
              subtracted: bool) -> TailModel:
    """:func:`fit_tail`, or with ``subtracted`` that of a subtracted relation,
    whose tails converge for any p > 0: p <= 0 raises a TailFitError."""
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

    nz = np.abs(f) > floor
    if np.count_nonzero(nz) < 2:
        raise TailFitError("too few samples above the floor for a power-law fit")
    signs = np.sign(f[nz])
    if signs.max() != signs.min():
        raise TailFitError("sign-alternating tail: power-law model invalid")
    sign = float(signs[0])

    intercept, slope, _, _ = _line_fit(np.log(nu[nz]), np.log(np.abs(f[nz])))
    p = -slope
    if subtracted and p <= 0.0:
        raise TailFitError(f"fitted tail exponent p = {p:.6g} <= 0: the tail does not decay")
    if not subtracted and p <= 1.0:
        raise NonIntegrableTailError(p)
    if abs(intercept) > 690.0:  # exp() overflow: data is not power-law-like
        raise TailFitError(
            "tail samples decay far faster than any power law; "
            "pass a floor or an explicit TailModel")
    amp = sign * math.exp(intercept)
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


def _series_power(r: float) -> int:
    """The least power p with r^p <= 1e-17 (0 at r = 0): the last term of a
    power series in x, |x| <= r < 1, that this module sums."""
    return 0 if r == 0.0 else math.ceil(math.log(1e-17) / math.log(r))


def tail_parity(t: TailModel, poles: np.ndarray, odd: bool) -> np.ndarray:
    """The even or, with ``odd``, the odd part (s(w) +- s(-w))/2 of the
    :func:`tail_integral` s at every pole w of an array, as one fixed-length
    series of those powers alone,

        A c^-p x^o sum_i x^(2i) / (p + o + 2i),   x = w/c, o = 0 or 1,

    with enough terms for the largest |x|, summed by Horner's rule. The odd
    part keeps its digits at small w, where s(w) - s(-w) cancels them."""
    x = np.asarray(poles, dtype=float) / t.cutoff
    r = float(np.max(np.abs(x))) if x.size else 0.0
    if r >= 1.0:
        raise ValueError(
            f"tail series does not converge: |pole| / cutoff = {r!r} >= 1")
    if t.amplitude == 0.0:
        return np.zeros_like(x)
    terms = (_series_power(r) + 1) // 2 + 1  # the powers x^(2i) up to x^p
    if terms > 100_000:
        raise ValueError(
            f"tail series failed to converge: |pole| / cutoff = {r!r} too close to 1")
    first = int(odd)
    y = x * x
    acc = np.zeros_like(x)
    for i in range(terms - 1, -1, -1):
        acc *= y
        acc += 1.0 / (t.exponent + (first + 2 * i))
    if first:
        acc *= x
    return (t.amplitude / (t.cutoff ** t.exponent)) * acc


def pv_semi_infinite(f: PoleIntegrand, tail: TailModel) -> QuadratureResult:
    """Finite + tail pipeline: pv_integrate over the sampled domain plus the
    power-law completion from ``tail.cutoff`` (normally the top node) to
    infinity."""
    fin = pv_integrate(f)
    tl = tail_integral(tail, f.pole)
    return QuadratureResult(fin.value + tl, fin.error_estimate, tl)
