"""Kramers-Kronig transforms over sampled spectra.

Two families are provided. The folded 0..infinity pair

    Re n(w) = 1 + (2/pi) P int_0^inf  nu Im n(nu) / (nu^2 - w^2) dnu
    Im n(w) =   - (2/pi) P int_0^inf  w [Re n(nu) - 1] / (nu^2 - w^2) dnu

presupposes an odd imaginary part (even real part) under nu -> -nu, the
crossing symmetry n(-w) = conj(n(w)); that symmetry is a physical-model
input, not a theorem about arbitrary data, so every result records it in its
``assumptions``. The once-subtracted relation at a finite point w0,

    Re G(w) = Re G(w0) + ((w - w0)/pi)
              P int_-inf^inf Im[(G(nu) - G(w0)) / (nu - w0)] dnu / (nu - w),

needs no decay of G itself (boundedness suffices); the negative-frequency
half is synthesized from the conjugate crossing relation G(-nu) = conj(G(nu)).
The w0 -> infinity limit of the subtracted relation,

    Re n(w) = Re n(inf) + (2/pi) P int_0^inf
              [nu Im n(nu) - w Im n(inf)] dnu / (nu^2 - w^2),

is evaluated with the difference kept inside one integrand, exactly as
written, so the finite-cutoff truncation of the two pieces cancels; the
Im n(inf) term would vanish identically under an exact principal value
(P int_0^inf dnu/(nu^2 - w^2) = 0).

Numerically every kernel has one simple pole on the 0..inf path, at +w;
the folded forms' partner pole at -w never lies on it. Their numerators
nu a + w b, with a = Im n, b = -Im n(inf) or a = 0, b = Re n - 1, go
through :func:`~kklab.pvquad.pv_folded_at_nodes`, every node of a
transform at once, as the partial fractions

    (nu a + w b) / (nu^2 - w^2) = [(a + b)/2] / (nu - w) + [(a - b)/2] / (nu + w),

a singular part with one integrand for every pole and a part with no pole.
On a log grid that operator takes the far part of its sums by FFT, and
its sums over the top extension (below), which lies above every pole, as
power series in w against the extension's moments, like the tail beyond
it. The closed-form tail beyond the grid splits alike: re-from-im
needs the even powers of w of its series, im-from-re the odd ones, and
each sums only those (:func:`~kklab.pvquad.tail_parity`). The subtracted
relation, one integrand K(nu) on the full axis, folds onto the same
operator by parity: the negative half-axis is the pole-free part with
h(nu) = -K(-nu), a = K(nu) - K(-nu), b = K(nu) + K(-nu), and the
full-axis rule subtracts K(w) on that half too, which adds K(w) D(w) with

    D(w) = sum_j W_j / (nu_j + w) - ln((C + w) / w),

the quadrature error of int_0^C dnu / (nu + w) on the extended half axis
of cutoff C: grid-only, and one more operator call with a = 1, b = -1.
The operator takes the pole-free part at its exact value on every node,
the full axis's node -w too, so on a half axis of an odd node count, where
the full-axis Simpson panels break at 0, the result is the full-axis
rule's. Its tails on the two half-axes sum to the even part of the tail
series.
Data grids are extended at both ends before integrating: below the first
positive node by one head model, odd (linear) or even (parabolic), on 3
nodes that take the place of a sampled nu = 0, and up to 4x the top node
with the fitted power-law tail, so every positive grid node is a strictly
interior pole and every transform's pole block starts right after the
head. Beyond the extension the tail is summed in closed form.

An audit's round trip is the transform its caller asks for next, so
:func:`kk_subtracted_at_infinity` keeps its last two results, keyed on the
exact bytes of the grid, Im n and both constants and on the tail override; a
hit returns the bits of a cold call, and a refusal is never stored.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import NumericalError

# pv_integrate and tail_integral are not called here: they stay kk attributes
# for tools that wrap the quadrature entry points by name
from .pvquad import (  # noqa: F401 (pv_integrate, tail_integral)
    _BAND_SPAN,
    _EPS,
    _NODE_RTOL,
    TailModel,
    _fit_tail,
    difference_quotient,
    fit_tail,
    noise_floor,
    pv_folded_at_nodes,
    pv_integrate,
    simpson_estimate,
    tail_integral,
    tail_parity,
    top_decade,
)
from .spectra import ComplexIndexSpectrum, _as_readonly

__all__ = [
    "TransformResult",
    "PoleCollisionError",
    "kk_re_from_im",
    "kk_im_from_re",
    "kk_subtracted",
    "kk_subtracted_at_infinity",
    "roundtrip_residual",
]

_TOP_EXTENSION_FACTOR = 4.0
_TOP_EXTENSION_NODES = 48
# nodes of the head model below the first positive node: 0, w_1/4 and w_1/2
_HEAD_NODES = 3
# results of kk_subtracted_at_infinity kept at once (about 128 KB each at 4096
# nodes): "audit, then transform the same spectrum" needs one, so two suffice
_RESULT_CACHE_SIZE = 2


class PoleCollisionError(NumericalError):
    """Evaluation frequency within two grid spacings of the subtraction
    point: the double subtraction is ill-conditioned there."""


@dataclass(frozen=True, eq=False)
class TransformResult:
    """Transformed spectrum plus per-node quadrature error estimates, the
    tail model actually used, and the symmetry assumptions invoked."""

    spectrum: ComplexIndexSpectrum
    error_estimate: np.ndarray
    tail: TailModel
    assumptions: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "error_estimate", _as_readonly(self.error_estimate))


# ---------------------------------------------------------------------------
# Grid extension
# ---------------------------------------------------------------------------

def _extend_axis(nu: np.ndarray, f: np.ndarray, kind: str, tail: TailModel | None, *,
                 subtracted: bool = False) -> tuple[np.ndarray, np.ndarray, TailModel, TailModel]:
    """Extend sampled data to [0, 4*nu_max].

    Returns the extended nodes and values, the tail model (``tail``, or a
    power law fitted to the top decade above max(noise floor, eps max|f|),
    refusing p <= 1, or with ``subtracted`` only p <= 0) and that tail
    restarted at the extension cutoff, where the series completion takes
    over. Below the first positive node w_1 one head model, on the nodes 0,
    w_1/4 and w_1/2, takes the place of a sampled w = 0: ``odd`` -> the
    line through (0, f(0)) and (w_1, f(w_1)), f(0) = 0 unless the grid
    samples it; ``even`` -> the zero-slope parabola through the first two
    samples. So every pole block starts at node _HEAD_NODES, with >= 2
    nodes on each side of every positive grid node.
    """
    if tail is None:
        sel, floor = top_decade(nu), max(noise_floor(nu, f), _EPS * np.max(np.abs(f)))
        tail = (_fit_tail(nu[sel], f[sel], floor, subtracted=True) if subtracted
                else fit_tail(nu[sel], f[sel], floor))

    first = int(nu[0] == 0.0)  # index of the first positive node
    w1 = nu[first]
    head_nu = np.array([0.0, w1 / 4.0, w1 / 2.0])
    if kind == "odd":
        f0 = f[0] if first else 0.0
        head_f = f0 + ((f[first] - f0) / w1) * head_nu
    else:
        d = nu[1] ** 2 - nu[0] ** 2
        h0 = (f[0] * nu[1] ** 2 - f[1] * nu[0] ** 2) / d
        head_f = h0 + ((f[1] - f[0]) / d) * head_nu ** 2

    cutoff = _TOP_EXTENSION_FACTOR * nu[-1]
    hi_nodes = np.geomspace(nu[-1], cutoff, _TOP_EXTENSION_NODES + 1)[1:]
    nu_e = np.concatenate([head_nu, nu[first:], hi_nodes])
    f_e = np.concatenate([head_f, f[first:], tail.amplitude * hi_nodes ** (-tail.exponent)])
    return nu_e, f_e, tail, TailModel(tail.exponent, tail.amplitude, cutoff)


# ---------------------------------------------------------------------------
# Folded 0..infinity forms
# ---------------------------------------------------------------------------

def kk_subtracted_at_infinity(im: ComplexIndexSpectrum, re_inf: float = 1.0,
                              im_inf: float = 0.0,
                              tail: TailModel | None = None) -> TransformResult:
    """Real part from the imaginary part with the subtraction at infinity.

    ``re_inf`` and ``im_inf`` are Re n(inf) and Im n(inf). At their defaults
    1 and 0 this reduces exactly to the unsubtracted transform; see
    :func:`kk_re_from_im`, which is literally that special case. ``tail``
    overrides the fitted power-law tail.
    """
    if not (math.isfinite(re_inf) and math.isfinite(im_inf)):
        raise ValueError("subtraction constants must be finite")
    out, errs, tail = _at_infinity(im.grid.values.tobytes(), im.im.tobytes(),
                                   float(re_inf).hex(), float(im_inf).hex(), tail)
    spec = ComplexIndexSpectrum(im.grid, out, im.im)
    return TransformResult(spec, errs, tail, ("im_odd_assumed",))


@functools.lru_cache(maxsize=_RESULT_CACHE_SIZE)
def _at_infinity(nu_bytes: bytes, im_bytes: bytes, re_inf_hex: str, im_inf_hex: str,
                 tail: TailModel | None) -> tuple[np.ndarray, np.ndarray, TailModel]:
    """Read-only Re n and error estimate of :func:`kk_subtracted_at_infinity`
    on the grid and Im n of these bytes, with the tail it used."""
    nu, g = np.frombuffer(nu_bytes), np.frombuffer(im_bytes)
    re_inf, im_inf = float.fromhex(re_inf_hex), float.fromhex(im_inf_hex)
    nu_e, g_e, tail, series_tail = _extend_axis(nu, g, "odd", tail)
    cutoff = series_tail.cutoff

    # per node: P int_0^inf [nu g - w im_inf]/(nu^2 - w^2) dnu (no 2/pi)
    first = int(nu[0] == 0.0)  # the positive nodes are nu[first:]
    w = nu[first:]
    s_even = tail_parity(series_tail, nu, odd=False)
    val, err = pv_folded_at_nodes(nu_e, g_e, -im_inf, _HEAD_NODES, _HEAD_NODES + w.size)
    val += s_even[first:]
    if im_inf != 0.0:
        val += 0.5 * im_inf * np.log((cutoff - w) / (cutoff + w))
    out = np.empty(nu.size)
    errs = np.empty(nu.size)
    out[first:] = re_inf + (2.0 / math.pi) * val
    errs[first:] = (2.0 / math.pi) * err
    if first:
        # kernel degenerates to g(nu)/nu, regular when g is odd
        val0, err0 = simpson_estimate(difference_quotient(nu_e, g_e, 0.0, 0.0), nu_e)
        out[0] = re_inf + (2.0 / math.pi) * (val0 + s_even[0])
        errs[0] = (2.0 / math.pi) * err0
    out.flags.writeable = errs.flags.writeable = False
    return out, errs, tail


def kk_re_from_im(im: ComplexIndexSpectrum, tail: TailModel | None = None) -> TransformResult:
    """Unsubtracted transform: Re n = 1 + (2/pi) P int nu Im n/(nu^2 - w^2).

    Implemented as the infinite-subtraction relation with Re n(inf) = 1 and
    Im n(inf) = 0, which it equals identically.
    """
    return kk_subtracted_at_infinity(im, tail=tail)


def kk_im_from_re(re: ComplexIndexSpectrum, tail: TailModel | None = None) -> TransformResult:
    """Imaginary part from the real part:

        Im n(w) = -(2/pi) P int_0^inf w [Re n(nu) - 1] / (nu^2 - w^2) dnu.

    Returns exactly 0 at w = 0 (the kernel carries a factor w). Re n - 1
    must decay at the grid top; the tail fit enforces that and raises when
    the fitted exponent is not integrable.
    """
    nu = re.grid.values
    nu_e, h_e, tail, series_tail = _extend_axis(nu, re.re - 1.0, "even", tail)

    first = int(nu[0] == 0.0)  # the positive nodes are nu[first:]
    w = nu[first:]
    val, err = pv_folded_at_nodes(nu_e, 0.0, h_e, _HEAD_NODES, _HEAD_NODES + w.size)
    s_odd = tail_parity(series_tail, w, odd=True)
    out = np.zeros(nu.size)
    errs = np.zeros(nu.size)
    out[first:] = -(2.0 / math.pi) * (val + s_odd)
    errs[first:] = (2.0 / math.pi) * err

    spec = ComplexIndexSpectrum(re.grid, re.re, out)
    return TransformResult(spec, errs, tail, ("im_odd_assumed", "re_even_assumed"))


def roundtrip_residual(s: ComplexIndexSpectrum, tail: TailModel | None = None) -> float:
    """max_j |Re n_j - (KK of Im n)_j| over interior nodes.

    Interior excludes the top half-decade and the half-decade above the
    first positive node, where finite-grid truncation dominates any genuine
    causality violation. The grid is checked before the transform runs.
    """
    nu = s.grid.values
    lo = (nu[0] if nu[0] > 0.0 else nu[1]) * math.sqrt(10.0)
    hi = nu[-1] / math.sqrt(10.0)
    mask = (nu >= lo) & (nu <= hi)
    if not np.any(mask):
        raise ValueError("grid too narrow: no interior nodes outside the edge half-decades")
    tr = kk_re_from_im(s, tail)
    return float(np.max(np.abs(s.re[mask] - tr.spectrum.re[mask])))


# ---------------------------------------------------------------------------
# Once-subtracted relation at a finite point
# ---------------------------------------------------------------------------

def kk_subtracted(g: ComplexIndexSpectrum, omega0: float, g0_re: float, g0_im: float,
                  tail: TailModel | None = None, *,
                  on_collision: str = "raise") -> TransformResult:
    """Once-subtracted dispersion relation for G at finite w0 = ``omega0``.

    The input spectrum is interpreted as samples of G(w) for w >= 0 (only
    the imaginary part enters the integrand); G(w0) = ``g0_re`` + i ``g0_im``
    is supplied by the caller and never inferred from the samples. The
    negative-frequency half is synthesized from G(-nu) = conj(G(nu)).

    Per node: w == w0 returns Re G(w0) by continuity, and so does a node
    within 1e-13 max|nu| of w0, where K takes its cubic slope as on w0's
    own node. For a w0 between nodes, 0 < |w - w0| below two local grid
    spacings is the ill-conditioned collision zone, which raises
    :class:`PoleCollisionError` by default or, with
    ``on_collision="continuity"``, is filled with Re G(w0); a w0 on a node
    has no such zone. K(nu) = [Im G(nu) - Im G(w0)]/(nu - w0) is built on
    the full axis and folded onto the positive half (module docstring): the
    positive nodes are one pole block of
    :func:`~kklab.pvquad.pv_folded_at_nodes`, at the direct band span
    _BAND_SPAN, plus K(w) D(w), whose estimate adds |K(w)| times D's; a
    sampled w = 0 takes the scalar rule on the full axis, as
    :func:`kk_subtracted_at_infinity`'s w = 0 does. The rows at w0 and in
    the collision zone are dropped here.
    ``tail`` overrides the fitted power-law tail. The subtracted tails
    converge for any fitted tail exponent p > 0; p <= 0 raises
    :class:`~kklab.pvquad.TailFitError`.
    """
    w0, g0_re, g0_im = float(omega0), float(g0_re), float(g0_im)
    if not math.isfinite(w0) or w0 < 0:
        raise ValueError("omega0 must be finite and >= 0")
    if not (math.isfinite(g0_re) and math.isfinite(g0_im)):
        raise ValueError("subtraction constants must be finite")
    if on_collision not in ("raise", "continuity"):
        raise ValueError("on_collision must be 'raise' or 'continuity'")
    nu = g.grid.values
    if w0 > nu[-1]:
        raise ValueError(f"omega0 = {w0!r} above the grid range")

    nu_e, gi_e, tail, series_tail = _extend_axis(nu, g.im, "odd", tail, subtracted=True)
    cutoff = series_tail.cutoff

    # full real axis by crossing: Im G(-nu) = -Im G(nu)
    nu_full = np.concatenate([-nu_e[:0:-1], nu_e])
    gi_full = np.concatenate([-gi_e[:0:-1], gi_e])

    # regularized difference quotient K(nu) = [Im G(nu) - Im G(w0)]/(nu - w0)
    kern = difference_quotient(nu_full, gi_full, w0, g0_im)

    dr = nu - w0
    # the nodes that K treats as w0's own, with its cubic slope
    node = np.abs(dr) <= _NODE_RTOL * np.max(np.abs(nu_full))
    gaps = np.diff(nu)  # local spacing: to the node below (above, for the first)
    collide = ~np.any(node) & (np.abs(dr) < 2.0 * np.concatenate([gaps[:1], gaps]))
    if on_collision == "raise" and np.any(collide):
        w = float(nu[np.argmax(collide)])
        raise PoleCollisionError(
            f"evaluation point {w!r} within two grid spacings of omega0 = {w0!r}")
    # the positive nodes are the pole block past the head of the half axis,
    # on K(nu) and K(-nu); a sampled w = 0 takes the scalar rule
    first = int(nu[0] == 0.0)
    centre = nu_e.size - 1
    k_pos, k_neg = kern[centre:], kern[centre::-1]
    lo, hi = _HEAD_NODES, nu_e.size - _TOP_EXTENSION_NODES
    k_w, w = k_pos[lo:hi], nu_e[lo:hi]
    val, err = np.empty(nu.size), np.empty(nu.size)
    val[first:], err[first:] = pv_folded_at_nodes(nu_e, k_pos - k_neg, k_pos + k_neg, lo, hi,
                                                  _BAND_SPAN)
    # K(w) D(w): the full-axis rule subtracts K(w) on the negative half too
    d_val, d_err = pv_folded_at_nodes(nu_e, 1.0, -1.0, lo, hi, _BAND_SPAN)
    val[first:] += k_w * (d_val - np.log((nu_e[-1] + w) / w))
    err[first:] += np.abs(k_w) * d_err
    if first:
        val[0], err[0] = simpson_estimate(
            difference_quotient(nu_full, kern, 0.0, kern[centre]), nu_full)
    ev = ~node & ~collide
    w, dr, val, err = nu[ev], dr[ev], val[ev], err[ev]
    # tails of K/(nu - w) on both half-axes, with Im G ~ A nu^-p there: the
    # power-law parts sum to 2 (E(w) - E(w0)) / (w - w0), E the even part of
    # the simple-pole series, and the constant -Im G(w0) parts to one log
    even = tail_parity(series_tail, np.append(w, w0), odd=False)
    tails = 2.0 * (even[:-1] - even[-1])
    if g0_im != 0.0:
        tails += g0_im * np.log((cutoff - w) * (cutoff + w0) / ((cutoff + w) * (cutoff - w0)))
    out = np.full(nu.size, g0_re)
    errs = np.zeros(nu.size)
    out[ev] = g0_re + (dr * val + tails) / math.pi
    errs[ev] = (np.abs(dr) / math.pi) * err

    spec = ComplexIndexSpectrum(g.grid, out, g.im)
    return TransformResult(spec, errs, tail, ("crossing_conjugate_symmetry",))
