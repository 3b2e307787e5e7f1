"""The blocked dispersion operator against the scalar reference path.

Every transform is recomputed by a per-node loop over the scalar rule on
the same extended grid: the singularity-subtracted quotient of the part
with the pole, ``difference_quotient``, plus the pole-free part at its
exact value on every node, summed by ``simpson_estimate``, and
``tail_integral`` beyond the grid. Values must agree to rounding and error
estimates to 1e-4 relative: the full-minus-half Simpson difference they
carry cancels most digits, so summation order shows there.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

import kklab
from kklab import (
    ComplexIndexSpectrum,
    FrequencyGrid,
    GridUnit,
    LorentzOscillatorParams,
    PoleCollisionError,
    PoleIntegrand,
    TailModel,
    kk_im_from_re,
    kk_re_from_im,
    kk_subtracted,
    kk_subtracted_at_infinity,
    lorentz_index,
    pv_integrate,
    tail_integral,
)
from kklab.kk import _extend_axis
from kklab.pvquad import (difference_quotient, pv_at_nodes, simpson_estimate, simpson_weights,
                          tail_parity)
from conftest import lorentz_closed_form

VALUE_ATOL = 1e-12
ERROR_RTOL = 1e-4


# --- scalar reference loops ---------------------------------------------------

def _ref_rule(nu, g, h, w):
    """(value, estimate) of P int [g/(nu - w) + h/(nu + w)] dnu at the node
    w: g's subtracted quotient, with its cubic slope on w's node, plus
    h / (nu + w), which has no pole, and the log term
    g(w) ln|(nu[-1] - w)/(nu[0] - w)|."""
    g_w = g[np.searchsorted(nu, w)]
    q = difference_quotient(nu, g, w, g_w) + h / (nu + w)
    return simpson_estimate(q, nu, g_w * math.log(abs((nu[-1] - w) / (nu[0] - w))))


def _ref_at_infinity(s, re_inf, im_inf):
    nu = s.grid.values
    nu_e, g_e, _, st_ = _extend_axis(nu, s.im, "odd", None)
    out, errs = np.full(nu.size, np.nan), np.full(nu.size, np.nan)
    for j, w in enumerate(nu):
        if w == 0.0:
            continue
        # (nu g_e - w im_inf) / (nu^2 - w^2) by partial fractions
        value, error = _ref_rule(nu_e, 0.5 * (g_e - im_inf), 0.5 * (g_e + im_inf), w)
        val = value + 0.5 * (tail_integral(st_, w) + tail_integral(st_, -w))
        val += 0.5 * im_inf * math.log((st_.cutoff - w) / (st_.cutoff + w))
        out[j] = re_inf + (2.0 / math.pi) * val
        errs[j] = (2.0 / math.pi) * error
    return out, errs


def _ref_im_from_re(s):
    nu = s.grid.values
    nu_e, h_e, _, st_ = _extend_axis(nu, s.re - 1.0, "even", None)
    out, errs = np.full(nu.size, np.nan), np.full(nu.size, np.nan)
    for j, w in enumerate(nu):
        if w == 0.0:
            continue
        # w h_e / (nu^2 - w^2) by partial fractions
        value, error = _ref_rule(nu_e, 0.5 * h_e, -0.5 * h_e, w)
        s_odd = 0.5 * (tail_integral(st_, w) - tail_integral(st_, -w))
        out[j] = -(2.0 / math.pi) * (value + s_odd)
        errs[j] = (2.0 / math.pi) * error
    return out, errs


def _ref_subtracted(s, w0, g0_re, g0_im, full_axis=False):
    """Every node but w0 when w0 is a node; else nodes outside the
    two-spacing collision zone only (NaN inside). K is built on the full
    axis. A positive node w takes it folded onto the half axis: the rule for
    g = K(nu) and h = -K(-nu), plus K(w) times D(w), the rule for g = 0 and
    h = 1 less ln((C + w)/w). A node w = 0, or with ``full_axis`` every
    node, takes the full-axis rule."""
    nu = s.grid.values
    nu_e, gi_e, _, st_ = _extend_axis(nu, s.im, "odd", None)
    cutoff = st_.cutoff
    nu_full = np.concatenate([-nu_e[:0:-1], nu_e])
    gi_full = np.concatenate([-gi_e[:0:-1], gi_e])
    dist0 = nu_full - w0
    hit0 = np.abs(dist0) <= 1e-13 * cutoff
    with np.errstate(divide="ignore", invalid="ignore"):
        kern = (gi_full - g0_im) / dist0
    kern[hit0] = kklab.pvquad.local_cubic_slope(nu_full, gi_full, w0)
    k_pos, k_neg = kern[nu_e.size - 1:], kern[nu_e.size - 1::-1]
    on_node = w0 in nu
    out, errs = np.full(nu.size, np.nan), np.full(nu.size, np.nan)
    for j, w in enumerate(nu):
        dr = w - w0
        spacing = nu[max(j, 1)] - nu[max(j, 1) - 1]
        if dr == 0.0 or (not on_node and abs(dr) < 2.0 * spacing):
            continue
        if w == 0.0 or full_axis:
            res = pv_integrate(PoleIntegrand(nu_full, kern, w))
            value, error = res.value, res.error_estimate
        else:
            k_w = k_pos[np.searchsorted(nu_e, w)]
            value, error = _ref_rule(nu_e, k_pos, -k_neg, w)
            d_value, d_error = _ref_rule(nu_e, np.zeros(nu_e.size), np.ones(nu_e.size), w)
            value += k_w * (d_value - math.log((cutoff + w) / w))
            error += abs(k_w) * d_error
        right = (tail_integral(st_, w) - tail_integral(st_, w0)) / dr
        left = (tail_integral(st_, -w) - tail_integral(st_, -w0)) / dr
        right += g0_im * math.log((cutoff - w) / (cutoff - w0)) / dr
        left -= g0_im * math.log((cutoff + w) / (cutoff + w0)) / dr
        out[j] = g0_re + (dr / math.pi) * (value + right + left)
        errs[j] = (abs(dr) / math.pi) * error
    return out, errs


def _assert_matches(result, values, ref):
    ref_val, ref_err = ref
    done = np.isfinite(ref_val)
    assert np.count_nonzero(done) > 0.9 * ref_val.size
    np.testing.assert_allclose(values[done], ref_val[done], rtol=0.0, atol=VALUE_ATOL)
    np.testing.assert_allclose(result.error_estimate[done], ref_err[done], rtol=ERROR_RTOL)


GRIDS = {
    "log": FrequencyGrid.log_spaced(1e-2, 1e2, 512, GridUnit.NORMALIZED),
    "lin0": FrequencyGrid.linear(0.0, 100.0, 512, GridUnit.NORMALIZED),
}


@pytest.fixture(scope="module", params=sorted(GRIDS))
def lorentz(request):
    return lorentz_index(LorentzOscillatorParams(1.0, 1.0, 0.1), GRIDS[request.param])


def test_re_from_im_matches_reference(lorentz):
    r = kk_re_from_im(lorentz)
    _assert_matches(r, r.spectrum.re, _ref_at_infinity(lorentz, 1.0, 0.0))


def test_at_infinity_with_im_inf_matches_reference(lorentz):
    r = kk_subtracted_at_infinity(lorentz, 1.02, 1e-3)
    _assert_matches(r, r.spectrum.re, _ref_at_infinity(lorentz, 1.02, 1e-3))


def test_im_from_re_matches_reference(lorentz):
    r = kk_im_from_re(lorentz)
    _assert_matches(r, r.spectrum.im, _ref_im_from_re(lorentz))
    if lorentz.grid.values[0] == 0.0:
        assert r.spectrum.im[0] == 0.0 and r.error_estimate[0] == 0.0


@pytest.mark.parametrize("w0", [0.0, 0.5, 2.0])
def test_subtracted_matches_reference(lorentz, w0):
    gspec = ComplexIndexSpectrum(lorentz.grid, lorentz.re - 1.0, lorentz.im)
    G0 = lorentz_closed_form(w0) - 1.0
    r = kk_subtracted(gspec, w0, G0.real, G0.imag, on_collision="continuity")
    ref = _ref_subtracted(gspec, w0, G0.real, G0.imag)
    _assert_matches(r, r.spectrum.re, ref)
    if _extend_axis(gspec.grid.values, gspec.im, "odd", None)[0].size % 2:
        # the full-axis Simpson panels break at 0: the folded rule is the
        # full-axis one
        full = _ref_subtracted(gspec, w0, G0.real, G0.imag, full_axis=True)[0]
        done = np.isfinite(full)
        np.testing.assert_allclose(r.spectrum.re[done], full[done], rtol=0.0, atol=VALUE_ATOL)
    skipped = ~np.isfinite(ref[0])
    np.testing.assert_array_equal(r.spectrum.re[skipped], G0.real)
    np.testing.assert_array_equal(r.error_estimate[skipped], 0.0)


def test_subtracted_collision_names_first_node():
    nu = np.geomspace(1e-2, 1e2, 512)
    g = FrequencyGrid(nu, GridUnit.NORMALIZED)
    w0 = float(0.5 * (nu[300] + nu[301]))  # nodes 299 .. 302 lie within two spacings
    gc = ComplexIndexSpectrum(g, np.full(nu.size, 0.7), np.zeros(nu.size))
    with pytest.raises(PoleCollisionError) as exc:
        kk_subtracted(gc, w0, 0.7, 0.0)
    assert str(exc.value) == (f"evaluation point {float(nu[299])!r} within two grid "
                              f"spacings of omega0 = {w0!r}")


def test_pv_at_nodes_needs_bracketed_poles():
    nu = np.linspace(0.0, 1.0, 16)
    with pytest.raises(kklab.PoleLocationError):
        pv_at_nodes(nu, np.ones(nu.size), np.zeros(nu.size), 1, 2)


def test_pv_at_nodes_on_an_empty_block_returns_empty_arrays():
    nu = np.linspace(0.0, 1.0, 16)
    values, errors = pv_at_nodes(nu, np.ones(nu.size), np.zeros(nu.size), 5, 5)
    assert values.shape == errors.shape == (0,)


def test_pv_at_nodes_slices_a_one_row_last_block(monkeypatch):
    # 7-row blocks over 596 poles: the last block is a 1-row slice of the
    # buffers. Every row, the last one included, is the scalar rule's.
    nu = np.geomspace(1e-2, 1e2, 600)
    monkeypatch.setattr(kklab.pvquad, "_BLOCK_ELEMENTS", 7 * nu.size)
    g = np.sin(nu) * np.exp(-0.1 * nu)
    h = np.cos(nu) / (1.0 + nu)
    values, errors = pv_at_nodes(nu, g, h, 2, nu.size - 2)
    refs = np.array([_ref_rule(nu, g, h, w) for w in nu[2:-2]])
    np.testing.assert_allclose(values, refs[:, 0], rtol=0.0, atol=VALUE_ATOL)
    np.testing.assert_allclose(errors, refs[:, 1], rtol=ERROR_RTOL)


# --- closed-form pieces -----------------------------------------------------------

@pytest.mark.parametrize("n", [3, 4, 5, 8, 9, 64, 65, 1001, 1024])
def test_simpson_weights_match_scipy(n):
    rng = np.random.default_rng(n)
    x = np.cumsum(rng.uniform(0.01, 1.0, n))
    for _ in range(3):
        y = rng.uniform(0.5, 2.0, n)
        assert simpson_weights(x) @ y == pytest.approx(simpson(y, x=x), rel=1e-14)


def test_tail_parity_matches_scalar_series():
    # (s(w) +- s(-w))/2, each summed as one series of its own powers
    t = TailModel(3.0065, 0.05, 400.0)
    poles = np.concatenate([-np.geomspace(1e-2, 100.0, 50), [0.0], np.geomspace(1e-2, 100.0, 50)])
    plus = np.array([tail_integral(t, p) for p in poles])
    minus = np.array([tail_integral(t, -p) for p in poles])
    # the scalar sum and difference are good to a few ulps of s(+-w) alone
    ulps = 2e-15 * (np.abs(plus) + np.abs(minus))
    for odd, want in ((False, 0.5 * (plus + minus)), (True, 0.5 * (plus - minus))):
        got = tail_parity(t, poles, odd)
        assert np.all(np.abs(got - want) <= ulps)
    np.testing.assert_array_equal(tail_parity(t, -poles, True), -tail_parity(t, poles, True))
    np.testing.assert_array_equal(tail_parity(t, -poles, False), tail_parity(t, poles, False))
    np.testing.assert_array_equal(tail_parity(TailModel(2.0, 0.0, 10.0), poles[:3], True), 0.0)
    for odd in (False, True):
        with pytest.raises(ValueError, match="converge"):
            tail_parity(t, np.array([1.0, 400.0]), odd)


def test_odd_tail_keeps_its_digits_at_small_poles():
    # at w/c = 1e-8 the odd part is A c^-p x/(p + 1) to 1e-16 relative; the
    # difference of s(w) and s(-w) cancels about 8 of its digits there. The
    # poles span a 2048-node transform's range, so the term count is the
    # one its largest pole needs.
    t = TailModel(3.0065, 0.05, 400.0)
    x = np.geomspace(1e-8, 0.25, 2048)
    odd = tail_parity(t, x * t.cutoff, True)
    leading = t.amplitude * t.cutoff ** -t.exponent * x[0] / (t.exponent + 1.0)
    assert odd[0] == pytest.approx(leading, rel=1e-15, abs=0.0)


@settings(max_examples=25, deadline=None)
@given(a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0),
       centers=st.tuples(st.floats(0.05, 5.0), st.floats(0.05, 5.0)),
       widths=st.tuples(st.floats(0.05, 1.0), st.floats(0.05, 1.0)))
def test_re_from_im_is_linear_in_im(a, b, centers, widths):
    # a fixed tail keeps the transform linear; with a fitted one the tail
    # parameters depend on the data
    g = GRIDS["log"]
    nu = g.values
    tail = TailModel(3.0, 0.0, nu[-1])
    one = np.ones_like(nu)
    f1, f2 = (np.exp(-(((nu - c) / (w * c)) ** 2)) for c, w in zip(centers, widths))

    def re(im):
        return kk_re_from_im(ComplexIndexSpectrum(g, one, im), tail).spectrum.re - 1.0

    r1, r2 = re(f1), re(f2)
    r12 = re(a * f1 + b * f2)
    scale = abs(a) * np.max(np.abs(r1)) + abs(b) * np.max(np.abs(r2)) + 1.0
    assert np.max(np.abs(r12 - (a * r1 + b * r2))) <= 1e-12 * scale

