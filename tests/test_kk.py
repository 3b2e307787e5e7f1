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
    NonIntegrableTailError,
    PoleCollisionError,
    TailFitError,
    kk_im_from_re,
    kk_re_from_im,
    kk_subtracted,
    kk_subtracted_at_infinity,
    lorentz_index,
    roundtrip_residual,
)
from kklab.kk import _extend_axis
from conftest import gaussian_closed_form, interior_mask, lorentz_closed_form


def _flat(grid, re=1.0, im=0.0):
    n = grid.size
    return ComplexIndexSpectrum(grid, np.full(n, re), np.full(n, im))


# --- the head model of the grid extension -----------------------------------

HEAD_GRIDS = dict(nodes=st.integers(2, 40), bottom=st.floats(1e-6, 1e3),
                  ratio=st.floats(1.01, 10.0), seed=st.integers(0, 2 ** 32 - 1))
# the tail is given, so the head alone is under test on grids of any length
GIVEN_TAIL = kklab.TailModel(2.0, 0.0, 1.0)


def _head_grid(nodes, bottom, ratio, seed):
    """Positive nodes from ``bottom`` with ratio ``ratio`` between the first
    two, and random data on them."""
    nu = bottom * np.cumprod(np.r_[1.0, np.full(nodes - 1, ratio)])
    return nu, np.random.default_rng(seed).uniform(-1.0, 1.0, nodes)


@settings(max_examples=40, deadline=None)
@given(**HEAD_GRIDS)
def test_odd_head_is_one_line_whether_or_not_the_grid_samples_zero(nodes, bottom, ratio,
                                                                   seed):
    nu, f = _head_grid(nodes, bottom, ratio, seed)
    nu_e, f_e, _, _ = _extend_axis(nu, f, "odd", GIVEN_TAIL)
    # Im n(0) = 0 sampled at a node of its own gives the same head
    nu_z, f_z, _, _ = _extend_axis(np.r_[0.0, nu], np.r_[0.0, f], "odd", GIVEN_TAIL)
    np.testing.assert_array_equal(nu_z, nu_e)
    np.testing.assert_array_equal(f_z[3:], f_e[3:])
    np.testing.assert_allclose(f_z[:3], f_e[:3], rtol=4e-16, atol=0.0)
    # the line through (0, 0) and the first positive node
    np.testing.assert_array_equal(nu_e[:4], nu[0] * np.array([0.0, 0.25, 0.5, 1.0]))
    np.testing.assert_allclose(f_e[:3], f[0] * np.array([0.0, 0.25, 0.5]),
                               rtol=4e-16, atol=0.0)


@settings(max_examples=40, deadline=None)
@given(**HEAD_GRIDS, at_zero=st.booleans())
def test_even_head_is_one_zero_slope_parabola(nodes, bottom, ratio, seed, at_zero):
    nu, f = _head_grid(nodes, bottom, ratio, seed)
    if at_zero:
        nu = np.r_[0.0, nu[:-1]]
    nu_e, f_e, _, _ = _extend_axis(nu, f, "even", GIVEN_TAIL)
    w1 = nu[1] if at_zero else nu[0]
    a = w1 / 4.0
    np.testing.assert_array_equal(nu_e[:3], [0.0, a, 2.0 * a])
    np.testing.assert_array_equal(nu_e[3:nu.size + 3 - at_zero], nu[at_zero:])
    y0, y1, y2 = f_e[:3]
    scale = max(np.max(np.abs(f_e[:3])), np.max(np.abs(f[:2])))
    # the parabola y0 + b x + c x^2 through the head: b = 0
    assert abs(4.0 * y1 - y2 - 3.0 * y0) <= 1e-13 * scale
    # and it passes through the first two samples
    curv = (y2 - 2.0 * y1 + y0) / (2.0 * a * a)
    np.testing.assert_allclose(y0 + curv * nu[:2] ** 2, f[:2], rtol=0.0, atol=1e-12 * scale)


# --- unsubtracted pair -------------------------------------------------------

def test_vacuum_maps_to_vacuum(std_grid):
    r = kk_re_from_im(_flat(std_grid))
    np.testing.assert_array_equal(r.spectrum.re, 1.0)


def test_unit_re_maps_to_zero_im(std_grid):
    r = kk_im_from_re(_flat(std_grid))
    np.testing.assert_array_equal(r.spectrum.im, 0.0)


def test_lorentz_re_from_im(std_lorentz, std_transform):
    mask = interior_mask(std_lorentz.grid)
    err = np.abs(std_transform.spectrum.re - std_lorentz.re)
    assert np.max(err[mask]) < 1e-3


def test_lorentz_round_trip(std_lorentz, std_transform):
    mask = interior_mask(std_lorentz.grid)
    back = kk_im_from_re(std_transform.spectrum)
    err = np.abs(back.spectrum.im - std_lorentz.im)
    assert np.max(err[mask]) < 2e-3


def test_im_from_re_zero_at_zero_frequency():
    nodes = np.concatenate([[0.0], np.geomspace(1e-2, 1e2, 512)])
    g = FrequencyGrid(nodes, GridUnit.NORMALIZED)
    s = lorentz_index(LorentzOscillatorParams(1.0, 1.0, 0.1), g)
    r = kk_im_from_re(ComplexIndexSpectrum(g, s.re, np.zeros_like(s.re)))
    assert r.spectrum.im[0] == 0.0


def test_non_integrable_tail_raises(std_grid):
    nu = std_grid.values
    s = ComplexIndexSpectrum(std_grid, np.ones_like(nu), nu ** -0.5)
    with pytest.raises(NonIntegrableTailError):
        kk_re_from_im(s)


def test_noisy_tail_transforms_within_oracle_tolerance(std_grid, std_lorentz):
    # sigma = 2e-8 against a top node Im n of 5e-8: a few top samples change
    # sign in some draws, which the noise floor must keep out of the tail fit
    mask = interior_mask(std_grid)
    n = std_grid.size
    for seed in range(10):
        rng = np.random.default_rng(seed)
        noisy = ComplexIndexSpectrum(std_grid, std_lorentz.re + 2e-8 * rng.standard_normal(n),
                                     std_lorentz.im + 2e-8 * rng.standard_normal(n))
        re = kk_re_from_im(noisy).spectrum.re
        im = kk_im_from_re(noisy).spectrum.im
        assert np.max(np.abs(re - std_lorentz.re)[mask]) < 1e-3
        assert np.max(np.abs(im - std_lorentz.im)[mask]) < 2e-3


def test_oscillating_tail_still_raises(std_grid, std_lorentz):
    nu = std_grid.values
    s = ComplexIndexSpectrum(std_grid, std_lorentz.re, std_lorentz.im * np.cos(nu))
    with pytest.raises(TailFitError, match="sign"):
        kk_re_from_im(s)


@pytest.mark.parametrize("line", [(0.1, 3.0, 0.3), (0.05, 5.0, 1.0)])
def test_re_from_im_of_a_gaussian_line(std_grid, line):
    # Im n's top decade holds values of 1e-64 or less, at a noise floor of
    # 0: under eps max|Im n| they are rounding, an empty tail, and not data
    # decaying faster than any power law (a TailFitError before). Errors
    # read 1.8e-7 and 9.0e-9.
    nu = std_grid.values
    n = gaussian_closed_form(nu, *line)
    re = kk_re_from_im(ComplexIndexSpectrum(std_grid, n.real, n.imag)).spectrum.re
    inside = (nu >= 0.1) & (nu <= 10.0)
    assert np.max(np.abs(re - n.real)[inside]) <= 1e-6


def test_linearity_on_compact_bumps():
    g = FrequencyGrid.log_spaced(1e-2, 1e2, 1024, GridUnit.NORMALIZED)
    nu = g.values
    f1 = np.exp(-(((nu - 1.0) / 0.25) ** 2))
    f2 = np.exp(-(((nu - 1.5) / 0.25) ** 2))
    a, b = 2.0, -0.5
    one = np.ones_like(nu)
    r1 = kk_re_from_im(ComplexIndexSpectrum(g, one, f1)).spectrum.re
    r2 = kk_re_from_im(ComplexIndexSpectrum(g, one, f2)).spectrum.re
    r12 = kk_re_from_im(ComplexIndexSpectrum(g, one, a * f1 + b * f2)).spectrum.re
    assert np.max(np.abs(r12 - (a * r1 + b * r2 - (a + b - 1.0)))) < 1e-10


def test_static_limit_sum_rule():
    # (2/pi) int Im n / nu dnu computed with no pole machinery agrees with
    # the transform evaluated at the omega = 0 node
    nodes = np.concatenate([[0.0], np.geomspace(1e-2, 1e2, 2048)])
    g = FrequencyGrid(nodes, GridUnit.NORMALIZED)
    s = lorentz_index(LorentzOscillatorParams(1.0, 1.0, 0.1), g)
    r = kk_re_from_im(s)
    kk_at_zero = r.spectrum.re[0]

    tail = r.tail
    ext = np.geomspace(nodes[-1], 4.0 * nodes[-1], 49)[1:]
    nu_e = np.concatenate([nodes, ext])
    g_e = np.concatenate([s.im, tail.amplitude * ext ** -tail.exponent])
    with np.errstate(divide="ignore", invalid="ignore"):
        q = g_e / nu_e
    q[0] = 0.1 * 1.0 / 2.0  # d(Im n)/dnu at 0: omega_p^2 gamma / (2 omega_res^4)
    series = tail.amplitude / (tail.exponent * (4.0 * nodes[-1]) ** tail.exponent)
    independent = 1.0 + (2.0 / np.pi) * (float(simpson(q, x=nu_e)) + series)
    assert kk_at_zero == pytest.approx(independent, abs=1e-6)


def test_narrow_resonance_static_value():
    # resolved narrow line: Re n at the grid bottom approaches
    # 1 + omega_p^2/(2 omega_res^2)
    g = FrequencyGrid.log_spaced(1e-2, 1e2, 2048, GridUnit.NORMALIZED)
    s = lorentz_index(LorentzOscillatorParams(1.0, 1.0, 0.05), g)
    r = kk_re_from_im(s)
    assert r.spectrum.re[0] - 1.0 == pytest.approx(0.5, abs=1e-3)


def test_error_estimates_finite_nonnegative(std_transform):
    assert np.all(np.isfinite(std_transform.error_estimate))
    assert np.all(std_transform.error_estimate >= 0.0)


def test_tail_override_is_used(std_lorentz):
    override = kklab.TailModel(exponent=3.0, amplitude=0.05, cutoff=100.0)
    r = kk_re_from_im(std_lorentz, override)
    assert r.tail is override


def test_two_oscillator_superposition_oracle():
    # sum of two dilute oscillators is still exactly transform-consistent;
    # guards against tuning to the single-resonance fixture
    g = FrequencyGrid.log_spaced(1e-2, 1e2, 2048, GridUnit.NORMALIZED)
    nu = g.values
    n = (1.0
         + 0.5 * 0.6 ** 2 / (0.8 ** 2 - nu ** 2 - 1j * 0.2 * nu)
         + 0.5 * 0.9 ** 2 / (3.0 ** 2 - nu ** 2 - 1j * 0.4 * nu))
    s = ComplexIndexSpectrum(g, n.real, n.imag)
    r = kk_re_from_im(s)
    mask = interior_mask(g)
    assert np.max(np.abs(r.spectrum.re - s.re)[mask]) < 1e-3


def test_random_passive_spectra_stay_finite():
    # smooth positive bumps plus a clean cubic tail: transform and audit must
    # produce finite output for arbitrary such spectra
    from kklab import audit, Dichotomy

    g = FrequencyGrid.log_spaced(1e-2, 1e2, 1024, GridUnit.NORMALIZED)
    nu = g.values
    rng = np.random.default_rng(123)
    for _ in range(3):
        im = 0.02 / (1.0 + (nu / 30.0) ** 3) * nu / (nu + 0.1)
        for _ in range(4):
            center = rng.uniform(0.05, 5.0)
            width = rng.uniform(0.2, 0.8) * center
            height = rng.uniform(0.05, 0.6)
            im = im + height * np.exp(-(((nu - center) / width) ** 2))
        r = kk_re_from_im(ComplexIndexSpectrum(g, np.ones_like(im), im))
        assert np.all(np.isfinite(r.spectrum.re))
        rep = audit(ComplexIndexSpectrum(g, r.spectrum.re, im))
        assert rep.dichotomy in (Dichotomy.CONSISTENT_WITH_UNITY, Dichotomy.INCONCLUSIVE)


# --- subtraction at infinity --------------------------------------------------

def test_reduction_to_unsubtracted(std_lorentz, std_transform):
    r = kk_subtracted_at_infinity(std_lorentz, 1.0, 0.0)
    diff = np.abs(r.spectrum.re - std_transform.spectrum.re)
    assert np.max(diff) <= 1e-12


def test_constant_asymptote_shift(std_grid):
    r = kk_subtracted_at_infinity(_flat(std_grid), 0.9, 0.0)
    np.testing.assert_array_equal(r.spectrum.re, 0.9)


def test_nonzero_im_infinity_term():
    # with Im n(inf) /= 0 the combined difference-form integrand acquires a
    # log-type correction; compare one node against direct dense quadrature
    # assembled as int_0^(w/2) + symmetric band around the pole + int_(3w/2)^inf
    from scipy.integrate import quad

    g = FrequencyGrid.log_spaced(1e-2, 1e2, 1024, GridUnit.NORMALIZED)
    s = lorentz_index(LorentzOscillatorParams(1.0, 1.0, 0.1), g)
    g_inf = 0.25
    r = kk_subtracted_at_infinity(s, 1.0, g_inf)

    w = float(g.values[600])
    im_fn = lambda x: 0.5 * 0.1 * x / ((1 - x ** 2) ** 2 + 0.01 * x ** 2)
    num = lambda x: (x * im_fn(x) - w * g_inf) / (x ** 2 - w ** 2)
    outer_lo = quad(num, 0.0, w / 2, limit=800, epsabs=1e-12)[0]
    band = quad(lambda t: num(w - t) + num(w + t), 1e-9, w / 2, limit=800, epsabs=1e-12)[0]
    outer_hi = quad(num, 3.0 * w / 2, np.inf, limit=800, epsabs=1e-12)[0]
    truth = 1.0 + (2.0 / np.pi) * (outer_lo + band + outer_hi)
    assert r.spectrum.re[600] == pytest.approx(truth, abs=5e-4)


@pytest.mark.parametrize("re_inf, im_inf", [(np.inf, 0.0), (1.0, np.nan)])
def test_at_infinity_rejects_non_finite_constants(std_lorentz, re_inf, im_inf):
    with pytest.raises(ValueError, match="constants must be finite"):
        kk_subtracted_at_infinity(std_lorentz, re_inf, im_inf)


# --- finite-point subtraction ---------------------------------------------------

def test_constant_g_returns_constant(std_grid):
    gc = _flat(std_grid, re=0.7, im=0.0)
    r = kk_subtracted(gc, 0.5, 0.7, 0.0, on_collision="continuity")
    np.testing.assert_array_equal(r.spectrum.re, 0.7)


def test_subtracted_degenerate_point_by_continuity():
    nu = np.geomspace(1e-2, 1e2, 512)
    g = FrequencyGrid(nu, GridUnit.NORMALIZED)
    s = lorentz_index(LorentzOscillatorParams(1.0, 1.0, 0.1), g)
    gspec = ComplexIndexSpectrum(g, s.re - 1.0, s.im)
    w0 = float(nu[200])
    G0 = lorentz_closed_form(w0) - 1.0
    r = kk_subtracted(gspec, w0, G0.real, G0.imag, on_collision="continuity")
    assert r.spectrum.re[200] == G0.real


def test_collision_zone_raises_by_default(std_grid):
    gc = _flat(std_grid, re=0.7)
    with pytest.raises(PoleCollisionError, match="two grid spacings"):
        kk_subtracted(gc, 0.5, 0.7, 0.0)


def test_subtracted_at_a_sampled_zero_has_no_collision_zone():
    # at a node w0 K takes its cubic slope, so the nodes next to it are as
    # accurate as the rest of the bottom of the grid
    nu = np.r_[0.0, np.geomspace(1e-2, 1e2, 2047)]
    s = lorentz_index(LorentzOscillatorParams(1.0, 1.0, 0.1),
                      FrequencyGrid(nu, GridUnit.NORMALIZED))
    G0 = lorentz_closed_form(0.0) - 1.0
    r = kk_subtracted(ComplexIndexSpectrum(s.grid, s.re - 1.0, s.im), 0.0, G0.real, 0.0)
    err = np.abs(r.spectrum.re - (s.re - 1.0))
    assert np.max(err[1:5]) <= 2.0 * np.max(err[(nu >= nu[5]) & (nu <= 0.1)])


def test_subtracted_one_ulp_off_a_node_has_no_collision_zone(std_lorentz):
    # K takes its cubic slope on a node within 1e-13 max|nu| of w0, so a w0
    # one ulp above node 1000 is that node's w0: no collision zone, and its
    # neighbours as accurate as when w0 is the node itself
    nu = std_lorentz.grid.values
    g = ComplexIndexSpectrum(std_lorentz.grid, std_lorentz.re - 1.0, std_lorentz.im)
    errs = []
    for w0 in (nu[1000], np.nextafter(nu[1000], 1.0)):
        G0 = lorentz_closed_form(w0) - 1.0
        r = kk_subtracted(g, w0, G0.real, G0.imag)
        assert r.spectrum.re[1000] == G0.real
        errs.append(np.abs(r.spectrum.re - g.re)[[998, 999, 1001, 1002]])
    on_node, off_node = errs
    assert np.all(off_node <= 2.0 * on_node)


def test_subtracted_at_zero_matches_unsubtracted(std_lorentz, std_transform):
    gspec = ComplexIndexSpectrum(std_lorentz.grid, std_lorentz.re - 1.0, std_lorentz.im)
    G0 = lorentz_closed_form(0.0) - 1.0
    assert abs(G0.imag) < 1e-15
    r = kk_subtracted(gspec, 0.0, G0.real, 0.0)
    mask = interior_mask(std_lorentz.grid)
    diff = np.abs((r.spectrum.re + 1.0) - std_transform.spectrum.re)
    assert np.max(diff[mask]) < 1e-3


def test_subtraction_point_independence(std_lorentz):
    gspec = ComplexIndexSpectrum(std_lorentz.grid, std_lorentz.re - 1.0, std_lorentz.im)
    nu = std_lorentz.grid.values
    results = []
    excluded = np.zeros(nu.size, dtype=bool)
    for w0 in (0.0, 0.5, 2.0):
        G0 = lorentz_closed_form(w0) - 1.0
        r = kk_subtracted(gspec, w0, G0.real, G0.imag, on_collision="continuity")
        results.append(r.spectrum.re)
        excluded |= np.abs(nu - w0) < 4.0 * np.gradient(nu)
    mask = interior_mask(std_lorentz.grid) & ~excluded
    for i in range(len(results)):
        for j in range(i + 1, len(results)):
            assert np.max(np.abs(results[i] - results[j])[mask]) < 5e-3


def test_subtracted_matches_full_axis_quadrature():
    # direct adaptive quadrature of the full-axis relation, on a short grid
    # (top node 10, so the analytic tail completions carry ~1e-2 weight and
    # any sign error in them would show at 1e-3, not 1e-6)
    from scipy.integrate import quad

    g = FrequencyGrid.log_spaced(0.1, 10.0, 1024, GridUnit.NORMALIZED)
    params = (1.0, 1.0, 0.5)
    s = lorentz_index(LorentzOscillatorParams(*params), g)
    gspec = ComplexIndexSpectrum(g, s.re - 1.0, s.im)

    def im_g(x):
        return np.imag((params[0] ** 2 / 2) / (params[1] ** 2 - x ** 2 - 1j * params[2] * x))

    w0 = 1.0
    G0 = (params[0] ** 2 / 2) / (params[1] ** 2 - w0 ** 2 - 1j * params[2] * w0)
    r = kk_subtracted(gspec, w0, G0.real, G0.imag, on_collision="continuity")

    for idx in (300, 800):
        w = float(g.values[idx])
        integrand = lambda x: (im_g(x) - G0.imag) / (x - w0) / (x - w)
        half_band = 0.5 * abs(w) + 1e-3
        band = quad(lambda t: integrand(w - t) + integrand(w + t),
                    1e-9, half_band, limit=1000, epsabs=1e-13)[0]
        lo = quad(integrand, -np.inf, w - half_band, limit=1000, epsabs=1e-13)[0]
        hi = quad(integrand, w + half_band, np.inf, limit=1000, epsabs=1e-13)[0]
        truth = G0.real + ((w - w0) / np.pi) * (band + lo + hi)
        assert r.spectrum.re[idx] == pytest.approx(truth, abs=1e-5)


def _inverse_sqrt_spectrum(n=2048):
    """G(w) = (1 - i w)^(-1/2) on log 1e-2..1e2: causal, Im G odd, and its
    tail exponent tends to 1/2, so the tail fit reads p < 1."""
    nu = np.geomspace(1e-2, 1e2, n)
    g = (1.0 - 1j * nu) ** -0.5
    return ComplexIndexSpectrum(FrequencyGrid(nu, GridUnit.NORMALIZED), g.real, g.imag), g


def test_subtracted_takes_a_slowly_decaying_tail():
    # the subtracted tails 2 (E(w) - E(w0)) / (w - w0) converge for any p > 0
    spec, g = _inverse_sqrt_spectrum()
    r = kk_subtracted(spec, 0.0, 1.0, 0.0)
    assert 0.0 < r.tail.exponent < 1.0
    mask = interior_mask(spec.grid)
    assert np.max(np.abs(r.spectrum.re - g.real)[mask]) < 1e-4
    # the unsubtracted transform still refuses the same Im G
    with pytest.raises(NonIntegrableTailError):
        kk_re_from_im(spec)


def test_subtracted_refuses_a_growing_tail_without_advice_to_subtract():
    spec, _ = _inverse_sqrt_spectrum()
    growing = ComplexIndexSpectrum(spec.grid, spec.re, spec.grid.values ** 0.3)
    with pytest.raises(TailFitError, match=r"p = -0\.3 <= 0") as exc:
        kk_subtracted(growing, 0.0, 1.0, 0.0)
    assert not isinstance(exc.value, NonIntegrableTailError)
    assert "subtract" not in str(exc.value)


def test_omega0_above_grid_rejected(std_lorentz):
    with pytest.raises(ValueError, match="grid range"):
        kk_subtracted(std_lorentz, 1e3, 0.0, 0.0)


@pytest.mark.parametrize("omega0, g0_re, g0_im, message", [
    (-1.0, 0.0, 0.0, "omega0 must be finite"),
    (np.nan, 0.0, 0.0, "omega0 must be finite"),
    (0.0, np.inf, 0.0, "constants must be finite"),
    (0.0, 0.0, np.nan, "constants must be finite"),
])
def test_subtracted_rejects_bad_point_or_constants(std_lorentz, omega0, g0_re, g0_im, message):
    with pytest.raises(ValueError, match=message):
        kk_subtracted(std_lorentz, omega0, g0_re, g0_im)


def test_subtracted_rejects_unknown_collision_rule(std_lorentz):
    with pytest.raises(ValueError, match="on_collision must be 'raise' or 'continuity'"):
        kk_subtracted(std_lorentz, 0.0, 0.0, 0.0, on_collision="x")


# --- convergence under refinement --------------------------------------------

def _interior_errors(params, n):
    """Max interior error of re-from-im, im-from-re and kk_subtracted at
    w0 = 0 and 0.5 on a Lorentz oscillator, log 0.01..100 with ``n``
    nodes. An interior w0 fills its collision zone by continuity, and the
    nodes within 4 local spacings of it are left out. The box below never
    puts the resonance near 0.5; a w0 within about gamma/4 of it is not yet
    at Simpson's rate here (w0 = 2, omega_res = 1.985, gamma = 0.08: 3.7x
    from 2048 to 4096 nodes)."""
    g = FrequencyGrid.log_spaced(1e-2, 1e2, n, GridUnit.NORMALIZED)
    s = lorentz_index(LorentzOscillatorParams(*params), g)
    gspec = ComplexIndexSpectrum(g, s.re - 1.0, s.im)
    mask = interior_mask(g)
    errors = [np.max(np.abs(kk_re_from_im(s).spectrum.re - s.re)[mask]),
              np.max(np.abs(kk_im_from_re(s).spectrum.im - s.im)[mask])]
    gaps = np.diff(g.values)
    spacing = np.concatenate([gaps[:1], gaps])
    for w0 in (0.0, 0.5):
        G0 = lorentz_closed_form(w0, *params) - 1.0
        sub = kk_subtracted(gspec, w0, G0.real, G0.imag, on_collision="continuity")
        near = np.abs(g.values - w0) < 4.0 * spacing
        errors.append(np.max(np.abs(sub.spectrum.re - gspec.re)[mask & ~near]))
    return np.array(errors)


# inside this box the error falls at close to Simpson's rate, 16x per
# doubling (10.4x the worst seen); on broad oscillators it stops falling
@settings(max_examples=25, deadline=None)
@given(omega_p=st.floats(0.2, 2.0), omega_res=st.floats(1.0, 2.0), gamma=st.floats(0.08, 0.12))
def test_interior_error_falls_under_refinement(omega_p, omega_res, gamma):
    params = (omega_p, omega_res, gamma)
    assert np.all(_interior_errors(params, 4096) <= _interior_errors(params, 2048) / 8.0)


@pytest.mark.parametrize("n", [512, 2048, 16384])
def test_lowest_data_node_is_as_accurate_as_the_next(n):
    # the lowest data node w is the middle node of the very uneven Simpson
    # panel (w/2, w, w r), whose weight does not fall under refinement
    # (about 0.1 at 2048 nodes, 0.75 at 16384): a stencil slope of the
    # pole-free h / (nu + w) there left its error 2.05-2.60 times the next
    # node's at every size, where the exact h(w) / 2w leaves 1.00-1.12
    g = FrequencyGrid.log_spaced(1e-2, 1e2, n, GridUnit.NORMALIZED)
    s = lorentz_index(LorentzOscillatorParams(1.0, 1.0, 0.1), g)
    im_err = np.abs(kk_im_from_re(s).spectrum.im - s.im)
    s = lorentz_index(LorentzOscillatorParams(2.0, 0.5, 0.5), g)
    re_err = np.abs(kk_re_from_im(s).spectrum.re - s.re)
    for err in (im_err, re_err):
        assert err[0] <= 1.25 * err[1]


# --- residual ---------------------------------------------------------------

def test_residual_on_oracle(std_lorentz):
    assert roundtrip_residual(std_lorentz) < 1e-3


def test_residual_constant_offset(std_grid):
    s = _flat(std_grid, re=1.1, im=0.0)
    assert roundtrip_residual(s) == pytest.approx(0.1, abs=1e-12)


def test_residual_detects_local_defect(std_lorentz):
    re = std_lorentz.re.copy()
    k = 1024  # interior node
    re[k] += 0.05
    s = ComplexIndexSpectrum(std_lorentz.grid, re, std_lorentz.im)
    assert roundtrip_residual(s) >= 0.049


def test_residual_needs_interior():
    g = FrequencyGrid.log_spaced(1.0, 5.0, 32, GridUnit.NORMALIZED)
    s = ComplexIndexSpectrum(g, np.ones(32), np.zeros(32))
    with pytest.raises(ValueError, match="interior"):
        roundtrip_residual(s)


# --- result cache -----------------------------------------------------------

def _bits(res):
    return [res.spectrum.re.tobytes(), res.spectrum.im.tobytes(),
            res.error_estimate.tobytes(), res.tail]


def _cold(call):
    kklab.kk._at_infinity.cache_clear()
    return call()


def test_audit_then_transform_runs_the_operator_once(monkeypatch, std_lorentz):
    calls = []
    operator = kklab.kk.pv_folded_at_nodes
    monkeypatch.setattr(kklab.kk, "pv_folded_at_nodes",
                        lambda *args: calls.append(1) or operator(*args))
    kklab.audit(std_lorentz)
    warm = kk_re_from_im(std_lorentz)
    assert len(calls) == 1
    assert _bits(warm) == _bits(_cold(lambda: kk_re_from_im(std_lorentz)))


def _nudged(a, k=1000):
    a = a.copy()
    a[k] = np.nextafter(a[k], np.inf)
    return a


@pytest.mark.parametrize("first, second", [
    (kk_re_from_im,
     lambda s: kk_re_from_im(ComplexIndexSpectrum(
         FrequencyGrid(_nudged(s.grid.values), GridUnit.NORMALIZED), s.re, s.im))),
    (kk_re_from_im,
     lambda s: kk_re_from_im(ComplexIndexSpectrum(s.grid, s.re, _nudged(s.im)))),
    (lambda s: kk_subtracted_at_infinity(s, 1.0, 0.0),
     lambda s: kk_subtracted_at_infinity(s, 1.0, -0.0)),
    (kk_re_from_im,
     lambda s: kk_re_from_im(s, kklab.TailModel(2.0, 1e-3, 100.0))),
], ids=["node one ulp up", "im one ulp up", "im_inf -0.0", "tail option"])
def test_any_other_input_misses(std_lorentz, fresh_results, first, second):
    first(std_lorentz)
    got = second(std_lorentz)
    info = fresh_results.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 2, 2)
    assert _bits(got) == _bits(_cold(lambda: second(std_lorentz)))


@pytest.mark.parametrize("call, error, runs", [
    (lambda s: kk_subtracted_at_infinity(s, np.inf, 0.0), ValueError, 0),
    (lambda s: kk_re_from_im(ComplexIndexSpectrum(
        s.grid, s.re, s.im * np.cos(s.grid.values))), TailFitError, 2),
    (lambda s: kk_re_from_im(ComplexIndexSpectrum(
        s.grid, s.re, s.grid.values ** -0.5)), NonIntegrableTailError, 2),
], ids=["constants", "tail fit", "non-integrable tail"])
def test_refusal_raises_on_every_call_and_is_not_stored(std_lorentz, fresh_results,
                                                        call, error, runs):
    for _ in range(2):
        with pytest.raises(error):
            call(std_lorentz)
    info = fresh_results.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, runs, 0)


def test_hit_carries_the_callers_grid_and_im(std_lorentz, fresh_results):
    kk_re_from_im(std_lorentz)
    # the same bytes under another unit, in arrays of their own
    grid = FrequencyGrid(std_lorentz.grid.values.copy(), GridUnit.SI_RAD_PER_S)
    s = ComplexIndexSpectrum(grid, std_lorentz.re.copy(), std_lorentz.im.copy())
    res = kk_re_from_im(s)
    assert fresh_results.cache_info().hits == 1
    assert res.spectrum.grid is grid and res.spectrum.im is s.im
    assert res.spectrum.grid.unit is GridUnit.SI_RAD_PER_S


def test_result_cache_stays_bounded(fresh_results):
    for n in range(200, 200 + kklab.kk._RESULT_CACHE_SIZE + 2):
        kk_re_from_im(lorentz_index(LorentzOscillatorParams(1.0, 1.0, 0.1),
                                    FrequencyGrid.log_spaced(1e-2, 1e2, n, GridUnit.NORMALIZED)))
    info = fresh_results.cache_info()
    assert info.misses == kklab.kk._RESULT_CACHE_SIZE + 2
    assert info.currsize == info.maxsize == kklab.kk._RESULT_CACHE_SIZE


@pytest.mark.parametrize("transform", [
    kk_re_from_im,
    kk_im_from_re,
    lambda s: kk_subtracted(s, 0.0, 0.5, 0.01),
    lambda s: kk_subtracted_at_infinity(s, 1.01, 1e-3),
], ids=["re-from-im", "im-from-re", "subtracted", "at-infinity"])
def test_error_estimate_is_read_only(std_lorentz, transform):
    for res in (transform(std_lorentz), transform(std_lorentz)):  # cold, then warm
        with pytest.raises(ValueError, match="read-only"):
            res.error_estimate[0] = 0.0
