import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from kklab import (
    ComplexIndexSpectrum,
    FrequencyGrid,
    GridUnit,
    NonIntegrableTailError,
    PoleIntegrand,
    PoleLocationError,
    QuadratureResult,
    TailFitError,
    TailModel,
    fit_tail,
    load_spectrum,
    pv_integrate,
    pv_semi_infinite,
    save_spectrum,
    tail_integral,
)
from kklab.pvquad import (_cubic_weights, _line_fit, difference_quotient, local_cubic_slope,
                          local_cubic_value, noise_floor, simpson_weights, tail_parity, top_decade)
from conftest import gaussian_closed_form, lorentz_closed_form, rule_in_40_digits

VALUE_ATOL = 1e-12  # the operators' bound against the rule in 40 digits


def pv_oracle(f, a, b, pole):
    """Principal value by adaptive quadrature with the Cauchy weight."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val, _ = quad(f, a, b, weight="cauchy", wvar=pole, limit=800,
                      epsabs=1e-13, epsrel=1e-13)
    return val


# --- analytic fixtures ------------------------------------------------------

def test_constant_symmetric_domain_cancels():
    nu = np.linspace(0.0, 2.0, 801)
    r = pv_integrate(PoleIntegrand.from_callable(np.ones_like, nu, 1.0))
    assert abs(r.value) < 1e-12


def test_constant_asymmetric_domain_is_log_ratio():
    nu = np.linspace(0.0, 3.0, 901)
    r = pv_integrate(PoleIntegrand.from_callable(np.ones_like, nu, 1.0))
    assert r.value == pytest.approx(np.log(2.0), abs=1e-12)


def test_identity_integrand_reduces_to_constant():
    nu = np.linspace(0.0, 2.0, 801)
    r = pv_integrate(PoleIntegrand.from_callable(lambda x: x, nu, 1.0))
    assert r.value == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("a,b,w", [(0.0, 2.0, 1.0), (0.5, 6.5, 2.25), (0.0, 10.0, 7.5)])
def test_affine_is_exact(a, b, w):
    nu = np.linspace(a, b, 517)
    r = pv_integrate(PoleIntegrand.from_callable(lambda x: 3.0 * x - 1.7, nu, w))
    exact = 3.0 * (b - a) + (3.0 * w - 1.7) * np.log(abs((b - w) / (a - w)))
    assert r.value == pytest.approx(exact, abs=1e-11)


@pytest.mark.parametrize("w", [0.37, 1.0, 2.9, 4.501])
def test_smooth_integrand_matches_adaptive_oracle(w):
    f = lambda x: np.exp(-x / 2.0) * (x + 0.3)
    nu = np.linspace(0.0, 5.0, 1001)
    r = pv_integrate(PoleIntegrand.from_callable(f, nu, w))
    assert r.value == pytest.approx(pv_oracle(f, 0.0, 5.0, w), abs=1e-8)


def test_pole_between_nodes_uses_interpolated_value():
    f = lambda x: 1.0 / (x + 2.0)
    nu = np.linspace(0.0, 5.0, 1000)  # even count: midpoints are not nodes
    w = float(nu[499] + nu[500]) / 2.0
    r = pv_integrate(PoleIntegrand.from_callable(f, nu, w))
    assert r.value == pytest.approx(pv_oracle(f, 0.0, 5.0, w), abs=1e-9)


def test_pole_outside_domain_plain_quadrature():
    f = lambda x: np.cos(x)
    nu = np.linspace(1.0, 4.0, 601)
    r = pv_integrate(PoleIntegrand.from_callable(f, nu, -0.5))
    truth, _ = quad(lambda x: np.cos(x) / (x + 0.5), 1.0, 4.0, epsabs=1e-14)
    assert r.value == pytest.approx(truth, abs=1e-10)
    assert r.tail_contribution == 0.0


def test_non_uniform_log_grid():
    f = lambda x: x / (1.0 + x ** 2)
    nu = np.geomspace(0.01, 100.0, 3000)
    w = 1.0
    r = pv_integrate(PoleIntegrand.from_callable(f, nu, w))
    assert r.value == pytest.approx(pv_oracle(f, 0.01, 100.0, w), abs=1e-7)


# --- the rule in 40 digits ---------------------------------------------------

@pytest.fixture(scope="module")
def csv_lorentz_300(tmp_path_factory):
    """The Lorentz spectrum on a 300-node log grid, read back from a CSV file."""
    nu = np.geomspace(1e-2, 1e2, 300)
    idx = lorentz_closed_form(nu)
    path = tmp_path_factory.mktemp("csv") / "l.csv"
    save_spectrum(ComplexIndexSpectrum(FrequencyGrid(nu, GridUnit.NORMALIZED),
                                       idx.real, idx.imag), path)
    return load_spectrum(path)


@pytest.mark.parametrize("part", ["re", "im"])
def test_pv_integrate_matches_its_rule_in_40_digits(csv_lorentz_300, part):
    # poles on the lowest and highest nodes a pole may take, on the two
    # nodes either side of the resonance at 1 and between; and midway
    # between nodes low, at the resonance and high
    nu, f = csv_lorentz_300.grid.values, getattr(csv_lorentz_300, part)
    poles = [*nu[[2, 75, 149, 150, 297]], *(0.5 * (nu[[3, 149, 295]] + nu[[4, 150, 296]]))]
    got = [pv_integrate(PoleIntegrand(nu, f, w)).value for w in poles]
    np.testing.assert_allclose(got, rule_in_40_digits(nu, f, poles), rtol=0.0, atol=VALUE_ATOL)


# --- pole placement errors --------------------------------------------------

def test_pole_at_endpoint_rejected():
    nu = np.linspace(0.0, 2.0, 100)
    with pytest.raises(PoleLocationError, match="endpoint"):
        pv_integrate(PoleIntegrand.from_callable(np.ones_like, nu, 2.0))


def test_pole_too_close_to_endpoint_rejected():
    nu = np.linspace(0.0, 2.0, 101)  # spacing 0.02
    with pytest.raises(PoleLocationError, match="half a grid spacing"):
        pv_integrate(PoleIntegrand.from_callable(np.ones_like, nu, 1.995))


def test_pole_needs_two_nodes_each_side():
    nu = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    with pytest.raises(PoleLocationError, match="2 nodes"):
        pv_integrate(PoleIntegrand(nu, np.ones(5), 0.5))


def test_pole_just_outside_domain_rejected():
    # near-singular endpoint is ill-conditioned from either side
    nu = np.linspace(0.0, 2.0, 101)
    with pytest.raises(PoleLocationError, match="half a grid spacing"):
        pv_integrate(PoleIntegrand.from_callable(np.ones_like, nu, 2.005))


# --- error estimates ---------------------------------------------------------

def test_error_estimates_are_conservative():
    cases = [
        ("inv", lambda x: 1.0 / (x + 2.0)),
        ("expx", lambda x: x * np.exp(-x / 3.0)),
        ("cos", np.cos),
        ("sq", lambda x: x ** 2),
        ("root", lambda x: np.sqrt(x + 1.0)),
        ("rat", lambda x: x / (1.0 + x ** 2)),
        ("gauss", lambda x: np.exp(-((x - 2.0) ** 2))),
    ]
    poles = [0.3, 0.7, 1.3, 2.5, 3.1, 3.9, 4.4]
    ok = 0
    total = 0
    for _, f in cases:
        for w in poles:
            nu = np.linspace(0.0, 5.0, 501)
            r = pv_integrate(PoleIntegrand.from_callable(f, nu, w))
            truth = pv_oracle(f, 0.0, 5.0, w)
            ok += abs(r.value - truth) <= 2.0 * r.error_estimate
            total += 1
    assert ok / total >= 0.95


def test_error_estimate_nonnegative():
    nu = np.linspace(0.0, 2.0, 101)
    r = pv_integrate(PoleIntegrand.from_callable(np.ones_like, nu, 1.0))
    assert r.error_estimate >= 0.0


# --- tail fitting -------------------------------------------------------------

def test_fit_exact_power_law():
    nu = np.geomspace(10.0, 100.0, 64)
    t = fit_tail(nu, nu ** -3.0)
    assert t.exponent == pytest.approx(3.0, abs=1e-10)
    assert t.amplitude == pytest.approx(1.0, abs=1e-10)
    assert t.cutoff == 100.0


def test_fit_zero_tail():
    nu = np.geomspace(10.0, 100.0, 16)
    t = fit_tail(nu, np.zeros(16))
    assert t.amplitude == 0.0


def test_fit_negative_amplitude():
    nu = np.geomspace(10.0, 100.0, 32)
    t = fit_tail(nu, -0.5 * nu ** -2.0)
    assert t.amplitude == pytest.approx(-0.5, rel=1e-10)
    assert t.exponent == pytest.approx(2.0, abs=1e-10)


def test_fit_lorentz_im_tail_exponent_near_three(std_lorentz):
    nu = std_lorentz.grid.values
    sel = nu >= nu[-1] / 10.0
    t = fit_tail(nu[sel], std_lorentz.im[sel])
    assert abs(t.exponent - 3.0) / 3.0 < 0.05


def test_fit_rejects_sign_alternation():
    nu = np.geomspace(10.0, 100.0, 32)
    f = nu ** -3.0 * np.cos(nu)
    with pytest.raises(TailFitError, match="sign"):
        fit_tail(nu, f)


def test_noise_floor_estimates_white_noise():
    nu = np.geomspace(1e-2, 1e2, 4096)
    rng = np.random.default_rng(7)
    floor = noise_floor(nu, 3e-7 * rng.standard_normal(nu.size))
    assert floor == pytest.approx(5 * 3e-7, rel=0.1)


def test_noise_floor_leaves_clean_fit_unchanged(std_lorentz):
    nu = std_lorentz.grid.values
    sel = nu >= nu[-1] / 10.0
    floor = noise_floor(nu, std_lorentz.im)
    assert 0.0 < floor < 0.05 * np.min(np.abs(std_lorentz.im[sel]))
    assert fit_tail(nu[sel], std_lorentz.im[sel], floor) == fit_tail(nu[sel], std_lorentz.im[sel])


@given(st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=40))
def test_noise_floor_takes_numpys_median(samples):
    # odd and even counts of second differences, ties included: the
    # partition median is np.median's to the last bit
    f = np.array(samples)
    nu = np.geomspace(11.0, 100.0, f.size)  # every node in the top decade
    d2 = f[2:] - 2.0 * f[1:-1] + f[:-2]
    want = 5.0 * 1.4826 * float(np.median(np.abs(d2))) / np.sqrt(6.0)
    assert noise_floor(nu, f).hex() == want.hex()


def test_fit_drops_samples_under_the_floor():
    nu = np.geomspace(10.0, 100.0, 64)
    f = 2.0 * nu ** -3.0
    f[-10:] = 1e-9 * (-1.0) ** np.arange(10)  # noise where the tail vanishes
    with pytest.raises(TailFitError, match="sign"):
        fit_tail(nu, f)
    t = fit_tail(nu, f, floor=1e-8)
    assert t.exponent == pytest.approx(3.0, rel=1e-9)
    assert t.amplitude == pytest.approx(2.0, rel=1e-9)


def test_fit_rejects_shallow_exponent():
    nu = np.geomspace(10.0, 100.0, 32)
    with pytest.raises(NonIntegrableTailError) as exc:
        fit_tail(nu, nu ** -0.5)
    assert exc.value.exponent == pytest.approx(0.5, abs=1e-9)


def test_fit_rejects_too_few_or_narrow():
    with pytest.raises(TailFitError, match="8"):
        fit_tail(np.geomspace(10, 100, 7), np.ones(7))
    with pytest.raises(TailFitError, match="factor"):
        fit_tail(np.geomspace(10, 20, 12), np.geomspace(10, 20, 12) ** -2.0)


def _lstsq_line(x, y):
    """a, b, residuals and inv(D^T D)[0, 0] of the line y ~ a + b x by
    np.linalg.lstsq and inv, on the design D = [1, x] with its x column
    scaled to 1 as np.polyfit scales it: unscaled, lstsq's default rcond
    drops a 1/nu^2 column at SI scale."""
    scale = np.max(np.abs(x))
    design = np.column_stack([np.ones_like(x), x / scale])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return coef[0], coef[1] / scale, y - design @ coef, np.linalg.inv(design.T @ design)[0, 0]


@settings(max_examples=200, deadline=None)
@given(size=st.integers(3, 500), inverse_square=st.booleans(), top=st.floats(1e-3, 1e16),
       line=st.tuples(*[st.floats(-10.0, 10.0).filter(lambda v: v == 0.0 or abs(v) >= 1e-6)] * 2),
       noise=st.one_of(st.just(0.0), st.floats(1e-12, 1e-2)), seed=st.integers(0, 2 ** 32 - 1))
def test_line_fit_matches_lstsq(size, inverse_square, top, line, noise, seed):
    # x as the tail fit takes it, log nu, or as the asymptote fit, 1/nu^2,
    # over a top decade up to SI frequencies; the slope is drawn against
    # x's own range. Data near the underflow threshold would leave no digits
    # to compare, so the line and the noise are 0 or of a size data takes.
    nu = np.geomspace(top / 10.0, top, size)
    x = 1.0 / nu ** 2 if inverse_square else np.log(nu)
    a, b = line
    y = a + b * x / np.max(np.abs(x)) + noise * np.random.default_rng(seed).standard_normal(size)
    tol = 1e-10 * np.max(np.abs(y))
    got_a, got_b, got_resid, got_cov = _line_fit(x, y)
    want_a, want_b, want_resid, want_cov = _lstsq_line(x, y)
    assert abs(got_a - want_a) <= tol
    assert abs(got_b - want_b) * np.max(np.abs(x)) <= tol
    assert np.max(np.abs(got_resid - want_resid)) <= tol
    assert got_cov == pytest.approx(want_cov, rel=1e-10)


# --- tail integral -------------------------------------------------------------

def test_tail_integral_zero_amplitude():
    assert tail_integral(TailModel(2.0, 0.0, 10.0), 3.0) == 0.0


def test_tail_integral_zero_pole():
    # int_10^inf nu^-3 dnu = 1/200
    assert tail_integral(TailModel(2.0, 1.0, 10.0), 0.0) == pytest.approx(0.005, rel=1e-14)


def test_tail_integral_matches_brute_force():
    # int_10^inf nu^-2/(nu - 1) dnu; adaptive oracle frozen at
    # 0.005360515657826302 (closed form -(ln 0.9 + 0.1))
    got = tail_integral(TailModel(2.0, 1.0, 10.0), 1.0)
    assert got == pytest.approx(0.005360515657826302, rel=1e-12)
    live, _ = quad(lambda x: x ** -2.0 / (x - 1.0), 10.0, np.inf,
                   epsabs=1e-15, epsrel=1e-14)
    assert got == pytest.approx(live, rel=1e-10)


def test_tail_integral_negative_pole_mirror_kernel():
    got = tail_integral(TailModel(2.0, 1.0, 10.0), -1.0)
    live, _ = quad(lambda x: x ** -2.0 / (x + 1.0), 10.0, np.inf,
                   epsabs=1e-15, epsrel=1e-14)
    assert got == pytest.approx(live, rel=1e-10)


def test_tail_integral_divergence_guard():
    with pytest.raises(ValueError, match="converge"):
        tail_integral(TailModel(2.0, 1.0, 10.0), 10.0)


def test_tail_integral_near_cutoff_pole_still_converges():
    got = tail_integral(TailModel(2.0, 1.0, 10.0), 9.99)
    live, _ = quad(lambda x: x ** -2.0 / (x - 9.99), 10.0, np.inf,
                   epsabs=1e-15, epsrel=1e-14)
    assert got == pytest.approx(live, rel=1e-10)


def test_fit_rejects_nonfinite_samples():
    nu = np.geomspace(10.0, 100.0, 16)
    f = nu ** -2.0
    f[3] = np.inf
    with pytest.raises(TailFitError, match="finite"):
        fit_tail(nu, f)


def test_tail_model_validation():
    with pytest.raises(ValueError, match="> 0"):
        TailModel(0.0, 1.0, 10.0)
    with pytest.raises(ValueError, match="cutoff"):
        TailModel(2.0, 1.0, -1.0)
    # exponent 1 is constructible: the combined kernel stays integrable
    TailModel(1.0, 1.0, 10.0)


TAIL_NU = np.geomspace(10.0, 100.0, 16)
# the top decade of a Gaussian line (0.1, 3, 0.3) on 2048 log nodes on
# 0.01-100: values of 1e-64 down to 0
LOG_NU = np.geomspace(1e-2, 1e2, 2048)
TOP = top_decade(LOG_NU)
GAUSSIAN_TOP = LOG_NU[TOP], gaussian_closed_form(LOG_NU, 0.1, 3.0, 0.3).imag[TOP]
# a pole 1e-9 below the cutoff: the series ratio is 1 - 1e-9
NEAR_CUTOFF = TailModel(2.0, 1.0, 1.0), 1.0 - 1e-9


@pytest.mark.parametrize("call, error, message", [
    (lambda: PoleIntegrand(np.arange(3.0), np.zeros(3), 0.5), ValueError, "need >= 4 nodes"),
    (lambda: PoleIntegrand(np.arange(5.0), np.zeros(4), 0.5), ValueError,
     "values must match node count"),
    (lambda: PoleIntegrand(np.arange(5.0), np.r_[0.0, np.nan, 0.0, 0.0, 0.0], 0.5), ValueError,
     "nodes and values must be finite"),
    (lambda: PoleIntegrand(np.r_[0.0, 1.0, 1.0, 2.0, 3.0], np.zeros(5), 0.5), ValueError,
     "nodes must be strictly increasing"),
    (lambda: PoleIntegrand(np.arange(5.0), np.zeros(5), np.nan), ValueError,
     "pole must be finite"),
    (lambda: TailModel(2.0, np.inf, 10.0), ValueError, "tail parameters must be finite"),
    (lambda: QuadratureResult(1.0, -1e-300), ValueError, "error_estimate must be >= 0"),
    (lambda: simpson_weights(np.arange(2.0)), ValueError, "Simpson weights need >= 3 nodes"),
    (lambda: fit_tail(np.linspace(0.0, 100.0, 16), np.ones(16)), TailFitError,
     "tail nodes must be positive and strictly increasing"),
    (lambda: fit_tail(np.r_[TAIL_NU[:8], TAIL_NU[7:]], np.ones(17)), TailFitError,
     "tail nodes must be positive and strictly increasing"),
    (lambda: fit_tail(TAIL_NU, np.where(np.arange(16) == 3, 1.0, 0.0)), TailFitError,
     "too few samples above the floor"),
    (lambda: fit_tail(*GAUSSIAN_TOP), TailFitError, "decay far faster than any power law"),
    (lambda: tail_integral(*NEAR_CUTOFF), ValueError, "tail series failed to converge"),
    (lambda: tail_parity(NEAR_CUTOFF[0], np.array([NEAR_CUTOFF[1]]), False), ValueError,
     "too close to 1"),
], ids=["integrand 3 nodes", "integrand shapes", "integrand nan", "integrand nodes repeat",
        "integrand nan pole", "tail model inf", "negative estimate", "simpson 2 nodes",
        "tail node 0", "tail nodes repeat", "one tail sample", "gaussian top decade",
        "tail series", "tail parity series"])
def test_input_guards(call, error, message):
    with pytest.raises(error, match=message):
        call()


# --- semi-infinite composition ---------------------------------------------

def test_semi_infinite_identity():
    # P int_0^inf dnu/(nu^2 - w^2) = 0; factor the integrand through
    # f(nu) = 1/(nu + w) with pole +w and close with a p = 1 tail.
    w = 1.0
    nu = np.unique(np.concatenate([np.linspace(0.0, 10.0, 4001),
                                   np.geomspace(10.0, 2000.0, 1500)]))
    f = PoleIntegrand.from_callable(lambda x: 1.0 / (x + w), nu, w)
    res = pv_semi_infinite(f, TailModel(exponent=1.0, amplitude=1.0, cutoff=2000.0))
    assert abs(res.value) < 1e-6
    assert res.tail_contribution > 0.0


# --- local cubic rule -----------------------------------------------------------

_gap = st.floats(0.2, 1.0)


@given(st.floats(-10.0, 10.0), st.tuples(_gap, _gap, _gap), st.floats(1e-3, 1e3),
       st.floats(0.0, 1.0), st.tuples(*[st.floats(-2.0, 2.0)] * 4))
def test_cubic_rule_reproduces_cubics(x0, gaps, scale, t, coef):
    # a strictly increasing 4-node stencil, any point between its ends or
    # on one of its nodes, and any cubic: the value and slope weights
    # reproduce it and its derivative to rounding
    xs = x0 + scale * np.concatenate([[0.0], np.cumsum(gaps)])
    h = xs[-1] - xs[0]
    # the cubic in the stencil's own coordinate, evaluated exactly and
    # rounded once, so that the samples and the reference values carry no
    # rounding of their own: a float evaluation of u^2 - u^3 near u = 1
    # cancels to 1.11e-16 where the cubic is 1.48e-16
    cubic = np.polynomial.Polynomial(coef)

    def exact(poly, x):
        u = (Fraction(x) - Fraction(xs[0])) / Fraction(h)
        return float(sum(Fraction(c) * u ** i for i, c in enumerate(poly.coef)))

    f = np.array([exact(cubic, x) for x in xs])
    for x in [*xs, xs[0] + t * h]:
        value, slope = (_cubic_weights(xs[:, None], np.array([x]), s)[:, 0]
                        for s in (False, True))
        assert local_cubic_value(xs, f, x) == pytest.approx(
            exact(cubic, x), rel=0, abs=1e-13 * np.sum(np.abs(value * f)) + 1e-300)
        assert local_cubic_slope(xs, f, x) == pytest.approx(
            exact(cubic.deriv(), x) / h, rel=0,
            abs=1e-13 * np.sum(np.abs(slope * f)) + 1e-300)
        assert abs(np.sum(value) - 1.0) <= 1e-13 * np.sum(np.abs(value))
        assert abs(np.sum(slope)) <= 1e-13 * np.sum(np.abs(slope))


# --- singular difference quotient ---------------------------------------------
#
# difference_quotient replaced quotients built inline by pv_integrate,
# kk_subtracted and the w = 0 node of kk_subtracted_at_infinity. The
# references below are those constructions; the one rule must give their bits.

def reference_quotient(nu, f, x, fx):
    """pv_integrate's and kk_subtracted's quotient (f - fx)/(nu - x)."""
    dist = nu - x
    hit = np.flatnonzero(np.abs(dist) <= 1e-13 * max(abs(nu[0]), abs(nu[-1])))
    with np.errstate(divide="ignore", invalid="ignore"):
        q = (f - fx) / dist
    for idx in hit:
        q[idx] = local_cubic_slope(nu, f, x)
    return q


def reference_quotient_at_zero(nu, g):
    """kk_subtracted_at_infinity's quotient g/nu at its w = 0 node, nu[0] = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        q = g / nu
    q[0] = local_cubic_slope(nu, g, 0.0)
    return q


@st.composite
def _grid_and_values(draw, start=st.floats(-100.0, 100.0)):
    """A strictly increasing grid of 6-40 nodes and values on it."""
    gaps = draw(st.lists(st.floats(1e-3, 10.0), min_size=5, max_size=39))
    nu = draw(start) + np.concatenate([[0.0], np.cumsum(gaps)])
    f = draw(st.lists(st.floats(-1e3, 1e3), min_size=nu.size, max_size=nu.size))
    return nu, np.array(f)


@given(_grid_and_values(), st.data())
def test_difference_quotient_on_a_node(grid, data):
    nu, f = grid
    i = data.draw(st.integers(1, nu.size - 2))
    assert difference_quotient(nu, f, nu[i], f[i]).tobytes() == \
        reference_quotient(nu, f, nu[i], f[i]).tobytes()


# x well inside an interval, or close enough to its left node to fall
# within the node tolerance
@given(_grid_and_values(), st.data(), st.one_of(st.floats(0.01, 0.99), st.floats(1e-16, 1e-11)),
       st.floats(-1e3, 1e3))
def test_difference_quotient_between_nodes(grid, data, t, fx):
    nu, f = grid
    i = data.draw(st.integers(0, nu.size - 2))
    x = nu[i] + t * (nu[i + 1] - nu[i])
    assert difference_quotient(nu, f, x, fx).tobytes() == \
        reference_quotient(nu, f, x, fx).tobytes()


@given(_grid_and_values(start=st.just(0.0)))
def test_difference_quotient_at_zero(grid):
    nu, g = grid
    assert difference_quotient(nu, g, 0.0, 0.0).tobytes() == \
        reference_quotient_at_zero(nu, g).tobytes()
