import math

import numpy as np
import pytest

from kklab import (
    FrequencyGrid,
    GridUnit,
    LorentzOscillatorParams,
    PhysicalConstants,
    lorentz_index,
    scharnhorst_index_parallel,
    scharnhorst_index_perp,
)
from conftest import lorentz_closed_form


def test_constants_defaults():
    c = PhysicalConstants()
    assert c.c == 2.99792458e8
    assert c.alpha == pytest.approx(1.0 / 137.0)
    assert c.lambda_c == 3.9e-13
    assert c.k_coeff == 1e-2


def test_constants_validation():
    with pytest.raises(ValueError):
        PhysicalConstants(c=-1.0)
    with pytest.raises(ValueError):
        PhysicalConstants(alpha=0.0)
    with pytest.raises(ValueError):
        PhysicalConstants(k_coeff=-1e-3)
    # k_coeff = 0 switches the vacuum shift off and must be constructible
    assert PhysicalConstants(k_coeff=0.0).k_coeff == 0.0


@pytest.mark.parametrize("field", ["c", "alpha", "lambda_c", "k_coeff"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_constants_reject_non_finite(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        PhysicalConstants(**{field: value})


def test_lorentz_param_validation():
    with pytest.raises(ValueError):
        LorentzOscillatorParams(-0.1, 1.0, 0.1)
    with pytest.raises(ValueError):
        LorentzOscillatorParams(1.0, 0.0, 0.1)
    with pytest.raises(ValueError):
        LorentzOscillatorParams(1.0, 1.0, 0.0)


def test_lorentz_no_oscillators_is_vacuum():
    g = FrequencyGrid.log_spaced(0.1, 10, 32, GridUnit.NORMALIZED)
    s = lorentz_index(LorentzOscillatorParams(0.0, 1.0, 0.1), g)
    np.testing.assert_array_equal(s.re, 1.0)
    np.testing.assert_array_equal(s.im, 0.0)


def test_lorentz_at_resonance():
    g = FrequencyGrid([0.5, 1.0, 2.0], GridUnit.NORMALIZED)
    s = lorentz_index(LorentzOscillatorParams(1.0, 1.0, 0.1), g)
    assert s.re[1] == pytest.approx(1.0, abs=1e-15)
    assert s.im[1] == pytest.approx(1.0 / (2 * 0.1 * 1.0), rel=1e-15)
    # peak |n|^2 at resonance: 1 + 25
    assert s.re[1] ** 2 + s.im[1] ** 2 == pytest.approx(26.0, rel=1e-14)


def test_lorentz_matches_closed_form_everywhere():
    g = FrequencyGrid.log_spaced(1e-2, 1e2, 200, GridUnit.NORMALIZED)
    s = lorentz_index(LorentzOscillatorParams(1.0, 1.0, 0.1), g)
    n = lorentz_closed_form(g.values)
    np.testing.assert_allclose(s.re, n.real, rtol=1e-14)
    np.testing.assert_allclose(s.im, n.imag, rtol=1e-14)


def test_lorentz_high_frequency_tail_cubed():
    # Im n ~ gamma * omega_p^2 / (2 nu^3): log-log slope -> -3
    g = FrequencyGrid.log_spaced(1e2, 1e4, 128, GridUnit.NORMALIZED)
    s = lorentz_index(LorentzOscillatorParams(1.0, 1.0, 0.1), g)
    slope = np.polyfit(np.log(g.values), np.log(s.im), 1)[0]
    assert slope == pytest.approx(-3.0, abs=1e-3)
    amp = s.im * g.values ** 3
    np.testing.assert_allclose(amp, 0.1 / 2.0, rtol=1e-3)


def test_lorentz_drude_limit_via_tiny_resonance():
    # omega_res -> 0 recovers the free-carrier form 1 - (wp^2/2)/(w^2 + i g w)
    g = FrequencyGrid.log_spaced(0.1, 10, 64, GridUnit.NORMALIZED)
    s = lorentz_index(LorentzOscillatorParams(1.0, 1e-9, 0.2), g)
    w = g.values
    expected = 1.0 + 0.5 / (-w ** 2 - 1j * 0.2 * w)
    np.testing.assert_allclose(s.re, expected.real, atol=1e-12)
    np.testing.assert_allclose(s.im, expected.imag, atol=1e-12)
    assert np.all(s.im > 0)


def test_lorentz_passivity():
    g = FrequencyGrid.log_spaced(1e-3, 1e3, 512, GridUnit.NORMALIZED)
    for prm in [(1.0, 1.0, 0.1), (0.3, 0.5, 0.4), (2.0, 2.0, 1.5)]:
        s = lorentz_index(LorentzOscillatorParams(*prm), g)
        assert np.all(s.im > 0.0)


def test_perp_index_anchor_value():
    # 1 - k alpha^2 at L = lambda_c
    c = PhysicalConstants()
    n = scharnhorst_index_perp(c.lambda_c, c)
    assert 1.0 - n == pytest.approx(5.327934359848686e-07, rel=1e-12)


def test_perp_index_micron_value():
    c = PhysicalConstants()
    n = scharnhorst_index_perp(1e-6, c)
    assert 1.0 - n == pytest.approx(1.2325861793382707e-32, rel=1e-10)


def test_perp_index_limits_and_monotonicity():
    c = PhysicalConstants()
    # strict monotonicity where the shift is representable in float64
    Ls = np.geomspace(1e-13, 3e-11, 40)
    vals = np.array([scharnhorst_index_perp(L, c) for L in Ls])
    assert np.all(np.diff(vals) > 0)
    assert np.all(vals < 1.0)
    # for macroscopic separations the index saturates at unity from below
    assert scharnhorst_index_perp(1e-3, c) == pytest.approx(1.0, abs=1e-15)


def test_perp_index_quartic_scaling():
    # slope of log(1 - n_perp) vs log L is -4; the subtraction 1 - n_perp is
    # only clean in float64 while the shift stays well above machine epsilon,
    # so probe that window here (the six-decade sweep runs on delta_c_over_c,
    # which carries no cancellation)
    c = PhysicalConstants()
    Ls = np.geomspace(2e-14, 2e-13, 25)
    depth = np.log([1.0 - scharnhorst_index_perp(L, c) for L in Ls])
    slopes = np.diff(depth) / np.diff(np.log(Ls))
    assert np.max(np.abs(slopes + 4.0)) < 1e-9


def test_velocity_shift_quartic_scaling_six_decades():
    from kklab import delta_c_over_c
    c = PhysicalConstants()
    Ls = np.geomspace(1e-15, 1e-9, 25)
    depth = np.log([delta_c_over_c(L, c) for L in Ls])
    slopes = np.diff(depth) / np.diff(np.log(Ls))
    assert np.max(np.abs(slopes + 4.0)) < 1e-9


def test_perp_index_flags_nonpositive():
    c = PhysicalConstants()
    with pytest.warns(UserWarning, match="weak-shift"):
        n = scharnhorst_index_perp(1e-15, c)
    assert n < 0.0  # flagged, not clamped


def test_perp_index_rejects_nonpositive_length():
    with pytest.raises(ValueError):
        scharnhorst_index_perp(0.0, PhysicalConstants())


@pytest.mark.parametrize("L", [math.nan, math.inf])
def test_perp_index_rejects_non_finite_length(L):
    with pytest.raises(ValueError, match="finite"):
        scharnhorst_index_perp(L, PhysicalConstants())


def test_parallel_index_is_unity():
    assert scharnhorst_index_parallel() == 1.0
