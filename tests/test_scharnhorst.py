import math

import numpy as np
import pytest
from scipy.optimize import brentq

from kklab import (
    ClockComparison,
    DegenerateClockError,
    LightClockScenario,
    Orientation,
    PhysicalConstants,
    ScharnhorstScenario,
    delta_c_over_c,
    delta_v,
    format_length_scale_table,
    invariant_length,
    length_scale_table,
    light_clock_tick,
    measurability_ratio,
)

C = PhysicalConstants()
KA2 = C.k_coeff * C.alpha ** 2


# --- velocity shift -----------------------------------------------------------

def test_shift_vanishes_for_large_separation():
    assert delta_c_over_c(1.0, C) < 1e-40


def test_shift_anchor_at_compton_wavelength():
    assert delta_c_over_c(C.lambda_c, C) == pytest.approx(5.327934359848686e-07, rel=1e-12)


def test_shift_femtometer_value():
    assert delta_c_over_c(1e-15, C) == pytest.approx(12325.861793382704, rel=1e-10)


def test_shift_rejects_nonpositive_L():
    with pytest.raises(ValueError):
        delta_c_over_c(0.0, C)


def test_shift_overflow_is_value_error():
    # (lambda_c/L)^4 overflows a float: a diagnostic naming L, not OverflowError
    with pytest.raises(ValueError, match="L = 1e-300"):
        delta_c_over_c(1e-300, C)
    with pytest.raises(ValueError, match="L = 1e-300"):
        light_clock_tick(LightClockScenario(1e-300, 0.3, Orientation.PARALLEL, C))


@pytest.mark.parametrize("call", [
    lambda: delta_c_over_c(math.nan, C),
    lambda: delta_c_over_c(math.inf, C),
    lambda: delta_v(math.nan, 1e-6, C),
    lambda: delta_v(1e-6, math.inf, C),
    lambda: ScharnhorstScenario(math.nan, C.lambda_c, C),
    lambda: ScharnhorstScenario(1e-6, math.inf, C),
    lambda: LightClockScenario(math.inf, 0.3, Orientation.PARALLEL, C),
    lambda: LightClockScenario(math.nan, 0.3, Orientation.PARALLEL, C),
], ids=["shift L nan", "shift L inf", "delta_v L nan", "delta_v wavelength inf",
        "scenario L nan", "scenario probe inf", "clock L inf", "clock L nan"])
def test_non_finite_inputs_rejected(call):
    with pytest.raises(ValueError, match="finite"):
        call()


# --- measurement floor ----------------------------------------------------------

def test_uncertainty_equals_c_at_equal_scales():
    assert delta_v(1e-6, 1e-6, C) == C.c


def test_uncertainty_direct_substitution():
    got = delta_v(10.0 * C.lambda_c, C.lambda_c, C)
    assert got == pytest.approx(C.c / 10.0, rel=1e-15)


def test_uncertainty_vanishes_for_long_baseline():
    assert delta_v(1.0, C.lambda_c, C) < 1e-3


# --- measurability ratio ----------------------------------------------------------

def test_ratio_coefficient_at_anchor():
    s = ScharnhorstScenario(C.lambda_c, C.lambda_c, C)
    assert measurability_ratio(s) == pytest.approx(1.0 / KA2, rel=1e-9)
    assert measurability_ratio(s) == pytest.approx(1876900.0, rel=1e-9)


def test_ratio_cubic_scaling():
    r1 = measurability_ratio(ScharnhorstScenario(C.lambda_c, C.lambda_c, C))
    r10 = measurability_ratio(ScharnhorstScenario(10.0 * C.lambda_c, C.lambda_c, C))
    assert r10 / r1 == pytest.approx(1000.0, rel=1e-12)


def test_ratio_monotone_and_unmeasurable():
    Ls = np.geomspace(C.lambda_c, 1e6 * C.lambda_c, 40)
    ratios = [measurability_ratio(ScharnhorstScenario(L, C.lambda_c, C)) for L in Ls]
    assert all(np.diff(ratios) > 0)
    assert all(r > 1e6 for r in ratios)


@pytest.mark.parametrize("L, constants", [
    (1e-6, PhysicalConstants(k_coeff=0.0)),  # the vacuum effect switched off
    (1e100, C),  # (lambda_c/L)^4 underflows to 0
], ids=["k_coeff 0", "shift underflows"])
def test_ratio_infinite_without_shift(L, constants):
    assert measurability_ratio(ScharnhorstScenario(L, constants.lambda_c, constants)) == math.inf


# --- invariant length ---------------------------------------------------------------

@pytest.mark.parametrize("call, message", [
    (lambda: invariant_length(0.0, C), "target_ratio must be > 0"),
    (lambda: invariant_length(-1e-6, C), "target_ratio must be > 0"),
    (lambda: invariant_length(1e-6, PhysicalConstants(k_coeff=0.0)),
     "k_coeff = 0: no length reaches a positive shift"),
], ids=["target 0", "target negative", "k_coeff 0"])
def test_input_guards(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_invariant_length_anchor_inversion():
    assert invariant_length(KA2, C) == pytest.approx(C.lambda_c, rel=1e-12)


def test_invariant_length_for_order_one_shift():
    L = invariant_length(1.0, C)
    assert L == pytest.approx(1.0536692925686834e-14, rel=1e-12)
    assert 1e-15 <= L <= 1e-13  # order femtometer


def test_invariant_length_round_trip():
    for L in np.geomspace(1e-15, 1e-6, 12):
        assert invariant_length(delta_c_over_c(L, C), C) == pytest.approx(L, rel=1e-12)


def test_invariant_length_literature_normalization_gap():
    # inverting the literature micron-scale value lands near 9.4 um, not 1 um:
    # the same ~1e4 normalization gap, surfaced rather than hidden
    assert invariant_length(1.6e-36, C) == pytest.approx(9.368592039825836e-06, rel=1e-10)


# --- table ---------------------------------------------------------------------------

@pytest.mark.filterwarnings("ignore:n_perp")
def test_length_scale_table_rows():
    rows = length_scale_table([1e-6, 1e-15], C)
    assert len(rows) == 2
    assert rows[0].delta_c_over_c == pytest.approx(1.2325861793382707e-32, rel=1e-10)
    assert rows[1].delta_c_over_c == pytest.approx(12325.861793382704, rel=1e-10)
    ratio = rows[1].delta_c_over_c / rows[0].delta_c_over_c
    assert ratio == pytest.approx(1e36, rel=1e-12)


def test_single_row_anchor():
    rows = length_scale_table([C.lambda_c], C)
    assert rows[0].delta_c_over_c == pytest.approx(KA2, rel=1e-14)


@pytest.mark.filterwarnings("ignore:n_perp")
def test_table_csv_format():
    text = format_length_scale_table(length_scale_table([1e-6, 1e-15], C))
    lines = text.splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    assert any("1.6e-36" in ln for ln in comments)
    assert any("1.5e6" in ln for ln in comments)
    header_idx = len(comments)
    assert lines[header_idx] == "L_m,delta_c_over_c,measurability_ratio,n_perp"
    assert len(lines) == header_idx + 3


# --- light clock ------------------------------------------------------------------------

def brute_force_perpendicular_tick(L, beta, constants):
    """Event-stepping oracle: mirror worldlines crossed by root finding."""
    c = constants.c
    gamma = 1.0 / math.sqrt(1.0 - beta * beta)
    Lp = L / gamma
    v = beta * c
    d = constants.k_coeff * constants.alpha ** 2 * (constants.lambda_c / Lp) ** 4
    w = c * (1.0 + d)
    u_fwd = (w + v) / (1.0 + w * v / c ** 2)
    u_bwd = (v - w) / (1.0 - w * v / c ** 2)  # signed return velocity
    T = Lp / c
    t1 = brentq(lambda t: u_fwd * t - (Lp + v * t), 1e-12 * T, 1e6 * T,
                xtol=1e-35, rtol=1e-15)
    x1 = u_fwd * t1
    t2 = brentq(lambda t: x1 + u_bwd * (t - t1) - v * t, t1 * (1 + 1e-15), 1e7 * T,
                xtol=1e-35, rtol=1e-15)
    return t2


def test_zero_boost_is_exact_identity():
    cc = light_clock_tick(LightClockScenario(1e-6, 0.0, Orientation.PERPENDICULAR, C))
    assert cc.tick_moving_direct == cc.tick_rest == cc.tick_moving_sr
    assert cc.inconsistency == 0.0


@pytest.mark.parametrize("beta", [0.0, 0.3, 0.6, 0.9])
@pytest.mark.parametrize("orientation", list(Orientation))
def test_pure_sr_recovered_when_shift_off(beta, orientation):
    c0 = PhysicalConstants(k_coeff=0.0)
    cc = light_clock_tick(LightClockScenario(1e-14, beta, orientation, c0))
    assert cc.inconsistency < 1e-12


def test_parallel_textbook_dilation_without_shift():
    c0 = PhysicalConstants(k_coeff=0.0)
    L, beta = 0.5, 0.8
    cc = light_clock_tick(LightClockScenario(L, beta, Orientation.PARALLEL, c0))
    gamma = 1.0 / math.sqrt(1.0 - beta ** 2)
    assert cc.tick_moving_direct == pytest.approx(gamma * 2.0 * L / c0.c, rel=1e-14)


def test_perpendicular_frozen_oracle():
    # L = 10 fm, beta = 0.3: construction valid (leg speed 2.49c < c/beta)
    sc = LightClockScenario(1e-14, 0.3, Orientation.PERPENDICULAR, C)
    cc = light_clock_tick(sc)
    assert cc.inconsistency > 0.0
    assert cc.inconsistency == pytest.approx(0.10282087896386442, rel=1e-10)
    live = brute_force_perpendicular_tick(1e-14, 0.3, C)
    assert cc.tick_moving_direct == pytest.approx(live, rel=1e-10)


def test_perpendicular_degenerate_guard():
    # at beta = 0.6 the contracted-gap shift pushes the leg to 4.01c >= c/beta
    with pytest.raises(DegenerateClockError, match="degenerates"):
        light_clock_tick(LightClockScenario(1e-14, 0.6, Orientation.PERPENDICULAR, C))


@pytest.mark.parametrize("L", np.geomspace(1e-50, 4e-53, 7).tolist())
def test_parallel_clock_keeps_the_root_where_it_is_finite(L):
    # across the switch to the root's rounded value s = 1 + delta (near
    # L = 3e-52), up to where s ** 2 overflows (near L = 3e-53)
    sc = LightClockScenario(L, 0.3, Orientation.PARALLEL, C)
    s = 1.0 + delta_c_over_c(L, C)
    assert light_clock_tick(sc).tick_moving_direct == 2.0 * L / C.c / math.sqrt(s ** 2 - 0.09)


def test_parallel_clock_at_tiny_separation():
    # delta = 1.2e200: the tilted path's root must not square the leg speed
    cc = light_clock_tick(LightClockScenario(1e-64, 0.3, Orientation.PARALLEL, C))
    assert cc.tick_moving_direct == pytest.approx(5.412426340480793e-273, rel=1e-15)
    assert cc.tick_moving_direct == pytest.approx(cc.tick_rest, rel=1e-15)
    assert cc.inconsistency == pytest.approx(1.0 - math.sqrt(1.0 - 0.09), rel=1e-12)


def test_parallel_inconsistency_increases_with_beta():
    sc_consts = PhysicalConstants()
    L = 1e-13  # small shift: delta ~ 1.2e-4
    prev = -1.0
    for beta in np.linspace(0.05, 0.9, 12):
        cc = light_clock_tick(LightClockScenario(L, beta, Orientation.PARALLEL, sc_consts))
        assert cc.inconsistency > prev
        prev = cc.inconsistency


def test_perpendicular_inconsistency_continuous_in_beta():
    L = 1e-13
    betas = np.linspace(0.01, 0.5, 20)
    vals = [light_clock_tick(LightClockScenario(L, b, Orientation.PERPENDICULAR, C)).inconsistency
            for b in betas]
    assert vals[0] < 1e-3
    assert all(np.diff(vals) > 0)


def test_scenario_validation():
    with pytest.raises(ValueError):
        LightClockScenario(0.0, 0.5, Orientation.PARALLEL, C)
    with pytest.raises(ValueError):
        LightClockScenario(1e-6, 1.0, Orientation.PARALLEL, C)
    with pytest.raises(ValueError):
        ScharnhorstScenario(-1.0, 1e-6, C)


def test_clock_comparison_validation():
    with pytest.raises(ValueError):
        ClockComparison(0.0, 1.0, 1.0, 0.0)
