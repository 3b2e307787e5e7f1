import importlib.util
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from kklab import (
    AsymptoteFitError,
    ComplexIndexSpectrum,
    Dichotomy,
    FrequencyGrid,
    GridUnit,
    LorentzOscillatorParams,
    TailModel,
    audit,
    causality,
    check_bounded,
    detect_amplification,
    estimate_asymptote,
    lorentz_index,
    pvquad,
    resample,
)
from conftest import gaussian_closed_form


def _sparse_top(extra):
    # a 200-node grid to 5 plus the top nodes ``extra``: only those lie in
    # the top decade
    nu = np.concatenate([np.geomspace(1e-2, 5.0, 200), extra])
    return lorentz_index(LorentzOscillatorParams(1.0, 1.0, 0.1),
                         FrequencyGrid(nu, GridUnit.NORMALIZED))


def _const(grid, re, im=0.0):
    n = grid.size
    return ComplexIndexSpectrum(grid, np.full(n, re), np.full(n, im))


# --- asymptote -----------------------------------------------------------------

def test_asymptote_of_unity(std_grid):
    value, unc = estimate_asymptote(_const(std_grid, 1.0))
    assert value == pytest.approx(1.0, abs=1e-12)
    assert unc == pytest.approx(0.0, abs=1e-12)


def test_asymptote_of_lorentz(std_lorentz):
    value, unc = estimate_asymptote(std_lorentz)
    assert abs(value - 1.0) <= 3.0 * unc
    assert unc < 1e-4


def test_asymptote_of_constant_09(std_grid):
    value, unc = estimate_asymptote(_const(std_grid, 0.9))
    assert value == pytest.approx(0.9, abs=1e-12)
    assert unc == pytest.approx(0.0, abs=1e-12)


def test_asymptote_is_the_same_in_si_units(std_lorentz):
    # the 1/w^2 column is about 1e-30 on a grid in rad/s; the fit must not
    # drop it as rank deficient, which left Re n(inf) 1.1e-3 off here
    nu = std_lorentz.grid.values
    si = ComplexIndexSpectrum(FrequencyGrid(1e15 * nu, GridUnit.SI_RAD_PER_S),
                              std_lorentz.re, std_lorentz.im)
    value, unc = estimate_asymptote(std_lorentz)
    si_value, si_unc = estimate_asymptote(si)
    assert si_value == pytest.approx(value, rel=1e-12)
    assert si_unc == pytest.approx(unc, rel=1e-6)


def _schedule():
    """The benchmark's request schedule, perfbench/schedule.py."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "schedule.py"
    spec = importlib.util.spec_from_file_location("perfbench_schedule", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fits_match_numpy_on_the_benchmark_corpus():
    # every audit_batch slot of seeds 0-2: the closed-form line fits give
    # the tail exponents of np.polyfit and the asymptotes of np.linalg.lstsq,
    # which the fits took before
    schedule = _schedule()
    slots = len(schedule.WORKLOADS["audit_batch"])
    for seed in range(3):
        for i in range(slots):
            req = schedule.request("audit_batch", seed, i)
            nu, sel = req["nu"], pvquad.top_decade(req["nu"])
            for f in (req["im"], req["re"] - 1.0):
                floor = pvquad.noise_floor(nu, f)
                keep = np.abs(f[sel]) > floor
                slope = np.polyfit(np.log(nu[sel][keep]), np.log(np.abs(f[sel][keep])), 1)[0]
                if -slope <= 1.0:  # an offset spectrum's Re n - 1
                    with pytest.raises(pvquad.TailFitError):
                        pvquad.fit_tail(nu[sel], f[sel], floor)
                    continue
                tail = pvquad.fit_tail(nu[sel], f[sel], floor)
                assert tail.exponent == pytest.approx(-slope, rel=1e-13)
            x = 1.0 / nu[sel] ** 2
            for y in (req["re"], req["im"]):
                design = np.column_stack([np.ones_like(x), x])
                want = np.linalg.lstsq(design, y[sel], rcond=None)[0][0]
                try:
                    got = causality._top_decade_fit(nu, y)[0]
                except AsymptoteFitError:
                    continue
                assert got == pytest.approx(want, rel=1e-13, abs=1e-13)


def test_asymptote_needs_three_decades():
    g = FrequencyGrid.log_spaced(1.0, 50.0, 64, GridUnit.NORMALIZED)
    with pytest.raises(ValueError, match="3 decades"):
        estimate_asymptote(_const(g, 1.0))


def test_audit_inconclusive_on_two_decades():
    # a measured band often spans fewer than 3 decades: no asymptote, so no
    # verdict, but the round trip still runs
    grid = FrequencyGrid.log_spaced(1.0, 100.0, 400, GridUnit.NORMALIZED)
    s = lorentz_index(LorentzOscillatorParams(1.0, 3.0, 0.3), grid)
    with pytest.raises(AsymptoteFitError, match="3 decades"):
        estimate_asymptote(s)
    rep = audit(s)
    assert rep.dichotomy is Dichotomy.INCONCLUSIVE
    assert rep.asymptote_re is None and rep.asymptote_re_uncertainty is None
    assert rep.kk_residual < 1e-3


def test_asymptote_misfit_raises(std_grid):
    # single large spike in the top decade: max residual >> rms
    re = np.ones(std_grid.size)
    re[-40] = 2.0
    with pytest.raises(AsymptoteFitError, match="misfit"):
        estimate_asymptote(ComplexIndexSpectrum(std_grid, re, np.zeros_like(re)))


@pytest.mark.parametrize("extra", [[100.0], [50.0, 100.0]])
def test_asymptote_needs_three_top_decade_nodes(extra):
    # one node made the normal equations singular, two fit with zero spread
    with pytest.raises(AsymptoteFitError, match=">= 3 nodes"):
        estimate_asymptote(_sparse_top(extra))


# --- amplification bands ---------------------------------------------------------

def test_no_bands_for_passive_input(std_lorentz):
    assert detect_amplification(std_lorentz) == []


def test_constructed_band_is_found(std_grid):
    im = np.ones(std_grid.size) * 0.01
    im[10:21] = -0.01
    s = ComplexIndexSpectrum(std_grid, np.ones_like(im), im)
    assert detect_amplification(s) == [(10, 20)]


def test_band_floor_suppresses_noise(std_grid):
    im = np.ones(std_grid.size) * 0.01
    im[10:21] = -1e-9
    s = ComplexIndexSpectrum(std_grid, np.ones_like(im), im)
    assert detect_amplification(s, floor=1e-6) == []
    assert detect_amplification(s, floor=0.0) == [(10, 20)]


def test_bands_cover_and_are_maximal(std_grid):
    rng = np.random.default_rng(7)
    im = rng.normal(0.0, 1.0, std_grid.size)
    s = ComplexIndexSpectrum(std_grid, np.ones_like(im), im)
    bands = detect_amplification(s, 0.0)
    covered = np.zeros(std_grid.size, dtype=bool)
    for i, j in bands:
        assert i <= j
        covered[i:j + 1] = True
    np.testing.assert_array_equal(covered, s.im < 0.0)
    for (a0, a1), (b0, b1) in zip(bands, bands[1:]):
        assert b0 > a1 + 1  # adjacent runs would have merged


def _bands_by_loop(neg):
    bands, start = [], None
    for i, flag in enumerate(neg):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            bands.append((start, i - 1))
            start = None
    if start is not None:
        bands.append((start, neg.size - 1))
    return bands


@pytest.mark.parametrize("seed", range(4))
def test_bands_match_node_loop(std_grid, seed):
    # runs of every length, at both grid edges too, against a per-node scan
    rng = np.random.default_rng(seed)
    im = np.repeat(rng.choice([-1.0, 1.0], std_grid.size), rng.integers(1, 4, std_grid.size))
    im = im[:std_grid.size]
    s = ComplexIndexSpectrum(std_grid, np.ones_like(im), im)
    bands = detect_amplification(s)
    assert bands == _bands_by_loop(im < 0.0)
    assert all(type(i) is int and type(j) is int for i, j in bands)


def test_bands_need_a_nonnegative_floor(std_lorentz):
    with pytest.raises(ValueError, match="floor must be >= 0"):
        detect_amplification(std_lorentz, floor=-1e-12)


def test_band_at_grid_edges(std_grid):
    im = np.full(std_grid.size, -0.5)
    s = ComplexIndexSpectrum(std_grid, np.ones_like(im), im)
    assert detect_amplification(s) == [(0, std_grid.size - 1)]


# --- boundedness -----------------------------------------------------------------

def test_bounded_simple(std_grid):
    ok, max_sq = check_bounded(_const(std_grid, 1.0), 2.0)
    assert ok and max_sq == pytest.approx(1.0)


def test_bounded_violation(std_grid):
    re = np.ones(std_grid.size)
    im = np.zeros(std_grid.size)
    im[5] = 1.0
    ok, max_sq = check_bounded(ComplexIndexSpectrum(std_grid, re, im), 1.5)
    assert not ok
    assert max_sq == pytest.approx(2.0)


def test_bounded_lorentz_resonance(std_lorentz):
    ok, max_sq = check_bounded(std_lorentz, 40.0)
    assert ok
    assert 25.0 < max_sq < 30.0  # closed form gives 26 exactly at resonance


def test_bounded_rejects_bad_k0(std_lorentz):
    with pytest.raises(ValueError):
        check_bounded(std_lorentz, 0.0)


@pytest.mark.parametrize("k0", [float("nan"), float("inf")])
def test_bounded_rejects_non_finite_k0(std_lorentz, k0):
    with pytest.raises(ValueError, match="K0 must be finite"):
        check_bounded(std_lorentz, k0)


# --- audit -----------------------------------------------------------------------

def test_audit_lorentz(std_lorentz):
    rep = audit(std_lorentz)
    assert rep.dichotomy is Dichotomy.CONSISTENT_WITH_UNITY
    assert rep.amplification_bands == ()
    assert rep.kk_residual < 1e-3
    assert "im_odd_assumed" in rep.assumptions


def test_audit_noisy_lorentz_is_consistent():
    # white noise of 1e-6 swamps Im n's top decade (5e-8 .. 5e-5): neither
    # the tail fit nor the band search may read it as sign changes
    g = FrequencyGrid.log_spaced(1e-2, 1e2, 1024, GridUnit.NORMALIZED)
    s = lorentz_index(LorentzOscillatorParams(1.0, 1.0, 0.1), g)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        noisy = ComplexIndexSpectrum(g, s.re + 1e-6 * rng.standard_normal(g.size),
                                     s.im + 1e-6 * rng.standard_normal(g.size))
        assert audit(noisy).dichotomy == Dichotomy.CONSISTENT_WITH_UNITY


@pytest.mark.parametrize("line", [(0.1, 3.0, 0.3), (0.05, 5.0, 1.0), (0.03, 4.5, 2.0)])
def test_audit_gaussian_line_is_consistent(std_grid, line):
    # Im n's top decade falls to rounding level: what lies under eps max|Im n|
    # is not tail data. The first two lines read inconclusive before, their
    # round trip's tail fit refusing the top decade; the third fitted p = 137
    # to values down to 1e-300, and the tail series warned of an overflow in
    # c^p. It now fits p = 55.6, on the values above rounding.
    n = gaussian_closed_form(std_grid.values, *line)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = audit(ComplexIndexSpectrum(std_grid, n.real, n.imag))
    assert rep.dichotomy is Dichotomy.CONSISTENT_WITH_UNITY


def test_audit_constant_09(std_grid):
    rep = audit(_const(std_grid, 0.9))
    assert rep.dichotomy is Dichotomy.SUPERLUMINAL_BRANCH
    assert rep.kk_residual == pytest.approx(0.1, abs=1e-12)


def test_audit_sign_flipped_band(std_lorentz):
    im = std_lorentz.im.copy()
    im[900:1100] *= -1.0
    rep = audit(ComplexIndexSpectrum(std_lorentz.grid, std_lorentz.re, im))
    assert rep.dichotomy is Dichotomy.AMPLIFICATION_BRANCH
    assert rep.amplification_band_nodes == ((900, 1099),)


def test_audit_both_branches(std_lorentz):
    im = std_lorentz.im.copy()
    im[900:1100] *= -1.0
    rep = audit(ComplexIndexSpectrum(std_lorentz.grid, std_lorentz.re - 0.2, im))
    assert rep.dichotomy is Dichotomy.BOTH


def test_audit_inconclusive_on_misfit(std_grid):
    re = np.ones(std_grid.size)
    re[-40] = 2.0
    rep = audit(ComplexIndexSpectrum(std_grid, re, np.zeros_like(re)))
    assert rep.dichotomy is Dichotomy.INCONCLUSIVE
    assert rep.asymptote_re is None


def test_audit_inconclusive_on_single_top_decade_node():
    rep = audit(_sparse_top([100.0]), TailModel(3.0, 0.05, 100.0))
    assert rep.dichotomy is Dichotomy.INCONCLUSIVE
    assert rep.asymptote_re is None and rep.asymptote_im is None


@pytest.mark.parametrize("n, got", [(20, 5), (28, 7)])
def test_audit_inconclusive_on_too_few_tail_samples(n, got):
    # the asymptotes fit, but the round trip's tail fit has too few
    # top-decade samples: no verdict and no residual, not an exception
    grid = FrequencyGrid.log_spaced(1e-2, 1e2, n, GridUnit.NORMALIZED)
    s = lorentz_index(LorentzOscillatorParams(1.0, 1.0, 0.1), grid)
    assert np.count_nonzero(s.grid.values >= 10.0) == got
    rep = audit(s)
    assert rep.dichotomy is Dichotomy.INCONCLUSIVE
    assert rep.asymptote_re is not None and rep.kk_residual is None
    assert json.loads(rep.to_json())["kk_residual"] is None


def test_audit_deterministic(std_lorentz):
    a = audit(std_lorentz)
    b = audit(std_lorentz)
    assert a.to_dict() == b.to_dict()


def test_audit_does_not_mutate_input(std_lorentz):
    before = std_lorentz.im.copy()
    audit(std_lorentz)
    np.testing.assert_array_equal(std_lorentz.im, before)


def test_audit_k0_override(std_lorentz):
    rep = audit(std_lorentz, k0=10.0)
    assert not rep.bounded_ok
    assert rep.boundedness_constant == 10.0
    assert "k0_defaulted" not in rep.assumptions


def test_audit_bad_k0_fails_before_transform(std_lorentz, monkeypatch):
    def no_transform(*args, **kwargs):
        raise AssertionError("round-trip transform ran before the K0 check")

    monkeypatch.setattr(causality, "roundtrip_residual", no_transform)
    with pytest.raises(ValueError, match="K0"):
        audit(std_lorentz, k0=0.0)


def test_audit_classification_stable_under_refinement(std_lorentz, std_grid):
    fine = FrequencyGrid.log_spaced(1e-2, 1e2, 2 * std_grid.size, GridUnit.NORMALIZED)
    base = audit(std_lorentz).dichotomy
    refined = audit(resample(std_lorentz, fine)).dichotomy
    assert base is refined


def test_report_json_schema(std_lorentz):
    rep = audit(std_lorentz)
    doc = json.loads(rep.to_json())
    assert doc["schema"] == 1
    expected = {"schema", "asymptote_re", "asymptote_re_uncertainty", "asymptote_im",
                "asymptote_im_uncertainty", "amplification_bands",
                "amplification_band_nodes", "kk_residual", "bounded", "dichotomy",
                "assumptions"}
    assert set(doc) == expected
    assert set(doc["bounded"]) == {"ok", "max_sq", "k0"}
