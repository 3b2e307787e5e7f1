"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`."""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

import kklab
from kklab import (
    ComplexIndexSpectrum,
    Dichotomy,
    FrequencyGrid,
    GridUnit,
    LightClockScenario,
    LorentzOscillatorParams,
    Orientation,
    PhysicalConstants,
    PoleIntegrand,
    ScharnhorstScenario,
    TailModel,
    audit,
    delta_c_over_c,
    invariant_length,
    kk_im_from_re,
    kk_re_from_im,
    kk_subtracted,
    kk_subtracted_at_infinity,
    light_clock_tick,
    lorentz_index,
    measurability_ratio,
    pv_integrate,
    pv_semi_infinite,
    resample,
    tail_integral,
)
from kklab.cli import main as cli_main
from conftest import STD_PARAMS, interior_mask, lorentz_closed_form

CONSTANTS = PhysicalConstants()


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def oracle_setup():
    grid = FrequencyGrid.log_spaced(1e-2, 1e2, 2048, GridUnit.NORMALIZED)
    spectrum = lorentz_index(STD_PARAMS, grid)
    t0 = time.perf_counter()
    forward = kk_re_from_im(spectrum)
    backward = kk_im_from_re(forward.spectrum)
    elapsed = time.perf_counter() - t0
    return grid, spectrum, forward, backward, elapsed


def test_criterion_01_kk_oracle_equivalence(oracle_setup):
    grid, spectrum, forward, backward, elapsed = oracle_setup
    mask = interior_mask(grid)
    err_re = float(np.max(np.abs(forward.spectrum.re - spectrum.re)[mask]))
    err_im = float(np.max(np.abs(backward.spectrum.im - spectrum.im)[mask]))
    ok = err_re < 1e-3 and err_im < 2e-3 and elapsed < 10.0
    report(1, "transform reproduces the analytic oracle", ok,
           f"re {err_re:.2e} < 1e-3, round trip {err_im:.2e} < 2e-3, {elapsed:.1f} s < 10 s")


def test_criterion_02_subtraction_reduction(oracle_setup):
    _, spectrum, forward, _, _ = oracle_setup
    reduced = kk_subtracted_at_infinity(spectrum, 1.0, 0.0)
    diff = float(np.max(np.abs(reduced.spectrum.re - forward.spectrum.re)))
    ok = diff <= 1e-12
    report(2, "infinite-point subtraction reduces to the plain transform", ok,
           f"max node diff {diff:.1e} <= 1e-12")


def test_criterion_03_subtraction_point_independence(oracle_setup):
    grid, spectrum, _, _, _ = oracle_setup
    nu = grid.values
    gspec = ComplexIndexSpectrum(grid, spectrum.re - 1.0, spectrum.im)
    outputs = []
    excluded = np.zeros(nu.size, dtype=bool)
    for w0 in (0.0, 0.5, 2.0):
        G0 = lorentz_closed_form(w0) - 1.0
        r = kk_subtracted(gspec, w0, G0.real, G0.imag, on_collision="continuity")
        outputs.append(r.spectrum.re)
        excluded |= np.abs(nu - w0) < 4.0 * np.gradient(nu)
    mask = interior_mask(grid) & ~excluded
    worst = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            worst = max(worst, float(np.max(np.abs(outputs[i] - outputs[j])[mask])))
    ok = worst < 5e-3
    report(3, "subtracted transform independent of the subtraction point", ok,
           f"worst pairwise diff {worst:.2e} < 5e-3")


def test_criterion_04_pv_engine_exactness():
    checks = []

    nu = np.linspace(0.0, 2.0, 801)
    checks.append(abs(pv_integrate(PoleIntegrand.from_callable(
        np.ones_like, nu, 1.0)).value - 0.0))
    nu = np.linspace(0.0, 3.0, 901)
    checks.append(abs(pv_integrate(PoleIntegrand.from_callable(
        np.ones_like, nu, 1.0)).value - math.log(2.0)))
    nu = np.linspace(0.0, 2.0, 801)
    checks.append(abs(pv_integrate(PoleIntegrand.from_callable(
        lambda x: x, nu, 1.0)).value - 2.0))
    checks.append(abs(tail_integral(TailModel(2.0, 1.0, 10.0), 0.0) - 0.005))
    # brute-force oracle for the simple-pole tail series, frozen and live
    frozen = 0.005360515657826302
    live = quad(lambda x: x ** -2.0 / (x - 1.0), 10.0, np.inf,
                epsabs=1e-15, epsrel=1e-14)[0]
    got = tail_integral(TailModel(2.0, 1.0, 10.0), 1.0)
    checks.append(abs(got - frozen))
    checks.append(abs(got - live))

    # semi-infinite identity through the composed finite + tail pipeline
    w = 1.0
    nodes = np.unique(np.concatenate([np.linspace(0.0, 10.0, 4001),
                                      np.geomspace(10.0, 2000.0, 1500)]))
    identity = pv_semi_infinite(
        PoleIntegrand.from_callable(lambda x: 1.0 / (x + w), nodes, w),
        TailModel(exponent=1.0, amplitude=1.0, cutoff=2000.0)).value
    checks.append(abs(identity))

    worst = max(checks)
    ok = worst < 1e-6
    report(4, "analytic principal-value fixtures", ok, f"worst abs dev {worst:.1e} < 1e-6")


def test_criterion_05_velocity_shift_scaling_law():
    Ls = np.geomspace(1e-15, 1e-6, 40)
    slope = np.polyfit(np.log10(Ls), np.log10([delta_c_over_c(L, CONSTANTS) for L in Ls]), 1)[0]
    ratio = delta_c_over_c(1e-15, CONSTANTS) / delta_c_over_c(1e-6, CONSTANTS)
    ok = abs(slope + 4.0) < 1e-9 and abs(ratio / 1e36 - 1.0) < 1e-12
    report(5, "inverse-quartic scaling of the velocity shift", ok,
           f"slope {slope:+.12f}, femtometer/micron ratio matches 1e36 "
           f"(the published pair 1.6 and 1.6e-36 has the same ratio)")


def test_criterion_06_measurability_bound():
    lam_c = CONSTANTS.lambda_c
    anchor = measurability_ratio(ScharnhorstScenario(lam_c, lam_c, CONSTANTS))
    coefficient_ok = abs(anchor / 1876900.0 - 1.0) < 1e-9
    table = kklab.format_length_scale_table(
        kklab.length_scale_table([lam_c], CONSTANTS))
    annotated = "1.5e6" in table
    sweep = all(measurability_ratio(ScharnhorstScenario(L, lam_c, CONSTANTS)) > 1e6
                for L in np.geomspace(lam_c, 1e6 * lam_c, 30))
    ok = coefficient_ok and annotated and sweep
    report(6, "velocity shift buried under the measurement floor", ok,
           f"coefficient {anchor:.6g} (annotated literature value 1.5e6), "
           f"ratio > 1e6 for all L >= lambda_c")


def test_criterion_07_invariant_length_hypothesis():
    L = invariant_length(1.0, CONSTANTS)
    ok = 1e-15 <= L <= 1e-13
    report(7, "order-unity shift pinned to the femtometer scale", ok,
           f"L = {L * 1e15:.2f} fm in [1, 100] fm")


def test_criterion_08_causality_audit_corpus():
    grid = FrequencyGrid.log_spaced(1e-2, 1e2, 2048, GridUnit.NORMALIZED)
    fine = FrequencyGrid.log_spaced(1e-2, 1e2, 4096, GridUnit.NORMALIZED)

    fixtures: list[tuple[str, ComplexIndexSpectrum, Dichotomy]] = []
    lorentz_params = [
        (1.0, 1.0, 0.1), (0.5, 1.0, 0.1), (1.0, 0.3, 0.1), (0.8, 0.5, 0.2),
        (0.3, 1.0, 0.3), (1.2, 0.7, 0.15), (2.0, 0.5, 0.5), (1.0, 1.0, 1.0),
        (0.6, 2.0, 0.12), (0.9, 1.5, 0.25),
    ]
    for prm in lorentz_params:
        s = lorentz_index(LorentzOscillatorParams(*prm), grid)
        fixtures.append((f"lorentz{prm}", s, Dichotomy.CONSISTENT_WITH_UNITY))

    const09 = ComplexIndexSpectrum(grid, np.full(grid.size, 0.9), np.zeros(grid.size))
    fixtures.append(("const_0.9", const09, Dichotomy.SUPERLUMINAL_BRANCH))

    base = lorentz_index(LorentzOscillatorParams(1.0, 1.0, 0.1), grid)
    im = base.im.copy()
    im[900:1100] *= -1.0
    flipped = ComplexIndexSpectrum(grid, base.re, im)
    fixtures.append(("sign_flipped", flipped, Dichotomy.AMPLIFICATION_BRANCH))

    assert len(fixtures) == 12
    hits = 0
    stable = 0
    for name, s, expected in fixtures:
        got = audit(s).dichotomy
        hits += got is expected
        refined = audit(resample(s, fine)).dichotomy
        stable += refined is got
    ok = hits == 12 and stable == 12
    report(8, "dichotomy classification across the 12-fixture corpus", ok,
           f"{hits}/12 expected classes, {stable}/12 stable under 2x refinement")


def _event_stepping_tick(L: float, beta: float, constants: PhysicalConstants) -> float:
    """Independent kinematic oracle: photon/mirror worldline crossings by
    root finding over the contracted gap."""
    c = constants.c
    gamma = 1.0 / math.sqrt(1.0 - beta * beta)
    Lp = L / gamma
    v = beta * c
    d = constants.k_coeff * constants.alpha ** 2 * (constants.lambda_c / Lp) ** 4
    w = c * (1.0 + d)
    u_fwd = (w + v) / (1.0 + w * v / c ** 2)
    u_bwd = (v - w) / (1.0 - w * v / c ** 2)
    T = Lp / c
    t1 = brentq(lambda t: u_fwd * t - (Lp + v * t), 1e-12 * T, 1e6 * T,
                xtol=1e-35, rtol=1e-15)
    x1 = u_fwd * t1
    t2 = brentq(lambda t: x1 + u_bwd * (t - t1) - v * t, t1 * (1 + 1e-15), 1e7 * T,
                xtol=1e-35, rtol=1e-15)
    return t2


def test_criterion_09_light_clock():
    shift_off = PhysicalConstants(k_coeff=0.0)
    worst_sr = 0.0
    for beta in (0.0, 0.3, 0.6, 0.9):
        for orientation in Orientation:
            cc = light_clock_tick(LightClockScenario(1e-14, beta, orientation, shift_off))
            worst_sr = max(worst_sr, cc.inconsistency)
    sr_ok = worst_sr < 1e-12

    # L = 10 fm, beta = 0.3 keeps the construction on the valid side of the
    # degeneracy guard (beta * leg speed < c); frozen value from the
    # event-stepping oracle
    frozen = 0.10282087896386442
    cc = light_clock_tick(LightClockScenario(1e-14, 0.3, Orientation.PERPENDICULAR, CONSTANTS))
    live = _event_stepping_tick(1e-14, 0.3, CONSTANTS)
    live_inc = abs(live - cc.tick_moving_sr) / cc.tick_moving_sr
    perp_ok = (cc.inconsistency > 0.0
               and abs(cc.inconsistency - frozen) <= 1e-10 * frozen
               and abs(cc.inconsistency - live_inc) <= 1e-10 * frozen)
    ok = sr_ok and perp_ok
    report(9, "light clock: pure relativity limit and frame disagreement", ok,
           f"shift-off inconsistency {worst_sr:.1e} < 1e-12; "
           f"perpendicular inconsistency {cc.inconsistency:.12f} vs oracle {frozen}")


@pytest.mark.filterwarnings("ignore:n_perp")
def test_criterion_10_cli_contract(tmp_path):
    lor = tmp_path / "lor.csv"
    bad = tmp_path / "bad.csv"
    bad.write_text("omega,re_n,im_n\n1,1.0,0.0\n2,oops,0.0\n")
    shallow = tmp_path / "shallow.csv"
    nu = np.geomspace(1e-2, 1e2, 256)
    kklab.save_spectrum(ComplexIndexSpectrum(
        FrequencyGrid(nu, GridUnit.NORMALIZED), np.ones_like(nu), nu ** -0.5),
        shallow, "csv")
    const09 = tmp_path / "c09.csv"
    kklab.save_spectrum(ComplexIndexSpectrum(
        FrequencyGrid(nu, GridUnit.NORMALIZED), np.full(nu.size, 0.9), np.zeros(nu.size)),
        const09, "csv")

    matrix = [
        (["model", "lorentz", "--omega-p", "1", "--omega-res", "1", "--gamma", "0.1",
          "--grid", "log:1e-2:1e2:512", "--out", str(lor)], 0),
        (["transform", "--direction", "re-from-im", "--in", str(lor),
          "--out", str(tmp_path / "re.csv")], 0),
        (["validate", "--in", str(lor), "--out", str(tmp_path / "rep.json")], 0),
        (["validate", "--in", str(const09), "--out", str(tmp_path / "rep09.json")], 1),
        (["transform", "--direction", "re-from-im", "--in", str(tmp_path / "missing.csv"),
          "--out", str(tmp_path / "x.csv")], 2),
        (["transform", "--direction", "re-from-im", "--in", str(bad),
          "--out", str(tmp_path / "x.csv")], 2),
        (["validate", "--in", str(lor), "--out", str(tmp_path / "x.json"),
          "--no-such-flag"], 2),
        (["transform", "--direction", "re-from-im", "--in", str(shallow),
          "--out", str(tmp_path / "x.csv")], 3),
        (["transform", "--direction", "subtracted", "--omega0", "0.5",
          "--g0-re", "0.6", "--in", str(lor), "--out", str(tmp_path / "x.csv")], 3),
        (["clock", "--L", "1e-14", "--beta", "0.6", "--orientation", "perpendicular",
          "--out", str(tmp_path / "clock.json")], 3),
    ]
    results = [(cli_main(args), expected) for args, expected in matrix]
    codes_ok = all(got == expected for got, expected in results)

    # byte-identical outputs across consecutive runs
    pairs = []
    for stem, args in [
        ("t", ["transform", "--direction", "re-from-im", "--in", str(lor)]),
        ("s", ["scharnhorst", "--L", "1e-6,1e-15"]),
        ("c", ["clock", "--L", "1e-14", "--beta", "0.3", "--orientation", "perpendicular"]),
    ]:
        a, b = tmp_path / f"{stem}1.out", tmp_path / f"{stem}2.out"
        assert cli_main(args + ["--out", str(a)]) == 0
        assert cli_main(args + ["--out", str(b)]) == 0
        pairs.append(a.read_bytes() == b.read_bytes())
    bytes_ok = all(pairs)

    ok = codes_ok and bytes_ok
    detail = ", ".join(f"{got}/{exp}" for got, exp in results)
    report(10, "command-line exit codes and reproducible outputs", ok,
           f"exit codes got/expected: {detail}; byte-identical reruns: {bytes_ok}")
