import json

import numpy as np
import pytest

from kklab import (
    AbsorptionSpectrum,
    ComplexIndexSpectrum,
    FrequencyGrid,
    GridUnit,
    PhysicalConstants,
    SpectrumFormatError,
    absorption_from_im,
    im_from_absorption,
    load_spectrum,
    lorentz_index,
    resample,
    save_spectrum,
)
from conftest import STD_PARAMS


# --- grid and spectrum invariants -----------------------------------------

def test_grid_rejects_non_monotone():
    with pytest.raises(ValueError, match="strictly increasing"):
        FrequencyGrid([1.0, 3.0, 2.0])


def test_grid_rejects_negative():
    with pytest.raises(ValueError, match=">= 0"):
        FrequencyGrid([-1.0, 0.0, 1.0])


def test_grid_rejects_short_and_nonfinite():
    with pytest.raises(ValueError, match="2 samples"):
        FrequencyGrid([1.0])
    with pytest.raises(ValueError, match="finite"):
        FrequencyGrid([1.0, np.inf])


def test_grid_allows_zero_and_is_readonly():
    g = FrequencyGrid([0.0, 1.0, 2.0])
    assert g.values[0] == 0.0
    with pytest.raises(ValueError):
        g.values[0] = 5.0


def test_spectrum_rejects_length_mismatch_and_nan():
    g = FrequencyGrid([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="grid length"):
        ComplexIndexSpectrum(g, [1.0, 1.0], [0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="finite"):
        ComplexIndexSpectrum(g, [1.0, np.nan, 1.0], [0.0, 0.0, 0.0])


def test_unknown_format_rejected(tmp_path):
    s = lorentz_index(STD_PARAMS, FrequencyGrid.log_spaced(1.0, 10.0, 8, GridUnit.NORMALIZED))
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        save_spectrum(s, tmp_path / "s.xml", "xml")
    assert not (tmp_path / "s.xml").exists()
    save_spectrum(s, tmp_path / "s.csv", "csv")
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        load_spectrum(tmp_path / "s.csv", "xml")


# --- CSV loading -----------------------------------------------------------

def test_load_csv_three_rows(tmp_path):
    f = tmp_path / "s.csv"
    f.write_text("omega,re_n,im_n\n1,1.5,0.1\n2,1.4,0.2\n3,1.3,0.1\n")
    s = load_spectrum(f, "csv")
    assert s.grid.size == 3
    np.testing.assert_array_equal(s.grid.values, [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(s.re, [1.5, 1.4, 1.3])


def test_load_csv_out_of_order_reports_row(tmp_path):
    f = tmp_path / "s.csv"
    f.write_text("omega,re_n,im_n\n2,1.4,0.2\n1,1.5,0.1\n3,1.3,0.1\n")
    with pytest.raises(SpectrumFormatError, match="non-monotone grid at row 2"):
        load_spectrum(f, "csv")


def test_load_csv_empty_file(tmp_path):
    f = tmp_path / "s.csv"
    f.write_text("")
    with pytest.raises(SpectrumFormatError, match="2 samples"):
        load_spectrum(f, "csv")


def test_load_csv_non_numeric_reports_row(tmp_path):
    f = tmp_path / "s.csv"
    f.write_text("omega,re_n,im_n\n1,1.5,0.1\n2,abc,0.2\n")
    with pytest.raises(SpectrumFormatError, match="row 2"):
        load_spectrum(f, "csv")


def test_load_csv_wrong_column_count(tmp_path):
    f = tmp_path / "s.csv"
    f.write_text("omega,re_n,im_n\n1,1.5\n")
    with pytest.raises(SpectrumFormatError, match="malformed row 1"):
        load_spectrum(f, "csv")


def test_load_csv_comments_and_scientific_notation(tmp_path):
    f = tmp_path / "s.csv"
    f.write_text("# a comment\nomega,re_n,im_n\n1e-2,1.5,1e-3\n# mid comment\n2.5e-2,1.4,2e-3\n")
    s = load_spectrum(f, "csv")
    assert s.grid.size == 2
    assert s.im[1] == 2e-3


def test_load_csv_negative_frequency(tmp_path):
    f = tmp_path / "s.csv"
    f.write_text("omega,re_n,im_n\n-1,1.5,0.1\n2,1.4,0.2\n")
    with pytest.raises(SpectrumFormatError, match="negative frequency at row 1"):
        load_spectrum(f, "csv")


# --- round trips -----------------------------------------------------------

@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_save_load_bit_exact(tmp_path, fmt):
    rng = np.random.default_rng(42)
    omega = np.sort(rng.uniform(1e-3, 1e3, 40))
    s = ComplexIndexSpectrum(FrequencyGrid(omega, GridUnit.NORMALIZED),
                             rng.normal(1.0, 0.3, 40), rng.uniform(0, 1, 40))
    path = tmp_path / f"s.{fmt}"
    save_spectrum(s, path, fmt)
    back = load_spectrum(path, fmt)
    np.testing.assert_array_equal(back.grid.values, s.grid.values)
    np.testing.assert_array_equal(back.re, s.re)
    np.testing.assert_array_equal(back.im, s.im)
    assert back.grid.unit == s.grid.unit


def test_json_format_fields(tmp_path):
    g = FrequencyGrid([1.0, 2.0], GridUnit.SI_RAD_PER_S)
    s = ComplexIndexSpectrum(g, [1.0, 1.0], [0.1, 0.2])
    path = tmp_path / "s.json"
    save_spectrum(s, path, "json")
    doc = json.loads(path.read_text())
    assert set(doc) == {"unit", "omega", "re_n", "im_n"}
    assert doc["unit"] == "si_rad_per_s"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_load_after_a_byte_order_mark(tmp_path, fmt):
    # spreadsheet exports often start with the UTF-8 byte-order mark
    s = ComplexIndexSpectrum(FrequencyGrid([1.0, 2.0, 4.0], GridUnit.NORMALIZED),
                             [1.5, 1.25, 1.0], [0.1, 0.2, 0.05])
    path = tmp_path / f"s.{fmt}"
    save_spectrum(s, path, fmt)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    back = load_spectrum(path, fmt)
    assert back.grid.unit is GridUnit.NORMALIZED
    for got, want in ((back.grid.values, s.grid.values), (back.re, s.re), (back.im, s.im)):
        np.testing.assert_array_equal(got, want)


# --- absorption maps -------------------------------------------------------

def test_absorption_zero_im():
    g = FrequencyGrid([1e8, 2e8, 3e8])
    s = ComplexIndexSpectrum(g, [1.0, 1.0, 1.0], [0.0, 0.0, 0.0])
    a = absorption_from_im(s, PhysicalConstants())
    np.testing.assert_array_equal(a.alpha0, 0.0)


def test_absorption_units_cancel():
    c = PhysicalConstants()
    g = FrequencyGrid([c.c / 2, c.c])
    s = ComplexIndexSpectrum(g, [1.0, 1.0], [0.5, 0.5])
    a = absorption_from_im(s, c)
    assert a.alpha0[1] == pytest.approx(1.0, rel=1e-15)


def test_absorption_direct_substitution():
    # 2 * 0.1 * 3e8 / 2.998e8, with the example's speed of light
    c = PhysicalConstants(c=2.998e8)
    g = FrequencyGrid([1e8, 3e8])
    s = ComplexIndexSpectrum(g, [1.0, 1.0], [0.0, 0.1])
    a = absorption_from_im(s, c)
    assert a.alpha0[1] == pytest.approx(0.200133422281521, rel=1e-12)


def test_absorption_rejects_normalized_grid():
    g = FrequencyGrid([1.0, 2.0], GridUnit.NORMALIZED)
    s = ComplexIndexSpectrum(g, [1.0, 1.0], [0.0, 0.0])
    with pytest.raises(ValueError, match="si_rad_per_s"):
        absorption_from_im(s, PhysicalConstants())


def test_im_from_absorption_zero_and_flag():
    g = FrequencyGrid([1e8, 2e8])
    a = AbsorptionSpectrum(g, [0.0, 0.0])
    s = im_from_absorption(a, PhysicalConstants())
    np.testing.assert_array_equal(s.im, 0.0)
    assert s.re_is_placeholder
    np.testing.assert_array_equal(s.re, 1.0)


def test_absorption_round_trip_is_identity():
    c = PhysicalConstants()
    g = FrequencyGrid(np.geomspace(1e8, 1e12, 50))
    s = ComplexIndexSpectrum(g, np.ones(50), np.linspace(0.01, 0.5, 50))
    back = im_from_absorption(absorption_from_im(s, c), c)
    np.testing.assert_allclose(back.im, s.im, rtol=1e-15)


def test_im_from_absorption_rejects_dc_sample():
    g = FrequencyGrid([0.0, 1e8])
    a = AbsorptionSpectrum(g, [1.0, 1.0])
    with pytest.raises(ValueError, match="omega = 0"):
        im_from_absorption(a, PhysicalConstants())


# --- resampling ------------------------------------------------------------

def test_resample_identity_on_same_grid():
    g = FrequencyGrid.log_spaced(0.1, 10, 64, GridUnit.NORMALIZED)
    s = lorentz_index(STD_PARAMS, g)
    out = resample(s, g)
    np.testing.assert_array_equal(out.re, s.re)
    np.testing.assert_array_equal(out.im, s.im)


def test_resample_reproduces_linear_ramp():
    g = FrequencyGrid.linear(0.0, 10.0, 30, GridUnit.NORMALIZED)
    s = ComplexIndexSpectrum(g, 2.0 * g.values + 1.0, 0.5 * g.values)
    target = FrequencyGrid.linear(0.3, 9.7, 101, GridUnit.NORMALIZED)
    out = resample(s, target)
    np.testing.assert_allclose(out.re, 2.0 * target.values + 1.0, atol=1e-13)
    np.testing.assert_allclose(out.im, 0.5 * target.values, atol=1e-13)


def test_resample_lorentz_against_closed_form():
    import kklab
    # broad resonance: 256 log nodes resolve it to better than 1e-4
    params = kklab.LorentzOscillatorParams(1.0, 1.0, 1.0)
    g_src = FrequencyGrid.log_spaced(0.1, 10.0, 256, GridUnit.NORMALIZED)
    g_tgt = FrequencyGrid.log_spaced(0.1, 10.0, 1024, GridUnit.NORMALIZED)
    out = resample(lorentz_index(params, g_src), g_tgt)
    exact = lorentz_index(params, g_tgt)
    assert np.max(np.abs(out.re - exact.re)) < 1e-4
    assert np.max(np.abs(out.im - exact.im)) < 1e-4


SI = FrequencyGrid.linear(1.0, 2.0, 16)


@pytest.mark.parametrize("call, message", [
    (lambda: FrequencyGrid(np.ones((2, 8))), "frequency grid must be one-dimensional"),
    (lambda: AbsorptionSpectrum(SI, np.ones(15)), "alpha0 must have grid length 16"),
    (lambda: AbsorptionSpectrum(SI, np.r_[np.ones(15), np.inf]), "alpha0 entries must be finite"),
    (lambda: im_from_absorption(AbsorptionSpectrum(FrequencyGrid(SI.values, GridUnit.NORMALIZED),
                                                   np.ones(16)), PhysicalConstants()),
     "absorption conversion needs an si_rad_per_s grid"),
], ids=["grid 2-d", "alpha0 length", "alpha0 inf", "normalized absorption"])
def test_input_guards(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_resample_refuses_extrapolation():
    g = FrequencyGrid.linear(1.0, 2.0, 16, GridUnit.NORMALIZED)
    s = ComplexIndexSpectrum(g, np.ones(16), np.zeros(16))
    with pytest.raises(ValueError, match="extrapolation"):
        resample(s, FrequencyGrid.linear(0.5, 1.5, 16, GridUnit.NORMALIZED))


def test_resample_refuses_unit_mismatch():
    g = FrequencyGrid.linear(1.0, 2.0, 16, GridUnit.NORMALIZED)
    s = ComplexIndexSpectrum(g, np.ones(16), np.zeros(16))
    with pytest.raises(ValueError, match="unit"):
        resample(s, FrequencyGrid.linear(1.2, 1.8, 16, GridUnit.SI_RAD_PER_S))
