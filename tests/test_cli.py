import errno
import json
from pathlib import Path

import numpy as np
import pytest

import kklab
from kklab import cli
from kklab.cli import main

NUMERICAL = "kklab: numerical failure: "
INPUT = "kklab: input error: "
MODEL = ["model", "lorentz", "--omega-p", "1", "--omega-res", "1", "--gamma", "0.1"]


@pytest.fixture()
def lorentz_csv(tmp_path):
    path = tmp_path / "lor.csv"
    code = main(["model", "lorentz", "--omega-p", "1", "--omega-res", "1",
                 "--gamma", "0.1", "--grid", "log:1e-2:1e2:512",
                 "--out", str(path)])
    assert code == 0
    return path


def test_model_writes_loadable_spectrum(lorentz_csv):
    s = kklab.load_spectrum(lorentz_csv, "csv")
    assert s.grid.size == 512
    assert s.grid.unit is kklab.GridUnit.NORMALIZED


def test_model_rejects_small_grid(tmp_path):
    code = main(["model", "lorentz", "--omega-p", "1", "--omega-res", "1",
                 "--gamma", "0.1", "--grid", "log:1e-2:1e2:8",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_transform_happy_path(lorentz_csv, tmp_path):
    out = tmp_path / "re.csv"
    code = main(["transform", "--direction", "re-from-im",
                 "--in", str(lorentz_csv), "--out", str(out)])
    assert code == 0
    s = kklab.load_spectrum(out, "csv")
    assert np.all(np.isfinite(s.re))


def test_transform_json_output(lorentz_csv, tmp_path):
    out = tmp_path / "re.json"
    assert main(["transform", "--direction", "re-from-im",
                 "--in", str(lorentz_csv), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"unit", "omega", "re_n", "im_n"}


def test_transform_im_from_re_direction(tmp_path):
    # broad resonance so the 512-node grid resolves it
    src_csv = tmp_path / "broad.csv"
    assert main(["model", "lorentz", "--omega-p", "1", "--omega-res", "1",
                 "--gamma", "0.5", "--grid", "log:1e-2:1e2:512",
                 "--out", str(src_csv)]) == 0
    re_out = tmp_path / "re.csv"
    assert main(["transform", "--direction", "re-from-im",
                 "--in", str(src_csv), "--out", str(re_out)]) == 0
    im_out = tmp_path / "im.csv"
    assert main(["transform", "--direction", "im-from-re",
                 "--in", str(re_out), "--out", str(im_out)]) == 0
    src = kklab.load_spectrum(src_csv, "csv")
    back = kklab.load_spectrum(im_out, "csv")
    nu = src.grid.values
    mask = (nu >= nu[0] * np.sqrt(10)) & (nu <= nu[-1] / np.sqrt(10))
    assert np.max(np.abs(back.im - src.im)[mask]) < 5e-3


def test_transform_subtracted_at_infinity_direction(lorentz_csv, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["transform", "--direction", "subtracted-at-infinity",
                 "--re-inf", "1.0", "--im-inf", "0.0",
                 "--in", str(lorentz_csv), "--out", str(a)]) == 0
    assert main(["transform", "--direction", "re-from-im",
                 "--in", str(lorentz_csv), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_transform_missing_file(tmp_path):
    code = main(["transform", "--direction", "re-from-im",
                 "--in", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o.csv")])
    assert code == 2


def test_transform_malformed_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("omega,re_n,im_n\n1,1.0,0.0\n2,oops,0.0\n")
    code = main(["transform", "--direction", "re-from-im",
                 "--in", str(bad), "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert "row 2" in capsys.readouterr().err


@pytest.mark.parametrize("name, text, flags, message", [
    ("in.json", "{", [], "invalid JSON: "),
    ("in.json", '{"unit": "normalized", "omega": [1, 2], "im_n": [0, 0]}', [],
     "bad JSON spectrum object: 're_n'"),
    ("in.json", '{"unit": "normalized", "omega": [1, 2], "re_n": [1], "im_n": [0, 0]}', [],
     "omega/re_n/im_n arrays differ in length"),
    ("in.csv", "omega,re_n,im_n\n1,1.0,0.0\nnan,1.0,0.0\n", [], "non-finite omega at row 2"),
    # a well-formed CSV body, read as JSON because the flag overrides the extension
    ("in.dat", "omega,re_n,im_n\n1,1.0,0.0\n2,1.0,0.0\n", ["--format", "json"],
     "invalid JSON: "),
], ids=["json syntax", "json without re_n", "json ragged", "csv nan omega", "format flag"])
def test_transform_rejects_malformed_input_file(tmp_path, capsys, name, text, flags, message):
    path, out = tmp_path / name, tmp_path / "o.csv"
    path.write_text(text)
    assert main(["transform", "--direction", "re-from-im", *flags,
                 "--in", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(INPUT) and message in err
    assert not out.exists()


def test_validate_rejects_nested_json_arrays(tmp_path, capsys):
    # equal lengths and finite, increasing rows: the grid's own guard refuses them
    path, report = tmp_path / "in.json", tmp_path / "r.json"
    path.write_text(json.dumps({"unit": "normalized", "omega": [[1, 2], [3, 4]],
                                "re_n": [[1, 1], [1, 1]], "im_n": [[0, 0], [0, 0]]}))
    assert main(["validate", "--in", str(path), "--out", str(report)]) == 2
    assert capsys.readouterr().err == INPUT + "frequency grid must be one-dimensional\n"
    assert not report.exists()


def test_format_flag_overrides_extension(lorentz_csv, tmp_path):
    src, out = tmp_path / "in.dat", tmp_path / "out.dat"
    kklab.save_spectrum(kklab.load_spectrum(lorentz_csv, "csv"), src, "json")
    assert main(["transform", "--direction", "re-from-im", "--format", "json",
                 "--in", str(src), "--out", str(out)]) == 0
    assert set(json.loads(out.read_text())) == {"unit", "omega", "re_n", "im_n"}


def test_transform_non_integrable_tail(tmp_path, capsys):
    nu = np.geomspace(1e-2, 1e2, 256)
    s = kklab.ComplexIndexSpectrum(
        kklab.FrequencyGrid(nu, kklab.GridUnit.NORMALIZED), np.ones_like(nu), nu ** -0.5)
    path = tmp_path / "shallow.csv"
    kklab.save_spectrum(s, path, "csv")
    code = main(["transform", "--direction", "re-from-im",
                 "--in", str(path), "--out", str(tmp_path / "o.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(NUMERICAL)
    assert "0.5" in err  # names the fitted exponent


def test_validate_non_integrable_tail(tmp_path, capsys):
    # the round trip cannot run, but for a reason of the spectrum, not of
    # the grid: a numerical failure that names the exponent, not a verdict
    nu = np.geomspace(1e-2, 1e2, 256)
    s = kklab.ComplexIndexSpectrum(
        kklab.FrequencyGrid(nu, kklab.GridUnit.NORMALIZED), np.ones_like(nu), nu ** -0.5)
    path = tmp_path / "shallow.csv"
    kklab.save_spectrum(s, path, "csv")
    assert main(["validate", "--in", str(path), "--out", str(tmp_path / "r.json")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(NUMERICAL) and "non-integrable" in err


def test_transform_subtracted_takes_a_slowly_decaying_tail(tmp_path):
    # G = (1 - i w)^(-1/2): its fitted tail exponent, about 0.48, needs no
    # more than the subtraction the direction already makes
    nu = np.geomspace(1e-2, 1e2, 2048)
    g = (1.0 - 1j * nu) ** -0.5
    path = tmp_path / "sqrt.csv"
    kklab.save_spectrum(kklab.ComplexIndexSpectrum(
        kklab.FrequencyGrid(nu, kklab.GridUnit.NORMALIZED), g.real, g.imag), path, "csv")
    assert main(["transform", "--direction", "subtracted", "--omega0", "0", "--g0-re", "1",
                 "--in", str(path), "--out", str(tmp_path / "o.csv")]) == 0


def test_transform_subtracted_at_a_sampled_zero(tmp_path):
    # omega0 = 0 on a grid that samples it: no node collides with a node w0
    nu = np.r_[0.0, np.geomspace(1e-2, 1e2, 2047)]
    s = kklab.lorentz_index(kklab.LorentzOscillatorParams(1.0, 1.0, 0.1),
                            kklab.FrequencyGrid(nu, kklab.GridUnit.NORMALIZED))
    path = tmp_path / "zero.csv"
    kklab.save_spectrum(s, path, "csv")
    assert main(["transform", "--direction", "subtracted", "--omega0", "0", "--g0-re", "1.5",
                 "--in", str(path), "--out", str(tmp_path / "o.csv")]) == 0


def test_transform_subtracted_one_ulp_off_a_node(tmp_path):
    # omega0 one ulp above a node is that node's omega0: no collision zone
    path = tmp_path / "lor.csv"
    assert main([*MODEL, "--grid", "log:1e-2:1e2:2048", "--out", str(path)]) == 0
    w0 = float(np.nextafter(kklab.load_spectrum(path, "csv").grid.values[1000], 1.0))
    assert main(["transform", "--direction", "subtracted", "--omega0", repr(w0), "--g0-re", "0.6",
                 "--in", str(path), "--out", str(tmp_path / "o.csv")]) == 0


def test_transform_subtracted_pole_collision(lorentz_csv, tmp_path, capsys):
    code = main(["transform", "--direction", "subtracted", "--omega0", "0.5",
                 "--g0-re", "0.6", "--g0-im", "0.04",
                 "--in", str(lorentz_csv), "--out", str(tmp_path / "o.csv")])
    assert code == 3
    assert capsys.readouterr().err.startswith(NUMERICAL)


@pytest.mark.parametrize("flags, message", [
    (["--direction", "subtracted", "--omega0", "-1"], "omega0 must be finite and >= 0"),
    (["--direction", "subtracted-at-infinity", "--im-inf", "nan"],
     "subtraction constants must be finite"),
])
def test_transform_rejects_bad_subtraction(lorentz_csv, tmp_path, capsys, flags, message):
    code = main(["transform", *flags,
                 "--in", str(lorentz_csv), "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert message in capsys.readouterr().err


def test_transform_tail_override(lorentz_csv, tmp_path):
    out = tmp_path / "re.csv"
    assert main(["transform", "--direction", "re-from-im",
                 "--tail-exponent", "3", "--tail-amplitude", "0.05",
                 "--in", str(lorentz_csv), "--out", str(out)]) == 0
    spec = kklab.load_spectrum(lorentz_csv, "csv")
    tail = kklab.TailModel(3.0, 0.05, float(spec.grid.values[-1]))
    expected = kklab.kk_re_from_im(spec, tail)
    np.testing.assert_array_equal(kklab.load_spectrum(out, "csv").re, expected.spectrum.re)


@pytest.mark.parametrize("flags", [
    ["--tail-exponent", "3"],
    ["--tail-amplitude", "0.05"],
    ["--tail-exponent", "-1", "--tail-amplitude", "0.05"],
])
def test_transform_tail_override_rejected(lorentz_csv, tmp_path, flags):
    assert main(["transform", "--direction", "re-from-im", *flags,
                 "--in", str(lorentz_csv), "--out", str(tmp_path / "o.csv")]) == 2


def test_transform_subtracted_requires_omega0(lorentz_csv, tmp_path):
    code = main(["transform", "--direction", "subtracted",
                 "--in", str(lorentz_csv), "--out", str(tmp_path / "o.csv")])
    assert code == 2


def test_validate_consistent_spectrum(lorentz_csv, tmp_path):
    report = tmp_path / "report.json"
    code = main(["validate", "--in", str(lorentz_csv), "--out", str(report)])
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["dichotomy"] == "consistent_with_unity"
    assert doc["schema"] == 1


def test_validate_superluminal_spectrum(tmp_path):
    nu = np.geomspace(1e-2, 1e2, 256)
    s = kklab.ComplexIndexSpectrum(
        kklab.FrequencyGrid(nu, kklab.GridUnit.NORMALIZED),
        np.full(nu.size, 0.9), np.zeros(nu.size))
    path = tmp_path / "c09.csv"
    kklab.save_spectrum(s, path, "csv")
    report = tmp_path / "report.json"
    code = main(["validate", "--in", str(path), "--out", str(report)])
    assert code == 1
    assert json.loads(report.read_text())["dichotomy"] == "superluminal_branch"


def test_validate_k0(lorentz_csv, tmp_path):
    report = tmp_path / "report.json"
    assert main(["validate", "--in", str(lorentz_csv), "--out", str(report),
                 "--k0", "0"]) == 2
    assert main(["validate", "--in", str(lorentz_csv), "--out", str(report),
                 "--k0", "10"]) == 0
    assert '"k0": 10.0' in report.read_text()


@pytest.mark.parametrize("k0", ["nan", "inf"])
def test_validate_rejects_non_finite_k0(lorentz_csv, tmp_path, capsys, k0):
    report = tmp_path / "report.json"
    assert main(["validate", "--in", str(lorentz_csv), "--out", str(report),
                 "--k0", k0]) == 2
    assert "K0 must be finite" in capsys.readouterr().err
    assert not report.exists()


def test_transform_rejects_k0(lorentz_csv, tmp_path):
    assert main(["transform", "--direction", "re-from-im", "--k0", "1",
                 "--in", str(lorentz_csv), "--out", str(tmp_path / "o.csv")]) == 2


def test_validate_grid_from_zero(tmp_path):
    # a valid linear grid that starts at w = 0: the audit's interior starts
    # half a decade above the first positive node
    path = tmp_path / "lin.csv"
    assert main(["model", "lorentz", "--omega-p", "1", "--omega-res", "1",
                 "--gamma", "0.1", "--grid", "lin:0:100:4096", "--out", str(path)]) == 0
    report = tmp_path / "report.json"
    assert main(["validate", "--in", str(path), "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["dichotomy"] == "consistent_with_unity"
    assert np.isfinite(doc["kk_residual"])


def test_validate_single_top_decade_node(tmp_path, capsys):
    # the asymptote fits fail, and so does the round trip's tail fit: the
    # report says inconclusive with a null residual, not numpy's "Singular
    # matrix" nor a numerical failure
    nu = np.concatenate([np.geomspace(1e-2, 5.0, 200), [100.0]])
    s = kklab.lorentz_index(kklab.LorentzOscillatorParams(1.0, 1.0, 0.1),
                            kklab.FrequencyGrid(nu, kklab.GridUnit.NORMALIZED))
    path = tmp_path / "sparse.csv"
    kklab.save_spectrum(s, path, "csv")
    report = tmp_path / "r.json"
    assert main(["validate", "--in", str(path), "--out", str(report)]) == 1
    assert capsys.readouterr().err == ""
    doc = json.loads(report.read_text())
    assert doc["dichotomy"] == "inconclusive"
    assert doc["asymptote_re"] is None and doc["kk_residual"] is None


def test_validate_two_decades_is_inconclusive(tmp_path, capsys):
    # too narrow a band for the asymptote, wide enough for the round trip
    path, report = tmp_path / "band.csv", tmp_path / "r.json"
    assert main(["model", "lorentz", "--omega-p", "1", "--omega-res", "3", "--gamma", "0.3",
                 "--grid", "log:1:100:400", "--out", str(path)]) == 0
    assert main(["validate", "--in", str(path), "--out", str(report)]) == 1
    assert capsys.readouterr().err == ""
    doc = json.loads(report.read_text())
    assert doc["dichotomy"] == "inconclusive"
    assert doc["asymptote_re"] is None and doc["kk_residual"] < 1e-3


def test_validate_sub_decade_band_is_input_error(tmp_path, capsys):
    # no node lies outside the edge half-decades, where the residual is taken
    path, report = tmp_path / "band.csv", tmp_path / "r.json"
    assert main([*MODEL, "--grid", "log:1:5:400", "--out", str(path)]) == 0
    assert main(["validate", "--in", str(path), "--out", str(report)]) == 2
    assert "grid too narrow" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("count", [20, 28])
def test_validate_tiny_grid_is_inconclusive(tmp_path, capsys, count):
    # too few top-decade samples for the round trip's tail fit
    path, report = tmp_path / "tiny.csv", tmp_path / "r.json"
    assert main(["model", "lorentz", "--omega-p", "1", "--omega-res", "1",
                 "--gamma", "0.1", "--grid", f"log:0.01:100:{count}",
                 "--out", str(path)]) == 0
    assert main(["validate", "--in", str(path), "--out", str(report)]) == 1
    assert capsys.readouterr().err == ""
    doc = json.loads(report.read_text())
    assert doc["dichotomy"] == "inconclusive"
    assert doc["kk_residual"] is None


def test_write_failure_is_input_error(tmp_path, monkeypatch, capsys):
    def full(self, *args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(Path, "write_text", full)
    code = main(["scharnhorst", "--L", "1e-6", "--out", str(tmp_path / "t.csv")])
    assert code == 2
    assert "No space left on device" in capsys.readouterr().err


NUMPY_REFUSAL = ("Unable to allocate 745. GiB for an array with shape (100000000000,) "
                 "and data type float64")


@pytest.mark.parametrize("message, shown", [(NUMPY_REFUSAL, NUMPY_REFUSAL),
                                            ("", "out of memory")], ids=["numpy", "bare"])
def test_grid_too_large_to_hold_is_input_error(tmp_path, monkeypatch, capsys, message, shown):
    # numpy refuses the array of lin:0:1:100000000000 with a MemoryError;
    # the grid constructor raises it here, so nothing is allocated
    class Grid:
        @staticmethod
        def linear(*args):
            raise MemoryError(message)

    monkeypatch.setattr(cli, "FrequencyGrid", Grid)
    code = main(MODEL + ["--grid", "lin:0:1:100000000000", "--out", str(tmp_path / "m.csv")])
    assert code == 2
    assert capsys.readouterr().err == f"{INPUT}{shown}\n"


@pytest.mark.parametrize("spec, message", [
    ("foo", "bad grid spec 'foo'; expected log:MIN:MAX:COUNT or lin:MIN:MAX:COUNT"),
    ("log:0:100:64", "log-spaced grid needs lo > 0"),
])
def test_model_rejects_bad_grid_spec(tmp_path, capsys, spec, message):
    out = tmp_path / "m.csv"
    assert main([*MODEL, "--grid", spec, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"{INPUT}{message}\n"
    assert not out.exists()


def test_scharnhorst_table(tmp_path):
    out = tmp_path / "table.csv"
    with pytest.warns(UserWarning):
        code = main(["scharnhorst", "--L", "1e-6,1e-15", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data[0] == "L_m,delta_c_over_c,measurability_ratio,n_perp"
    assert len(data) == 3


@pytest.mark.parametrize("flags", [["--k-coeff", "0"], ["--L", "1e100"]],
                         ids=["k_coeff 0", "shift underflows"])
def test_scharnhorst_table_without_shift(tmp_path, flags):
    out = tmp_path / "table.csv"
    assert main(["scharnhorst", "--L", "1e-6", *flags, "--out", str(out)]) == 0
    row = out.read_text().splitlines()[-1].split(",")
    assert row[1:] == ["0", "inf", "1"]


@pytest.mark.parametrize("args, message", [
    (["scharnhorst", "--L", "1e-300"], "L = 1e-300"),
    (["clock", "--L", "1e-300", "--beta", "0.3", "--orientation", "parallel"], "L = 1e-300"),
    (["scharnhorst", "--L", "nan"], "L must be finite"),
    (["scharnhorst", "--L", "1e-6", "--lambda-probe", "inf"], "probe_wavelength must be finite"),
    (["scharnhorst", "--L", "1e-6", "--c-light", "nan"], "c must be finite"),
    (["clock", "--L", "inf", "--beta", "0.3", "--orientation", "parallel"], "L must be finite"),
    (["clock", "--L", "1e-6", "--beta", "0.3", "--orientation", "parallel",
      "--k-coeff", "inf"], "k_coeff must be finite"),
    (["scharnhorst", "--L", ","], "--L needs at least one separation"),
], ids=["scharnhorst L tiny", "clock L tiny", "scharnhorst L nan",
        "scharnhorst probe inf", "scharnhorst c nan", "clock L inf", "clock k inf",
        "scharnhorst L empty"])
def test_calculators_reject_unrepresentable_input(tmp_path, capsys, args, message):
    out = tmp_path / "out.txt"
    assert main([*args, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_clock_json(tmp_path):
    out = tmp_path / "clock.json"
    code = main(["clock", "--L", "1e-14", "--beta", "0.3",
                 "--orientation", "perpendicular", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["inconsistency"] > 0.0
    assert doc["orientation"] == "perpendicular"


def test_clock_degenerate_regime(tmp_path, capsys):
    code = main(["clock", "--L", "1e-14", "--beta", "0.6",
                 "--orientation", "perpendicular", "--out", str(tmp_path / "c.json")])
    assert code == 3
    assert capsys.readouterr().err.startswith(NUMERICAL)


@pytest.mark.parametrize("orientation, code", [("parallel", 0), ("perpendicular", 3)])
def test_clock_at_tiny_separation(tmp_path, capsys, orientation, code):
    # delta c/c = 1.2e200: the parallel tick is still representable, the
    # perpendicular construction degenerates
    out = tmp_path / "clock.json"
    assert main(["clock", "--L", "1e-64", "--beta", "0.3", "--orientation", orientation,
                 "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
        doc = json.loads(out.read_text())
        assert doc["tick_moving_direct_s"] == pytest.approx(5.412426340480793e-273, rel=1e-15)
    else:
        assert err.startswith(NUMERICAL) and "degenerates" in err
        assert not out.exists()


def test_clock_constants_override(tmp_path):
    out = tmp_path / "clock.json"
    code = main(["clock", "--L", "1e-14", "--beta", "0.6", "--k-coeff", "0",
                 "--orientation", "perpendicular", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["inconsistency"] < 1e-12


@pytest.mark.parametrize("L", ["1e-6", "1e-14"])
@pytest.mark.parametrize("orientation", ["parallel", "perpendicular"])
def test_clock_at_huge_light_speed(tmp_path, orientation, L):
    # the shift law does not depend on c, so every tick scales as 1/c
    scaled = []
    for c in (kklab.PhysicalConstants().c, 1e200):
        out = tmp_path / "clock.json"
        code = main(["clock", "--L", L, "--beta", "0.3", "--orientation", orientation,
                     "--c-light", repr(c), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        scaled.append([doc[k] * c for k in
                       ("tick_rest_s", "tick_moving_direct_s", "tick_moving_sr_s")])
    np.testing.assert_allclose(scaled[1], scaled[0], rtol=1e-12, atol=0.0)


def test_unknown_flag_exits_two(tmp_path):
    assert main(["clock", "--L", "1", "--beta", "0", "--orientation", "parallel",
                 "--out", str(tmp_path / "c.json"), "--bogus"]) == 2


def test_help_exits_zero():
    assert main(["--help"]) == 0
    assert main(["transform", "--help"]) == 0


@pytest.mark.parametrize("argv", [["transform"], []], ids=["missing flags", "no command"])
def test_usage_error_returns_two(capsys, argv):
    # returned, not raised as SystemExit: main gives every code of the contract
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("usage: kklab")


def test_commands_call_names_set_on_cli(lorentz_csv, tmp_path, monkeypatch):
    # a wrapper set on kklab.cli before main runs, as a tracer sets one, is
    # the one the command calls
    calls = []
    for name in ("load_spectrum", "kk_re_from_im", "save_spectrum"):
        def record(*args, _name=name, _fn=getattr(cli, name)):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(cli, name, record)
    assert main(["transform", "--direction", "re-from-im",
                 "--in", str(lorentz_csv), "--out", str(tmp_path / "o.csv")]) == 0
    assert calls == ["load_spectrum", "kk_re_from_im", "save_spectrum"]


@pytest.mark.parametrize("error, code, prefix", [
    (lambda: kklab.NumericalError("boom"), 3, NUMERICAL),
    (lambda: kklab.SpectrumFormatError("boom"), 2, INPUT),
    (lambda: OSError("boom"), 2, INPUT),
], ids=["NumericalError", "ValueError", "OSError"])
def test_exit_code_follows_error_class(lorentz_csv, tmp_path, monkeypatch, capsys,
                                       error, code, prefix):
    def fail(*args):
        raise error()

    monkeypatch.setattr(cli, "kk_re_from_im", fail)
    assert main(["transform", "--direction", "re-from-im",
                 "--in", str(lorentz_csv), "--out", str(tmp_path / "o.csv")]) == code
    assert capsys.readouterr().err == f"{prefix}boom\n"


def test_help_lists_all_flags(capsys):
    main(["transform", "--help"])
    text = capsys.readouterr().out
    for flag in ["--direction", "--omega0", "--g0-re", "--g0-im", "--re-inf",
                 "--im-inf", "--tail-exponent", "--tail-amplitude",
                 "--in", "--out", "--format"]:
        assert flag in text
    main(["validate", "--help"])
    assert "--k0" in capsys.readouterr().out


def test_outputs_deterministic(lorentz_csv, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        assert main(["transform", "--direction", "re-from-im",
                     "--in", str(lorentz_csv), "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
