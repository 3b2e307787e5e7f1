"""What a kklab process imports.

``import kklab`` loads no submodule, and each CLI subcommand loads only the
modules it runs: the calculators never load numpy. Each check runs in a
fresh interpreter, because this one has imported everything already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kklab

# the public names of the package, its submodules included
PUBLIC = {
    "AbsorptionSpectrum", "AsymptoteFitError", "CausalityReport", "ClockComparison",
    "ComplexIndexSpectrum", "DegenerateClockError", "Dichotomy", "FrequencyGrid", "GridUnit",
    "LengthScaleRow", "LightClockScenario", "LorentzOscillatorParams",
    "NonIntegrableTailError", "NumericalError", "Orientation", "PhysicalConstants",
    "PoleCollisionError", "PoleIntegrand", "PoleLocationError", "QuadratureResult",
    "ScharnhorstScenario", "SpectrumFormatError", "TailFitError", "TailModel",
    "TransformResult", "absorption_from_im", "audit", "check_bounded", "delta_c_over_c",
    "delta_v", "detect_amplification", "estimate_asymptote", "fit_tail",
    "format_length_scale_table", "im_from_absorption", "invariant_length", "kk_im_from_re",
    "kk_re_from_im", "kk_subtracted", "kk_subtracted_at_infinity", "length_scale_table",
    "light_clock_tick", "load_spectrum", "lorentz_index", "measurability_ratio", "pv_integrate",
    "pv_semi_infinite", "resample", "roundtrip_residual", "save_spectrum",
    "scharnhorst_index_parallel", "scharnhorst_index_perp", "tail_integral",
}
SUBMODULES = {"causality", "kk", "models", "pvquad", "scharnhorst", "spectra"}

# prints the json, numpy, numpy.ma, numpy.fft and kklab modules loaded after
# running the CLI on the arguments; json is imported only to print them
CLI = """
import sys
from kklab.cli import main
code = main(sys.argv[1:])
modules = sorted(m for m in sys.modules if m.startswith("kklab")
                 or m in ("json", "numpy", "numpy.ma", "numpy.fft"))
import json
print(json.dumps([code, modules]))
"""


def _python(code: str, *args: str, cwd=None) -> str:
    env = dict(os.environ, PYTHONPATH=str(Path(kklab.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, check=True, timeout=120).stdout


def _cli(argv: list[str], cwd) -> tuple[int, set[str]]:
    code, modules = json.loads(_python(CLI, *argv, cwd=cwd))
    return code, set(modules)


def test_import_loads_no_submodule():
    out = _python("import sys, kklab; print(sorted(m for m in sys.modules "
                  "if m == 'numpy' or m.startswith('kklab')))")
    assert out.strip() == "['kklab']"


@pytest.mark.parametrize("argv, exit_code, extra", [
    (["scharnhorst", "--L", "1e-6,1e-15", "--out", "t.csv"], 0, set()),
    # json loads to write the clock's report
    (["clock", "--L", "1e-6", "--beta", "0.3", "--orientation", "parallel",
      "--out", "c.json"], 0, {"json"}),
    # the degenerate clock: main classifies it as numerical without numpy
    (["clock", "--L", "1e-14", "--beta", "0.6", "--orientation", "perpendicular",
      "--out", "c.json"], 3, set()),
], ids=["scharnhorst", "clock", "clock degenerate"])
def test_calculators_leave_numpy_unloaded(tmp_path, argv, exit_code, extra):
    code, modules = _cli(argv, tmp_path)
    assert code == exit_code
    assert modules == {"kklab", "kklab.cli", "kklab.models", "kklab.scharnhorst", *extra}


def test_spectrum_commands_load_only_their_modules(tmp_path):
    # numpy.ma is numpy's heaviest lazy import; np.median would load it
    model = ["model", "lorentz", "--omega-p", "1", "--omega-res", "1", "--gamma", "0.1",
             "--grid", "log:1e-2:1e2:256", "--out", "in.csv"]
    assert _cli(model, tmp_path) == (0, {"numpy", "kklab", "kklab.cli", "kklab.models",
                                         "kklab.spectra"})
    # transform loads neither models nor json
    unused = {"kklab.causality", "kklab.models", "kklab.scharnhorst", "json", "numpy.ma"}
    for direction in ("re-from-im", "im-from-re", "subtracted-at-infinity"):
        code, modules = _cli(["transform", "--direction", direction, "--in", "in.csv",
                              "--out", "out.csv"], tmp_path)
        assert code == 0
        assert "kklab.kk" in modules
        assert not modules & unused
    subtracted = ["transform", "--direction", "subtracted", "--omega0", "0", "--g0-re", "0.5",
                  "--g0-im", "0.01", "--out", "out.csv"]
    # on a log grid the subtracted relation takes the FFT path as well
    code, modules = _cli([*subtracted, "--in", "in.csv"], tmp_path)
    assert code == 0
    assert {"kklab.kk", "numpy.fft"} <= modules
    assert not modules & unused
    # the blocked operator alone, on a linear grid: numpy.fft loads with the
    # FFT path's first plan
    assert _cli([*model[:-4], "--grid", "lin:1:100:256", "--out", "lin.csv"], tmp_path)[0] == 0
    code, modules = _cli([*subtracted, "--in", "lin.csv"], tmp_path)
    assert code == 0
    assert "kklab.kk" in modules
    assert not modules & {*unused, "numpy.fft"}
    # the audit's report is JSON
    code, modules = _cli(["validate", "--in", "in.csv", "--out", "r.json"], tmp_path)
    assert code == 0
    assert {"kklab.causality", "json"} <= modules
    assert not modules & {"kklab.models", "kklab.scharnhorst", "numpy.ma"}


def test_every_public_name_resolves():
    check = """
import importlib, json, sys, kklab
public, submodules = json.loads(sys.argv[1])
got = {n: getattr(kklab, n) for n in submodules + public}
mods = {m: importlib.import_module("kklab." + m) for m in submodules}
bad = [m for m in submodules if got[m] is not mods[m]]
bad += [n for n in public if not any(got[n] is getattr(m, n, None) for m in mods.values())]
print(json.dumps([kklab.__version__, bad]))
"""
    out = _python(check, json.dumps([sorted(PUBLIC), sorted(SUBMODULES)]))
    assert json.loads(out) == ["0.1.0", []]


def test_numerical_errors_share_one_base():
    # main exits 3 on exactly these, and 2 on every other ValueError
    errors = {n for n in PUBLIC if isinstance(getattr(kklab, n), type)
              and issubclass(getattr(kklab, n), Exception)}
    assert all(issubclass(getattr(kklab, n), ValueError) for n in errors)
    assert {n for n in errors if issubclass(getattr(kklab, n), kklab.NumericalError)} == {
        "NumericalError", "TailFitError", "NonIntegrableTailError", "PoleLocationError",
        "PoleCollisionError", "DegenerateClockError"}


def test_star_import_and_dir_list_the_public_names():
    out = _python("import json, kklab\n"
                  "ns = {}\n"
                  "exec('from kklab import *', ns)\n"
                  "print(json.dumps([sorted(n for n in ns if n != '__builtins__'), dir(kklab)]))")
    star, listed = json.loads(out)
    assert set(star) == PUBLIC | SUBMODULES
    assert {n for n in listed if not n.startswith("_")} == PUBLIC | SUBMODULES
    assert "__version__" in listed
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        kklab.no_such_name
