"""kklab: dispersion-relation transforms with causality audits, plus
calculators for the boundary-vacuum velocity shift and its relativity
thought experiments. Names resolve on first access (PEP 562), each importing
only its own submodule: ``import kklab`` loads no submodule and no numpy.
:class:`NumericalError`, the base of the numerical failures, lives here."""

_EXPORTS = {
    "causality": ("AsymptoteFitError", "CausalityReport", "Dichotomy", "audit",
                  "check_bounded", "detect_amplification", "estimate_asymptote"),
    "kk": ("PoleCollisionError", "TransformResult", "kk_im_from_re", "kk_re_from_im",
           "kk_subtracted", "kk_subtracted_at_infinity", "roundtrip_residual"),
    "models": ("LorentzOscillatorParams", "PhysicalConstants", "lorentz_index",
               "scharnhorst_index_parallel", "scharnhorst_index_perp"),
    "pvquad": ("NonIntegrableTailError", "PoleIntegrand", "PoleLocationError",
               "QuadratureResult", "TailFitError", "TailModel", "fit_tail", "pv_integrate",
               "pv_semi_infinite", "tail_integral"),
    "scharnhorst": ("ClockComparison", "DegenerateClockError", "LengthScaleRow",
                    "LightClockScenario", "Orientation", "ScharnhorstScenario",
                    "delta_c_over_c", "delta_v", "format_length_scale_table",
                    "invariant_length", "length_scale_table", "light_clock_tick",
                    "measurability_ratio"),
    "spectra": ("AbsorptionSpectrum", "ComplexIndexSpectrum", "FrequencyGrid", "GridUnit",
                "SpectrumFormatError", "absorption_from_im", "im_from_absorption",
                "load_spectrum", "resample", "save_spectrum"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_ORIGIN, *_EXPORTS, "NumericalError"])
__version__ = "0.1.0"


class NumericalError(ValueError):
    """The input is well formed, but the computation cannot be carried out
    reliably: a tail fit, a pole placement or collision, a degenerate clock."""


def __getattr__(name: str):
    if name in _EXPORTS:
        # __import__, unlike importlib.import_module, is timed by -X importtime
        return __import__(f"{__name__}.{name}", fromlist=["_"])
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__getattr__(_ORIGIN[name]), name)
    globals()[name] = value  # later lookups, and a wrapper set over it, skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
