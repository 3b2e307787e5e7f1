"""kklab: dispersion-relation transforms with causality audits, plus
calculators for the boundary-vacuum velocity shift and its relativity
thought experiments."""

from .causality import (
    AsymptoteFitError,
    CausalityReport,
    Dichotomy,
    audit,
    check_bounded,
    detect_amplification,
    estimate_asymptote,
)
from .kk import (
    KkOptions,
    PoleCollisionError,
    TransformResult,
    kk_im_from_re,
    kk_re_from_im,
    kk_subtracted,
    kk_subtracted_at_infinity,
    roundtrip_residual,
)
from .models import (
    LorentzOscillatorParams,
    PhysicalConstants,
    lorentz_index,
    scharnhorst_index_parallel,
    scharnhorst_index_perp,
)
from .pvquad import (
    NonIntegrableTailError,
    PoleIntegrand,
    PoleLocationError,
    QuadratureResult,
    TailFitError,
    TailModel,
    fit_tail,
    pv_integrate,
    pv_semi_infinite,
    tail_integral,
)
from .scharnhorst import (
    ClockComparison,
    DegenerateClockError,
    LengthScaleRow,
    LightClockScenario,
    Orientation,
    ScharnhorstScenario,
    delta_c_over_c,
    delta_v,
    format_length_scale_table,
    invariant_length,
    length_scale_table,
    light_clock_tick,
    measurability_ratio,
)
from .spectra import (
    AbsorptionSpectrum,
    ComplexIndexSpectrum,
    FrequencyGrid,
    GridUnit,
    SpectrumFormatError,
    absorption_from_im,
    im_from_absorption,
    load_spectrum,
    resample,
    save_spectrum,
)

__version__ = "0.1.0"
