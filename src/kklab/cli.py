"""Batch command-line front end.

Subcommands: transform, validate, model, scharnhorst, clock. Results go to
files, diagnostics to stderr. Exit codes are a stable contract:

    0  success (validate: spectrum consistent with a unity asymptote)
    1  validate found a non-unity causality branch, or reached no verdict
    2  input error (missing/malformed file, bad flags, unwritable output)
    3  numerical failure: any kklab.NumericalError (tail fit, pole, clock)

Outputs are deterministic byte-for-byte for identical flags and inputs:
floats are written at 17 significant digits with a dot decimal separator.
Commands call kklab's public names through this module, as ``_cli.NAME``,
looked up when the command runs: a name set on ``kklab.cli`` beforehand,
such as a tracing wrapper, is the one called.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import _ORIGIN, NumericalError

if TYPE_CHECKING:
    from .models import PhysicalConstants
    from .pvquad import TailModel
    from .spectra import FrequencyGrid

_cli = sys.modules[__name__]


def __getattr__(name: str):
    """A public kklab name, from the package: it imports only that name's submodule."""
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(sys.modules[__package__], name)


def _file_format(path: str, override: str | None) -> str:
    if override:
        return override
    return "json" if Path(path).suffix.lower() == ".json" else "csv"


def _parse_grid(spec: str) -> FrequencyGrid:
    """Parse 'log:MIN:MAX:COUNT' or 'lin:MIN:MAX:COUNT'."""
    parts = spec.split(":")
    if len(parts) != 4 or parts[0] not in ("log", "lin"):
        raise ValueError(f"bad grid spec {spec!r}; expected log:MIN:MAX:COUNT or lin:MIN:MAX:COUNT")
    lo, hi, count = float(parts[1]), float(parts[2]), int(parts[3])
    if count < 16:
        raise ValueError("synthesized grids need >= 16 nodes")
    if parts[0] == "log":
        return _cli.FrequencyGrid.log_spaced(lo, hi, count, _cli.GridUnit.NORMALIZED)
    return _cli.FrequencyGrid.linear(lo, hi, count, _cli.GridUnit.NORMALIZED)


def _constants(args: argparse.Namespace) -> PhysicalConstants:
    """The flags given, over the defaults that PhysicalConstants holds."""
    given = dict(c=args.c_light, alpha=args.alpha, lambda_c=args.lambda_c, k_coeff=args.k_coeff)
    return _cli.PhysicalConstants(**{k: v for k, v in given.items() if v is not None})


def _add_constants_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--c-light", type=float, help="speed of light in m/s")
    p.add_argument("--alpha", type=float, help="fine-structure constant")
    p.add_argument("--lambda-c", type=float, help="Compton wavelength in m")
    p.add_argument("--k-coeff", type=float, help="vacuum-shift coefficient k")


def _tail_override(args: argparse.Namespace, grid_top: float) -> TailModel | None:
    """The --tail-exponent/--tail-amplitude model from ``grid_top`` up, or None."""
    if args.tail_exponent is None and args.tail_amplitude is None:
        return None
    if args.tail_exponent is None or args.tail_amplitude is None:
        raise ValueError("--tail-exponent and --tail-amplitude must be given together")
    return _cli.TailModel(args.tail_exponent, args.tail_amplitude, grid_top)


def _cmd_transform(args: argparse.Namespace) -> int:
    spec = _cli.load_spectrum(args.input, _file_format(args.input, args.format))
    tail = _tail_override(args, float(spec.grid.values[-1]))
    if args.direction == "re-from-im":
        result = _cli.kk_re_from_im(spec, tail)
    elif args.direction == "im-from-re":
        result = _cli.kk_im_from_re(spec, tail)
    elif args.direction == "subtracted":
        if args.omega0 is None:
            raise ValueError("--omega0 is required for --direction subtracted")
        result = _cli.kk_subtracted(spec, args.omega0, args.g0_re, args.g0_im, tail)
    else:  # subtracted-at-infinity
        result = _cli.kk_subtracted_at_infinity(spec, args.re_inf, args.im_inf, tail)
    _cli.save_spectrum(result.spectrum, args.output, _file_format(args.output, args.format))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    spec = _cli.load_spectrum(args.input, _file_format(args.input, args.format))
    report = _cli.audit(spec, _tail_override(args, float(spec.grid.values[-1])), k0=args.k0)
    Path(args.output).write_text(report.to_json() + "\n")
    return 0 if report.dichotomy is _cli.Dichotomy.CONSISTENT_WITH_UNITY else 1


def _cmd_model(args: argparse.Namespace) -> int:
    grid = _parse_grid(args.grid)
    params = _cli.LorentzOscillatorParams(args.omega_p, args.omega_res, args.gamma)
    spec = _cli.lorentz_index(params, grid)
    _cli.save_spectrum(spec, args.output, _file_format(args.output, args.format))
    return 0


def _cmd_scharnhorst(args: argparse.Namespace) -> int:
    L_values = [float(tok) for tok in args.L.split(",") if tok]
    if not L_values:
        raise ValueError("--L needs at least one separation")
    rows = _cli.length_scale_table(L_values, _constants(args), args.lambda_probe)
    Path(args.output).write_text(_cli.format_length_scale_table(rows))
    return 0


def _cmd_clock(args: argparse.Namespace) -> int:
    scenario = _cli.LightClockScenario(
        L=args.L,
        beta=args.beta,
        orientation=_cli.Orientation(args.orientation),
        constants=_constants(args),
    )
    comparison = _cli.light_clock_tick(scenario)
    doc = {
        "schema": 1,
        "L_m": scenario.L,
        "beta": scenario.beta,
        "orientation": scenario.orientation.value,
        **comparison.to_dict(),
    }
    import json
    Path(args.output).write_text(json.dumps(doc, indent=2) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kklab",
        description="Dispersion-relation transforms, causality audits and "
                    "boundary-vacuum calculators over sampled spectra.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, need_input=True):
        if need_input:
            p.add_argument("--in", dest="input", required=True, help="input spectrum file")
        p.add_argument("--out", dest="output", required=True, help="output file")
        p.add_argument("--format", choices=["csv", "json"], default=None,
                       help="force file format (default: by extension)")

    def add_kk_flags(p):
        p.add_argument("--tail-exponent", type=float, default=None,
                       help="override fitted tail exponent p")
        p.add_argument("--tail-amplitude", type=float, default=None,
                       help="override fitted tail amplitude A")

    p = sub.add_parser("transform", help="apply a dispersion transform to a spectrum")
    add_io(p)
    add_kk_flags(p)
    p.add_argument("--direction", required=True,
                   choices=["re-from-im", "im-from-re", "subtracted", "subtracted-at-infinity"])
    p.add_argument("--omega0", type=float, default=None, help="finite subtraction point")
    p.add_argument("--g0-re", type=float, default=0.0, help="Re G(omega0)")
    p.add_argument("--g0-im", type=float, default=0.0, help="Im G(omega0)")
    p.add_argument("--re-inf", type=float, default=1.0, help="Re n(inf)")
    p.add_argument("--im-inf", type=float, default=0.0, help="Im n(inf)")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("validate", help="causality audit; JSON report")
    add_io(p)
    add_kk_flags(p)
    p.add_argument("--k0", type=float, default=None,
                   help="boundedness constant K0 for |n|^2")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("model", help="synthesize an analytic model spectrum")
    p.add_argument("kind", choices=["lorentz"])
    add_io(p, need_input=False)
    p.add_argument("--omega-p", type=float, required=True, help="plasma frequency")
    p.add_argument("--omega-res", type=float, required=True, help="resonance frequency")
    p.add_argument("--gamma", type=float, required=True, help="damping rate")
    p.add_argument("--grid", required=True, help="log:MIN:MAX:COUNT or lin:MIN:MAX:COUNT")
    p.set_defaults(func=_cmd_model)

    p = sub.add_parser("scharnhorst", help="length-scale table (CSV)")
    add_io(p, need_input=False)
    p.add_argument("--L", required=True, help="comma-separated plate separations in m")
    p.add_argument("--lambda-probe", type=float, default=None,
                   help="probe wavelength in m (default: Compton wavelength)")
    _add_constants_flags(p)
    p.set_defaults(func=_cmd_scharnhorst)

    p = sub.add_parser("clock", help="light-clock frame comparison (JSON)")
    add_io(p, need_input=False)
    p.add_argument("--L", type=float, required=True, help="mirror separation in m")
    p.add_argument("--beta", type=float, required=True, help="boost as a fraction of c")
    p.add_argument("--orientation", required=True, choices=["parallel", "perpendicular"])
    _add_constants_flags(p)
    p.set_defaults(func=_cmd_clock)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's own codes: 2 for a usage error, 0 for --help
        return exc.code
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"kklab: numerical failure: {exc}", file=sys.stderr)
        return 3
    # bad flag values or input files, failed writes, grids too large to hold
    except (ValueError, OSError, MemoryError) as exc:
        print(f"kklab: input error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
