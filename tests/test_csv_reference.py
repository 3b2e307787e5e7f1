"""The spectrum CSV reader and writer against row-by-row references.

``spectra._parse_csv`` converts every data cell in one pass with numpy's C
parser, or where that refuses them with ``float`` row by row, and
``save_spectrum`` formats the whole body at once. The references below are
the row-by-row reader and writer they replaced. Both sides read cells with
``float`` and write them with ``%.17g``, so arrays must be bit-identical,
files byte-identical, and a rejected text must give the same message and no
warning, from ``_parse_csv`` and through ``load_spectrum`` alike
(``assert_matches_reference``). The reader is fuzzed here on free texts,
most of which fail validation, and in test_csv_parser on CSV bodies, which
mostly pass it.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kklab import ComplexIndexSpectrum, FrequencyGrid, GridUnit, SpectrumFormatError, load_spectrum
from kklab.spectra import CSV_HEADER, _parse_csv, _validate_loaded, save_spectrum


def reference_parse(text: str, unit):
    omega, re_n, im_n = [], [], []
    saw_header = False
    row = 0  # data-row counter, 1-based in messages
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            body = stripped.lstrip("#").strip()
            if body.lower().startswith("unit:"):
                tag = body.split(":", 1)[1].strip()
                try:
                    unit = GridUnit(tag)
                except ValueError:
                    raise SpectrumFormatError(f"unknown unit tag {tag!r}")
            continue
        if not saw_header:
            if stripped.replace(" ", "") != CSV_HEADER:
                raise SpectrumFormatError(
                    f"expected header {CSV_HEADER!r}, got {stripped!r}")
            saw_header = True
            continue
        row += 1
        parts = [p.strip() for p in stripped.split(",")]
        if len(parts) != 3:
            raise SpectrumFormatError(f"malformed row {row}: expected 3 columns, got {len(parts)}")
        try:
            vals = [float(p) for p in parts]
        except ValueError:
            raise SpectrumFormatError(f"non-numeric value at row {row}: {stripped!r}")
        omega.append(vals[0])
        re_n.append(vals[1])
        im_n.append(vals[2])
    if unit is None:
        unit = GridUnit.SI_RAD_PER_S
    return np.asarray(omega), np.asarray(re_n), np.asarray(im_n), unit


def reference_text(s: ComplexIndexSpectrum) -> str:
    lines = [f"# unit: {s.grid.unit.value}", CSV_HEADER]
    for w, r, i in zip(s.grid.values, s.re, s.im):
        lines.append(f"{w:.17g},{r:.17g},{i:.17g}")
    return "\n".join(lines) + "\n"


def _outcome(read):
    """The arrays and unit that ``read()`` returns, or its error message;
    a warning is an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            *arrays, unit = read()
        except SpectrumFormatError as exc:
            return "error", str(exc)
    # bit patterns, so that -0.0 and the sign of nan count
    return [np.asarray(a, dtype=float).tobytes() for a in arrays], unit


def _parts(s: ComplexIndexSpectrum):
    return s.grid.values, s.re, s.im, s.grid.unit


EXTREMES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                            1.7976931348623157e308, -1.7976931348623157e308])
FINITE = st.floats(allow_nan=False, allow_infinity=False) | EXTREMES
UNITS = st.sampled_from([None, GridUnit.NORMALIZED, GridUnit.SI_RAD_PER_S])


@st.composite
def spectra(draw):
    nonnegative = st.floats(min_value=0.0, allow_infinity=False) | EXTREMES.filter(lambda x: x >= 0)
    omega = draw(st.lists(nonnegative, min_size=2, max_size=40, unique=True).map(sorted))
    n = len(omega)
    re = draw(st.lists(FINITE, min_size=n, max_size=n))
    im = draw(st.lists(FINITE, min_size=n, max_size=n))
    unit = draw(st.sampled_from(list(GridUnit)))
    return ComplexIndexSpectrum(FrequencyGrid(np.array(omega), unit), np.array(re), np.array(im))


@settings(max_examples=300, deadline=None)
@given(spectra())
def test_writer_and_reader_match_references(tmp_path_factory, spec):
    path = tmp_path_factory.getbasetemp() / "reference.csv"
    save_spectrum(spec, path)
    text = reference_text(spec)
    assert path.read_bytes() == text.encode()
    got = _outcome(lambda: _parse_csv(text, None))
    assert got == _outcome(lambda: reference_parse(text, None))
    assert got[0] == [spec.grid.values.tobytes(), spec.re.tobytes(), spec.im.tobytes()]


def _mostly(common, rare, times=8):
    """``common`` about ``times`` times as often as ``rare``."""
    return st.sampled_from([False] * times + [True]).flatmap(lambda r: rare if r else common)


WHITESPACE = st.text(st.sampled_from(" \t\u00a0\u2003\x1f"), max_size=2)
NUMBER = st.one_of(
    st.floats().map(repr),
    st.floats().map(lambda x: f"{x:.17g}"),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: f"{x:.3e}"),
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.sampled_from(["1_000", "\u0661.5", "+.5", "-0", "5e-324", "1e400", "NaN", "-inf"]),
)
JUNK = st.sampled_from(["", "oops", "1.0.0", "0x10", "1e", "--1", "1 2", "_1"])
CELL = st.tuples(WHITESPACE, _mostly(NUMBER, JUNK, 60), WHITESPACE).map("".join)
ROW = _mostly(st.lists(CELL, min_size=3, max_size=3),
              st.lists(CELL, min_size=1, max_size=5), 30).map(",".join)
COMMENT = _mostly(
    st.sampled_from(["# a comment", "#", "## note, with commas", "#unit: normalized",
                     "# unit: si_rad_per_s", "# UNIT:  normalized ", "#  Unit:normalized",
                     "\t# unit: normalized"]),
    st.sampled_from(["# unit: furlongs", "# unit:", "#unit: Normalized"]))
HEADER = _mostly(st.sampled_from([CSV_HEADER, " omega , re_n , im_n ", "omega,re_n, im_n"]),
                 st.sampled_from(["omega,re,im", "omega\t,re_n,im_n", "1,2,3"]))
LINE = _mostly(ROW, st.one_of(COMMENT, WHITESPACE), 4)


@st.composite
def texts(draw):
    lines = draw(st.lists(st.one_of(COMMENT, WHITESPACE), max_size=3))
    lines.append(draw(HEADER))
    lines += draw(st.lists(LINE, max_size=12))
    newline = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


def assert_matches_reference(tmp_path_factory, text, unit):
    """``_parse_csv`` and ``load_spectrum`` on ``text`` give the reference's
    outcome."""
    # most texts fail validation: only the parse compares their arrays
    assert _outcome(lambda: _parse_csv(text, unit)) == _outcome(lambda: reference_parse(text, unit))
    path = tmp_path_factory.getbasetemp() / "body.csv"
    path.write_text(text, encoding="utf-8")
    assert (_outcome(lambda: _parts(load_spectrum(path, unit=unit)))
            == _outcome(lambda: _parts(_validate_loaded(*reference_parse(text, unit)))))


@settings(max_examples=400, deadline=None)
@given(texts(), UNITS)
def test_reader_matches_reference_on_generated_texts(tmp_path_factory, text, unit):
    assert_matches_reference(tmp_path_factory, text, unit)


@pytest.mark.parametrize("text", [
    f"{CSV_HEADER}\n",
    f"# unit: normalized\n{CSV_HEADER}\n# a comment\n\n# unit: si_rad_per_s\n",
], ids=["header only", "comments only"])
def test_no_data_rows_raise_too_few_samples_without_a_warning(tmp_path, text):
    path = tmp_path / "s.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SpectrumFormatError, match="need >= 2 samples"):
            load_spectrum(path)
