"""The spectrum reader's one-pass conversion against its row loop.

``spectra._parse_rows`` converts the data rows with numpy's C parser, and
where that refuses them, converts them with ``float`` row by row. The
reference is that row loop: ``reference_parse`` of test_csv_reference. On
generated CSV bodies ``load_spectrum`` must give the reference's bits and
unit, or its error message, and never a warning. The bodies mix three float
formats, whitespace around cells, blank and comment lines between rows and
a unit tag after the data; now and then a cell that only ``float`` reads
(``1_0``, Arabic-Indic digits) or that neither reads, U+001F around a cell
(numpy and ``str.strip`` drop it, ``float`` alone refuses it), or a row of
the wrong width.
"""

import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kklab import GridUnit, SpectrumFormatError, load_spectrum
from kklab.spectra import CSV_HEADER, _validate_loaded
from test_csv_reference import reference_parse

FORMATS = (lambda x: f"{x:.17g}", repr, lambda x: f"{x:.6e}")
PAD = st.sampled_from(["", "", " ", "  ", "\t", "\u00a0"])
RARE_CELL = st.sampled_from(["1_0", "\u0661", "\u0661.5", "2_5e-1", "\x1f1.5", "2\x1f",
                             "", "abc", "1.0.0", "0x10", "1e", "--1", "1 2"])
UNIT_TAG = st.sampled_from([f"# unit: {u.value}" for u in GridUnit] + ["#unit:normalized"])
BETWEEN = st.sampled_from(["", "   ", "# a comment", "## note, with commas", "#"])


def _rare(draw, times=40):
    """True about once in ``times`` draws."""
    return draw(st.integers(1, times)) == 1


@st.composite
def bodies(draw):
    n = draw(st.integers(0, 30))
    omega = sorted(draw(st.lists(st.floats(0.0, 1e6), min_size=n, max_size=n, unique=True)))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    re = draw(st.lists(finite, min_size=n, max_size=n))
    im = draw(st.lists(finite, min_size=n, max_size=n))
    lines = [draw(UNIT_TAG)] if draw(st.booleans()) else []
    lines.append(CSV_HEADER)
    for row in zip(omega, re, im):
        cells = [draw(RARE_CELL) if _rare(draw) else draw(st.sampled_from(FORMATS))(x)
                 for x in row]
        if _rare(draw):
            cells = cells[:2] if draw(st.booleans()) else [*cells, "0"]
        lines.append(",".join(draw(PAD) + c + draw(PAD) for c in cells))
        if _rare(draw, 4):
            lines.append(draw(BETWEEN))
    if draw(st.booleans()):
        lines.append(draw(UNIT_TAG))
    return "\n".join(lines) + "\n"


def _outcome(load):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            s = load()
        except SpectrumFormatError as exc:
            return "error", str(exc)
    # bit patterns, so that -0.0 counts
    return [a.tobytes() for a in (s.grid.values, s.re, s.im)], s.grid.unit


@settings(max_examples=300, deadline=None)
@given(bodies())
@example(f"{CSV_HEADER}\n1,\x1f2,3\n4,5,6\n")
@example(f"{CSV_HEADER}\n1,1_0,3\n4,\u0665,6\n")
def test_load_spectrum_matches_the_row_loop(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "body.csv"
    path.write_text(text, encoding="utf-8")
    got = _outcome(lambda: load_spectrum(path))
    assert got == _outcome(lambda: _validate_loaded(*reference_parse(text, None)))


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
