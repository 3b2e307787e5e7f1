"""The spectrum reader on generated CSV bodies against its row loop.

The reference is the row loop ``reference_parse`` of test_csv_reference, and
the check is that module's ``assert_matches_reference``: ``_parse_csv`` and
``load_spectrum`` must give the reference's bits and unit, or its error
message, and never a warning. test_csv_reference draws free texts, most of
which fail validation; the bodies here mostly pass it. They mix three float
formats, whitespace around cells, blank and comment lines between rows and
a unit tag after the data; now and then a cell that only ``float`` reads
(``1_0``, Arabic-Indic digits) or that neither reads, U+001F around a cell
(numpy and ``str.strip`` drop it, ``float`` alone refuses it), or a row of
the wrong width.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from kklab import GridUnit
from kklab.spectra import CSV_HEADER
from test_csv_reference import UNITS, assert_matches_reference

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


@settings(max_examples=300, deadline=None)
@given(bodies(), UNITS)
@example(f"{CSV_HEADER}\n1,\x1f2,3\n4,5,6\n", None)
@example(f"{CSV_HEADER}\n1,1_0,3\n4,\u0665,6\n", None)
def test_load_spectrum_matches_the_row_loop(tmp_path_factory, text, unit):
    assert_matches_reference(tmp_path_factory, text, unit)
