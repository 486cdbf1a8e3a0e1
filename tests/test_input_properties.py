"""Property tests for the input boundaries: config text and fringe CSV files.

Whatever the input, parsing either returns or raises the boundary's own
error type (ConfigError, CliInputError), which the CLI turns into exit
code 2 with a message; no other exception may escape.
"""

from dataclasses import fields

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noonfringe.cli import CliInputError, read_fringe_csv
from noonfringe.config import (ConfigError, ExperimentConfig, merge_config,
                               parse_config_text)

PROPERTY = settings(derandomize=True, max_examples=300, deadline=None)

KEYS = [f.name for f in fields(ExperimentConfig)]

# one config value as text: numbers of every size and sign, the words the
# parsers know, and free text
VALUE_TEXT = st.one_of(
    st.floats().map(repr),
    st.integers().map(str),
    st.sampled_from(["none", "None", "yes", "no", "on", "0", "1", "nan",
                     "-inf", "1e300", "1e-300", "taylor", "bbo", "quartz",
                     ""]),
    st.text(st.characters(blacklist_characters="\r\n"), max_size=12),
)

CONFIG_LINE = st.tuples(
    st.one_of(st.sampled_from(KEYS), st.text(max_size=8)),
    VALUE_TEXT,
).map(lambda kv: f"{kv[0]} = {kv[1]}")


def parse_and_merge(text):
    try:
        merge_config(parse_config_text(text, source="<prop>"))
    except ConfigError:
        pass


@PROPERTY
@given(st.text())
def test_arbitrary_config_text(text):
    parse_and_merge(text)


@PROPERTY
@given(st.lists(st.one_of(CONFIG_LINE, st.sampled_from(["", "# note", "x"])),
                max_size=8))
@example(["filter_fwhm_nm = 1e300"])      # bandwidth overflows in rad/s
@example(["filter_center_nm = 1e-300"])   # the center's square underflows
@example(["points = 999999999999999999999"])
def test_structured_config_lines(lines):
    parse_and_merge("\n".join(lines))


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "scan.csv"


CSV_CELL = st.one_of(
    st.floats().map(repr),
    st.integers().map(str),
    st.sampled_from(["", "theta_deg", "counts", "1e999", "0x10", " 3 "]),
)

CSV_TEXT = st.lists(
    st.one_of(
        st.lists(CSV_CELL, min_size=1, max_size=4).map(",".join),
        st.sampled_from(["theta_deg,counts", "theta_deg,counts,counts_err",
                         "# comment", ""]),
    ),
    max_size=12,
).map("\n".join)


def read_csv_bytes(path, data):
    path.write_bytes(data)
    try:
        read_fringe_csv(str(path))
    except CliInputError:
        pass


@PROPERTY
@given(st.binary(max_size=256))
def test_arbitrary_csv_bytes(csv_path, data):
    read_csv_bytes(csv_path, data)


@PROPERTY
@given(CSV_TEXT)
def test_structured_csv_text(csv_path, text):
    read_csv_bytes(csv_path, text.encode("utf-8", "surrogatepass"))
