"""Property tests for the input boundaries: config text, fringe CSV files
and command lines.

Whatever the input, parsing either returns or raises the boundary's own
error type (ConfigError, CliInputError), which the CLI turns into exit
code 2 with a message; no other exception may escape. A whole command line
ends in one of the documented exit codes, with no numpy warning on stderr.
"""

import contextlib
import io
import os
import warnings
from dataclasses import fields
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import noonfringe
from noonfringe.cli import (CONFIG_ENV_VAR, FIELDS_READ, CliInputError, _flag,
                            main, read_fringe_csv)
from noonfringe.config import (MAX_POINTS, ConfigError, ExperimentConfig,
                               merge_config, parse_config_text)

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
@example(["filter_center_nm = 1e-150"])   # the center's square is subnormal
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


# --------------------------------------------------------------------------
# command lines
# --------------------------------------------------------------------------

DATA_DIR = os.path.join(os.path.dirname(noonfringe.__file__), "data")
CSVS = [os.path.join(DATA_DIR, name)
        for name in ("calibration.csv", "withcrystal.csv")]
FLAT_CSV = os.path.join(os.path.dirname(__file__), "data", "flat_scan.csv")

NUMBERS = ["0", "-1", "0.5", "2", "810", "1e300", "-1e300", "1e-300",
           "-1e-300", "5e-324", "nan", "inf", "-inf"]
INTEGERS = ["-1", "0", "2", "4", "810", "0.5", "nan"]
# small scans, or one the config refuses before allocating it
POINTS = ["-1", "0", "8", "100", "1000", str(MAX_POINTS + 1)]

FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)
               if f.name != "schema"}


def config_option(name):
    """A config field's flag with a value drawn for its type."""
    flag = _flag(name)[0]
    kind = FIELD_TYPES[name]
    if kind == "bool":
        return st.just((flag,))
    if kind == "str":
        return st.sampled_from(["bbo", "none", "taylor"]).map(
            lambda value: (f"{flag}={value}",))
    values = (POINTS if name == "points" else INTEGERS if kind == "int"
              else NUMBERS)
    return st.tuples(st.just(flag), st.sampled_from(values))


# per subcommand: its own number flags, integer flags, switches and CSV
# arguments on top of the config flags the CLI's table gives it
COMMANDS = {
    "simulate": ([], [], [], [[]]),
    "synth": ([], [], [], [[]]),
    "fit": ([], [], ["--normalized"], [[path] for path in CSVS]),
    "estimate": (["--visibility", "--phi-prime-cal",
                  "--calibration-visibility"], ["--bootstrap"],
                 ["--normalized", "--calibration=sellmeier",
                  "--calibration=user", "--calibration=config-medium"],
                 [[]] + [[path] for path in CSVS]),
    "validate": ([], [], ["--json"], [[]]),
}


def command_line(command):
    numbers, integers, switches, positional = COMMANDS[command]
    options = [st.sampled_from(FIELDS_READ[command]).flatmap(config_option)]
    if numbers:
        options.append(st.tuples(st.sampled_from(numbers),
                                 st.sampled_from(NUMBERS)))
    if integers:
        options.append(st.tuples(st.sampled_from(integers),
                                 st.sampled_from(INTEGERS)))
    if switches:
        options.append(st.tuples(st.sampled_from(switches)))
    # a minority of command lines also give a flag the subcommand refuses
    refused = st.sampled_from(
        [name for name in FIELD_TYPES if name not in FIELDS_READ[command]]
    ).flatmap(config_option)
    extra = st.integers(0, 9).flatmap(
        lambda k: refused.map(lambda opt: [opt]) if k == 7 else st.just([]))
    return st.tuples(st.sampled_from(positional),
                     st.lists(st.one_of(options), max_size=4), extra).map(
        lambda parts: [command, *parts[0],
                       *(arg for opt in parts[1] + parts[2] for arg in opt)])


ARGV = st.sampled_from(sorted(COMMANDS)).flatmap(command_line)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(ARGV)
@example(["validate", "--filter-fwhm-nm", "1e-300"])
@example(["simulate", "--filter-fwhm-nm", "5e-324"])
@example(["simulate", "--medium=bbo", "--pump-wavelength-nm", "2"])
@example(["simulate", "--phi-prime", "1e300"])
@example(["validate", "--filter-order", "810"])
@example(["validate", "--kappa", "1e-8"])   # a pump far narrower than the filters
@example(["simulate", "--medium=none", "--theta-start-deg", "22.5",
          "--theta-stop-deg", "22.5000000001"])     # every angle at a null
@example(["estimate", os.path.join(DATA_DIR, "calibration.csv"),
          "--fix-harmonic", "1e-300"])              # a fit held at v = 0
@example(["fit", FLAT_CSV, "--fix-harmonic", "1e-8"])   # cos(m theta) == 1:
@example(["estimate", FLAT_CSV, "--fix-harmonic", "1e-8"])  # J'J is singular
@example(["simulate", "--theta-start-deg", "-1e308",
          "--theta-stop-deg", "1e308"])     # the scan span overflows
def test_command_lines_end_in_an_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), warnings.catch_warnings(), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        os.environ.pop(CONFIG_ENV_VAR, None)
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = main(argv)
        except SystemExit as exc:      # argparse refuses the command line
            code = exc.code
    assert code in (0, 1, 2, 3)
    assert "RuntimeWarning" not in err.getvalue()
    # a config flag the subcommand does not read is refused, by name unless
    # argparse first refuses another argument's value
    refused = [arg.split("=")[0] for arg in argv[1:] if arg.split("=")[0] in
               {_flag(name)[0] for name in FIELD_TYPES
                if name not in FIELDS_READ[argv[0]]}]
    if refused:
        assert code == 2
        assert "unrecognized arguments" not in err.getvalue() \
            or all(flag in err.getvalue() for flag in refused)
