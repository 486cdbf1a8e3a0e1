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
from noonfringe.cli import CONFIG_ENV_VAR, CliInputError, main, read_fringe_csv
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

CONFIG_FLAGS = [
    "--pump-wavelength-nm", "--filter-center-nm", "--filter-fwhm-nm",
    "--phi0", "--phi-prime", "--phi-double-prime", "--length-mm",
    "--phi-prime-frac-unc", "--kappa", "--pump-fwhm", "--theta-start-deg",
    "--theta-stop-deg", "--mean-counts", "--fix-harmonic",
]
CONFIG_SWITCHES = ["--medium=bbo", "--medium=none", "--medium=taylor",
                   "--normalize-calibration"]

# per subcommand: its own number flags, integer flags, switches and CSV
# arguments on top of the shared config overrides
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
    option = st.one_of(
        st.tuples(st.sampled_from(CONFIG_FLAGS + numbers),
                  st.sampled_from(NUMBERS)),
        st.tuples(st.sampled_from(["--filter-order", "--seed"] + integers),
                  st.sampled_from(INTEGERS)),
        st.tuples(st.just("--points"), st.sampled_from(POINTS)),
        st.tuples(st.sampled_from(CONFIG_SWITCHES + switches)),
    )
    return st.tuples(st.sampled_from(positional),
                     st.lists(option, max_size=4)).map(
        lambda parts: [command, *parts[0],
                       *(arg for opt in parts[1] for arg in opt)])


ARGV = st.sampled_from(sorted(COMMANDS)).flatmap(command_line)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(ARGV)
@example(["validate", "--filter-fwhm-nm", "1e-300"])
@example(["simulate", "--filter-fwhm-nm", "5e-324"])
@example(["simulate", "--medium=bbo", "--pump-wavelength-nm", "2"])
@example(["simulate", "--phi-prime", "1e300"])
@example(["validate", "--filter-order", "810"])
@example(["simulate", "--medium=none", "--theta-start-deg", "22.5",
          "--theta-stop-deg", "22.5000000001"])     # every angle at a null
@example(["estimate", os.path.join(DATA_DIR, "calibration.csv"),
          "--fix-harmonic", "1e-300"])              # a fit held at v = 0
@example(["fit", FLAT_CSV, "--fix-harmonic", "1e-8"])   # cos(m theta) == 1:
@example(["estimate", FLAT_CSV, "--fix-harmonic", "1e-8"])  # J'J is singular
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
