"""Run a fixed corpus of noonfringe CLI commands and record what each one
prints, or compare two such records.

    PYTHONPATH=src python tools/report_corpus.py OUT.json
    python tools/report_corpus.py --compare A.json B.json

The first form runs every command of COMMANDS in this process through
noonfringe.cli.main, from the directory of the bundled CSVs of the
noonfringe it imports, so two checkouts record the same argv and the same
paths. It writes each command's argv, exit code, stdout and stderr to OUT.

The second form prints, for each command, whether its exit code, stdout
and stderr match byte for byte. Where the two stdouts are JSON reports that
differ, it prints the relative difference of each float field that
differs, and the two values of every other field that differs. Where they
are text (a simulate or synth CSV) whose lines pair up with the same words
between their numbers, it prints how many lines differ and the largest
relative difference between their numbers. It exits 1 when any command
differs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import re
import sys

CALIBRATION, CRYSTAL = "calibration.csv", "withcrystal.csv"
BBO = ["--medium", "bbo", "--length-mm"]


def _fit_commands() -> list[list[str]]:
    out = []
    for csv in (CRYSTAL, CALIBRATION):
        for mode in ([], ["--fix-harmonic", "8"], ["--normalized"]):
            out.append(["fit", csv, *mode])
            out.append(["estimate", csv, *mode])
        out.append(["estimate", csv, "--bootstrap", "0"])
        out.append(["estimate", csv, "--calibration", "sellmeier", *BBO, "3"])
        out.append(["estimate", csv, "--fix-harmonic", "8",
                    "--calibration", "sellmeier", *BBO, "3"])
    return out


COMMANDS: list[list[str]] = [
    ["simulate"],
    ["simulate", "--filter-order", "2"],
    ["simulate", "--filter-order", "6"],
    ["simulate", *BBO, "3"],
    ["simulate", "--pump-fwhm", "1e9"],
    ["simulate", "--phi-prime", "3e-13"],
    ["simulate", "--phi-prime=-3e-13", "--kappa", "0.01"],
    # the engine's wide lattice (c = n < b) and its consecutive one (c = b)
    ["simulate", "--kappa", "1e-10"],
    ["simulate", "--kappa", "0.001"],
    ["simulate", "--kappa", "5", *BBO, "2"],
    ["synth"],
    ["synth", "--seed", "7", "--points", "60"],
    ["synth", "--kappa", "0.01", "--points", "60"],
    *[["validate", "--filter-order", k] for k in ("2", "4", "6")],
    *[["validate", "--json", "--filter-order", k] for k in ("2", "4", "6")],
    ["validate", "--json", *BBO, "3"],
    ["validate", "--json", "--pump-fwhm", "1e9"],
    *_fit_commands(),
    ["estimate", CRYSTAL, "--calibration", "user", "--phi-prime-cal", "3e-13"],
    ["estimate", CRYSTAL, "--calibration", "config-medium",
     "--phi-prime", "3.4e-13"],
    ["estimate", CRYSTAL, "--calibration", "sellmeier", *BBO, "3",
     "--filter-center-nm", "650"],
    *[["estimate", CRYSTAL, "--calibration", "sellmeier", *BBO, mm]
      for mm in ("0", "1e200", "1e306")],
    *[["estimate", "--visibility", "0.568", "--filter-order", k]
      for k in ("4", "6")],
    # a degenerate fit's warning, and the kappa-derived pump width whose
    # square underflows
    *[[command, CRYSTAL, "--fix-harmonic", "1e-20"]
      for command in ("fit", "estimate")],
    *[[command, "--filter-fwhm-nm", "1e-300"]
      for command in ("simulate", "validate")],
    # pumps down to and below the float spacing of omega_p (0.5 rad/s),
    # which the phase moments never form; a kappa that underflows to zero;
    # and media that the moment rows do not read
    *[["validate", "--kappa", k] for k in ("1e-14", "1e-20", "1e-26",
                                           "1e-30", "1e-40")],
    *[["validate", "--pump-fwhm", w] for w in ("0.05", "1e-3", "1e-160")],
    ["validate", "--phi-prime", "1e100"],
    ["validate", *BBO, "1e95"],
    ["validate", "--phi-prime", "1e-25"],
    ["validate", "--medium", "bbo", "--filter-center-nm", "650",
     "--pump-wavelength-nm", "325"],
    # a flag whose mode is not on
    ["estimate", "--visibility", "0.5", "--phi-prime-cal", "3e-13"],
    ["estimate", "--visibility", "0.5", "--calibration-visibility", "0.9"],
    # an infeasible visibility, in the estimate and in its comparison entry
    ["estimate", "--visibility", "0.005"],
    ["estimate", "--visibility", "0.005", "--calibration", "sellmeier"],
    # counts that overflow at the fringe peak
    *[[command, "--mean-counts", "1e308"] for command in ("simulate", "synth")],
    # the Sellmeier window, read where the filters pass pairs, and a
    # difference axis that ends at 2.2 filter widths
    ["simulate", *BBO, "1", "--filter-fwhm-nm", "20"],
    ["simulate", "--medium", "bbo", "--filter-center-nm", "500"],
    ["simulate", "--filter-order", "8"],
    # a flag the subcommand does not read
    ["fit", CRYSTAL, "--kappa", "3"],
    ["estimate", "--visibility", "0.5", "--kappa", "3"],
    ["estimate", "--visibility", "0.5", "--seed", "4"],
    ["simulate", "--seed", "4"],
    ["validate", "--mean-counts", "5"],
]

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                     r"|[-+]?\binf\b|\bnan\b")


def run(argv: list[str]) -> dict:
    from noonfringe import cli      # here, so --compare needs no package

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:      # argparse refuses the command line
            code = exc.code
    return {"argv": argv, "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def record(path: str) -> None:
    import noonfringe

    data = os.path.join(os.path.dirname(noonfringe.__file__), "data")
    here = os.getcwd()
    env = os.environ.pop("NOONFRINGE_CONFIG", None)
    try:
        os.chdir(data)
        runs = [run(argv) for argv in COMMANDS]
    finally:
        os.chdir(here)
        if env is not None:
            os.environ["NOONFRINGE_CONFIG"] = env
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(runs, handle, indent=1)
        handle.write("\n")


def _leaves(value, prefix=""):
    """(dotted key, value) of every leaf of a JSON value."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{prefix}.{key}" if prefix else key)
    elif isinstance(value, list):
        for k, item in enumerate(value):
            yield from _leaves(item, f"{prefix}[{k}]")
    else:
        yield prefix, value


def _relative(x: float, y: float) -> float:
    """|x - y| relative to the larger magnitude; inf if either is not
    finite."""
    if x == y:
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def _json_differences(a: str, b: str) -> list[str] | None:
    """The fields in which two JSON reports differ, or None if either is
    not JSON."""
    try:
        left, right = dict(_leaves(json.loads(a))), dict(_leaves(json.loads(b)))
    except json.JSONDecodeError:
        return None
    lines = []
    for key in sorted(left.keys() | right.keys()):
        x, y = left.get(key), right.get(key)
        if x == y and type(x) is type(y):
            continue
        if isinstance(x, float) and isinstance(y, float) \
                and math.isfinite(x) and math.isfinite(y):
            lines.append(f"    {key}: relative difference "
                         f"{_relative(x, y):.3g}")
        else:
            lines.append(f"    {key}: {x!r} -> {y!r}")
    return lines


def _text_differences(a: str, b: str) -> list[str] | None:
    """How many lines of two text outputs differ and by how much, or None
    if their lines do not pair up with the same words between numbers."""
    lines_a, lines_b = a.splitlines(), b.splitlines()
    if len(lines_a) != len(lines_b):
        return None
    differing, worst = 0, 0.0
    for x, y in zip(lines_a, lines_b):
        if x == y:
            continue
        if _NUMBER.sub("#", x) != _NUMBER.sub("#", y):
            return None
        differing += 1
        worst = max([worst, *(_relative(float(u), float(v)) for u, v in
                              zip(_NUMBER.findall(x), _NUMBER.findall(y))
                              if u != v)])
    return [f"    {differing} of {len(lines_a)} lines differ, the numbers in "
            f"them by at most {worst:.3g} relative"]


def compare(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as handle:
        runs_a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        runs_b = json.load(handle)
    if [r["argv"] for r in runs_a] != [r["argv"] for r in runs_b]:
        print("the two records ran different commands")
        return 2
    differing = 0
    for a, b in zip(runs_a, runs_b):
        name = " ".join(a["argv"])
        parts = [part for part in ("exit", "stdout", "stderr") if a[part] != b[part]]
        if not parts:
            print(f"same     {name}")
            continue
        differing += 1
        print(f"differs  {name}  ({', '.join(parts)})")
        if "stdout" in parts:
            lines = _json_differences(a["stdout"], b["stdout"])
            if lines is None:
                lines = _text_differences(a["stdout"], b["stdout"])
            print("\n".join(lines) if lines is not None
                  else "    stdout is not a JSON report")
    print(f"{len(runs_a) - differing} of {len(runs_a)} commands identical")
    return 1 if differing else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two records instead of making one")
    parser.add_argument("out", nargs="?", help="where to write the record")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.out:
        parser.error("give OUT, or --compare A B")
    record(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
