"""Command-line front end.

Subcommands:

* ``simulate`` — noiseless fringe curve to CSV
* ``synth``    — Poisson-noisy synthetic fringe to CSV
* ``fit``      — fit a fringe CSV, emit a JSON report
* ``estimate`` — full pipeline: fit -> sigma_phi_sq -> kappa_bar (+ bootstrap)
* ``validate`` — filter-density approximation checks, pass/fail table

Exit codes: 0 success (possibly with warnings), 1 validation failure,
2 input error, such as a flag the subcommand does not read, named, 3 I/O
error. Reports are JSON with sorted keys and no timestamps, so identical
inputs give byte-identical outputs.

Angles cross the CSV boundary in degrees (lab convention) and are radians
everywhere inside. CSV schema: header ``theta_deg,counts`` or
``theta_deg,counts,counts_err``; comment lines start with ``#``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import asdict, fields, replace

import numpy as np

from . import __version__
from .analysis import (CorrelationEstimate, FringeScan,
                       InfeasibleVisibilityError, bootstrap_kappa_uncertainty,
                       closed_form_sigma_phi, fit_fringe,
                       kappa_from_visibility, self_consistent_calibration,
                       sigma_phi_from_visibility)
from .config import (ConfigError, ExperimentConfig, load_config_file,
                     merge_config)
from .engine import _mesh_axes, fringe_harmonics
from .spectral import (DispersionWindowError, FrequencyGrid,
                       QuadratureAccuracyError, TaylorMedium, medium_phase)
from .sumfreq import (default_nu_grid, gaussian_approximation, kl_divergence,
                      moment_matched_gaussian, phase_distribution_moments,
                      sum_frequency_density_exact, sum_frequency_density_numeric)
from .units import wavelength_nm_to_angular

CONFIG_ENV_VAR = "NOONFRINGE_CONFIG"
CSV_SCHEMA = "fringe-csv/1"
REPORT_SCHEMA = "noonfringe-report/1"

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INPUT = 2
EXIT_IO = 3


class CliInputError(Exception):
    """Bad user input (config, flags, or data file): exit code 2."""


# --------------------------------------------------------------------------
# configuration plumbing
# --------------------------------------------------------------------------

_FILTER = ("filter_center_nm", "filter_fwhm_nm", "filter_order")
_PUMP = ("pump_wavelength_nm", "kappa", "pump_fwhm")
_MODEL = (*_PUMP, *_FILTER, "medium_variant", "medium_phi0",
          "medium_phi_prime", "medium_phi_double_prime", "medium_length_mm",
          "theta_start_deg", "theta_stop_deg", "points", "mean_counts")

#: the ExperimentConfig fields each subcommand reads: it offers a flag for
#: each of them and for no other field (estimate reads some of its fields in
#: one mode alone, see cmd_estimate)
FIELDS_READ = {
    "simulate": _MODEL,
    "synth": (*_MODEL, "seed"),
    "fit": ("fix_harmonic",),
    "estimate": (*_FILTER, "fix_harmonic", "seed",
                 "phi_prime_fractional_uncertainty", "normalize_calibration",
                 "medium_variant", "medium_phi_prime", "medium_length_mm"),
    # validate reads no medium; --medium and --length-mm stay offered, unread,
    # only because the frozen audit benchmark deck passes them to every
    # validate operation
    "validate": (*_PUMP, *_FILTER, "medium_variant", "medium_length_mm"),
}

#: the flags not spelt after their dest, and the flags' help texts
_SPELLING = {
    "medium_variant": ("--medium", None),
    "medium_phi0": ("--phi0", "constant birefringent phase (rad)"),
    "medium_phi_prime": ("--phi-prime", "group-delay slope (s)"),
    "medium_phi_double_prime": ("--phi-double-prime", None),
    "medium_length_mm": ("--length-mm", None),
    "phi_prime_fractional_uncertainty": ("--phi-prime-frac-unc", None),
    "pump_fwhm": ("--pump-fwhm",
                  "pump density FWHM (rad/s), alternative to --kappa"),
}

#: the argparse keywords of each annotation an ExperimentConfig field carries
_KINDS = {"int": {"type": int}, "float": {"type": float},
          "float | None": {"type": float},
          "str": {"choices": ["taylor", "bbo", "none"]},
          "bool": {"action": "store_const", "const": True}}


def _flag(dest: str) -> tuple[str, str | None]:
    """The flag that argparse stores under dest, and its help."""
    return _SPELLING.get(dest, ("--" + dest.replace("_", "-"), None))


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    try:
        file_values = load_config_file(path) if path else None
    except (OSError, UnicodeDecodeError) as exc:
        raise CliInputError(f"cannot read config {path}: {exc}") from exc
    return merge_config(file_values, {k: getattr(args, k)
                                      for k in FIELDS_READ[args.command]})


# --------------------------------------------------------------------------
# CSV I/O
# --------------------------------------------------------------------------

def _write_lines(path: str, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def read_fringe_csv(path: str):
    """Parse a fringe CSV into (theta_deg, counts), refusing a schema
    violation with a CliInputError naming the line. A counts_err column is
    checked but unused: fit weights are Poisson, or unit if normalized."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = handle.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc

    header = None
    rows = []
    for lineno, line in enumerate(raw, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        cells = [c.strip() for c in text.split(",")]
        if header is None:
            if cells not in (["theta_deg", "counts"],
                             ["theta_deg", "counts", "counts_err"]):
                raise CliInputError(
                    f"{path}:{lineno}: expected header 'theta_deg,counts"
                    f"[,counts_err]', got {text!r}")
            header = cells
            continue
        if len(cells) != len(header):
            raise CliInputError(f"{path}:{lineno}: expected {len(header)} "
                                f"columns, got {len(cells)}")
        try:
            values = [float(c) for c in cells]
        except ValueError as exc:
            raise CliInputError(f"{path}:{lineno}: {exc}") from exc
        if not all(math.isfinite(v) for v in values):
            raise CliInputError(f"{path}:{lineno}: non-finite value in {text!r}")
        rows.append(values)
    if header is None:
        raise CliInputError(f"{path}: no header line found")
    if not rows:
        raise CliInputError(f"{path}: no data rows")
    data = np.asarray(rows)
    return data[:, 0], data[:, 1]


def _fit_csv(path: str, normalized: bool, fix_harmonic: float | None):
    """The scan in a fringe CSV and its fit. A malformed scan is refused
    like bad input."""
    theta_deg, counts = read_fringe_csv(path)
    try:
        scan = FringeScan(np.radians(theta_deg), counts, normalized=normalized)
    except ValueError as exc:
        raise CliInputError(f"{path}: {exc}") from exc
    return scan, fit_fringe(scan, fix_harmonic=fix_harmonic)


# --------------------------------------------------------------------------
# report plumbing
# --------------------------------------------------------------------------

def _emit_report(report: dict, path: str | None) -> None:
    _write_lines(path or "-", [json.dumps(report, indent=2, sort_keys=True)])


def _fit_block(fit) -> dict:
    return {
        "offset": fit.offset,
        "offset_stderr": fit.stderr("offset"),
        "visibility": fit.visibility,
        "visibility_stderr": fit.stderr("visibility"),
        "phase0_rad": fit.phase0,
        "phase0_stderr_rad": fit.stderr("phase0"),
        "harmonic": fit.harmonic,
        "harmonic_stderr": fit.stderr("harmonic"),
        "residual_rms": fit.residual_rms,
        "degenerate": fit.degenerate,
    }


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def _refuse_dead_ends(config: ExperimentConfig,
                      grid: FrequencyGrid | None = None) -> None:
    """Refuse, naming its field, a configuration on which the engine or
    validate's phase moments find no finite value: first a pump at which
    the filters pass no pairs, where the largest pair weight
    T(s/2)^2*|pump(s)|^2, on the diagonal at a sum frequency s between twice
    the filter center and the pump center, falls below the normal float
    range (sampled in log2, so nothing underflows). With the engine's grid,
    then a pump whose pair weight peaks outside its mesh's sum-frequency
    window, and a medium whose phase overflows at the ends of the mesh's
    photon-frequency lattice: a crystal names its length, a Taylor medium
    its largest term there. Else it returns, and the caller's re-raise is
    the last resort for faults no check foresees."""
    filt, jsa = config.filter_profile(), config.joint_spectrum()
    detuning = jsa.pump_center - 2.0 * filt.center
    t = np.linspace(0.0, 1.0, 1001)
    with np.errstate(over="ignore"):
        exponent = (2.0 * (t * detuning / filt.fwhm) ** filt.order
                    + 4.0 * ((1.0 - t) * detuning / jsa.pump_fwhm) ** 2)
    if exponent.min() > -math.log2(sys.float_info.min):
        raise ConfigError("pump_wavelength_nm", "gives no finite fringe: the "
                          "filters pass no pairs at this pump")
    if grid is None:
        return
    mesh = _mesh_axes(jsa, filt, grid)
    peak = 2.0 * filt.center + t[np.argmin(exponent)] * detuning
    if peak < mesh.s[0] or peak > mesh.s[-1]:
        raise ConfigError("pump_wavelength_nm", "gives no finite fringe: the "
                          "pairs the filters pass at this pump lie outside "
                          "the engine's sum-frequency window")
    medium = config.medium()
    ends = mesh.omega[[0, -1]]
    with np.errstate(over="ignore", invalid="ignore"):
        if np.all(np.isfinite(medium_phase(medium, ends))):
            return
        key = "medium_length_mm"
        if config.medium_variant != "bbo":
            d = np.max(np.abs(ends - medium.reference))
            key = ("medium_phi0", "medium_phi_prime", "medium_phi_double_prime")[
                int(np.argmax([abs(medium.phi0), abs(medium.phi_prime) * d,
                               abs(medium.phi_double_prime) * d * d / 2.0]))]
    raise ConfigError(key, "gives a medium phase that overflows on the "
                      "engine's mesh")


def _default_grid(config: ExperimentConfig) -> FrequencyGrid:
    return FrequencyGrid(center=wavelength_nm_to_angular(config.filter_center_nm))


def cmd_scan(args: argparse.Namespace) -> int:
    """simulate's noiseless fringe curve, or synth's Poisson draw about it,
    as a fringe CSV whose header's cfg block regenerates it."""
    config = _resolve_config(args)
    grid = _default_grid(config)
    try:
        harmonics = fringe_harmonics(config.joint_spectrum(),
                                     config.filter_profile(), config.medium(),
                                     grid)
    except FloatingPointError:
        _refuse_dead_ends(config, grid)
        raise
    thetas = config.thetas_rad()
    values = harmonics.at(thetas)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = values / values.mean()
    if not np.all(np.isfinite(values)):
        raise CliInputError("the configuration gives no finite fringe: the "
                            "model curve is not finite at every angle")
    with np.errstate(over="ignore"):
        counts = config.mean_counts * values
    if not np.all(np.isfinite(counts)):
        raise ConfigError("mean_counts", f"{config.mean_counts!r} is too "
                          "large: the counts mean_counts * P(theta)/mean(P) "
                          "overflow")
    lines = [f"# schema = {CSV_SCHEMA}",
             f"# generated-by = noonfringe {args.command}",
             "# regenerate by feeding the cfg block below to "
             "`noonfringe %s --config <file>`" % args.command,
             *(f"# cfg: {f.name} = {getattr(config, f.name)}"
               for f in fields(config)),
             f"# visibility_raw = {harmonics.visibility!r}",
             f"# fringe_phase_rad = {harmonics.phase!r}"]
    if args.command == "simulate":
        lines += ["# counts = mean_counts * P(theta) / mean(P), noiseless",
                  "theta_deg,counts"]
        rows = [repr(float(value)) for value in counts]
    else:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=[config.seed]))
        try:
            counts = rng.poisson(counts)
        except ValueError as exc:    # numpy caps the Poisson mean near 9.2e18
            raise CliInputError(f"mean_counts {config.mean_counts!r} is too "
                                f"large to sample: {exc}") from exc
        lines += ["# counts ~ Poisson(mean_counts * P(theta) / mean(P))",
                  "theta_deg,counts,counts_err"]
        rows = [f"{int(count)},{math.sqrt(max(float(count), 1.0))!r}"
                for count in counts]
    lines += [f"{float(theta)!r},{row}"
              for theta, row in zip(np.degrees(thetas), rows)]
    _write_lines(args.output, lines)
    return EXIT_OK


_DEGENERATE_FIT = ("degenerate-fit: visibility is within 3 standard errors "
                   "of zero; the fringe is indistinguishable from noise")


def cmd_fit(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    _, fit = _fit_csv(args.data, args.normalized, config.fix_harmonic)
    warnings = [_DEGENERATE_FIT] if fit.degenerate else []
    report = {
        "schema": REPORT_SCHEMA,
        "command": "fit",
        "input": os.path.basename(args.data),
        "fit": _fit_block(fit),
        "warnings": warnings,
    }
    _emit_report(report, args.output)
    return EXIT_OK


def _calibration_block(config: ExperimentConfig, source: str,
                       user_phi_prime: float | None) -> dict:
    """The calibration slope phi_prime from its source: the one place where
    a slope is read and checked. A slope that is zero, or whose closed-form
    strength (phi_prime*delta_omega)^2, which the law divides by and squares
    with ``**``, is not finite or leaves the normal float range, is refused,
    naming --phi-prime-cal for a user slope and else the medium field that
    sets it."""
    delta_omega = config.delta_omega()
    if source == "self-consistent":
        phi_prime = self_consistent_calibration() / delta_omega
    elif source == "user":
        phi_prime = user_phi_prime
    else:
        if source == "sellmeier":
            config = replace(config, medium_variant="bbo")
        phi_prime = config.medium_phi_prime_effective()
        if phi_prime == 0 and source == "sellmeier":
            raise ConfigError("medium_length_mm", "gives a Sellmeier slope "
                              "that is zero")
        if phi_prime == 0:
            raise CliInputError(
                "the configured medium has zero group-delay slope; pick "
                "--calibration self-consistent, sellmeier, or user")
    t = phi_prime * delta_omega
    if not sys.float_info.min <= t * t < math.inf:
        if source == "user":
            raise CliInputError("--phi-prime-cal must be finite and nonzero, "
                                "and (phi_prime*delta_omega)^2 must neither "
                                "underflow nor overflow")
        raise ConfigError("medium_length_mm" if config.medium_variant == "bbo"
                          else "medium_phi_prime", "gives a group-delay slope "
                          "whose squared strength (phi_prime*delta_omega)^2 "
                          "underflows or overflows")
    return {"source": source, "phi_prime_s": phi_prime,
            "delta_omega_rad_per_s": delta_omega,
            "phi_prime_times_delta_omega": t}


def _validation_block(config: ExperimentConfig) -> dict:
    """Filter-density approximation quality at the configured filter order.

    Widths are reported on the dimensionless sum-frequency axis, where one
    filter width corresponds to unit FWHM. Where the divergence from the
    moment-matched Gaussian is undefined, both directions are None and
    kl_undefined gives the reason.
    """
    filt = config.filter_profile()
    nu = default_nu_grid()
    numeric = sum_frequency_density_numeric(filt, nu)
    fit = gaussian_approximation(numeric)
    block = {
        "filter_order": config.filter_order,
        "gaussian_fit_fwhm_nu": fit.fwhm,
        "direct_fwhm_nu": fit.direct_fwhm,
        "gaussian_fit_rms_residual": fit.rms_residual,
    }
    try:
        kl = kl_divergence(numeric, moment_matched_gaussian(numeric))
        block.update(kl_forward=kl.forward, kl_reverse=kl.reverse)
    except ValueError as exc:
        # steep filters underflow to exact zero inside the grid, leaving the
        # reverse divergence undefined; orders 2 and 4 never get here
        block.update(kl_forward=None, kl_reverse=None, kl_undefined=str(exc))
    if config.filter_order == 4:
        exact = sum_frequency_density_exact(nu)
        ratio = exact / numeric.density
        block["exact_numeric_ratio_rel_stdev"] = float(
            np.std(ratio) / np.mean(ratio))
    return block


def _inversion(visibility: float, calibration: dict) -> dict:
    """kappa_bar for a visibility under a calibration block, or None and why."""
    try:
        return {"kappa_bar": kappa_from_visibility(
            visibility, calibration["phi_prime_s"],
            calibration["delta_omega_rad_per_s"]).kappa_bar}
    except InfeasibleVisibilityError as exc:
        return {"kappa_bar": None, "infeasibility": {
            "reason": str(exc), "visibility": exc.visibility,
            "visibility_floor": exc.floor}}


def cmd_estimate(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    csv = args.visibility is None
    # the medium whose slope the calibration reads, if it reads one
    medium = {"config-medium": config.medium_variant,
              "sellmeier": "bbo"}.get(args.calibration)
    # (dests of the flags read in one mode alone, the mode, on, needs them)
    for dests, mode, on, needed in (
            (["phi_prime_cal"], "--calibration user",
             args.calibration == "user", True),
            (["calibration_visibility"], "normalize_calibration",
             config.normalize_calibration, True),
            (["fix_harmonic"], "a fringe CSV", csv, False),
            (["seed", "phi_prime_fractional_uncertainty"], "a fringe CSV "
             "and --bootstrap > 0", csv and args.bootstrap > 0, False),
            (["medium_variant"], "--calibration config-medium, or as bbo "
             "with sellmeier", medium == config.medium_variant, False),
            (["medium_phi_prime"], "--calibration config-medium and a "
             "taylor medium", medium == "taylor", False),
            (["medium_length_mm"], "--calibration sellmeier, or "
             "config-medium and a bbo medium", medium == "bbo", False)):
        for dest in dests:
            flag, given = _flag(dest)[0], getattr(args, dest) is not None
            if given and not on:
                raise CliInputError(f"{flag} is read only with {mode}")
            if on and needed and not given:
                raise CliInputError(f"{mode} requires {flag}")
    for dest in ("visibility", "calibration_visibility"):
        value = getattr(args, dest)
        if value is not None and not 0.0 < value <= 1.0:
            raise CliInputError(f"{_flag(dest)[0]} must lie in (0, 1]")
    if args.bootstrap < 0:
        raise CliInputError("--bootstrap must be nonnegative (0 disables it)")
    warnings: list[str] = []
    fit = None
    scan = None
    if not csv:
        visibility_raw = args.visibility
        visibility_source = "flag"
    else:
        if args.data is None:
            raise CliInputError("estimate needs a fringe CSV or --visibility")
        scan, fit = _fit_csv(args.data, args.normalized, config.fix_harmonic)
        if fit.degenerate:
            warnings.append(_DEGENERATE_FIT)
        visibility_raw = fit.visibility
        visibility_source = "fit"

    visibility_used = visibility_raw
    corrected = None
    if config.normalize_calibration:
        corrected = min(visibility_raw / args.calibration_visibility, 1.0)
        visibility_used = corrected
        warnings.append("visibility divided by the calibration contrast "
                        "%r — a correction the reference analysis does not "
                        "apply" % args.calibration_visibility)

    calibration = _calibration_block(config, args.calibration,
                                     args.phi_prime_cal)
    report = {
        "schema": REPORT_SCHEMA,
        "command": "estimate",
        "fit": _fit_block(fit) if fit is not None else None,
        "visibility": {
            "raw": visibility_raw,
            "corrected": corrected,
            "used": visibility_used,
            "source": visibility_source,
        },
        "calibration": calibration,
        "warnings": warnings,
    }

    report.update(_inversion(visibility_used, calibration))
    report["sigma_phi_sq_rad2"] = (sigma_phi_from_visibility(visibility_used)
                                   if visibility_used > 0 else None)
    if report["kappa_bar"] is None:
        _emit_report(report, args.output)
        return EXIT_OK
    report["bound_kind"] = CorrelationEstimate.bound_kind

    report["kappa_uncertainty"] = None
    if scan is not None and args.bootstrap > 0:
        n = max(args.bootstrap, 100)
        unc = abs(calibration["phi_prime_s"]) \
            * config.phi_prime_fractional_uncertainty
        boot = bootstrap_kappa_uncertainty(
            scan, calibration["phi_prime_s"], unc,
            calibration["delta_omega_rad_per_s"], n_resamples=n,
            seed=config.seed, fix_harmonic=config.fix_harmonic, base=fit)
        report["kappa_uncertainty"] = boot.kappa_std
        report["bootstrap"] = asdict(boot) | {
            "phi_prime_fractional_uncertainty":
                config.phi_prime_fractional_uncertainty}
        if boot.flagged_unreliable:
            warnings.append("bootstrap unreliable: %.0f%% of resamples "
                            "failed" % (100 * boot.failure_fraction))

    if args.calibration == "sellmeier":
        alt = _calibration_block(config, "self-consistent", None)
        report["calibration_comparison"] = {
            "sellmeier": {"phi_prime_s": calibration["phi_prime_s"],
                          "kappa_bar": report["kappa_bar"]},
            "self-consistent": {"phi_prime_s": alt["phi_prime_s"],
                                **_inversion(visibility_used, alt)},
        }

    report["validation"] = _validation_block(config)
    _emit_report(report, args.output)
    return EXIT_OK


def _validate_rows(config: ExperimentConfig) -> list[dict]:
    filt = config.filter_profile()
    delta_omega = config.delta_omega()
    rows: list[dict] = []

    def row(name, value, ok, target):
        rows.append({"check": name, "value": value, "target": target,
                     "status": "pass" if ok else "FAIL"})

    checks = _validation_block(config)
    fwhm = checks["gaussian_fit_fwhm_nu"]
    rms = checks["gaussian_fit_rms_residual"]
    kl_forward, kl_reverse = checks["kl_forward"], checks["kl_reverse"]
    kl_reason = checks.get("kl_undefined")
    if kl_reason is None:
        # the default grid with its spacing halved: its end points, where F
        # underflows first, are the default grid's, so the divergence that
        # is defined there stays defined here
        numeric_fine = sum_frequency_density_numeric(
            filt, default_nu_grid(points=8001))
        kl_fine = kl_divergence(numeric_fine,
                                moment_matched_gaussian(numeric_fine))
        kl_drift = max(abs(kl_forward - kl_fine.forward),
                       abs(kl_reverse - kl_fine.reverse))

    if config.filter_order == 4:
        spread = checks["exact_numeric_ratio_rel_stdev"]
        row("exact/numeric ratio constancy (rel stdev)", spread,
            spread <= 1e-6, "<= 1e-6")
        row("Gaussian-fit FWHM (units of the filter width)", fwhm,
            abs(fwhm - 1.0) <= 0.03, "1 +- 3%")
        in_band = (0.0051 <= kl_forward <= 0.0081
                   or 0.0051 <= kl_reverse <= 0.0081)
        row("KL(F || gauss)", kl_forward, in_band,
            "0.0066 +- 0.0015 in at least one direction")
        row("KL(gauss || F)", kl_reverse, in_band, "(same band)")
    elif config.filter_order == 2:
        row("KL(F || gauss), Gaussian filters", kl_forward,
            kl_forward <= 1e-9, "<= 1e-9 (convolution of Gaussians)")
        row("KL(gauss || F), Gaussian filters", kl_reverse,
            kl_reverse <= 1e-9, "<= 1e-9")
        row("Gaussian-fit rms residual", rms, rms <= 1e-9, "<= 1e-9")
    else:       # every order >= 6: F underflows to exactly 0 at nu = +-4
        row("KL vs moment-matched Gaussian", kl_reason, True,
            "reported (undefined at this order)")

    if kl_reason is None:
        row("KL drift under grid doubling", kl_drift, kl_drift < 1e-4, "< 1e-4")

    # every row is invariant under a linear medium's slope: one slope serves
    phi_prime = self_consistent_calibration() / delta_omega
    medium = TaylorMedium(filt.center, phi_prime=phi_prime)
    moments = phase_distribution_moments(config.joint_spectrum(), filt, medium)
    row("phase-distribution skewness (self-consistent slope)",
        moments.skewness, abs(moments.skewness) <= 1e-9, "0 +- 1e-9")
    if config.filter_order == 4:
        row("phase-distribution excess kurtosis", moments.excess_kurtosis,
            abs(moments.excess_kurtosis) <= 0.05, "|.| <= 0.05")
        closed = closed_form_sigma_phi(config.effective_kappa(), phi_prime,
                                       delta_omega)
        if closed < sys.float_info.min:
            raise ConfigError("kappa" if config.pump_fwhm is None else
                              "pump_fwhm", "gives a closed-form phase variance "
                              "below the normal float range")
        ratio = moments.variance / closed
        # the Gaussian surrogate under-counts the phase variance; the exact
        # density is wider, by up to ~14% at large kappa (see README)
        row("phase variance / closed form", ratio,
            1.0 <= ratio <= 1.15, "within the documented surrogate band")
    return rows


def cmd_validate(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    try:
        rows = _validate_rows(config)
    except QuadratureAccuracyError as exc:
        rows = [{"check": "quadrature accuracy", "value": str(exc),
                 "target": "converged", "status": "FAIL"}]
    except FloatingPointError:
        _refuse_dead_ends(config)
        raise
    failed = [r for r in rows if r["status"] == "FAIL"]
    report = {
        "schema": REPORT_SCHEMA,
        "command": "validate",
        "rows": rows,
        "failed": len(failed),
        "warnings": [],
    }
    if args.json:
        _emit_report(report, args.output)
    else:
        width = max(len(r["check"]) for r in rows)
        lines = []
        for r in rows:
            value = r["value"]
            shown = f"{value:.6g}" if isinstance(value, float) else str(value)
            lines.append(f"{r['status']:4s}  {r['check']:<{width}}  "
                         f"{shown}  (target: {r['target']})")
        lines.append(f"{len(rows) - len(failed)}/{len(rows)} checks passed")
        _write_lines(args.output, lines)
    return EXIT_VALIDATION if failed else EXIT_OK


# --------------------------------------------------------------------------
# argument parser
# --------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads a dash-led number in exponent notation,
    such as the negative group-delay slope -3e-13, as a value, not a flag.

    No option of this program looks like a number, so nothing is shadowed.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="noonfringe",
        description="Two-photon fringe simulation and correlation-bound "
                    "estimation")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for command, func, text, output in (
            ("simulate", cmd_scan, "noiseless fringe curve to CSV", "CSV"),
            ("synth", cmd_scan, "Poisson-noisy fringe to CSV", "CSV"),
            ("fit", cmd_fit, "fit a fringe CSV", "JSON"),
            ("estimate", cmd_estimate,
             "fit -> sigma_phi_sq -> kappa_bar pipeline", "JSON"),
            ("validate", cmd_validate, "filter-density approximation checks",
             "PATH")):
        p = commands[command] = sub.add_parser(command, help=text)
        p.set_defaults(func=func)
        p.add_argument("-o", "--output", default="-", metavar=output)
        if command in ("fit", "estimate"):
            p.add_argument("--normalized", action="store_true", help="treat "
                           "counts as normalized rates (unit weights)")
        p.add_argument("--config", metavar="PATH",
                       help=f"config file (default: ${CONFIG_ENV_VAR})")
        grp = p.add_argument_group("experiment overrides")
        for f in fields(ExperimentConfig):
            if f.name in FIELDS_READ[command]:
                flag, help_text = _flag(f.name)
                grp.add_argument(flag, dest=f.name, help=help_text,
                                 **_KINDS[f.type])

    commands["fit"].add_argument("data", metavar="CSV")
    p_est = commands["estimate"]
    p_est.add_argument("data", nargs="?", metavar="CSV")
    p_est.add_argument("--visibility", type=float,
                       help="skip fitting and use this visibility")
    p_est.add_argument("--calibration", default="self-consistent",
                       choices=["self-consistent", "sellmeier", "user",
                                "config-medium"])
    p_est.add_argument("--phi-prime-cal", type=float, metavar="S",
                       help="group-delay slope for --calibration user")
    p_est.add_argument("--calibration-visibility", type=float,
                       help="no-medium contrast for normalize_calibration")
    p_est.add_argument("--bootstrap", type=int, default=200, metavar="N",
                       help="bootstrap resamples (0 disables)")
    commands["validate"].add_argument(
        "--json", action="store_true",
        help="machine-readable report instead of a table")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliInputError, ConfigError, DispersionWindowError,
            QuadratureAccuracyError) as exc:
        # a quadrature that cannot meet its tolerance is reported like bad
        # input: the configuration asks for more than the fixed rules resolve
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ArithmeticError as exc:
        # last resort: a value that overflows, underflows to a zero divisor
        # or otherwise leaves floating point, past every boundary check
        print(f"error: numeric failure: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
