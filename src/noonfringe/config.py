"""Experiment configuration: flat key = value files plus typed access.

One configuration object drives every command. Files are plain text, one
`key = value` per line, `#` comments, with a `schema` field for forward
compatibility. Command-line flags override file values, which override
defaults. The default values describe the reference experiment: a 405 nm
pump, 810 nm order-4 filters of 7.3 nm width, and a 3 mm birefringent
crystal modeled either as a Taylor phase or through its dispersion formula.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .spectral import (DispersiveMedium, FilterProfile, JointSpectrum,
                       TaylorMedium, bbo_crystal, group_delay_slope)
from .units import bandwidth_nm_to_angular, wavelength_nm_to_angular

SCHEMA_VERSION = 1

#: largest scan a config may ask for
MAX_POINTS = 1_000_000

_NO_BANDWIDTH = "gives no finite angular bandwidth"
_VANISHING_BANDWIDTH = "gives an angular bandwidth below the normal float range"

__all__ = ["ExperimentConfig", "ConfigError", "SCHEMA_VERSION",
           "parse_config_text", "load_config_file", "merge_config"]


class ConfigError(ValueError):
    """Invalid configuration; names the offending field."""

    def __init__(self, key: str, message: str):
        super().__init__(f"config field '{key}': {message}")
        self.key = key


@dataclass(frozen=True)
class ExperimentConfig:
    schema: int = SCHEMA_VERSION
    pump_wavelength_nm: float = 405.0
    filter_center_nm: float = 810.0
    filter_fwhm_nm: float = 7.3
    filter_order: int = 4
    medium_variant: str = "taylor"          # taylor | bbo | none
    medium_phi0: float = 0.0                # rad
    medium_phi_prime: float = 0.0           # s
    medium_phi_double_prime: float = 0.0    # s^2
    medium_length_mm: float = 3.0
    phi_prime_fractional_uncertainty: float = 0.063
    kappa: float | None = 0.14
    pump_fwhm: float | None = None          # rad/s, FWHM of the pump density
    theta_start_deg: float = 0.0
    theta_stop_deg: float = 180.0
    points: int = 100
    mean_counts: float = 1000.0
    seed: int = 42
    fix_harmonic: float | None = None
    normalize_calibration: bool = False

    def __post_init__(self) -> None:
        if self.schema != SCHEMA_VERSION:
            raise ConfigError("schema", f"unsupported version {self.schema}; "
                              f"this build reads schema {SCHEMA_VERSION}")
        for f in fields(self):
            value = getattr(self, f.name)
            # the range checks below compare, and NaN passes every comparison
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f.name, f"must be finite, got {value}")
        for key in ("pump_wavelength_nm", "filter_center_nm", "filter_fwhm_nm",
                    "mean_counts"):
            if getattr(self, key) <= 0:
                raise ConfigError(key, "must be positive")
        try:
            pump_omega = wavelength_nm_to_angular(self.pump_wavelength_nm)
        except ZeroDivisionError:        # the wavelength in metres underflows
            pump_omega = math.inf
        if pump_omega == math.inf:
            raise ConfigError("pump_wavelength_nm",
                              "gives no finite angular frequency")
        # the bandwidth divides by the center's square in metres: a zero or
        # subnormal square makes it overflow, an infinite one makes it vanish
        center_m = self.filter_center_nm * 1e-9
        if not sys.float_info.min <= center_m * center_m < math.inf:
            raise ConfigError("filter_center_nm", _NO_BANDWIDTH if center_m < 1.0
                              else _VANISHING_BANDWIDTH)
        delta_omega = self.delta_omega()
        if not sys.float_info.min <= delta_omega < math.inf:
            raise ConfigError("filter_fwhm_nm", _NO_BANDWIDTH
                              if delta_omega == math.inf
                              else _VANISHING_BANDWIDTH)
        if self.filter_order <= 0 or self.filter_order % 2:
            raise ConfigError("filter_order", "must be a positive even integer")
        if self.medium_variant not in ("taylor", "bbo", "none"):
            raise ConfigError("medium_variant",
                              "must be one of taylor, bbo, none")
        if self.medium_length_mm < 0:
            raise ConfigError("medium_length_mm", "must be nonnegative")
        if self.phi_prime_fractional_uncertainty < 0:
            raise ConfigError("phi_prime_fractional_uncertainty",
                              "must be nonnegative")
        if (self.kappa is None) == (self.pump_fwhm is None):
            raise ConfigError("kappa", "exactly one of kappa / pump_fwhm "
                              "must be given")
        if self.kappa is not None and self.kappa <= 0:
            raise ConfigError("kappa", "must be positive")
        if self.pump_fwhm is not None and self.pump_fwhm <= 0:
            raise ConfigError("pump_fwhm", "must be positive")
        # the pump Gaussians square the pump width, and a pump_fwhm is squared
        # into kappa as pump_fwhm/delta_omega, in Python floats
        key, width = (("kappa", math.sqrt(self.kappa) * delta_omega)
                      if self.kappa is not None else ("pump_fwhm", self.pump_fwhm))
        ratio = width / delta_omega
        if not (math.isfinite(width * width) and math.isfinite(ratio * ratio)):
            raise ConfigError(key, "gives a pump width whose square, or kappa, "
                              "overflows")
        if width * width == 0.0:
            raise ConfigError(key, "gives a pump width whose square "
                              "underflows to zero, 0/0 in the pump Gaussian")
        if self.seed < 0:
            raise ConfigError("seed", "must be nonnegative")
        if self.points < 8:
            raise ConfigError("points", "need at least 8 scan points")
        if self.points > MAX_POINTS:
            raise ConfigError("points", f"at most {MAX_POINTS} scan points")
        if self.theta_stop_deg <= self.theta_start_deg:
            raise ConfigError("theta_stop_deg",
                              "must exceed theta_start_deg")
        if not math.isfinite(self.theta_stop_deg - self.theta_start_deg):
            raise ConfigError("theta_stop_deg", "gives a scan span "
                              "theta_stop_deg - theta_start_deg that overflows")
        if self.fix_harmonic is not None and self.fix_harmonic <= 0:
            raise ConfigError("fix_harmonic", "must be positive")

    # -- derived physics objects ------------------------------------------

    def delta_omega(self) -> float:
        return bandwidth_nm_to_angular(self.filter_fwhm_nm,
                                       self.filter_center_nm)

    def filter_profile(self) -> FilterProfile:
        return FilterProfile(center=wavelength_nm_to_angular(self.filter_center_nm),
                             fwhm=self.delta_omega(), order=self.filter_order)

    def effective_kappa(self) -> float:
        if self.kappa is not None:
            return self.kappa
        return (self.pump_fwhm / self.delta_omega()) ** 2

    def joint_spectrum(self) -> JointSpectrum:
        width = self.pump_fwhm if self.pump_fwhm is not None \
            else math.sqrt(self.kappa) * self.delta_omega()
        return JointSpectrum(pump_center=wavelength_nm_to_angular(self.pump_wavelength_nm),
                             pump_fwhm=width)

    def medium(self) -> DispersiveMedium:
        reference = wavelength_nm_to_angular(self.filter_center_nm)
        if self.medium_variant == "bbo":
            return bbo_crystal(self.medium_length_mm * 1e-3)
        if self.medium_variant == "none":
            return TaylorMedium(reference=reference, phi0=0.0, phi_prime=0.0,
                                phi_double_prime=0.0)
        return TaylorMedium(reference=reference, phi0=self.medium_phi0,
                            phi_prime=self.medium_phi_prime,
                            phi_double_prime=self.medium_phi_double_prime)

    def medium_phi_prime_effective(self) -> float:
        """Group-delay slope of the configured medium at the filter center."""
        return group_delay_slope(self.medium(),
                                 wavelength_nm_to_angular(self.filter_center_nm))

    def thetas_rad(self) -> np.ndarray:
        return np.radians(np.linspace(self.theta_start_deg,
                                      self.theta_stop_deg, self.points))


# --------------------------------------------------------------------------
# parsing and merging
# --------------------------------------------------------------------------

def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_optional_float(text: str) -> float | None:
    return None if text.strip().lower() == "none" else float(text)


#: the parser of each annotation an ExperimentConfig field carries (the
#: annotations are strings under postponed evaluation)
_BY_TYPE = {"int": int, "float": float, "str": str.strip,
            "float | None": _parse_optional_float, "bool": _parse_bool}

_PARSERS = {f.name: _BY_TYPE[f.type] for f in fields(ExperimentConfig)}


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse `key = value` lines into a typed mapping (no defaults applied)."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError("line", f"{source}:{lineno}: expected key = value, "
                              f"got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _PARSERS:
            raise ConfigError(key, f"{source}:{lineno}: unknown field")
        try:
            values[key] = _PARSERS[key](value.strip())
        except ValueError as exc:
            raise ConfigError(key, f"{source}:{lineno}: {exc}") from exc
    return values


def load_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config_text(handle.read(), source=path)


def merge_config(file_values: dict | None = None,
                 overrides: dict | None = None) -> ExperimentConfig:
    """Defaults, overlaid by file values, overlaid by explicit overrides.

    Overrides with value None mean "not given". Supplying kappa or pump_fwhm
    at a higher layer displaces both from the lower layers, so a flag can
    switch the pump parametrization without editing the file.
    """
    merged: dict = dict(file_values or {})
    cleaned = {k: v for k, v in (overrides or {}).items() if v is not None}
    if "kappa" in cleaned or "pump_fwhm" in cleaned:
        merged.pop("kappa", None)
        merged.pop("pump_fwhm", None)
    merged.update(cleaned)
    # a pump width given anywhere displaces the default kappa
    if merged.get("pump_fwhm") is not None and "kappa" not in merged:
        merged["kappa"] = None
    unknown = set(merged) - set(_PARSERS)
    if unknown:
        raise ConfigError(sorted(unknown)[0], "unknown field")
    return ExperimentConfig(**merged)
