"""Frequency-domain models: photon-pair spectrum, filters, dispersive media.

All frequencies are angular (rad/s). The two-photon spectral amplitude is a
pump envelope in the sum frequency times a phase-matching envelope in the
difference frequency; detection goes through identical super-Gaussian filters
and a birefringent medium whose phase slope drives the fringe dephasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .units import SPEED_OF_LIGHT, TWO_PI, angular_to_wavelength_nm

LN2 = math.log(2.0)

__all__ = [
    "QuadratureAccuracyError",
    "DispersionWindowError",
    "FrequencyGrid",
    "FilterProfile",
    "JointSpectrum",
    "TaylorMedium",
    "SellmeierMedium",
    "SellmeierCoefficients",
    "DispersiveMedium",
    "LinearizedPhase",
    "BBO_ORDINARY",
    "BBO_EXTRAORDINARY",
    "bbo_crystal",
    "filter_transmission",
    "jsa_amplitude",
    "medium_phase",
    "linearize_phase",
]


class QuadratureAccuracyError(RuntimeError):
    """An integral's estimated quadrature error exceeds the requested tolerance."""


class DispersionWindowError(ValueError):
    """A frequency lies outside the validity window of the embedded
    dispersion coefficients."""


# --------------------------------------------------------------------------
# quadrature grid
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FrequencyGrid:
    """Trapezoid-rule specification for frequency integrals.

    half_range is dimensionless, in multiples of the filter FWHM; the filter
    tails go as 2^(-(2x)^4) so +-4 filter widths truncate below 1e-70. The
    integrands are smooth and vanish to that level at both ends of the
    window, where the equally spaced trapezoid rule converges geometrically
    in the node count (Trefethen & Weideman, SIAM Rev. 56:385, 2014).
    """

    center: float
    half_range: float = 4.0
    nodes_per_axis: int = 128

    def __post_init__(self) -> None:
        if self.nodes_per_axis < 16:
            raise ValueError(f"nodes_per_axis must be >= 16, got {self.nodes_per_axis}")
        if self.half_range < 3.0:
            raise ValueError(f"half_range must be >= 3, got {self.half_range}")

    def axis(self, scale: float, n: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Trapezoid nodes and weights on [-half_range*scale, +half_range*scale]:
        equally spaced, with halved end weights."""
        b = self.half_range * scale
        m = self.nodes_per_axis if n is None else n
        # the step from linspace itself: x[1] - x[0] would carry the
        # rounding of x[0], a relative error of ~m ulp
        x, h = np.linspace(-b, b, m, retstep=True)
        w = np.full(m, h)
        w[0] *= 0.5
        w[-1] *= 0.5
        return x, w


# --------------------------------------------------------------------------
# filter
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FilterProfile:
    """Super-Gaussian intensity transmission 2^(-(2(w-center)/fwhm)^order)."""

    center: float
    fwhm: float
    order: int = 4

    def __post_init__(self) -> None:
        if self.fwhm <= 0:
            raise ValueError("filter fwhm must be positive")
        if self.order <= 0 or self.order % 2:
            raise ValueError(f"filter order must be a positive even integer, got {self.order}")


def _even_power(a, n: int):
    """a**n for a positive integer n, by repeated squaring and multiplication.

    numpy's ``**`` takes its generic pow for integer exponents above 2, about
    ten times slower than these few multiplications; the result may differ
    from it by a few ulp.
    """
    out = None
    while True:
        if n & 1:
            out = a if out is None else out * a
        n >>= 1
        if not n:
            return out
        a = a * a


def filter_transmission(filt: FilterProfile, omega):
    """Intensity transmission of the filter at omega (scalar or array).

    Unity at the center, exactly 1/2 at center +- fwhm/2, even about the
    center; order 4 gives the flat-top profile used throughout.
    """
    x = (2.0 * (np.asarray(omega, dtype=float) - filt.center)) / filt.fwhm
    out = np.exp2(-_even_power(x, filt.order))
    return float(out) if out.ndim == 0 else out


# --------------------------------------------------------------------------
# joint spectral amplitude
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class JointSpectrum:
    """Parametric two-photon spectral amplitude.

    pump_fwhm is the FWHM of the *probability density* |amplitude|^2 along the
    sum frequency (the detection probability integrates the square, so widths
    are compared density-to-density). The amplitude itself is
    2^(-2 u^2 / pump_fwhm^2) with u the sum-frequency offset.
    phasematch_fwhm is the analogous width in the difference frequency;
    infinity means the envelope is dropped.
    """

    pump_center: float
    pump_fwhm: float
    phasematch_fwhm: float = math.inf
    symmetric: bool = True
    spectral_phase: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.pump_fwhm <= 0:
            raise ValueError("pump_fwhm must be positive")
        if self.phasematch_fwhm <= 0:
            raise ValueError("phasematch_fwhm must be positive")
        if self.symmetric and self.spectral_phase is not None:
            raise ValueError("a symmetric spectrum cannot carry a spectral phase")


def jsa_amplitude(jsa: JointSpectrum, omega1, omega2):
    """Two-photon amplitude at (omega1, omega2); real for symmetric spectra."""
    w1 = np.asarray(omega1, dtype=float)
    w2 = np.asarray(omega2, dtype=float)
    up = w1 + w2 - jsa.pump_center
    # a pump width whose square underflows gives 0 or NaN here, which the
    # callers' finite checks refuse; keep numpy's warning off stderr
    with np.errstate(divide="ignore", invalid="ignore"):
        amp = np.exp2(-2.0 * up * up / jsa.pump_fwhm ** 2)
    if math.isfinite(jsa.phasematch_fwhm):
        um = w1 - w2
        amp = amp * np.exp2(-2.0 * um * um / jsa.phasematch_fwhm ** 2)
    if jsa.spectral_phase is not None:
        amp = amp * np.exp(1j * jsa.spectral_phase(w1, w2))
    return complex(amp) if amp.ndim == 0 and np.iscomplexobj(amp) else (
        float(amp) if amp.ndim == 0 else amp)


# --------------------------------------------------------------------------
# dispersive media
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TaylorMedium:
    """Birefringent phase expanded about a reference frequency.

    phi(w) = phi0 + phi_prime*(w - reference) + 0.5*phi_double_prime*(w - reference)^2
    """

    reference: float
    phi0: float = 0.0
    phi_prime: float = 0.0
    phi_double_prime: float = 0.0


@dataclass(frozen=True)
class SellmeierCoefficients:
    """One index branch of the dispersion formula n^2 = a + b/(lam^2 - c) - d*lam^2,
    with lam the vacuum wavelength in micrometers."""

    a: float
    b: float
    c: float
    d: float

    def index(self, lam_um):
        n2 = self.a + self.b / (lam_um ** 2 - self.c) - self.d * lam_um ** 2
        return np.sqrt(n2)

    def index_dlam(self, lam_um):
        """dn/dlam (per um), differentiated in closed form."""
        n = self.index(lam_um)
        dn2 = -2.0 * self.b * lam_um / (lam_um ** 2 - self.c) ** 2 - 2.0 * self.d * lam_um
        return dn2 / (2.0 * n)

    def group_index(self, lam_um):
        """n_g = n - lam * dn/dlam."""
        return self.index(lam_um) - lam_um * self.index_dlam(lam_um)


# Beta barium borate, standard published dispersion-formula coefficients
# (lam in um, valid window used here: 700-900 nm).
BBO_ORDINARY = SellmeierCoefficients(a=2.7405, b=0.0184, c=0.0179, d=0.0155)
BBO_EXTRAORDINARY = SellmeierCoefficients(a=2.3730, b=0.0128, c=0.0156, d=0.0044)

_SELLMEIER_WINDOW_NM = (700.0, 900.0)


@dataclass(frozen=True)
class SellmeierMedium:
    """Birefringent crystal of given length; phase from the index difference."""

    length: float
    ordinary: SellmeierCoefficients = field(default=BBO_ORDINARY)
    extraordinary: SellmeierCoefficients = field(default=BBO_EXTRAORDINARY)

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError("crystal length must be nonnegative")


def bbo_crystal(length_m: float) -> SellmeierMedium:
    """A BBO crystal of the given length with the embedded coefficient sets."""
    return SellmeierMedium(length=length_m)


DispersiveMedium = Union[TaylorMedium, SellmeierMedium]


def _check_window(omega: np.ndarray) -> None:
    lam_nm = TWO_PI * SPEED_OF_LIGHT / omega * 1e9
    lo, hi = _SELLMEIER_WINDOW_NM
    if np.any(lam_nm < lo) or np.any(lam_nm > hi):
        bad = float(np.min(lam_nm)) if np.any(lam_nm < lo) else float(np.max(lam_nm))
        raise DispersionWindowError(
            f"wavelength {bad:.1f} nm outside the {lo:.0f}-{hi:.0f} nm validity "
            "window of the embedded dispersion coefficients")


def medium_phase(medium: DispersiveMedium, omega):
    """Birefringent phase phi(omega) in rad (scalar or array)."""
    w = np.asarray(omega, dtype=float)
    if isinstance(medium, TaylorMedium):
        d = w - medium.reference
        out = medium.phi0 + medium.phi_prime * d + 0.5 * medium.phi_double_prime * d * d
    else:
        if medium.length == 0.0:
            out = np.zeros_like(w)
        else:
            _check_window(w)
            lam_um = TWO_PI * SPEED_OF_LIGHT / w * 1e6
            dn = medium.extraordinary.index(lam_um) - medium.ordinary.index(lam_um)
            out = dn * w * medium.length / SPEED_OF_LIGHT
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class LinearizedPhase:
    """First-order phase model at a reference: phi0 (mod 2pi) + phi_prime*(w - reference)."""

    phi0_mod2pi: float
    phi_prime: float
    reference: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.phi0_mod2pi < TWO_PI):
            raise ValueError("phi0_mod2pi must lie in [0, 2pi)")


def linearize_phase(medium: DispersiveMedium, omega0: float) -> LinearizedPhase:
    """Linearize the medium phase about omega0.

    The slope is the analytic derivative: the Taylor model differentiates its
    own polynomial; the Sellmeier model uses the closed-form group-index
    difference, phi' = (n_g,e - n_g,o) * L / c.
    """
    if isinstance(medium, TaylorMedium):
        d = omega0 - medium.reference
        phi0 = medium.phi0 + medium.phi_prime * d + 0.5 * medium.phi_double_prime * d * d
        slope = medium.phi_prime + medium.phi_double_prime * d
    else:
        if medium.length == 0.0:
            return LinearizedPhase(0.0, 0.0, omega0)
        phi0 = medium_phase(medium, omega0)
        lam_um = TWO_PI * SPEED_OF_LIGHT / omega0 * 1e6
        dng = (medium.extraordinary.group_index(lam_um)
               - medium.ordinary.group_index(lam_um))
        slope = dng * medium.length / SPEED_OF_LIGHT
    phi0 = float(np.mod(phi0, TWO_PI))
    if phi0 >= TWO_PI:        # a hair-negative phase rounds up to 2*pi
        phi0 = 0.0
    return LinearizedPhase(phi0, float(slope), float(omega0))
