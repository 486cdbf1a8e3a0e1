"""Frequency-domain models: photon-pair spectrum, filters, dispersive media.

All frequencies are angular (rad/s). The two-photon spectral amplitude is a
pump envelope in the sum frequency times a phase-matching envelope in the
difference frequency; detection goes through identical super-Gaussian filters
and a birefringent medium whose phase slope drives the fringe dephasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Union

import numpy as np

from .units import SPEED_OF_LIGHT, TWO_PI

LN2 = math.log(2.0)

__all__ = [
    "QuadratureAccuracyError",
    "NoFringeError",
    "DispersionWindowError",
    "FrequencyGrid",
    "FilterProfile",
    "JointSpectrum",
    "TaylorMedium",
    "SellmeierMedium",
    "SellmeierCoefficients",
    "DispersiveMedium",
    "BBO_ORDINARY",
    "BBO_EXTRAORDINARY",
    "bbo_crystal",
    "filter_transmission",
    "medium_phase",
    "group_delay_slope",
]


class QuadratureAccuracyError(RuntimeError):
    """An integral's estimated quadrature error exceeds the requested tolerance."""


class NoFringeError(FloatingPointError):
    """No finite fringe or phase moments, for the cause part names: "pump"
    (the filters pass no pairs of the pump in floating-point range),
    "window" (the pairs they pass lie outside the sum-frequency window) or
    "medium" (the medium phase overflows at the frequencies omega)."""

    def __init__(self, part: str, message: str, omega=None):
        super().__init__(message)
        self.part, self.omega = part, omega


def _check_refinement(what: str, value, check_value, scale, nodes: int,
                      check_nodes: int, tol: float) -> None:
    """Refuse a quadrature value that its re-estimate does not confirm.

    value was computed on `nodes` nodes and check_value on `check_nodes`; the
    error is the largest |value - check_value| / scale. Either may be an
    array, and scale a scalar or one scale per value. Raises
    FloatingPointError when a shift or a scale is not finite or a scale is
    not positive (a NaN fails every comparison, so it is refused here), and
    QuadratureAccuracyError when the error exceeds tol.
    """
    shift = np.abs(np.subtract(value, check_value))
    if not (np.all(np.isfinite(shift))
            and np.all((0.0 < scale) & (scale < math.inf))):
        raise FloatingPointError(
            f"no finite {what}: on {nodes} vs {check_nodes} nodes the shift is "
            f"{float(np.max(shift))!r} and the scale {float(np.min(scale))!r}; "
            "its inputs leave floating-point range")
    err = float(np.max(shift / scale))
    if err > tol:
        raise QuadratureAccuracyError(
            f"{what} unconverged, grid too coarse: {nodes} vs {check_nodes} "
            f"nodes move it by {err:.2e} (tolerance {tol:.1e})")


def _refine(what: str, rungs: list[int], evaluate, tol: float):
    """The one refinement policy: evaluate(n), the value on n nodes and its
    scale, on each of the increasing node counts rungs, each checked against
    the rung before by _check_refinement. The first comparison is accepted
    alone; after a failed one, a rung only if the one before it passed too,
    since two rules can agree by luck. Returns the accepted value; raises
    QuadratureAccuracyError naming the cap, the last rung, if none is."""
    check, _ = evaluate(rungs[0])
    failed, passed = None, False
    for coarse, n in zip(rungs, rungs[1:]):
        value, scale = evaluate(n)
        try:
            _check_refinement(what, value, check, scale, n, coarse, tol)
        except QuadratureAccuracyError as exc:
            failed, passed, check = exc, False, value
            continue
        if failed is None or passed:
            return value
        passed, check = True, value
    raise QuadratureAccuracyError(
        f"{failed}; no rule up to the cap of {rungs[-1]} nodes converged")


def _grid_rungs(start: int, cap: int) -> list[int]:
    """start's thinned rule 3*start//4 (at least 16), start, then steps of
    4/3 up to cap, rounded up so that each rung thins to the one before."""
    rungs = [max(16, 3 * start // 4), start]
    while (finer := -(-4 * rungs[-1] // 3)) <= cap:
        rungs.append(finer)
    return rungs


class DispersionWindowError(ValueError):
    """A frequency lies outside the validity window of the embedded
    dispersion coefficients."""


# --------------------------------------------------------------------------
# quadrature grid
# --------------------------------------------------------------------------

#: the tail level of every truncated rule: F's spans, the fringe mesh's
#: difference axis and the single-photon window each end where their
#: integrand has fallen below 2^-_TAIL_BITS of its peak (on the mesh, of
#: its row's), so the terms they drop lie below the rounding of their sums
_TAIL_BITS = 60


@dataclass(frozen=True)
class FrequencyGrid:
    """Trapezoid-rule specification for frequency integrals.

    The window is +-half_range axis scales, a class constant: in filter
    widths, the filter tails go as 2^(-(2x)^4) so +-4 widths truncate below
    1e-70. The integrands are smooth and vanish to that level at both ends
    of the window, where the equally spaced trapezoid rule converges
    geometrically in the node count (Trefethen & Weideman, SIAM Rev. 56:385,
    2014). nodes_per_axis is the first rung of the fringe engine's
    refinement (_refine). No integral reads center, which stays for the
    callers that pass it.
    """

    half_range: ClassVar[float] = 4.0

    center: float = 0.0
    nodes_per_axis: int = 128

    def __post_init__(self) -> None:
        if self.nodes_per_axis < 16:
            raise ValueError(f"nodes_per_axis must be >= 16, got {self.nodes_per_axis}")

    def axis(self, scale: float) -> tuple[np.ndarray, np.ndarray]:
        """Trapezoid nodes and weights on [-half_range*scale, +half_range*scale]:
        equally spaced, with halved end weights."""
        b = self.half_range * scale
        # the step from linspace itself: x[1] - x[0] would carry the
        # rounding of x[0], a relative error of ~nodes_per_axis ulp
        x, h = np.linspace(-b, b, self.nodes_per_axis, retstep=True)
        w = np.full(x.size, h)
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

    spectral_phase(omega1, omega2) must be real and pointwise: a real phase
    at each element that depends on that element's pair of frequencies only.
    The fringe engine takes the swapped phase as this one mirrored along the
    difference axis of its mesh, and |a12| = |a21|; it refuses a complex
    phase with a ValueError.

    symmetric only asserts that there is no spectral phase: a symmetric
    spectrum cannot carry one. No integral reads it; the engine treats every
    pair alike.
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


def _real_phase(jsa: JointSpectrum, omega1, omega2):
    """jsa.spectral_phase at (omega1, omega2), refused unless real: a
    complex phase would change |amplitude|."""
    chi = jsa.spectral_phase(omega1, omega2)
    if np.iscomplexobj(chi):
        raise ValueError("spectral_phase must return a real phase, "
                         "got complex values")
    return chi


def _pair_envelope(jsa: JointSpectrum, up, um):
    """|amplitude|: the pump envelope at the sum offset up (from
    pump_center) times the phase-matching envelope at the difference um."""
    up, um = np.asarray(up, dtype=float), np.asarray(um, dtype=float)
    # a pump width whose square underflows gives 0 or 0/0 = NaN here, which
    # the callers' finite checks refuse; keep numpy's warning off stderr
    with np.errstate(divide="ignore", invalid="ignore"):
        amp = np.exp2(-2.0 * up * up / jsa.pump_fwhm ** 2)
    if math.isfinite(jsa.phasematch_fwhm):
        amp = amp * np.exp2(-2.0 * um * um / jsa.phasematch_fwhm ** 2)
    return amp


def _pair_peak(jsa: JointSpectrum, filt: FilterProfile) -> tuple[float, bool]:
    """The sum frequency s at which the pair weight T(s/2)^2*|pump(s)|^2 on
    the diagonal peaks, between twice the filter center and the pump
    center, and whether that weight is a normal float. Sampled in log2 on
    1001 points, so nothing underflows."""
    detuning = jsa.pump_center - 2.0 * filt.center
    t = np.linspace(0.0, 1.0, 1001)
    with np.errstate(over="ignore"):
        exponent = (2.0 * (t * detuning / filt.fwhm) ** filt.order
                    + 4.0 * ((1.0 - t) * detuning / jsa.pump_fwhm) ** 2)
    i = int(np.argmin(exponent))
    return (2.0 * filt.center + t[i] * detuning,
            bool(np.exp2(-exponent[i]) >= np.finfo(float).tiny))


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


def _check_window(omega: np.ndarray | float) -> None:
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


def group_delay_slope(medium: DispersiveMedium, omega0: float) -> float:
    """Group-delay slope phi'(omega0) of the medium phase, in s.

    The slope is the analytic derivative: the Taylor model differentiates its
    own polynomial; the Sellmeier model uses the closed-form group-index
    difference, phi' = (n_g,e - n_g,o) * L / c, and refuses an omega0
    outside its validity window with DispersionWindowError.
    """
    if isinstance(medium, TaylorMedium):
        return float(medium.phi_prime
                     + medium.phi_double_prime * (omega0 - medium.reference))
    if medium.length == 0.0:
        return 0.0
    _check_window(omega0)
    lam_um = TWO_PI * SPEED_OF_LIGHT / omega0 * 1e6
    dng = (medium.extraordinary.group_index(lam_um)
           - medium.ordinary.group_index(lam_um))
    return float(dng * medium.length / SPEED_OF_LIGHT)
