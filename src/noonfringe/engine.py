"""Coincidence fringe engine.

A polarization rotation by angle theta mixes the two circular components of
each photon; the medium adds a frequency-dependent birefringent phase, so each
photon carries an effective rotation angle theta_i = 2*theta + phi(omega_i)/2.
The coincidence probability is a frequency integral over the filtered pair
spectrum. The direct per-angle form, coincidence_probability_general, is the
reference: the general bilinear form at one angle, summing the direct,
swapped and interference contributions of any spectral amplitude.

One harmonic form serves every spectrum and every other caller. Integrated
over frequency, the bilinear form is P(theta) = (N + Re(Z e^{8i theta}))/2
for any pair: its 4-theta component is odd under exchange of the photons,
which pass the same filter and medium, and vanishes on the symmetric
difference-axis rule. One quadrature of N and Z gives the exact visibility
|Z|/N and a whole scan; for exchange-symmetric pairs it is the reduction
|Phi|^2 T T cos^2(theta_1 + theta_2).

Both integrate in rotated coordinates (sum and difference frequency) on a
trapezoid-rule mesh whose sum-frequency half-range adapts to the narrower of
the pump and filter widths — the pump ridge is the only sharp feature. The
integrands are smooth and fall to ~1e-70 at the edges of the window, so the
equally spaced trapezoid rule converges geometrically in the node count
(Trefethen & Weideman, SIAM Rev. 56:385, 2014).

The closed-form visibility law models the sum-frequency filter density by a
Gaussian of equal FWHM; it is an approximation, accurate at the percent level
near kappa ~ 0.1 and degrading to ~14% in variance as kappa grows (the exact
density is 12.6% wider in variance). The engine itself makes no such
approximation; measured deviations are pinned in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import (DispersiveMedium, FilterProfile, FrequencyGrid,
                       JointSpectrum, QuadratureAccuracyError,
                       filter_transmission, jsa_amplitude, medium_phase)

LN2 = math.log(2.0)

__all__ = [
    "ProbabilityCurve",
    "VisibilityLaw",
    "FringeHarmonics",
    "coincidence_probability_general",
    "coincidence_probability_symmetric",
    "simulate_fringe_scan",
    "fringe_harmonics",
    "harmonic_visibility",
    "extract_visibility",
    "closed_form_sigma_phi",
    "analytic_visibility",
    "single_photon_visibility",
]

#: default relative tolerance for the node-thinning accuracy estimate
ACCURACY_TOL = 1e-5


@dataclass(frozen=True, eq=False)
class ProbabilityCurve:
    """Coincidence probability sampled over analyzer angles."""

    thetas: np.ndarray
    values: np.ndarray
    normalization: str = "raw"

    def __post_init__(self) -> None:
        th = np.asarray(self.thetas, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "thetas", th)
        object.__setattr__(self, "values", v)
        if th.shape != v.shape or th.ndim != 1:
            raise ValueError("thetas and values must be matching 1-d arrays")
        for name, arr in (("thetas", th), ("values", v)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
        # quadrature leaves O(eps)-negative dust at perfect fringe nulls
        tiny = 1e-12 * float(np.max(np.abs(v), initial=0.0))
        if np.any(v < -tiny):
            raise ValueError("probabilities must be nonnegative")
        if np.any(v < 0):
            v = np.where(v < 0, 0.0, v)
            object.__setattr__(self, "values", v)
        if self.normalization not in ("raw", "mean-one"):
            raise ValueError(f"unknown normalization {self.normalization!r}")
        if self.normalization == "mean-one" and abs(v.mean() - 1.0) > 1e-12:
            raise ValueError("mean-one curve does not average to 1")


@dataclass(frozen=True)
class VisibilityLaw:
    """Closed-form dephasing: v = exp(-sigma_phi_sq / 2)."""

    kappa: float
    phi_prime: float
    delta_omega: float
    sigma_phi_sq: float
    visibility: float

    def __post_init__(self) -> None:
        if self.kappa < 0:
            raise ValueError("kappa must be nonnegative")
        if abs(self.visibility - math.exp(-self.sigma_phi_sq / 2.0)) > 1e-12:
            raise ValueError("visibility inconsistent with sigma_phi_sq")


# --------------------------------------------------------------------------
# rotated-coordinate mesh
# --------------------------------------------------------------------------

def _rotated_mesh(jsa: JointSpectrum, filt: FilterProfile, grid: FrequencyGrid,
                  n: int | None = None):
    """Photon frequencies, sum-frequency offsets and weights on a rotated mesh.

    Sum axis: half-range*min(pump_fwhm, filter_fwhm) about the narrower
    feature's center. Difference axis: wide enough for the filter product.
    Jacobian 1/2 from (w1, w2) -> (w_p, w_-) is folded into the weights.
    """
    narrow_pump = jsa.pump_fwhm <= filt.fwhm
    center_p = jsa.pump_center if narrow_pump else 2.0 * filt.center
    scale_p = min(jsa.pump_fwhm, filt.fwhm)
    up, wp = grid.axis(scale_p, n)
    um, wm = grid.axis(2.0 * filt.fwhm, n)
    omega_p = center_p + up[:, None]
    omega1 = (omega_p + um[None, :]) / 2.0
    omega2 = (omega_p - um[None, :]) / 2.0
    weights = 0.5 * wp[:, None] * wm[None, :]
    return omega1, omega2, weights


# --------------------------------------------------------------------------
# probability paths
# --------------------------------------------------------------------------

def _thinned(grid: FrequencyGrid) -> int:
    """Node count of the thinned rule that estimates the quadrature error."""
    return max(16, (3 * grid.nodes_per_axis) // 4)


def _check_shift(shift: float, flux: float, grid: FrequencyGrid, n_thin: int,
                 accuracy_tol: float) -> None:
    """Refuse a probability that thinning the nodes moves by more than
    accuracy_tol of the pair flux, and one with no finite flux or shift."""
    if not (0.0 < flux < math.inf and math.isfinite(shift)):
        raise FloatingPointError(
            f"no finite fringe: pair flux {flux!r} and thinning shift "
            f"{shift!r} on the mesh; the spectrum, the filters or the medium "
            "phase leave floating-point range")
    err = shift / flux
    if err > accuracy_tol:
        raise QuadratureAccuracyError(
            f"grid too coarse: {grid.nodes_per_axis} vs {n_thin} nodes move "
            f"P(theta) by {err:.2e} of the pair flux "
            f"(tolerance {accuracy_tol:.1e})")


def _general_value(jsa, filt, medium, theta, grid, n=None):
    o1, o2, w = _rotated_mesh(jsa, filt, grid, n)
    with np.errstate(over="ignore", invalid="ignore"):     # as in _harmonics
        tt = filter_transmission(filt, o1) * filter_transmission(filt, o2)
        a12 = np.asarray(jsa_amplitude(jsa, o1, o2))
        a21 = np.asarray(jsa_amplitude(jsa, o2, o1))
        th1 = 2.0 * theta + 0.5 * medium_phase(medium, o1)
        th2 = 2.0 * theta + 0.5 * medium_phase(medium, o2)
        c1, s1 = np.cos(th1), np.sin(th1)
        c2, s2 = np.cos(th2), np.sin(th2)
        direct = np.abs(a12) ** 2 * c1 * c1 * c2 * c2
        swapped = np.abs(a21) ** 2 * s1 * s1 * s2 * s2
        cross = 2.0 * np.real(a12 * np.conj(a21)) * c1 * c2 * s1 * s2
        p = float(np.sum(w * tt * (direct + swapped - cross)))
        flux = float(np.sum(w * tt * (np.abs(a12) ** 2 + np.abs(a21) ** 2))) / 2.0
    return p, flux


def coincidence_probability_general(jsa: JointSpectrum, filt: FilterProfile,
                                    medium: DispersiveMedium, theta: float,
                                    grid: FrequencyGrid, *,
                                    accuracy_tol: float = ACCURACY_TOL,
                                    check: bool = True) -> float:
    """Coincidence probability from the general bilinear form.

    Handles asymmetric and complex spectral amplitudes. The value is
    re-estimated with a thinned node set; disagreement beyond accuracy_tol
    (relative to the total pair flux, so fringe nulls don't divide by zero)
    raises QuadratureAccuracyError; a mesh with no finite, nonzero flux or a
    non-finite value raises FloatingPointError.
    """
    p, flux = _general_value(jsa, filt, medium, theta, grid)
    if check:
        n_thin = _thinned(grid)
        p_thin, _ = _general_value(jsa, filt, medium, theta, grid, n_thin)
        _check_shift(abs(p - p_thin), flux, grid, n_thin, accuracy_tol)
    return p


@dataclass(frozen=True)
class FringeHarmonics:
    """Constant and oscillating fringe components: P = (N + Re(Z e^{8i theta}))/2."""

    offset: float     # N
    amplitude: complex  # Z

    @property
    def visibility(self) -> float:
        return abs(self.amplitude) / self.offset

    @property
    def phase(self) -> float:
        return math.atan2(self.amplitude.imag, self.amplitude.real) % (2.0 * math.pi)

    def at(self, theta) -> np.ndarray:
        th = np.asarray(theta, dtype=float)
        osc = (self.amplitude.real * np.cos(8.0 * th)
               - self.amplitude.imag * np.sin(8.0 * th))
        return 0.5 * (self.offset + osc)


def _harmonics(jsa, filt, medium, grid, n=None) -> tuple[FringeHarmonics, float]:
    """Fringe harmonics of any spectrum in one mesh pass, and the pair flux.

    With A = |a12|^2, B = |a21|^2, C = Re(a12 a21*) and S = (A + B)/2, the
    bilinear form integrates to N = sum w T T [S + (S - C) cos(phi1 - phi2)/2]
    and Z = sum w T T (S + C) e^{i(phi1 + phi2)}/2; the pair flux is
    sum w T T S. A symmetric spectrum has A = B = C, so N is the flux and the
    swapped amplitude and the beat term are not computed.
    """
    o1, o2, w = _rotated_mesh(jsa, filt, grid, n)
    # steep filter powers overflow to an exact zero transmission; a phase
    # that overflows ends in NaN, which _check_shift refuses
    with np.errstate(over="ignore", invalid="ignore"):
        wtt = w * (filter_transmission(filt, o1) * filter_transmission(filt, o2))
        phi1, phi2 = medium_phase(medium, o1), medium_phase(medium, o2)
        a12 = np.asarray(jsa_amplitude(jsa, o1, o2))
        flux = wtt * np.abs(a12) ** 2
        offset = bright = flux
        if not jsa.symmetric:
            a21 = np.asarray(jsa_amplitude(jsa, o2, o1))
            flux = (flux + wtt * np.abs(a21) ** 2) / 2.0
            overlap = wtt * np.real(a12 * np.conj(a21))
            offset = flux + (flux - overlap) * np.cos(phi1 - phi2) / 2.0
            bright = (flux + overlap) / 2.0
        h = FringeHarmonics(float(np.sum(offset)),
                            complex(np.sum(bright * np.exp(1j * (phi1 + phi2)))))
    return h, float(np.sum(flux))


def _checked_harmonics(jsa, filt, medium, grid, thetas, accuracy_tol,
                       check) -> FringeHarmonics:
    """_harmonics, re-estimated on a thinned node set.

    The shift is max(|dN|, |dZ|), which bounds the move of P(theta) at every
    angle. A scan of an asymmetric spectrum is checked at its angles only,
    so it refuses exactly where coincidence_probability_general would at
    each of them.
    """
    h, flux = _harmonics(jsa, filt, medium, grid)
    if check:
        n_thin = _thinned(grid)
        h_thin, _ = _harmonics(jsa, filt, medium, grid, n_thin)
        if thetas is None or jsa.symmetric:
            # np.maximum, unlike max, keeps a NaN for _check_shift to refuse
            shift = float(np.maximum(abs(h.offset - h_thin.offset),
                                     abs(h.amplitude - h_thin.amplitude)))
        else:
            shift = float(np.max(np.abs(h.at(thetas) - h_thin.at(thetas))))
        _check_shift(shift, flux, grid, n_thin, accuracy_tol)
    return h


def fringe_harmonics(jsa: JointSpectrum, filt: FilterProfile,
                     medium: DispersiveMedium, grid: FrequencyGrid, *,
                     accuracy_tol: float = ACCURACY_TOL,
                     check: bool = True) -> FringeHarmonics:
    """Fringe components of any pair: P(theta) = (N + Re(Z e^{8 i theta}))/2.

    N is the fringe offset (the filtered pair flux for a symmetric spectrum)
    and Z its phase-weighted counterpart, so visibility |Z|/N is free of
    theta sampling. Raises QuadratureAccuracyError when thinning the nodes
    moves N or Z by more than accuracy_tol of the pair flux, and
    FloatingPointError when the flux, N or Z is not finite or no flux
    reaches the filters.
    """
    return _checked_harmonics(jsa, filt, medium, grid, None, accuracy_tol, check)


def coincidence_probability_symmetric(jsa: JointSpectrum, filt: FilterProfile,
                                      medium: DispersiveMedium, theta: float,
                                      grid: FrequencyGrid, *,
                                      accuracy_tol: float = ACCURACY_TOL,
                                      check: bool = True) -> float:
    """Coincidence probability for exchange-symmetric pairs."""
    if not jsa.symmetric:
        raise ValueError("the symmetric reduction requires a symmetric spectrum")
    h = fringe_harmonics(jsa, filt, medium, grid,
                         accuracy_tol=accuracy_tol, check=check)
    return float(h.at(theta))


def harmonic_visibility(jsa: JointSpectrum, filt: FilterProfile,
                        medium: DispersiveMedium, grid: FrequencyGrid) -> float:
    """Exact fringe visibility |Z|/N of any pair, symmetric or not."""
    return fringe_harmonics(jsa, filt, medium, grid).visibility


def simulate_fringe_scan(jsa: JointSpectrum, filt: FilterProfile,
                         medium: DispersiveMedium, thetas,
                         normalization: str = "raw",
                         grid: FrequencyGrid | None = None) -> ProbabilityCurve:
    """Evaluate the fringe over a list of analyzer angles.

    One quadrature of the fringe harmonics serves the whole scan of any
    spectrum. An asymmetric spectrum is checked against a thinned node set
    at every requested angle, a symmetric one as fringe_harmonics checks it.
    """
    th = np.asarray(thetas, dtype=float)
    if th.size == 0:
        raise ValueError("need at least one angle")
    if grid is None:
        grid = FrequencyGrid(center=jsa.pump_center / 2.0)
    values = _checked_harmonics(jsa, filt, medium, grid, th, ACCURACY_TOL,
                                True).at(th)
    if normalization == "mean-one":
        mean = values.mean()
        if mean <= 0:
            raise ValueError("cannot normalize a vanishing curve")
        values = values / mean
    return ProbabilityCurve(th, values, normalization)


def extract_visibility(curve: ProbabilityCurve, period: float = math.pi / 4.0,
                       min_points_per_period: int = 721) -> float:
    """(max - min)/(max + min) from a dense scan.

    Requires the sampling to be dense enough — at least min_points_per_period
    angles per fringe period — so the extrema are trusted to ~1e-5 without a
    model fit.
    """
    th, v = curve.thetas, curve.values
    span = float(th.max() - th.min())
    if span < period:
        raise ValueError("scan must cover at least one fringe period")
    density = (th.size - 1) / span * period + 1
    if density < min_points_per_period:
        raise ValueError(
            f"scan too sparse: {density:.0f} points per period, "
            f"need >= {min_points_per_period}")
    hi, lo = float(v.max()), float(v.min())
    return (hi - lo) / (hi + lo)


# --------------------------------------------------------------------------
# closed-form law
# --------------------------------------------------------------------------

def closed_form_sigma_phi(kappa: float, phi_prime: float, delta_omega: float) -> float:
    """Variance of the total fringe phase in the Gaussian surrogate model.

    Pump density of FWHM sqrt(kappa)*delta_omega times a Gaussian stand-in for
    the filter sum-density of FWHM delta_omega gives a Gaussian product whose
    variance is delta_omega^2/(8 ln2) * kappa/(1+kappa); the phase variance is
    that times phi'^2.
    """
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    t = phi_prime * delta_omega        # finite where phi'^2 alone overflows
    return t * t / (8.0 * LN2) * kappa / (1.0 + kappa)


def analytic_visibility(kappa: float, phi_prime: float, delta_omega: float) -> VisibilityLaw:
    """Closed-form fringe visibility v = exp(-sigma_phi_sq/2)."""
    s2 = closed_form_sigma_phi(kappa, phi_prime, delta_omega)
    return VisibilityLaw(kappa=kappa, phi_prime=phi_prime, delta_omega=delta_omega,
                         sigma_phi_sq=s2, visibility=math.exp(-s2 / 2.0))


def single_photon_visibility(filt: FilterProfile, medium: DispersiveMedium,
                             grid: FrequencyGrid | None = None, *,
                             accuracy_tol: float = ACCURACY_TOL) -> float:
    """Fringe visibility of one photon through the same filter and medium.

    |integral T(w) e^{i phi(w)}| / integral T(w): the single-photon dephasing
    carries the full filter bandwidth, with no pair correlation to cancel it.

    The default grid is much denser than the two-photon one: a millimeter-scale
    crystal wraps the phase through tens of cycles across the filter window,
    and the quadrature must resolve every one of them. Its 4096 trapezoid
    nodes pass the thinning check through ~27 cm of BBO.
    """
    if grid is None:
        grid = FrequencyGrid(center=filt.center, nodes_per_axis=4096)

    def value(n=None):
        x, w = grid.axis(filt.fwhm, n)
        t = filter_transmission(filt, filt.center + x) * w
        phi = medium_phase(medium, filt.center + x)
        return abs(np.sum(t * np.exp(1j * phi))) / np.sum(t)

    v = value()
    v_thin = value(_thinned(grid))
    if abs(v - v_thin) > accuracy_tol:
        raise QuadratureAccuracyError(
            f"grid too coarse for the single-photon integral "
            f"(shift {abs(v - v_thin):.2e})")
    return float(v)
