"""Sum-frequency density of the filter pair and its Gaussian surrogate.

When both photons pass identical filters, the probability mass along the sum
frequency omega_p is the self-convolution of the single-filter density,

    F(omega_p) = 1/2 * integral d(omega_-) |f((omega_p+omega_-)/2)|^2
                                           |f((omega_p-omega_-)/2)|^2 .

Curves are tabulated against the dimensionless abscissa

    nu = (ln 2)^(1/4) * (omega_p - Omega_p) / delta_omega,

the scaling in which the order-4 closed form takes its cleanest shape,

    F(nu) ∝ |nu| e^(7 nu^4) K_{1/4}(9 nu^4).

Writing x = (omega_p - Omega_p)/delta_omega instead, the same function reads
|x| 2^(7 x^4) K_{1/4}(9 ln2 x^4); the two forms differ by the constant
abscissa factor (ln 2)^(1/4) only, which the normalization absorbs. The
exact-vs-numeric ratio-constancy test is the arbiter of the convention.

The closed form is defined up to an overall factor; comparisons against the
numeric convolution therefore test constancy of the ratio, not its value.
Its Bessel factor is scipy's ``kve``, through ``besselk``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_legendre

from .besselk import bessel_k_quarter_scaled
from .spectral import (FilterProfile, FrequencyGrid, JointSpectrum,
                       DispersiveMedium, QuadratureAccuracyError, _even_power,
                       medium_phase)

LN2 = math.log(2.0)

#: abscissa scale: nu = NU_SCALE * (omega_p - Omega_p) / delta_omega
NU_SCALE = LN2 ** 0.25

#: F(0) of the order-4 closed form, the nu -> 0 limit of |nu| e^(7nu^4) K_{1/4}(9nu^4)
F_EXACT_AT_ZERO = 0.5 * math.gamma(0.25) * (2.0 / 9.0) ** 0.25

__all__ = [
    "NU_SCALE",
    "F_EXACT_AT_ZERO",
    "DensityCurve",
    "GaussianApproximation",
    "KLDivergence",
    "PhaseMoments",
    "default_nu_grid",
    "sum_frequency_density_numeric",
    "sum_frequency_density_exact",
    "gaussian_approximation",
    "moment_matched_gaussian",
    "kl_divergence",
    "phase_distribution_moments",
]


@dataclass(frozen=True, eq=False)
class DensityCurve:
    """A nonnegative, even density sampled on a symmetric nu grid."""

    nu: np.ndarray
    density: np.ndarray
    normalized: bool

    def __post_init__(self) -> None:
        nu = np.asarray(self.nu, dtype=float)
        rho = np.asarray(self.density, dtype=float)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "density", rho)
        if nu.shape != rho.shape or nu.ndim != 1 or nu.size < 8:
            raise ValueError("curve needs matching 1-d abscissa/density with >= 8 points")
        if np.any(rho < 0):
            raise ValueError("density must be nonnegative")
        scale = float(rho.max())
        if scale > 0 and (np.abs(nu + nu[::-1]).max() < 1e-9 * (1 + np.abs(nu).max())):
            if np.abs(rho - rho[::-1]).max() > 1e-9 * scale:
                raise ValueError("density must be even in nu")
        if self.normalized:
            total = float(np.trapezoid(rho, nu))
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"normalized curve integrates to {total}, not 1")

    def normalize(self) -> "DensityCurve":
        total = float(np.trapezoid(self.density, self.nu))
        if total <= 0:
            raise ValueError("cannot normalize a zero curve")
        return DensityCurve(self.nu, self.density / total, normalized=True)


def default_nu_grid(points: int = 4001, half_range: float = 4.0) -> np.ndarray:
    """The standard abscissa for divergence and moment computations."""
    if points < 9 or points % 2 == 0:
        raise ValueError("need an odd point count >= 9 so nu = 0 is on the grid")
    return np.linspace(-half_range, half_range, points)


# --------------------------------------------------------------------------
# numeric convolution and closed form
# --------------------------------------------------------------------------

#: abscissae per block of the convolution; keeps each temporary cache-sized
_CONV_BLOCK = 128


@functools.lru_cache(maxsize=8)
def _self_convolution(order: int, x_bytes: bytes, inner_nodes: int) -> np.ndarray:
    """0.5 * integral ds 2^(-[(x+s)^order + (x-s)^order]) on a Legendre rule.

    The integrand is even in s for every even order and the rule is
    symmetric, so the rule is folded onto s >= 0: each node s > 0 carries its
    weight once (its mirror's share and the 0.5 cancel) and a node at s = 0,
    present for an odd node count, carries half its weight. This halves the
    mesh without changing the rule. The abscissae are taken in blocks of
    _CONV_BLOCK, so each (block x nodes) temporary stays cache-sized.

    Memoised on (order, float64 abscissa bytes, nodes): the density checks and
    the phase moments ask for the same tabulation, which is therefore shared
    and read-only.
    """
    x = np.frombuffer(x_bytes)
    span = max(3.0, 1.3 * 49.8 ** (1.0 / order))
    s, w = roots_legendre(inner_nodes)
    half = inner_nodes // 2
    s = s[half:] * span
    w = w[half:] * span
    if inner_nodes % 2:
        w[0] *= 0.5
    out = np.empty(x.size)
    for i in range(0, x.size, _CONV_BLOCK):
        xb = x[i:i + _CONV_BLOCK, None]
        ex = _even_power(xb + s, order) + _even_power(xb - s, order)
        out[i:i + _CONV_BLOCK] = np.exp2(-ex) @ w
    out.flags.writeable = False
    return out


def sum_frequency_density_numeric(filt: FilterProfile, nu: np.ndarray | None = None,
                                  *, normalized: bool = True,
                                  inner_nodes: int = 400) -> DensityCurve:
    """Tabulate F by direct convolution of the filter pair.

    Works for any even filter order. The inner integral is re-evaluated with
    doubled nodes; a relative shift above 1e-8 raises QuadratureAccuracyError.
    Both tabulations are memoised, so a repeat call costs no convolution; with
    normalized=False the density is the shared read-only table.
    """
    grid = default_nu_grid() if nu is None else np.asarray(nu, dtype=float)
    if grid.max() < 3.0:
        raise ValueError("nu grid must extend to at least +-3")
    x = (grid / NU_SCALE).tobytes()
    # a steep filter's powers overflow to inf, whose exp2(-inf) = 0 is exact
    with np.errstate(over="ignore"):
        f = _self_convolution(filt.order, x, inner_nodes)
        f2 = _self_convolution(filt.order, x, 2 * inner_nodes)
    err = float(np.abs(f - f2).max() / f2.max())
    if err > 1e-8:
        raise QuadratureAccuracyError(
            f"convolution unconverged: doubling inner nodes moves values by {err:.2e}")
    curve = DensityCurve(grid, f2, normalized=False)
    return curve.normalize() if normalized else curve


def sum_frequency_density_exact(nu):
    """Order-4 closed form |nu| e^(7 nu^4) K_{1/4}(9 nu^4), up to an overall factor.

    For |nu| > 1 the Bessel factor underflows while the exponential overflows;
    the product is computed through the exponentially scaled K as
    |nu| e^(-2 nu^4) * [e^z K_{1/4}(z)] with z = 9 nu^4, which is stable for
    any argument. nu = 0 returns the finite limit.
    """
    arr = np.asarray(nu, dtype=float)
    scalar = arr.ndim == 0
    a = np.atleast_1d(arr).astype(float)
    out = np.empty_like(a)
    # below ~1e-70 the fourth power underflows; the curve is flat to O(nu^2) there
    tiny = np.abs(a) < 1e-70
    out[tiny] = F_EXACT_AT_ZERO
    rest = ~tiny
    mag = np.abs(a[rest])      # even function; |.| first keeps it exactly so
    z = 9.0 * mag ** 4
    out[rest] = mag * np.exp(-2.0 * mag ** 4) * bessel_k_quarter_scaled(z)
    return float(out[0]) if scalar else out


# --------------------------------------------------------------------------
# Gaussian surrogate
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianApproximation:
    center: float
    fwhm: float           # of the least-squares Gaussian fit
    rms_residual: float
    direct_fwhm: float    # read off the curve by half-maximum interpolation


def _direct_fwhm(nu: np.ndarray, rho: np.ndarray) -> float:
    half = rho.max() / 2.0
    above = rho >= half
    i0 = int(np.argmax(above))
    i1 = int(len(rho) - np.argmax(above[::-1]) - 1)
    if i0 == 0 or i1 == len(rho) - 1:
        raise ValueError("curve does not fall below half maximum inside the grid")

    def cross(ia: int, ib: int) -> float:
        return nu[ia] + (half - rho[ia]) * (nu[ib] - nu[ia]) / (rho[ib] - rho[ia])

    return cross(i1, i1 + 1) - cross(i0 - 1, i0)


def gaussian_approximation(curve: DensityCurve) -> GaussianApproximation:
    """Least-squares Gaussian fit to a normalized density curve.

    The reported fwhm is the fitted Gaussian's; the curve's own half-maximum
    width is returned alongside as direct_fwhm. A curve with more than one
    separated maximum is rejected.
    """
    if not curve.normalized:
        raise ValueError("gaussian_approximation expects a normalized curve")
    nu, rho = curve.nu, curve.density
    peak = float(rho.max())
    interior = (rho[1:-1] > rho[:-2]) & (rho[1:-1] >= rho[2:])
    prominent = interior & (rho[1:-1] > 0.5 * peak)
    if int(prominent.sum()) > 1:
        idx = np.flatnonzero(prominent)
        if np.any(np.diff(idx) > 1):
            raise ValueError("curve is not unimodal; refusing the Gaussian fit")

    mean = float(np.trapezoid(nu * rho, nu))
    var = float(np.trapezoid((nu - mean) ** 2 * rho, nu))
    (_, c, s), resid = _fit_gaussian(nu, rho, (peak, mean, math.sqrt(var)))
    s = abs(s)
    return GaussianApproximation(
        center=float(c),
        fwhm=float(s * math.sqrt(8.0 * LN2)),
        rms_residual=float(np.sqrt(np.mean(resid ** 2))),
        direct_fwhm=_direct_fwhm(nu, rho),
    )


def _fit_gaussian(nu: np.ndarray, rho: np.ndarray, start):
    """Gauss-Newton least squares of a*exp(-((nu-c)/s)^2/2) to rho.

    Each step solves the linearized problem on the 3-column Jacobian; a step
    that would raise the residual sum of squares is halved until it does not.
    Returns the parameters (a, c, s) and the residual once a step is at most
    1e-15 of the parameters; ValueError if that takes over 100 steps.
    """
    def residual(p):
        a, c, s = p
        z = (nu - c) / s
        g = np.exp(-0.5 * z * z)
        return a * g - rho, g, z

    p = np.array(start, dtype=float)
    r, g, z = residual(p)
    cost = float(r @ r)
    for _ in range(100):
        a, _, s = p
        jac = np.column_stack([g, a * g * z / s, a * g * z * z / s])
        step = np.linalg.lstsq(jac, -r, rcond=None)[0]
        tol = 1e-15 * np.linalg.norm(p)
        while np.linalg.norm(step) > tol:
            trial = residual(p + step)
            trial_cost = float(trial[0] @ trial[0])
            if trial_cost <= cost:
                break
            step *= 0.5
        else:
            return p, r
        p = p + step
        r, g, z = trial
        cost = trial_cost
    raise ValueError("Gaussian fit failed: no convergence in 100 Gauss-Newton steps")


def moment_matched_gaussian(curve: DensityCurve) -> DensityCurve:
    """The Gaussian with the curve's mean and variance, on the same grid.

    Among all Gaussians this one minimizes the divergence D(curve || g), so it
    is the canonical "approximating Gaussian" for divergence statements.
    """
    ref = curve if curve.normalized else curve.normalize()
    nu, rho = ref.nu, ref.density
    mean = float(np.trapezoid(nu * rho, nu))
    var = float(np.trapezoid((nu - mean) ** 2 * rho, nu))
    g = np.exp(-0.5 * (nu - mean) ** 2 / var) / math.sqrt(2.0 * math.pi * var)
    return DensityCurve(nu, g, normalized=False).normalize()


# --------------------------------------------------------------------------
# divergence and moments
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class KLDivergence:
    forward: float   # D(p || q)
    reverse: float   # D(q || p)


def _kl_one_way(p: np.ndarray, q: np.ndarray, grid: np.ndarray) -> float:
    live = p > 0
    if np.any(live & (q <= 0)):
        raise ValueError("support violation: q vanishes where p does not")
    integrand = np.zeros_like(p)
    integrand[live] = p[live] * np.log(p[live] / q[live])
    val = float(np.trapezoid(integrand, grid))
    if val < -1e-12:
        raise RuntimeError(f"divergence came out {val}, below the numerical floor")
    return max(val, 0.0)


def kl_divergence(p: DensityCurve, q: DensityCurve) -> KLDivergence:
    """Kullback-Leibler divergence between two normalized curves, both directions."""
    if not (p.normalized and q.normalized):
        raise ValueError("divergence needs normalized curves")
    if p.nu.shape != q.nu.shape or np.abs(p.nu - q.nu).max() > 1e-12:
        raise ValueError("divergence needs a common abscissa grid")
    return KLDivergence(
        forward=_kl_one_way(p.density, q.density, p.nu),
        reverse=_kl_one_way(q.density, p.density, p.nu),
    )


@dataclass(frozen=True)
class PhaseMoments:
    variance: float          # rad^2
    skewness: float
    excess_kurtosis: float


def phase_distribution_moments(jsa: JointSpectrum, filt: FilterProfile,
                               medium: DispersiveMedium,
                               grid: FrequencyGrid | None = None) -> PhaseMoments:
    """Central moments of the total fringe phase.

    The fringe phase inherits the sum-frequency distribution: the density of
    omega_p is |pump envelope|^2 * F(omega_p), and the accumulated phase is the
    medium phase evaluated at the degenerate point, 2*phi(omega_p/2). For a
    linear-dispersion medium this makes the variance exactly
    phi'^2 * Var(omega_p).

    The moments are integrated by trapezoid on the standard nu grid (or one
    sized per the given FrequencyGrid); a resolution-doubling check guards the
    result and raises QuadratureAccuracyError on disagreement.
    """
    if grid is None:
        points, half = 4001, 4.0
    else:
        points = grid.nodes_per_axis if grid.nodes_per_axis % 2 else grid.nodes_per_axis + 1
        points = max(points, 257)
        half = grid.half_range

    def compute(n_points: int) -> tuple[float, float, float, float]:
        nu = default_nu_grid(n_points, half)
        x = nu / NU_SCALE                                    # (omega_p - 2*center)/fwhm
        omega_p = 2.0 * filt.center + x * filt.fwhm
        # out-of-range values end as 0, inf or NaN, which the checks below
        # refuse; keep numpy's warnings off stderr
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            pump = np.exp2(-4.0 * (omega_p - jsa.pump_center) ** 2
                           / jsa.pump_fwhm ** 2)
            w = pump * _self_convolution(filt.order, x.tobytes(), 400)
            norm = np.trapezoid(w, x)
            if not 0.0 < norm < math.inf:
                raise FloatingPointError(
                    f"no finite sum-frequency density: the pump of width "
                    f"{jsa.pump_fwhm!r} rad/s and the filters leave none in "
                    f"floating-point range")
            w /= norm
            delta = 2.0 * medium_phase(medium, omega_p / 2.0)    # total fringe phase
            mean = float(np.trapezoid(delta * w, x))
            d = delta - mean
            m2 = float(np.trapezoid(d ** 2 * w, x))
            m3 = float(np.trapezoid(d ** 3 * w, x))
            m4 = float(np.trapezoid(d ** 4 * w, x))
        return mean, m2, m3, m4

    mean, m2, m3, m4 = compute(points)
    _, m2b, _, _ = compute(2 * points - 1)
    if not all(map(math.isfinite, (mean, m2, m3, m4, m2b))):
        raise FloatingPointError("phase moments are not finite: the medium "
                                 "phase leaves floating-point range")
    # a constant phase leaves only rounding dust in the variance; call it zero
    floor = (1e-12 * (1.0 + abs(mean))) ** 2
    if m2 <= floor and m2b <= floor:
        return PhaseMoments(0.0, 0.0, 0.0)
    if abs(m2 - m2b) > 1e-8 * m2b:
        raise QuadratureAccuracyError(
            f"moment grid unconverged: variance moved by {abs(m2 - m2b):.2e}")
    return PhaseMoments(variance=m2, skewness=m3 / m2 ** 1.5,
                        excess_kurtosis=m4 / m2 ** 2 - 3.0)
