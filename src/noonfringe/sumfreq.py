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
Its Bessel factor is scipy's ``kve``, through ``besselk``, which loads it on
first use.

The numeric convolution, for any even order, integrates on the trapezoid
rule over a span fitted to each abscissa, halving the step from 17 nodes
until two successive tables agree to 1e-8 of every value, and refuses a
table that needs more than 1025 nodes. One checked, memoised table per
(order, grid) serves the density checks and the phase moments alike.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .besselk import bessel_k_quarter_scaled
from .spectral import (FilterProfile, JointSpectrum, DispersiveMedium,
                       QuadratureAccuracyError, _check_refinement, _even_power,
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


def __getattr__(name: str):
    # perfbench/spans.py wraps ``sumfreq.roots_legendre`` by name to count
    # quadrature nodes; F no longer uses a Gauss-Legendre rule and nothing
    # in the package calls this name. It resolves to numpy's rule, without
    # scipy, until that hook counts nodes where they are made.
    if name == "roots_legendre":
        from numpy.polynomial.legendre import leggauss
        return leggauss
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True, eq=False)
class DensityCurve:
    """A nonnegative, even density sampled on a symmetric nu grid, scaled to
    unit trapezoid integral."""

    nu: np.ndarray
    density: np.ndarray

    def __post_init__(self) -> None:
        nu = np.asarray(self.nu, dtype=float)
        rho = np.asarray(self.density, dtype=float)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "density", rho)
        if nu.shape != rho.shape or nu.ndim != 1 or nu.size < 8:
            raise ValueError("curve needs matching 1-d abscissa/density with >= 8 points")
        if not np.all((rho >= 0) & (rho < math.inf)):
            raise ValueError("density must be finite and nonnegative")
        scale = float(rho.max())
        if scale > 0 and (np.abs(nu + nu[::-1]).max() < 1e-9 * (1 + np.abs(nu).max())):
            if np.abs(rho - rho[::-1]).max() > 1e-9 * scale:
                raise ValueError("density must be even in nu")
        total = float(np.trapezoid(rho, nu))
        if not 0.0 < total < math.inf:
            raise ValueError(f"cannot normalize a curve that integrates to {total}")
        object.__setattr__(self, "density", rho / total)


def default_nu_grid(points: int = 4001) -> np.ndarray:
    """The standard abscissa for divergence and moment computations:
    nu in [-4, 4]."""
    if points < 9 or points % 2 == 0:
        raise ValueError("need an odd point count >= 9 so nu = 0 is on the grid")
    return np.linspace(-4.0, 4.0, points)


# --------------------------------------------------------------------------
# numeric convolution and closed form
# --------------------------------------------------------------------------

#: abscissae per block of the convolution; keeps each temporary cache-sized
_CONV_BLOCK = 128

#: trapezoid intervals of the first F table (17 nodes)
_START_INTERVALS = 16

#: the finest rule tried (1025 nodes); a table that needs more is refused
_MAX_INTERVALS = 1024

#: successive F tables must agree to this fraction of each value
_CONV_TOL = 1e-8

#: at the end of an abscissa's span the integrand has fallen below
#: 2^-_TAIL_BITS of its value at s = 0
_TAIL_BITS = 60

#: points of the phase-moment grid; the check doubles its resolution
_MOMENT_POINTS = 4001

#: the phase variance on the doubled grid must agree to this fraction of itself
_MOMENT_TOL = 1e-8


def _node_sum(order: int, x: np.ndarray, b: np.ndarray, t: np.ndarray,
              w: np.ndarray) -> np.ndarray:
    """sum_k w_k 2^(-[(x+s_k)^order + (x-s_k)^order]) with s_k = b t_k, at
    every abscissa x with its own span b. The abscissae are taken in blocks
    of _CONV_BLOCK, so each (block x nodes) temporary stays cache-sized."""
    out = np.empty(x.size)
    for i in range(0, x.size, _CONV_BLOCK):
        xb = x[i:i + _CONV_BLOCK, None]
        s = b[i:i + _CONV_BLOCK, None] * t
        ex = _even_power(xb + s, order) + _even_power(xb - s, order)
        out[i:i + _CONV_BLOCK] = np.exp2(-ex) @ w
    return out


@functools.lru_cache(maxsize=8)
def _self_convolution(order: int, x_bytes: bytes) -> np.ndarray:
    """0.5 * integral ds 2^(-[(x+s)^order + (x-s)^order]), checked.

    The integrand is even in s and largest at s = 0, so the integral is the
    one over s >= 0. Relative to its value at s = 0 it is 2^-E(s), with
    E(s) = (x+s)^n + (x-s)^n - 2x^n >= max(n(n-1) x^(n-2) s^2, 2 s^n), so
    past b(x), where that bound reaches _TAIL_BITS, it is negligible. Each
    abscissa is integrated over its own [0, b(x)] on the trapezoid rule,
    which converges geometrically for such an integrand (Trefethen &
    Weideman, SIAM Rev. 56:385, 2014) and, the span following the
    integrand's width, to the same relative accuracy at every x, far tails
    included. The rule starts at _START_INTERVALS intervals and halves its
    step until two successive tables agree to _CONV_TOL of every value
    (of the smallest normal float, below it); each halving keeps every
    node, so it evaluates only the new midpoints. The finer table is
    returned. A rule not converged at _MAX_INTERVALS intervals raises
    QuadratureAccuracyError, and a NaN abscissa FloatingPointError.

    Memoised on (order, float64 abscissa bytes): the density checks and the
    phase moments ask for the same tabulation, which is therefore shared
    and read-only.
    """
    x = np.frombuffer(x_bytes)
    m = _START_INTERVALS
    w = np.ones(m + 1)
    w[0] = w[-1] = 0.5
    # x = 0 divides by zero and a huge |x| overflows, each to the right
    # limit; a steep filter's powers overflow to inf, whose exp2(-inf) = 0
    # is exact
    with np.errstate(divide="ignore", over="ignore"):
        b = np.minimum((_TAIL_BITS / 2.0) ** (1.0 / order),
                       np.sqrt(_TAIL_BITS / (order * (order - 1)
                                             * np.abs(x) ** (order - 2))))
        total = _node_sum(order, x, b, np.linspace(0.0, 1.0, m + 1), w)
        table = total * b / m
        while True:
            total += _node_sum(order, x, b, (np.arange(m) + 0.5) / m, np.ones(m))
            m *= 2
            coarse, table = table, total * b / m
            try:
                _check_refinement("sum-frequency convolution", table, coarse,
                                  np.maximum(table, np.finfo(float).tiny),
                                  m + 1, m // 2 + 1, _CONV_TOL)
                break
            except QuadratureAccuracyError:
                if m >= _MAX_INTERVALS:
                    raise
    table.flags.writeable = False
    return table


def sum_frequency_density_numeric(filt: FilterProfile,
                                  nu: np.ndarray | None = None) -> DensityCurve:
    """Tabulate F by direct convolution of the filter pair.

    Works for any even filter order. The inner integral runs on the
    trapezoid rule over a span fitted to each abscissa; its step is halved
    until two successive tables agree to 1e-8 of every value, from 17 up to
    1025 nodes, and a table not converged by then raises
    QuadratureAccuracyError. The tabulation is memoised, so a repeat call
    costs no convolution; the curve holds its own scaled copy.
    """
    grid = default_nu_grid() if nu is None else np.asarray(nu, dtype=float)
    if grid.max() < 3.0:
        raise ValueError("nu grid must extend to at least +-3")
    f = _self_convolution(filt.order, (grid / NU_SCALE).tobytes())
    return DensityCurve(grid, f)


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
    """Least-squares Gaussian fit to a density curve.

    The reported fwhm is the fitted Gaussian's; the curve's own half-maximum
    width is returned alongside as direct_fwhm. A curve with more than one
    separated maximum is rejected.
    """
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
    nu, rho = curve.nu, curve.density
    mean = float(np.trapezoid(nu * rho, nu))
    var = float(np.trapezoid((nu - mean) ** 2 * rho, nu))
    g = np.exp(-0.5 * (nu - mean) ** 2 / var) / math.sqrt(2.0 * math.pi * var)
    return DensityCurve(nu, g)


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
    """Kullback-Leibler divergence between two curves, both directions."""
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
                               medium: DispersiveMedium) -> PhaseMoments:
    """Central moments of the total fringe phase.

    The fringe phase inherits the sum-frequency distribution: the density of
    omega_p is |pump envelope|^2 * F(omega_p), and the accumulated phase is the
    medium phase evaluated at the degenerate point, 2*phi(omega_p/2). For a
    linear-dispersion medium this makes the variance exactly
    phi'^2 * Var(omega_p).

    The moments are integrated by trapezoid on the standard nu grid, over the
    same checked and memoised F table that sum_frequency_density_numeric
    returns; a resolution-doubling check guards the variance and raises
    QuadratureAccuracyError on disagreement. A pump narrower than a sixteenth
    of the filters (kappa < 1/16) sets the step: the grid is then shrunk by
    4*sqrt(kappa) about the pump, and ends where the pump density
    2^(-4 x^2/kappa) has fallen below 2^-1024. Wider pumps keep the
    standard grid.
    """
    scale = min(1.0, 4.0 * jsa.pump_fwhm / filt.fwhm)
    pump_x = (jsa.pump_center - 2.0 * filt.center) / filt.fwhm

    def compute(n_points: int) -> tuple[float, float, float, float]:
        nu = default_nu_grid(n_points)
        x = nu / NU_SCALE                                    # (omega_p - 2*center)/fwhm
        if scale < 1.0:
            # x read back off the rounded omega_p: the trapezoid then sees
            # the abscissae the integrand is evaluated at, and the rounding
            # of omega_p, large against a narrow pump, cancels to first order
            omega_p = 2.0 * filt.center + (pump_x + scale * x) * filt.fwhm
            x = (omega_p - 2.0 * filt.center) / filt.fwhm
        else:
            omega_p = 2.0 * filt.center + x * filt.fwhm
        # out-of-range values end as 0, inf or NaN, which the checks below
        # refuse; keep numpy's warnings off stderr
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            pump = np.exp2(-4.0 * (omega_p - jsa.pump_center) ** 2
                           / jsa.pump_fwhm ** 2)
            w = pump * _self_convolution(filt.order, x.tobytes())
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

    fine = 2 * _MOMENT_POINTS - 1
    mean, m2, m3, m4 = compute(_MOMENT_POINTS)
    _, m2b, _, _ = compute(fine)
    if not all(map(math.isfinite, (mean, m2, m3, m4, m2b))):
        raise FloatingPointError("phase moments are not finite: the medium "
                                 "phase leaves floating-point range")
    # a constant phase leaves only rounding dust in the variance; call it zero
    floor = (1e-12 * (1.0 + abs(mean))) ** 2
    if m2 <= floor and m2b <= floor:
        return PhaseMoments(0.0, 0.0, 0.0)
    _check_refinement("phase variance", m2, m2b, m2b, _MOMENT_POINTS, fine,
                      _MOMENT_TOL)
    return PhaseMoments(variance=m2, skewness=m3 / m2 ** 1.5,
                        excess_kurtosis=m4 / m2 ** 2 - 3.0)
