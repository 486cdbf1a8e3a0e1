"""Fringe fitting and correlation-bound estimation.

The measured fringe is modeled as offset*(1 + v*cos(m*theta + phi0)). The
fitted visibility v is converted to a dephasing variance sigma_phi_sq =
-2 ln v and inverted through the closed-form law into kappa_bar, the
correlation parameter. Every non-ideality damps the fringe, and a lower
visibility inverts to a larger kappa, so kappa_bar >= kappa: an upper bound
on the correlation parameter, which is a lower bound on the correlation
strength.

The closed-form law is the Gaussian surrogate: it models the sum-frequency
filter density by a Gaussian of equal FWHM, so sigma_phi_sq =
(phi_prime*delta_omega)^2/(8 ln2) * kappa/(1+kappa) and v =
exp(-sigma_phi_sq/2). It is an approximation, accurate at the percent level
near kappa ~ 0.1 and degrading to ~14% in variance as kappa grows (the exact
density is 12.6% wider in variance). The fringe engine makes no such
approximation; measured deviations are pinned in the test suite. The law,
its inverse, its visibility floor and its calibration are defined here only.

The inversion needs the calibration product phi_prime*delta_omega. It can
come from a dispersion model, from the user, or from the self-consistent
choice that makes a reference (visibility, kappa) pair satisfy the law
exactly; the estimate report records which one was used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .units import _fold_phase

LN2 = math.log(2.0)

#: span (rad) of one full two-photon fringe period, pi/4 for the 8-theta fringe
FRINGE_PERIOD = math.pi / 4.0

__all__ = [
    "FringeScan",
    "FitResult",
    "CorrelationEstimate",
    "BootstrapResult",
    "InfeasibleVisibilityError",
    "fit_fringe",
    "closed_form_sigma_phi",
    "sigma_phi_from_visibility",
    "kappa_from_visibility",
    "bootstrap_kappa_uncertainty",
    "self_consistent_calibration",
]


class InfeasibleVisibilityError(ValueError):
    """Observed visibility is below the filter-limited minimum.

    The closed-form law saturates at v_floor = exp(-phi_prime^2*delta_omega^2 /
    (16 ln2)) as kappa -> infinity; a lower observed visibility cannot be
    produced by any kappa. This usually signals a wrong phi_prime/delta_omega
    calibration or dispersion beyond the linear term.
    """

    def __init__(self, visibility: float, floor: float):
        super().__init__(
            f"visibility {visibility:.6g} lies below the filter-limited minimum "
            f"{floor:.6g} under this calibration; no correlation parameter can "
            f"explain it — check phi_prime and delta_omega, or look for "
            f"non-linear dispersion")
        self.visibility = visibility
        self.floor = floor


@dataclass(frozen=True, eq=False)
class FringeScan:
    """A measured or synthetic fringe: angles and counts, or normalized rates."""

    thetas: np.ndarray
    counts: np.ndarray
    normalized: bool = False

    def __post_init__(self) -> None:
        th = np.asarray(self.thetas, dtype=float)
        c = np.asarray(self.counts, dtype=float)
        object.__setattr__(self, "thetas", th)
        object.__setattr__(self, "counts", c)
        if th.ndim != 1 or th.shape != c.shape:
            raise ValueError("thetas and counts must be matching 1-d arrays")
        for name, arr in (("thetas", th), ("counts", c)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
        if th.size < 8:
            raise ValueError("need at least 8 scan points")
        if float(th.max() - th.min()) < FRINGE_PERIOD:
            raise ValueError("scan must span at least one full fringe period")
        if np.any(c < 0):
            raise ValueError("counts must be nonnegative")


@dataclass(frozen=True, eq=False)
class FitResult:
    """Fringe-fit parameters: offset*(1 + v*cos(m*theta + phi0)).

    Covariance rows/columns follow the parameter order
    (offset, visibility, phase0, harmonic); a fixed harmonic leaves its row
    and column zero.
    """

    offset: float
    visibility: float
    phase0: float
    harmonic: float
    covariance: np.ndarray
    residual_rms: float

    def __post_init__(self) -> None:
        cov = np.asarray(self.covariance, dtype=float)
        object.__setattr__(self, "covariance", cov)
        if self.offset <= 0:
            raise ValueError("offset must be positive")
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError("visibility must lie in [0, 1]")
        if not 0.0 <= self.phase0 < 2.0 * math.pi:
            raise ValueError("phase0 must lie in [0, 2*pi)")
        if self.harmonic <= 0:
            raise ValueError("harmonic must be positive")
        if cov.shape != (4, 4) or np.max(np.abs(cov - cov.T)) > 1e-9 * (
                1.0 + np.max(np.abs(cov))):
            raise ValueError("covariance must be a symmetric 4x4 matrix")
        if np.linalg.eigvalsh(cov).min() < -1e-8 * (1.0 + float(np.trace(cov))):
            raise ValueError("covariance must be positive semidefinite")
        if self.residual_rms < 0:
            raise ValueError("residual_rms must be nonnegative")

    @property
    def degenerate(self) -> bool:
        """Whether the visibility lies within three standard errors of
        zero: the fringe is indistinguishable from noise."""
        return bool(self.visibility < 3.0 * self.stderr("visibility"))

    def stderr(self, name: str) -> float:
        index = {"offset": 0, "visibility": 1, "phase0": 2, "harmonic": 3}[name]
        return math.sqrt(max(self.covariance[index, index], 0.0))

    def model(self, theta) -> np.ndarray:
        th = np.asarray(theta, dtype=float)
        return self.offset * (1.0 + self.visibility
                              * np.cos(self.harmonic * th + self.phase0))


@dataclass(frozen=True)
class CorrelationEstimate:
    """Correlation bound from one visibility and one calibration.

    kappa_bar >= kappa, the pair's correlation parameter: every non-ideality
    lowers the visibility, which inverts to a larger kappa. bound_kind names
    what that bounds: a lower bound on the correlation strength.
    """

    bound_kind: ClassVar[str] = "lower bound"

    kappa_bar: float
    sigma_phi_sq: float

    def __post_init__(self) -> None:
        if self.kappa_bar < 0:
            raise ValueError("kappa_bar must be nonnegative")


# --------------------------------------------------------------------------
# fringe fitting
# --------------------------------------------------------------------------

#: the box the fit searches, in parameter order
#: (offset, visibility, phase0, harmonic)
_LOWER = np.array([1e-300, 0.0, -2.0 * math.pi, 0.05])
_UPPER = np.array([np.inf, 1.0, 4.0 * math.pi, 64.0])

#: the harmonics a free fit starts from, inside the box's; periodogram
#: frequencies taken at once, and the most one pass takes
_START_BAND = (0.5, 24.0)
_HARMONIC_BLOCK = 64
_START_MAX = 4096


def _residuals_and_jacobian(params, thetas, counts, sigma, harmonic=None):
    """Weighted residuals (R, n) and their Jacobian (R, n, p) for a stack of
    parameter rows (offset, v, phase0[, m]) of offset*(1 + v*cos(m*theta +
    phase0)); a fixed harmonic is given as `harmonic` and has no column."""
    off, v, ph = params[:, 0:1], params[:, 1:2], params[:, 2:3]
    m = params[:, 3:4] if harmonic is None else harmonic
    arg = m * thetas + ph
    cos = np.cos(arg)
    residuals = (off * (1.0 + v * cos) - counts) / sigma
    jac = np.empty(residuals.shape + (params.shape[1],))
    jac[..., 0] = (1.0 + v * cos) / sigma
    jac[..., 1] = off * cos / sigma
    jac[..., 2] = -off * v * np.sin(arg) / sigma
    if harmonic is None:
        jac[..., 3] = jac[..., 2] * thetas
    return residuals, jac


def _start_harmonic(thetas, counts):
    """The start harmonic of a free fit of each scan (R, n): the frequency of
    largest |sum (y - mean) exp(-i m theta)| over _START_BAND, ties going
    to the lower one. The step pi/(4 span) is an eighth of the main lobe's
    half-width 2 pi/span (VanderPlas, ApJS 236:16, 2018), so the start lies
    in the lobe of the strongest peak; a scan wider than ~137 rad takes the
    step that _START_MAX frequencies span the band in, so no span sets the
    cost. The sums run on counts in units of a power of two near their
    peak, so none overflows.
    """
    lo, hi = _START_BAND
    step = max(math.pi / (4.0 * float(thetas.max() - thetas.min())),
               (hi - lo) / (_START_MAX - 1))
    # the last frequency can round an ulp past hi
    freqs = np.minimum(lo + step * np.arange(math.floor((hi - lo) / step) + 1),
                       hi)
    resid = counts / _power_of_two(counts.max(1))[:, None]
    resid -= resid.mean(axis=1, keepdims=True)
    rows = np.arange(len(counts))
    best, peak = np.zeros(len(counts)), np.full(len(counts), -np.inf)
    for first in range(0, freqs.size, _HARMONIC_BLOCK):
        block = freqs[first:first + _HARMONIC_BLOCK]
        power = np.abs(resid @ np.exp(-1j * np.outer(thetas, block)))
        k = np.argmax(power, axis=1)
        better = power[rows, k] > peak          # ties keep the lower frequency
        peak = np.where(better, power[rows, k], peak)
        best = np.where(better, block[k], best)
    return best


def _power_of_two(a):
    """The power of two at or below each a (floored at the smallest normal
    float): a scale by which a division is exact and that brings a to
    [1, 2)."""
    return np.exp2(np.floor(np.log2(np.maximum(a, _TINY))))


def _rms(a) -> float:
    """Root mean square of a, taken over its peak: the squares overflow
    past 1e154."""
    peak = float(np.max(np.abs(a)))
    return peak * float(np.sqrt(np.mean((a / peak) ** 2))) if peak else 0.0


def _weights(counts, normalized):
    """Residual scale: Poisson (counts floored at one) or unit for normalized data."""
    return np.ones_like(counts) if normalized \
        else np.sqrt(np.maximum(counts, 1.0))


def fit_fringe(scan: FringeScan, fix_harmonic: float | None = None) -> FitResult:
    """Weighted least-squares fringe fit inside the box 0 <= v <= 1.

    Count data gets Poisson weights (variance = counts, floored at one);
    normalized data gets unit weights, with the covariance rescaled by the
    residual variance. The scan is fitted as a one-row stack by the batched
    variable-projection fit the bootstrap uses: a fixed harmonic is one
    linear solve, and a free one a search for the zero of the cost's slope
    in m from the periodogram peak in 0.5 <= m <= 24. So a free fit finds
    no fringe above m ~ 24, though the box reaches 64: fix such a
    harmonic. The covariance is
    V diag(1/s^2) V' over the singular values s of the analytic Jacobian at
    the fitted point that pinv(J'J) would keep, the offset taken in units of
    a power of two near it, so the offset's column is of the size of the
    others at any count scale. A covariance beyond floating-point range
    raises FloatingPointError naming the counts: normalized counts past
    ~1e170 have an offset variance past ~1e308, and Poisson counts far
    below one a visibility variance past it. A visibility within three
    standard errors of zero sets the degenerate flag — the fringe is
    indistinguishable from noise.
    """
    if fix_harmonic is not None and fix_harmonic <= 0:
        raise ValueError("fix_harmonic must be positive")
    harmonic = None if fix_harmonic is None else float(fix_harmonic)
    params = _fit_stack(scan.thetas, scan.counts[None, :], scan.normalized,
                        harmonic)
    return _fit_result(scan, harmonic, params[0])


def _fit_result(scan, harmonic, x):
    """FitResult at the parameter row x, its phase folded into [0, 2*pi)."""
    th = scan.thetas
    y = scan.counts[None, :]
    n, p = y.size, x.size
    off, v, ph = x[0], x[1], x[2]
    m = x[3] if harmonic is None else harmonic
    ph = _fold_phase(ph)

    r, jac = _residuals_and_jacobian(x[None], th, y,
                                     _weights(y, scan.normalized), harmonic)
    r, jac = r[0], jac[0]
    # the offset's column in units of a power of two near the offset is of
    # the size of the others, so pinv's cutoff keeps it; J over a power of
    # two near its peak leaves neither the SVD nor B below to overflow
    unit = _power_of_two(off)
    jac[:, 0] *= unit
    peak = _power_of_two(np.max(np.abs(jac)))
    # pinv(J'J) from J's own SVD as B'B: positive semidefinite by construction
    _, s, vt = np.linalg.svd(jac / peak, full_matrices=False)
    keep = s * s > 1e-15 * s[0] ** 2               # pinv's default cutoff
    scale = 1.0 / peak
    if scan.normalized and n > p:          # sqrt(2*cost/(n - p)) / peak
        scale = _rms(r) / peak * math.sqrt(n / (n - p))
    with np.errstate(over="ignore", invalid="ignore"):
        b = vt[keep] * (scale / s[keep, None])
        b[:, 0] *= unit
        cov = np.zeros((4, 4))
        cov[:p, :p] = b.T @ b
        cov = (cov + cov.T) / 2.0
    if not np.all(np.isfinite(cov)):
        raise FloatingPointError(
            f"counts up to {float(np.max(y))!r} give a fit covariance beyond "
            "floating-point range")

    rms = _rms(off * (1.0 + v * np.cos(m * th + ph)) - scan.counts)
    return FitResult(offset=float(off), visibility=float(v), phase0=ph,
                     harmonic=float(m), covariance=cov, residual_rms=rms)


#: v <= 1 on the coefficients z of the columns (1, 1 - cos(m theta),
#: sin(m theta)): a = z0 + z1, c = -z1, s = z2, and c^2 + s^2 <= a^2 reads
#: z' _CONE z <= 0
_CONE = np.array([[-1.0, -1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny

#: the harmonic search's first downhill step, and its tolerance relative to m
_HARMONIC_STEP = 0.1
_HARMONIC_TOL = 1e-13


def _project(thetas, counts, weight, m):
    """Rows (offset, v, phase0, m) of the best fringe of each scan (R, n) at
    its harmonic m (R,), and the slope and curvature of its cost J in m.

    a + c cos(m theta) + s sin(m theta) is fitted on the columns
    (1, 2 sin^2(m theta/2), sin(m theta)) at unit peak, independent as
    m -> 0. A column within numpy's rank tolerance n*eps of its rounding is
    dropped: where cos(m theta) is 1 to that tolerance, the fit is the
    constant alone (v = 0); where sin(m theta) is rounding noise, as at the
    scan's Nyquist harmonic, the sine. A row outside the cone v <= 1 solves
    (H + mu D) z = g for the mu > 0 that puts it on the face (_multiplier).
    dJ/dm = -2 r'W dmodel/dm, and d^2J/dm^2 differentiates (H + mu D) z = g
    and, on the face, z'Dz = 0.
    """
    # weights and counts in units of powers of two near their peaks, so no
    # product below overflows or underflows; J and its derivatives are in
    # those units squared, which moves no zero of dJ/dm
    weight = weight / _power_of_two(weight.max(1))[:, None]
    half = m[:, None] * thetas / 2.0
    vers, sin = 2.0 * np.sin(half) ** 2, np.sin(2.0 * half)   # vers = 1 - cos
    cos = 1.0 - vers
    design = np.stack([np.ones_like(vers), vers, sin], 2) * weight[..., None]
    unit = _power_of_two(counts.max(1))
    y = counts / unit[:, None] * weight
    scale = np.stack([np.ones(len(m)), vers.max(1), np.abs(sin).max(1)], 1)
    # a column within n*eps of its rounding (m*theta to eps) is dropped
    drop = scale[:, 1:] <= thetas.size * _EPS * np.stack(
        [np.ones(len(m)), m * np.abs(thetas).max()], 1)
    scale[:, 1:][drop | drop[:, :1]] = np.inf
    outer = scale[:, :, None] * scale[:, None, :]
    # a basis B of H's numerical range with B'HB = I and B'DB = diag(lam)
    ev, vec = np.linalg.eigh(design.transpose(0, 2, 1) @ design / outer)
    root = vec * np.where(ev > thetas.size * _EPS * ev[:, -1:],
                          np.maximum(ev, _TINY) ** -0.5, 0.0)[:, None, :]
    lam, rot = np.linalg.eigh(root.transpose(0, 2, 1) @ (_CONE / outer) @ root)
    basis = root @ rot / scale[:, :, None]
    grad = np.einsum("rnk,rn->rk", design, y)
    mu = _multiplier(lam, np.einsum("rkj,rk->rj", basis, grad))

    def solve(rhs):                                    # (H + mu D)^+ rhs
        return np.einsum("rkj,rj->rk", basis, np.einsum(
            "rkj,rk->rj", basis, rhs) / (1.0 + mu[:, None] * lam))

    z = solve(grad)
    a, c, s = z[:, 0] + z[:, 1], -z[:, 1], z[:, 2]
    offset = np.maximum(a * unit, _LOWER[0])
    v = np.minimum(np.hypot(c, s) * unit / offset, 1.0)
    wr = y - np.einsum("rnk,rk->rn", design, z)
    dm = thetas * (s[:, None] * cos - c[:, None] * sin) * weight
    tw = thetas * wr * weight
    b = np.stack([np.zeros_like(m), np.sum(tw * sin, 1), np.sum(tw * cos, 1)],
                 1) - np.einsum("rnk,rn->rk", design, dm)
    cz = z @ _CONE
    u, w = solve(b), solve(cz)
    dmu = np.sum(cz * u, 1) / np.where(mu > 0, np.sum(cz * w, 1), np.inf)
    curvature = 2.0 * (np.sum(dm * dm + tw * thetas * (
        c[:, None] * cos + s[:, None] * sin), 1)
        - np.sum(b * (u - dmu[:, None] * w), 1))
    return (np.stack([offset, v, np.where(v > 0, np.arctan2(-s, c), 0.0), m],
                     1), -2.0 * np.sum(wr * dm, 1), curvature)


def _multiplier(lam, h):
    """The mu >= 0 putting z = h/(1 + mu*lam), in _project's basis, on the
    cone; a row whose z'Dz = sum lam h^2 is <= 0 at mu = 0 keeps mu = 0.

    With lam0 < 0 the cone's one negative direction, the root solves
    1 + mu*lam0 = |h0| sqrt(-lam0/S(mu)), S = sum_{k>0} lam h^2/(1 +
    mu*lam)^2. S^(-1/2) is concave (More & Sorensen, SIAM J. Sci. Stat.
    Comput. 4:553, 1983), so Newton steps from mu = 0 rise monotonically to
    the root, which they reach to rounding.
    """
    mu = np.zeros(len(lam))
    rows = np.flatnonzero((np.sum(lam * h * h, 1) > 0.0) & (lam[:, 0] < 0.0))
    lam, h2 = lam[rows], h[rows] ** 2
    x = np.zeros(rows.size)
    for _ in range(100):
        t = 1.0 + x[:, None] * lam[:, 1:]
        share = np.sum(lam[:, 1:] * h2[:, 1:] / t ** 2, 1)
        target = np.sqrt(-lam[:, 0] * h2[:, 0] / share)
        gap = 1.0 + x * lam[:, 0] - target
        new = np.where(np.abs(gap) <= 8.0 * _EPS, x, x - gap / (
            lam[:, 0] - target / share
            * np.sum(lam[:, 1:] ** 2 * h2[:, 1:] / t ** 3, 1)))
        if np.all(new == x):
            break
        x = new
    mu[rows] = x
    return mu


def _fit_stack(thetas, counts, normalized, harmonic=None):
    """Fit a stack of scans (R, n) at once by variable projection (Golub &
    Pereyra, SIAM J. Numer. Anal. 10:413, 1973): rows (offset, v, phase0[,
    m]).

    A fixed harmonic is one _project call. A free one starts at the
    _start_harmonic harmonic, inside the box, and steps downhill in J(m),
    0.1 and doubling, clipped to the box, until dJ/dm changes sign, or ends
    on the box. It then takes Newton steps from the bracket's end of smaller
    slope where they stay inside it and it has halved within two steps,
    else bisects, until a Newton step is sqrt(_HARMONIC_TOL) of m
    (quadratic convergence leaves ~_HARMONIC_TOL) or the bracket is
    _HARMONIC_TOL of m. Every row ends at a zero of dJ/dm or on the box.
    """
    weight = 1.0 / _weights(counts, normalized)
    if harmonic is not None:
        return _project(thetas, counts, weight,
                        np.full(len(counts), harmonic))[0][:, :3]
    params = np.empty((len(counts), 4))
    # (m, slope, curvature) at each row's last point of slope < 0 and > 0
    ends = np.full((3, len(counts), 2), np.nan)

    def move(rows, trial):
        params[rows], slope, curv = _project(thetas, counts[rows],
                                             weight[rows], trial)
        ends[:, rows, (slope > 0).astype(int)] = trial, slope, curv
        return slope

    rows = np.arange(len(counts))
    downhill = -np.sign(move(rows, _start_harmonic(thetas, counts)))
    side, step = (downhill < 0).astype(int), _HARMONIC_STEP
    edge = np.where(downhill > 0, _UPPER[3], _LOWER[3])
    rows = rows[downhill != 0]
    while rows.size:
        rows = rows[ends[0, rows, side[rows]] != edge[rows]]
        trial = np.clip(ends[0, rows, side[rows]] + downhill[rows] * step,
                        _LOWER[3], _UPPER[3])
        rows = rows[np.sign(move(rows, trial)) == -downhill[rows]]
        step *= 2.0

    rows = np.flatnonzero(~np.isnan(ends[0]).any(1))
    span = np.full((2, len(counts)), np.inf)   # the bracket 1 and 2 steps ago
    while rows.size:
        at, slope, curv = ends[:, rows]
        k = np.arange(rows.size), np.argmin(np.abs(slope), 1)
        newton = np.clip(at[k] - slope[k] / np.where(curv[k] > 0, curv[k],
                                                     np.inf), *at.T)
        width = at[:, 1] - at[:, 0]
        last = ((curv[k] > 0) & (np.abs(newton - at[k])
                                 <= math.sqrt(_HARMONIC_TOL) * at[k])) \
            | (width <= _HARMONIC_TOL * at[k])
        take = last | ((curv[k] > 0) & (at[:, 0] < newton)
                       & (newton < at[:, 1]) & (width <= span[1, rows] / 2.0))
        span[:, rows] = width, span[0, rows]
        slope = move(rows, np.where(take, newton, at.mean(1)))
        rows = rows[~last & (slope != 0)]
    return params


# --------------------------------------------------------------------------
# the Gaussian-surrogate law and the correlation bound
# --------------------------------------------------------------------------

#: the surrogate's Gaussian of unit FWHM has variance 1/(8 ln2)
_EIGHT_LN2 = 8.0 * LN2


def _finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _strength_sq(phi_prime: float, delta_omega: float) -> float:
    """(phi_prime*delta_omega)^2, the squared dispersion strength of the law;
    finite where phi_prime^2 alone overflows."""
    return (_finite("phi_prime", phi_prime)
            * _finite("delta_omega", delta_omega)) ** 2


def closed_form_sigma_phi(kappa: float, phi_prime: float, delta_omega: float) -> float:
    """Variance of the total fringe phase in the Gaussian surrogate model.

    Pump density of FWHM sqrt(kappa)*delta_omega times a Gaussian stand-in for
    the filter sum-density of FWHM delta_omega gives a Gaussian product whose
    variance is delta_omega^2/(8 ln2) * kappa/(1+kappa); the phase variance is
    that times phi'^2. The visibility it predicts is exp(-sigma_phi_sq/2).
    """
    if _finite("kappa", kappa) < 0:
        raise ValueError("kappa must be nonnegative")
    return _strength_sq(phi_prime, delta_omega) / _EIGHT_LN2 * kappa / (1.0 + kappa)


def sigma_phi_from_visibility(visibility: float) -> float:
    """Dephasing variance from fringe contrast: sigma_phi_sq = -2 ln v."""
    if not 0.0 < visibility <= 1.0:
        raise ValueError("visibility must lie in (0, 1]")
    if visibility == 1.0:
        return 0.0
    return -2.0 * math.log(visibility)


def kappa_from_visibility(visibility: float, phi_prime: float,
                          delta_omega: float) -> CorrelationEstimate:
    """Invert the closed-form visibility law into the correlation bound.

    kappa_bar = x/(1-x) with x = -2 ln(v) * 8 ln2 / (phi_prime*delta_omega)^2,
    the share of the law's kappa -> infinity variance that v shows. Only
    phi_prime^2 enters, so the sign of the group-delay slope is irrelevant.
    A visibility of 0, which a fit held on that bound returns, lies below
    every floor.
    """
    s2 = math.inf if visibility == 0 else sigma_phi_from_visibility(visibility)
    if phi_prime == 0 or delta_omega <= 0:
        raise ValueError("phi_prime must be nonzero and delta_omega positive")
    t_sq = _strength_sq(phi_prime, delta_omega)
    x = s2 * _EIGHT_LN2 / t_sq
    if x >= 1.0:
        raise InfeasibleVisibilityError(visibility,
                                        math.exp(-t_sq / (2.0 * _EIGHT_LN2)))
    return CorrelationEstimate(kappa_bar=x / (1.0 - x), sigma_phi_sq=s2)


def self_consistent_calibration(visibility: float = 0.568,
                                kappa: float = 0.14) -> float:
    """The product phi_prime*delta_omega making (visibility, kappa) exact.

    Solves the closed-form law for its calibration constant given one
    trusted (v, kappa) pair — the route to a reproducible inversion when the
    group-delay slope itself is not published.
    """
    if not 0.0 < visibility < 1.0:
        raise ValueError("visibility must lie in (0, 1)")
    if _finite("kappa", kappa) <= 0:
        raise ValueError("kappa must be positive")
    s2 = -2.0 * math.log(visibility)
    return math.sqrt(s2 * _EIGHT_LN2 * (1.0 + kappa) / kappa)


# --------------------------------------------------------------------------
# bootstrap
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BootstrapResult:
    """Spread of kappa_bar over parametric resamples."""

    kappa_std: float
    kappa_mean: float
    failure_fraction: float
    n_resamples: int

    @property
    def flagged_unreliable(self) -> bool:
        """Whether more than 10% of the resamples failed."""
        return bool(self.failure_fraction > 0.10)


#: resamples drawn and fitted together: the block bounds the bootstrap's
#: memory at any n_resamples. One stack of all resamples gave the same bits
#: and was only 1-8% faster (medians of 15 alternating rounds over four
#: lab-like scans, one Xeon core: 41.7 against 38.4 ms per 200-resample
#: bootstrap with a free harmonic, 20.2 against 19.9 ms with a fixed one;
#: estimate's peak RSS 57.1-57.5 MB either way).
_BOOTSTRAP_BLOCK = 50

#: the largest mean numpy's Poisson sampler accepts
_POISSON_MAX = float(np.iinfo(np.int64).max
                     - 10.0 * math.sqrt(np.iinfo(np.int64).max))


def bootstrap_kappa_uncertainty(scan: FringeScan, phi_prime: float,
                                phi_prime_uncertainty: float,
                                delta_omega: float, n_resamples: int = 200,
                                seed: int = 0,
                                fix_harmonic: float | None = None,
                                base: FitResult | None = None) -> BootstrapResult:
    """Parametric bootstrap of the correlation bound.

    Each resample redraws the counts around the fitted model — Poisson for
    count data, normal with the fitted residual rms for normalized data — and
    redraws phi_prime from a normal law with the stated placement uncertainty,
    then reruns the full fit-and-invert pipeline. Counts whose model lies
    above numpy's Poisson cap (~9.2e18) are drawn from the normal law of
    variance equal to the mean, which the Poisson law there matches to a
    relative ~1/sqrt(mean) < 4e-10. The fitted model is
    `base`, the fit_fringe result of this scan with this fix_harmonic, when
    the caller already has it; otherwise the scan is fitted here. The
    resamples are fitted in blocks by fit_fringe's batched
    variable-projection fit. Resamples whose visibility or redrawn phi_prime
    the law cannot invert (v = 0, v below the floor, phi_prime = 0) are
    counted; a failure fraction above 10% flags the spread as unreliable.
    Invalid arguments raise. Deterministic for a fixed seed: each resample
    uses its own generator derived from (seed, index).
    """
    if n_resamples < 100:
        raise ValueError("need at least 100 resamples")
    if phi_prime_uncertainty < 0:
        raise ValueError("phi_prime_uncertainty must be nonnegative")
    if phi_prime == 0 or delta_omega <= 0:
        raise ValueError("phi_prime must be nonzero and delta_omega positive")

    if base is None:
        base = fit_fringe(scan, fix_harmonic=fix_harmonic)
    model = base.model(scan.thetas)
    harmonic = None if fix_harmonic is None else float(fix_harmonic)
    # a scan with no count above the cap draws as rng.poisson(model) does
    big = model > _POISSON_MAX
    mean_small, mean_big = model[~big], model[big]
    sd_big = np.sqrt(mean_big)

    kappas = []
    failures = 0
    for first in range(0, n_resamples, _BOOTSTRAP_BLOCK):
        block = range(first, min(first + _BOOTSTRAP_BLOCK, n_resamples))
        counts = np.empty((len(block), scan.thetas.size))
        pps = []
        for row, i in enumerate(block):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=[seed, i]))
            if scan.normalized:
                counts[row] = np.maximum(rng.normal(model, base.residual_rms), 0.0)
            else:
                counts[row, ~big] = rng.poisson(mean_small)
                counts[row, big] = rng.normal(mean_big, sd_big)
            pps.append(rng.normal(phi_prime, phi_prime_uncertainty))
        params = _fit_stack(scan.thetas, counts, scan.normalized, harmonic)
        for row, pp in enumerate(pps):
            try:      # v = 0 lies below every floor; pp = 0 has no inverse
                kappas.append(kappa_from_visibility(float(params[row, 1]), pp,
                                                    delta_omega).kappa_bar)
            except ValueError:
                failures += 1

    frac = failures / n_resamples
    if not kappas:
        return BootstrapResult(kappa_std=math.nan, kappa_mean=math.nan,
                               failure_fraction=frac, n_resamples=n_resamples)
    arr = np.asarray(kappas)
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return BootstrapResult(kappa_std=std, kappa_mean=float(arr.mean()),
                           failure_fraction=frac, n_resamples=n_resamples)
