"""Fringe fitting and correlation-bound estimation.

The measured fringe is modeled as offset*(1 + v*cos(m*theta + phi0)). The
fitted visibility v is converted to a dephasing variance sigma_phi_sq =
-2 ln v and inverted through the closed-form law into kappa_bar, the
correlation parameter. Every non-ideality damps the fringe, so the estimate
is a lower bound on the true correlation strength: kappa_bar <= kappa.

The inversion needs the calibration product phi_prime*delta_omega. It can
come from a dispersion model, from the user, or from the self-consistent
choice that makes a reference (visibility, kappa) pair satisfy the law
exactly; estimates record which one was used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

LN2 = math.log(2.0)

#: span (rad) of one full two-photon fringe period, pi/4 for the 8-theta fringe
FRINGE_PERIOD = math.pi / 4.0

__all__ = [
    "FringeScan",
    "FitResult",
    "CorrelationEstimate",
    "BootstrapResult",
    "FitConvergenceError",
    "InfeasibleVisibilityError",
    "fit_fringe",
    "sigma_phi_from_visibility",
    "kappa_from_visibility",
    "bootstrap_kappa_uncertainty",
    "self_consistent_calibration",
]


class FitConvergenceError(RuntimeError):
    """Fringe fit ran out of iterations; carries the best iterate found."""

    def __init__(self, message: str, best: "FitResult | None" = None):
        super().__init__(message)
        self.best = best


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
    """A measured or synthetic fringe: angles, counts, and provenance."""

    thetas: np.ndarray
    counts: np.ndarray
    exposure: float | None = None
    seed: int | None = None
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
        if self.exposure is not None and self.exposure <= 0:
            raise ValueError("exposure must be positive")


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
    degenerate: bool = False

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

    def stderr(self, name: str) -> float:
        index = {"offset": 0, "visibility": 1, "phase0": 2, "harmonic": 3}[name]
        return math.sqrt(max(self.covariance[index, index], 0.0))

    def model(self, theta) -> np.ndarray:
        th = np.asarray(theta, dtype=float)
        return self.offset * (1.0 + self.visibility
                              * np.cos(self.harmonic * th + self.phase0))


@dataclass(frozen=True)
class CorrelationEstimate:
    """Correlation bound from one visibility and one calibration."""

    kappa_bar: float
    sigma_phi_sq: float
    visibility_used: float
    phi_prime_used: float
    delta_omega_used: float
    kappa_uncertainty: float | None = None
    bound_kind: str = field(default="lower bound")

    def __post_init__(self) -> None:
        if self.kappa_bar < 0:
            raise ValueError("kappa_bar must be nonnegative")
        if self.bound_kind != "lower bound":
            raise ValueError("bound_kind is fixed: every non-ideality damps "
                             "the fringe, so the estimate is a lower bound")


# --------------------------------------------------------------------------
# fringe fitting
# --------------------------------------------------------------------------

def least_squares(*args, **kwargs):
    """scipy.optimize.least_squares, imported on first call: the import costs
    a process ~0.3 s that only commands fitting a fringe should pay."""
    from scipy.optimize import least_squares as solve
    return solve(*args, **kwargs)


def _dominant_harmonic(thetas, residual, m_lo=0.5, m_hi=24.0):
    """Frequency of the strongest Fourier component of the de-meaned data."""
    coarse = np.linspace(m_lo, m_hi, 512)
    proj = np.abs(np.exp(-1j * np.outer(coarse, thetas)) @ residual)
    best = coarse[int(np.argmax(proj))]
    fine = np.linspace(best - 0.1, best + 0.1, 101)
    proj = np.abs(np.exp(-1j * np.outer(fine, thetas)) @ residual)
    return float(fine[int(np.argmax(proj))])


def fit_fringe(scan: FringeScan, fix_harmonic: float | None = None) -> FitResult:
    """Weighted nonlinear least-squares fringe fit.

    Count data gets Poisson weights (variance = counts, floored at one);
    normalized data gets unit weights, with the covariance rescaled by the
    residual variance. The starting point comes from the discrete Fourier
    component at the dominant fringe frequency. A visibility within three
    standard errors of zero sets the degenerate flag — the fringe is
    indistinguishable from noise.
    """
    if fix_harmonic is not None and fix_harmonic <= 0:
        raise ValueError("fix_harmonic must be positive")
    th = scan.thetas
    y = scan.counts
    n = y.size
    sigma = np.ones(n) if scan.normalized else np.sqrt(np.maximum(y, 1.0))

    y0 = max(float(y.mean()), 1e-300)
    m0 = float(fix_harmonic) if fix_harmonic is not None \
        else _dominant_harmonic(th, y - y.mean())
    c = np.sum((y - y.mean()) * np.exp(-1j * m0 * th))
    v0 = min(max(2.0 * abs(c) / (n * y0), 1e-3), 1.0)
    p0 = float(np.angle(c))

    free_m = fix_harmonic is None

    def residuals(p):
        off, v, ph = p[0], p[1], p[2]
        m = p[3] if free_m else m0
        return (off * (1.0 + v * np.cos(m * th + ph)) - y) / sigma

    if free_m:
        x0 = [y0, v0, p0, m0]
        lo = [1e-300, 0.0, -2.0 * math.pi, 0.05]
        hi = [np.inf, 1.0, 4.0 * math.pi, 64.0]
    else:
        x0 = [y0, v0, p0]
        lo = [1e-300, 0.0, -2.0 * math.pi]
        hi = [np.inf, 1.0, 4.0 * math.pi]

    res = least_squares(residuals, x0, bounds=(lo, hi),
                        xtol=1e-14, ftol=1e-14, gtol=1e-14, max_nfev=2000)

    off, v, ph = res.x[0], res.x[1], res.x[2]
    m = res.x[3] if free_m else m0
    ph = ph % (2.0 * math.pi)
    if ph >= 2.0 * math.pi:       # a hair-negative phase rounds up to 2*pi
        ph = 0.0

    jtj = res.jac.T @ res.jac
    cov_free = np.linalg.pinv(jtj)
    if scan.normalized and n > len(res.x):
        cov_free = cov_free * (2.0 * res.cost / (n - len(res.x)))
    cov = np.zeros((4, 4))
    if free_m:
        cov[:, :] = cov_free
    else:
        cov[:3, :3] = cov_free
    cov = (cov + cov.T) / 2.0

    model = off * (1.0 + v * np.cos(m * th + ph))
    rms = float(np.sqrt(np.mean((model - y) ** 2)))
    v_se = math.sqrt(max(cov[1, 1], 0.0))
    result = FitResult(offset=float(off), visibility=float(v), phase0=float(ph),
                       harmonic=float(m), covariance=cov, residual_rms=rms,
                       degenerate=bool(v < 3.0 * v_se))
    if not res.success:
        raise FitConvergenceError(
            f"fringe fit did not converge within {res.nfev} evaluations",
            best=result)
    return result


# --------------------------------------------------------------------------
# visibility -> correlation bound
# --------------------------------------------------------------------------

def sigma_phi_from_visibility(visibility: float) -> float:
    """Dephasing variance from fringe contrast: sigma_phi_sq = -2 ln v."""
    if not 0.0 < visibility <= 1.0:
        raise ValueError("visibility must lie in (0, 1]")
    if visibility == 1.0:
        return 0.0
    return -2.0 * math.log(visibility)


def _sigma_phi_closed(kappa, t_sq):
    return t_sq / (8.0 * LN2) * kappa / (1.0 + kappa)


def kappa_from_visibility(visibility: float, phi_prime: float,
                          delta_omega: float,
                          kappa_uncertainty: float | None = None) -> CorrelationEstimate:
    """Invert the closed-form visibility law into the correlation bound.

    kappa_bar = x/(1-x) with x = -2 ln(v) * 8 ln2 / (phi_prime*delta_omega)^2.
    Only phi_prime^2 enters, so the sign of the group-delay slope is
    irrelevant. The closed form is cross-checked by bisection on the monotone
    map kappa -> sigma_phi_sq before being returned.
    """
    s2 = sigma_phi_from_visibility(visibility)
    if phi_prime == 0 or delta_omega <= 0:
        raise ValueError("phi_prime must be nonzero and delta_omega positive")
    t_sq = (phi_prime * delta_omega) ** 2
    x = s2 * 8.0 * LN2 / t_sq
    if x >= 1.0:
        raise InfeasibleVisibilityError(visibility, math.exp(-t_sq / (16.0 * LN2)))
    kappa = x / (1.0 - x)

    if kappa > 0:
        lo, hi = 0.0, 1.0
        while _sigma_phi_closed(hi, t_sq) < s2:
            hi *= 2.0
        for _ in range(200):
            mid = (lo + hi) / 2.0
            if _sigma_phi_closed(mid, t_sq) < s2:
                lo = mid
            else:
                hi = mid
        if abs(lo - kappa) > 1e-9 * (1.0 + kappa):
            raise RuntimeError("closed-form and bisection inversions disagree")

    return CorrelationEstimate(kappa_bar=kappa, sigma_phi_sq=s2,
                               visibility_used=visibility,
                               phi_prime_used=phi_prime,
                               delta_omega_used=delta_omega,
                               kappa_uncertainty=kappa_uncertainty)


def self_consistent_calibration(visibility: float = 0.568,
                                kappa: float = 0.14) -> float:
    """The product phi_prime*delta_omega making (visibility, kappa) exact.

    Solves the closed-form law for its calibration constant given one
    trusted (v, kappa) pair — the route to a reproducible inversion when the
    group-delay slope itself is not published.
    """
    if not 0.0 < visibility < 1.0:
        raise ValueError("visibility must lie in (0, 1)")
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    s2 = -2.0 * math.log(visibility)
    return math.sqrt(s2 * 8.0 * LN2 * (1.0 + kappa) / kappa)


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
    flagged_unreliable: bool


def bootstrap_kappa_uncertainty(scan: FringeScan, phi_prime: float,
                                phi_prime_uncertainty: float,
                                delta_omega: float, n_resamples: int = 200,
                                seed: int = 0,
                                fix_harmonic: float | None = None) -> BootstrapResult:
    """Parametric bootstrap of the correlation bound.

    Each resample redraws the counts around the fitted model — Poisson for
    count data, normal with the fitted residual rms for normalized data — and
    redraws phi_prime from a normal law with the stated placement uncertainty,
    then reruns the full fit-and-invert pipeline. Resamples that land in the
    infeasible region (or whose fit fails) are counted; a failure fraction
    above 10% flags the spread as unreliable. Deterministic for a fixed seed:
    each resample uses its own generator derived from (seed, index).
    """
    if n_resamples < 100:
        raise ValueError("need at least 100 resamples")
    if phi_prime_uncertainty < 0:
        raise ValueError("phi_prime_uncertainty must be nonnegative")

    base = fit_fringe(scan, fix_harmonic=fix_harmonic)
    model = base.model(scan.thetas)

    kappas = []
    failures = 0
    for i in range(n_resamples):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=[seed, i]))
        if scan.normalized:
            counts = np.maximum(rng.normal(model, base.residual_rms), 0.0)
        else:
            counts = rng.poisson(model).astype(float)
        pp = rng.normal(phi_prime, phi_prime_uncertainty)
        try:
            resampled = FringeScan(scan.thetas, counts, exposure=scan.exposure,
                                   normalized=scan.normalized)
            fit = fit_fringe(resampled, fix_harmonic=fix_harmonic)
            if fit.visibility <= 0 or pp == 0:
                raise InfeasibleVisibilityError(fit.visibility, 0.0)
            est = kappa_from_visibility(fit.visibility, pp, delta_omega)
        except (InfeasibleVisibilityError, FitConvergenceError, ValueError):
            failures += 1
            continue
        kappas.append(est.kappa_bar)

    frac = failures / n_resamples
    if not kappas:
        return BootstrapResult(kappa_std=math.nan, kappa_mean=math.nan,
                               failure_fraction=frac, n_resamples=n_resamples,
                               flagged_unreliable=True)
    arr = np.asarray(kappas)
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return BootstrapResult(kappa_std=std, kappa_mean=float(arr.mean()),
                           failure_fraction=frac, n_resamples=n_resamples,
                           flagged_unreliable=frac > 0.10)
