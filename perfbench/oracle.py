"""Reference numerics the benchmark checks the package's outputs against.

Everything here is written with numpy alone, on uniform trapezoid grids, so
no check reuses a formula, grid or quadrature rule of the code under test.
Frequencies are measured from the filter center in units of the filter
FWHM: a photon at omega sits at x = 2 (omega - center) / fwhm, and the pair
sum/difference offsets are u = (omega1 + omega2 - 2 center) / fwhm and
m = (omega1 - omega2) / fwhm, so x1 = u + m and x2 = u - m.
"""

from __future__ import annotations

import math

import numpy as np

SPEED_OF_LIGHT = 299792458.0
LN2 = math.log(2.0)

# pair grid: the filter product 2^-((u+m)^4 + (u-m)^4) is below 1e-48 at the
# edges; a step of 0.01 in u resolves the narrowest pump density (kappa =
# 0.05, FWHM 0.22) with 22 points and the fastest phase slope (T = 26) with
# 24 per cycle; along m only the filters and the curvature of the phase vary
_U = np.linspace(-3.0, 3.0, 601)
_M = np.linspace(-3.0, 3.0, 301)
_X = np.linspace(-3.0, 3.0, 60001)


def taylor_phase(phi0, phi_prime, phi_double_prime, reference):
    def phase(omega):
        d = omega - reference
        return phi0 + phi_prime * d + 0.5 * phi_double_prime * d * d
    return phase


def sellmeier_phase(length_m, ordinary, extraordinary):
    """Birefringent phase (n_e - n_o) omega L / c; coefficients (a, b, c, d)
    of n^2 = a + b / (lam^2 - c) - d lam^2 with lam in micrometers."""
    def index(co, lam):
        a, b, c, d = co
        return np.sqrt(a + b / (lam * lam - c) - d * lam * lam)

    def phase(omega):
        lam = 2.0 * math.pi * SPEED_OF_LIGHT / omega * 1e6
        dn = index(extraordinary, lam) - index(ordinary, lam)
        return dn * omega * length_m / SPEED_OF_LIGHT
    return phase


# rows of the u axis per block, so the reference never holds more than a few
# hundred kilobytes and stays out of the measured peak RSS
_BLOCK = 32


def _pair_blocks(center, fwhm, order):
    """(u, omega1, omega2, filters) on consecutive row blocks of the u axis."""
    m = _M[None, :]
    for start in range(0, _U.size, _BLOCK):
        u = _U[start:start + _BLOCK, None]
        omega1 = center + 0.5 * fwhm * (u + m)
        omega2 = center + 0.5 * fwhm * (u - m)
        yield u, omega1, omega2, np.exp2(-((u + m) ** order) - (u - m) ** order)


def pair_visibilities(center, fwhm, order, kappas, phase):
    """Symmetric-pair fringe visibility |Z|/N at each kappa.

    The pump density 2^(-4 u^2 / kappa) depends on u only, so the difference
    integral is done once and each kappa costs one weighted sum over u.
    """
    flux_u, phasor_u = [], []
    for _, omega1, omega2, filters in _pair_blocks(center, fwhm, order):
        flux_u.append(filters.sum(axis=1))
        phasor_u.append((filters * np.exp(1j * (phase(omega1) + phase(omega2))))
                        .sum(axis=1))
    flux_u, phasor_u = np.concatenate(flux_u), np.concatenate(phasor_u)
    out = []
    for kappa in kappas:
        pump = np.exp2(-4.0 * _U ** 2 / kappa)
        out.append(abs(np.sum(pump * phasor_u)) / np.sum(pump * flux_u))
    return np.asarray(out)


def general_probability(center, fwhm, order, kappa, phasematch, spectral_phase,
                        phase, thetas):
    """Raw coincidence probability of the general bilinear form at each angle.

    Same normalization as an integral over (omega1, omega2) in rad/s: the
    Jacobian of (u, m) -> (omega1, omega2) is fwhm^2 / 2.
    """
    m = _M[None, :]
    out = np.zeros(len(thetas))
    for u, omega1, omega2, filters in _pair_blocks(center, fwhm, order):
        envelope = np.exp2(-2.0 * u * u / kappa - 2.0 * m * m / phasematch ** 2)
        a12 = envelope * np.exp(1j * spectral_phase(omega1, omega2))
        a21 = envelope * np.exp(1j * spectral_phase(omega2, omega1))
        direct = filters * np.abs(a12) ** 2
        swapped = filters * np.abs(a21) ** 2
        cross = filters * 2.0 * np.real(a12 * np.conj(a21))
        half1, half2 = 0.5 * phase(omega1), 0.5 * phase(omega2)
        for i, theta in enumerate(thetas):
            c1, s1 = np.cos(2.0 * theta + half1), np.sin(2.0 * theta + half1)
            c2, s2 = np.cos(2.0 * theta + half2), np.sin(2.0 * theta + half2)
            out[i] += np.sum(direct * (c1 * c2) ** 2 + swapped * (s1 * s2) ** 2
                             - cross * c1 * c2 * s1 * s2)
    return out * (_U[1] - _U[0]) * (_M[1] - _M[0]) * fwhm * fwhm / 2.0


def single_photon_visibility(center, fwhm, order, phase):
    """|integral T e^{i phi}| / integral T over one filter."""
    weights = np.exp2(-(_X ** order))
    omega = center + 0.5 * fwhm * _X
    return abs(np.sum(weights * np.exp(1j * phase(omega)))) / np.sum(weights)


def trig_residual(thetas, values):
    """Largest residual of a least-squares fit by 1, cos/sin 4theta, cos/sin
    8theta, relative to the mean value."""
    th = np.asarray(thetas, dtype=float)
    basis = np.column_stack([np.ones_like(th), np.cos(4 * th), np.sin(4 * th),
                             np.cos(8 * th), np.sin(8 * th)])
    coef, *_ = np.linalg.lstsq(basis, values, rcond=None)
    return float(np.max(np.abs(basis @ coef - values)) / np.mean(values))


def kappa_bar(visibility, t_product):
    """Closed-form inversion x / (1 - x), x = -2 ln(v) 8 ln2 / T^2."""
    x = -2.0 * math.log(visibility) * 8.0 * LN2 / t_product ** 2
    return x / (1.0 - x)
