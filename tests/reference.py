"""References the package is checked against: the two-photon amplitude,
the direct per-angle form of the coincidence probability, the rotated mesh
with its difference axis over the full +-8 filter widths, the fringe
harmonics of a symmetric pair in a linear medium on the sum axis alone,
and the Fourier start rows of a fringe fit.

At one analyzer angle it sums the direct, swapped and interference terms of
the general bilinear form over the whole rotated mesh of the engine's axes,
with each photon's filter, amplitude and medium phase evaluated at its own
frequency. It shares no arithmetic with the engine's folded harmonic pass,
only the mesh and the thinning rule, so agreement between the two tests the
fold, the lattice and the harmonic reduction P(theta) = (N + Re(Z e^{8i
theta}))/2.

The start rows (offset, v, phase0[, m]) give scipy's trust-region fit,
the fit suite's reference, a full parameter row to start from; the
package's own fit starts from a harmonic alone (_start_harmonic). A
helper module, not a test file: the suites import it.
"""

import math
from dataclasses import replace

import numpy as np

from noonfringe.analysis import _HARMONIC_BLOCK, _power_of_two
from noonfringe import engine
from noonfringe.config import ExperimentConfig
from noonfringe.engine import ACCURACY_TOL, _Mesh, _mesh_axes
from noonfringe.spectral import (DispersiveMedium, FilterProfile,
                                 FrequencyGrid, JointSpectrum,
                                 NoFringeError, QuadratureAccuracyError,
                                 TaylorMedium, _check_refinement,
                                 _pair_envelope, _real_phase,
                                 filter_transmission, medium_phase)
from noonfringe.sumfreq import _self_convolution


def jsa_amplitude(jsa: JointSpectrum, omega1, omega2):
    """Two-photon amplitude at (omega1, omega2): _pair_envelope times
    e^{i chi}, real when there is no spectral phase."""
    w1 = np.asarray(omega1, dtype=float)
    w2 = np.asarray(omega2, dtype=float)
    amp = _pair_envelope(jsa, w1 + w2 - jsa.pump_center, w1 - w2)
    if jsa.spectral_phase is not None:
        amp = amp * np.exp(1j * _real_phase(jsa, w1, w2))
    return complex(amp) if amp.ndim == 0 and np.iscomplexobj(amp) else (
        float(amp) if amp.ndim == 0 else amp)


def untrimmed_mesh(jsa: JointSpectrum, filt: FilterProfile,
                   grid: FrequencyGrid) -> _Mesh:
    """The engine's rotated mesh with the difference axis over the full
    +-8 filter widths at every filter order, written out from its rule
    rather than taken from _mesh_axes, which ends the axis at the filter
    pair's tail level. The sum axis is the grid's about the narrower of the
    pump and the filter pair; the difference axis has the step b*h, b =
    floor(2*fwhm/scale) >= 2, and m = 1 + floor((n - 1)*2*fwhm/(scale*b))
    nodes at (2j - (m - 1))*b*h/2; photon point a = i + c*j, c = min(b, n),
    sits 2*(i + b*j) - (n - 1 + b*(m - 1)) steps h/4 from the centre."""
    narrow = jsa.pump_fwhm <= filt.fwhm
    center = jsa.pump_center if narrow else 2.0 * filt.center
    scale = jsa.pump_fwhm if narrow else filt.fwhm
    up, wp = grid.axis(scale)
    n, h = up.size, wp[1]
    ratio = 2.0 * filt.fwhm / scale
    b = max(2, math.floor(ratio))
    m = 1 + math.floor((n - 1) * ratio / b)
    du = b * h
    um = (2.0 * np.arange(m) - (m - 1)) * (0.5 * du)
    wm = np.full(m, du)
    wm[0] = wm[-1] = 0.5 * du
    c = min(b, n)
    j, i = np.divmod(np.arange(n + c * (m - 1)), c)
    quarters = 2.0 * (i + float(b) * j) - (n - 1 + float(b) * (m - 1))
    omega = 0.5 * center + quarters * (0.25 * h)
    return _Mesh(center + up, 0.5 * wp, um, wm, omega, c)


def _rotated_mesh(jsa: JointSpectrum, filt: FilterProfile, grid: FrequencyGrid):
    """Photon frequencies omega1, omega2 and weights on the mesh of
    _mesh_axes: omega1 read off its lattice, omega2 its mirror
    omega1[:, ::-1] (a view)."""
    mesh = _mesh_axes(jsa, filt, grid)
    omega1 = np.array(mesh.photon(mesh.omega))
    return omega1, omega1[:, ::-1], mesh.wp[:, None] * mesh.wm


def _general_value(jsa, filt, medium, theta, grid):
    o1, o2, w = _rotated_mesh(jsa, filt, grid)
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
                                    grid: FrequencyGrid) -> float:
    """Coincidence probability from the general bilinear form.

    Handles asymmetric and complex spectral amplitudes. The value is
    re-estimated with a thinned node set; disagreement beyond ACCURACY_TOL
    (relative to the total pair flux, so fringe nulls don't divide by zero)
    raises QuadratureAccuracyError; a mesh with no finite, nonzero flux or a
    non-finite value raises FloatingPointError.
    """
    p, flux = _general_value(jsa, filt, medium, theta, grid)
    thin = replace(grid, nodes_per_axis=max(16, 3 * grid.nodes_per_axis // 4))
    p_thin, _ = _general_value(jsa, filt, medium, theta, thin)
    _check_refinement("fringe", p, p_thin, flux, grid.nodes_per_axis,
                      thin.nodes_per_axis, ACCURACY_TOL)
    return p


def linear_pair(order: int, kappa: float, t: float, pump_nm: float):
    """The pair, filter and linear Taylor medium of strength T = phi' *
    delta_omega behind the default 810 nm, 7.3 nm filters of the given
    order, with the pump at pump_nm."""
    config = ExperimentConfig(filter_order=order, kappa=kappa,
                              pump_wavelength_nm=pump_nm)
    config = replace(config, medium_phi_prime=t / config.delta_omega())
    return config.joint_spectrum(), config.filter_profile(), config.medium()


def fixed_rule(jsa: JointSpectrum, filt: FilterProfile,
               medium: DispersiveMedium):
    """The fringe rule before the engine refined: the 128-node harmonics,
    and whether the 96-node rule confirms them within ACCURACY_TOL of the
    flux, with no window check. A pass that finds no finite fringe
    confirms nothing: (None, False)."""
    tol, engine.WINDOW_TOL = engine.WINDOW_TOL, math.inf
    try:        # the window check's inf * 0 on a zero flux is NaN: no check
        with np.errstate(invalid="ignore"):
            h, flux = engine._harmonics(jsa, filt, medium, FrequencyGrid())
            thin, _ = engine._harmonics(jsa, filt, medium,
                                        FrequencyGrid(nodes_per_axis=96))
    except NoFringeError:
        return None, False
    finally:
        engine.WINDOW_TOL = tol
    try:
        _check_refinement("fringe", h, thin, flux, 128, 96, ACCURACY_TOL)
    except (QuadratureAccuracyError, FloatingPointError):
        return h, False
    return h, True


def sum_axis_harmonics(jsa: JointSpectrum, filt: FilterProfile,
                       medium: TaylorMedium) -> tuple[float, complex]:
    """N and Z of a symmetric pair without phase matching in a linear
    medium, on a window that no pair reaches past.

    There phi(w1) + phi(w2) depends on w1 + w2 alone, so the difference
    integral is the filter pair's self-convolution: with x = (w1 + w2 -
    2*center)/fwhm, int T(w1)T(w2) d(w1 - w2) = 2*fwhm*F(x), F the table of
    sumfreq._self_convolution, and N = fwhm^2 int G F dx, Z = fwhm^2 int G
    F e^{i(phi1 + phi2)} dx, G the pump density. The trapezoid sum runs 8
    filter widths past both the filter pair and the pump, where G*F is
    below 2^-128 of its peak, in steps of at most 1/400 filter width and
    1/40 pump width. It shares with the engine only F, which has its own
    tests, and none of the mesh.
    """
    assert jsa.spectral_phase is None and math.isinf(jsa.phasematch_fwhm)
    assert medium.phi_double_prime == 0.0
    pump_x = (jsa.pump_center - 2.0 * filt.center) / filt.fwhm
    width = jsa.pump_fwhm / filt.fwhm
    lo, hi = min(pump_x, 0.0) - 8.0, max(pump_x, 0.0) + 8.0
    step = min(1.0 / 400.0, width / 40.0)
    x = np.linspace(lo, hi, 1 + math.ceil((hi - lo) / step))
    weight = (np.exp2(-4.0 * ((x - pump_x) / width) ** 2)
              * _self_convolution(filt.order, x.tobytes()))
    phase = (2.0 * medium.phi0
             + medium.phi_prime * (2.0 * (filt.center - medium.reference)
                                   + filt.fwhm * x))
    n = filt.fwhm ** 2 * np.trapezoid(weight, x)
    z = filt.fwhm ** 2 * np.trapezoid(weight * np.exp(1j * phase), x)
    return float(n), complex(z)


#: harmonic start-point scan: coarse frequencies, taken in blocks, then fine
#: offsets around the best coarse one
_COARSE_HARMONICS = np.linspace(0.5, 24.0, 512)
_FINE_OFFSETS = np.linspace(-0.1, 0.1, 101)


def _start_points(thetas, counts, harmonic=None):
    """Fit start rows (offset, v, phase0[, m]) for a stack of scans (R, n).

    A free harmonic starts at the strongest Fourier component of the
    de-meaned data: a coarse scan over [0.5, 24], then +-0.1 around its best
    frequency b through exp(-i(b+d)theta) = exp(-i d theta)*exp(-i b theta),
    so every row shares one fine matrix. Visibility and phase come from the
    Fourier component at the start harmonic. The sums run on counts in
    units of a power of two near their peak, so none overflows.
    """
    n = thetas.size
    unit = _power_of_two(counts.max(1))
    counts = counts / unit[:, None]
    mean = counts.mean(axis=1)
    resid = counts - mean[:, None]
    if harmonic is None:
        rows = np.arange(len(counts))
        best = np.zeros(len(counts))
        peak = np.full(len(counts), -np.inf)
        for lo in range(0, _COARSE_HARMONICS.size, _HARMONIC_BLOCK):
            freqs = _COARSE_HARMONICS[lo:lo + _HARMONIC_BLOCK]
            proj = np.abs(resid @ np.exp(-1j * np.outer(thetas, freqs)))
            k = np.argmax(proj, axis=1)
            top = proj[rows, k]
            better = top > peak                  # ties keep the lower frequency
            peak = np.where(better, top, peak)
            best = np.where(better, freqs[k], best)
        shifted = resid * np.exp(-1j * best[:, None] * thetas)
        proj = np.abs(shifted @ np.exp(-1j * np.outer(thetas, _FINE_OFFSETS)))
        m0 = best + _FINE_OFFSETS[np.argmax(proj, axis=1)]
    else:
        m0 = np.full(len(counts), float(harmonic))
    c = np.sum(resid * np.exp(-1j * m0[:, None] * thetas), axis=1)
    y0 = np.maximum(mean, 1e-300 / unit)
    columns = [y0 * unit, np.clip(2.0 * np.abs(c) / (n * y0), 1e-3, 1.0),
               np.angle(c)]
    if harmonic is None:
        columns.append(m0)
    return np.stack(columns, axis=1)
