"""Coincidence fringe engine.

A polarization rotation by angle theta mixes the two circular components of
each photon; the medium adds a frequency-dependent birefringent phase, so each
photon carries an effective rotation angle theta_i = 2*theta + phi(omega_i)/2.
The coincidence probability is a frequency integral over the filtered pair
spectrum: the bilinear form at one angle sums the direct, swapped and
interference contributions of any spectral amplitude. The test suite keeps
that per-angle form as its reference.

One harmonic form serves every spectrum and every caller. Integrated over
frequency, the bilinear form is P(theta) = (N + Re(Z e^{8i theta}))/2
for any pair: its 4-theta component is odd under exchange of the photons,
which pass the same filter and medium, and vanishes on the symmetric
difference-axis rule. One quadrature of N and Z gives the exact visibility
|Z|/N and a whole scan. On the mesh every pair's |a12|^2 = |a21|^2 is rank
one and its integrand even in the difference frequency, so one folded pass
over half the mesh, in row blocks, serves symmetric and asymmetric pairs.

Both integrate in rotated coordinates (sum and difference frequency) on a
trapezoid-rule mesh whose sum-frequency half-range adapts to the narrower of
the pump and filter widths — the pump ridge is the only sharp feature. The
integrands are smooth and fall to ~1e-70 at the edges of the window, so the
equally spaced trapezoid rule converges geometrically in the node count
(Trefethen & Weideman, SIAM Rev. 56:385, 2014). The difference step is b
sum steps h, b = floor(2*filter_fwhm/sum scale) >= 2, so every photon
frequency of the mesh lies on one 1-D lattice of step h/2: the harmonic
pass evaluates the filter, the medium phase and e^{i phi} once per lattice
frequency it reaches (at most n*m of them, indexed with stride min(b, n))
and reads both photons' values on the mesh as views of those. Only a
spectral phase is evaluated on the 2-D mesh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .spectral import (DispersiveMedium, FilterProfile, FrequencyGrid,
                       JointSpectrum, _check_refinement, _real_phase,
                       filter_transmission, jsa_amplitude, medium_phase)
from .units import _fold_phase

__all__ = [
    "ProbabilityCurve",
    "FringeHarmonics",
    "simulate_fringe_scan",
    "fringe_harmonics",
    "single_photon_visibility",
]

#: relative tolerance for the node-thinning accuracy estimate
ACCURACY_TOL = 1e-5

#: mesh elements per row block of the harmonic pass: cache-sized temporaries
_MESH_BLOCK = 16384


@dataclass(frozen=True, eq=False)
class ProbabilityCurve:
    """Coincidence probability sampled over analyzer angles."""

    thetas: np.ndarray
    values: np.ndarray

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


# --------------------------------------------------------------------------
# rotated-coordinate mesh
# --------------------------------------------------------------------------

class _Mesh(NamedTuple):
    """The rotated mesh of _mesh_axes and the photon frequencies it indexes."""

    s: np.ndarray       # sum frequencies, n of them, step h
    wp: np.ndarray      # their weights, with the Jacobian 1/2
    um: np.ndarray      # difference frequencies, m of them, step b*h
    wm: np.ndarray      # their weights
    omega: np.ndarray   # photon frequencies: omega1[i, j] = omega[i + stride*j]
    stride: int         # c = min(b, n)

    def photon(self, values) -> np.ndarray:
        """values, given at omega, at the first photon's mesh frequencies:
        an (n, m) view whose [i, j] is values[i + stride*j]. The second
        photon's is its mirror [:, ::-1]."""
        return sliding_window_view(values, self.s.size)[::self.stride].T


def _mesh_axes(jsa: JointSpectrum, filt: FilterProfile, grid: FrequencyGrid,
               n: int | None = None) -> _Mesh:
    """The rotated mesh: sum frequencies s_i and difference frequencies u_j,
    with trapezoid weights (the sum weights carry the Jacobian 1/2 of
    (w1, w2) -> (w_p, w_-)), and the 1-D lattice of the photon frequencies.

    The sum axis spans half_range*min(pump_fwhm, filter_fwhm) about the
    narrower feature's center in n nodes of step h. The difference axis has
    the step b*h, b = floor(2*filter_fwhm/scale) >= 2 for that sum scale,
    and m = 1 + floor((n - 1)*2*filter_fwhm/(scale*b)) nodes at multiples
    of b*h/2: exactly odd, never coarser than n nodes over +-2*half_range
    filter widths and never wider. So w1 = (s_i + u_j)/2 is the point
    i + b*j of a lattice of step h/2, and w2 = (s_i - u_j)/2 the point
    i + b*(m - 1 - j): w1 mirrored along the difference axis. At pump
    widths >= the filter's, b = 2 and m = n. omega holds the lattice
    points the mesh reaches, indexed i + c*j with c = min(b, n): a wide
    lattice skips its unreached gaps, so omega never holds more than n*m
    points. It is built antisymmetric about its centre, so the phases of
    mirrored points carry no rounding dust of their own.
    """
    center_p, scale_p = ((jsa.pump_center, jsa.pump_fwhm) if jsa.pump_fwhm
                         <= filt.fwhm else (2.0 * filt.center, filt.fwhm))
    up, wp = grid.axis(scale_p, n)
    n, h = up.size, wp[1]       # an interior trapezoid weight is the step
    ratio = 2.0 * filt.fwhm / scale_p
    b = max(2, math.floor(ratio))
    m = 1 + math.floor((n - 1) * ratio / b)
    um = np.arange(1 - m, m, 2) * (0.5 * b * h)
    wm = np.full(m, b * h)
    wm[[0, -1]] *= 0.5
    c = min(b, n)
    j, i = np.divmod(np.arange(n + c * (m - 1)), c)
    # each point's offset from the centre in steps h/4, 2*(i + b*j) -
    # (n - 1 + b*(m - 1)), in floats: b may pass 2**63
    quarters = (2 * i - (n - 1)) + float(b) * (2 * j - (m - 1))
    omega = 0.5 * center_p + quarters * (0.25 * h)
    return _Mesh(center_p + up, 0.5 * wp, um, wm, omega, c)


# --------------------------------------------------------------------------
# probability paths
# --------------------------------------------------------------------------

def _thinned(grid: FrequencyGrid) -> int:
    """Node count of the thinned rule that estimates the quadrature error."""
    return max(16, (3 * grid.nodes_per_axis) // 4)


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
        # an |Im Z| at most 2^-44 N is the rounding dust of a real Z
        z = self.amplitude
        return _fold_phase(math.atan2(
            0.0 if abs(z.imag) <= 2.0 ** -44 * self.offset else z.imag, z.real))

    def at(self, theta) -> np.ndarray:
        th = np.asarray(theta, dtype=float)
        osc = (self.amplitude.real * np.cos(8.0 * th)
               - self.amplitude.imag * np.sin(8.0 * th))
        return 0.5 * (self.offset + osc)


def _harmonics(jsa, filt, medium, grid, n=None) -> tuple[FringeHarmonics, float]:
    """Fringe harmonics of any spectrum in one folded pass, and the pair flux.

    a12 = E(w_p) M(w_-) e^{i chi12}: on the mesh |a12|^2 = |a21|^2 = P_i Q_j
    and Re(a12 a21*) = P_i Q_j cos(dchi), dchi = chi12 - chi21 (0 without a
    spectral phase). With p, q the weighted P, Q, the flux is sum p q T T,
    N = sum p q T T [1 + (1 - cos dchi) cos(phi1 - phi2)/2] and Z = sum
    p q T T (1 + cos dchi)/2 e^{i(phi1 + phi2)}. All are even in w_-, so the
    first ceil(m/2) columns count twice, an odd mesh's centre column once.
    The filter T and g = T e^{i phi} are evaluated once per lattice
    frequency of _mesh_axes; on the mesh T T, g1 g2 = T T e^{i(phi1 + phi2)}
    and Re(g1 g2*) = T T cos(phi1 - phi2) are products of two views of
    them, in row blocks of _MESH_BLOCK elements. Only chi is evaluated on
    the mesh, in row blocks of the first photon's frequencies; the second's
    are these mirrored.
    """
    mesh = _mesh_axes(jsa, filt, grid, n)
    s, wp, um, wm = mesh.s, mesh.wp, mesh.um, mesh.wm
    m, k = um.size, (um.size + 1) // 2
    rows, sums = max(1, _MESH_BLOCK // m), np.zeros(4)
    # steep filter powers overflow to an exact zero transmission; a phase
    # that overflows ends in NaN, which _check_refinement refuses
    with np.errstate(over="ignore", invalid="ignore"):
        # P and Q: E and M of a pair about zero frequency, on the two axes
        env, u = replace(jsa, pump_center=0.0, spectral_phase=None), s - jsa.pump_center
        p = wp * jsa_amplitude(env, u / 2.0, u / 2.0) ** 2
        q = wm[:k] * jsa_amplitude(env, um[:k] / 2.0, -um[:k] / 2.0) ** 2
        q[:m // 2] *= 2.0
        t = filter_transmission(filt, mesh.omega)
        g = t * np.exp(1j * medium_phase(medium, mesh.omega))
        t, g = mesh.photon(t), mesh.photon(g)
        for i in range(0, s.size, rows):
            block = slice(i, i + rows)
            tt = offset = t[block, :k] * t[block, ::-1][:, :k]
            g1, g2 = g[block, :k], g[block, ::-1][:, :k]
            z = g1 * g2
            if jsa.spectral_phase is not None:
                o1 = np.array(mesh.photon(mesh.omega)[block])
                chi = np.broadcast_to(_real_phase(jsa, o1, o1[:, ::-1]), o1.shape)
                bright = (1.0 + np.cos(chi[:, :k] - chi[:, ::-1][:, :k])) / 2.0
                offset = tt + (1.0 - bright) * np.real(g1 * np.conj(g2))
                z = z * bright
            # one stack, so equal terms sum in the same order: without a
            # medium phase |Z| is N to the last bit
            sums += (np.stack([tt, offset, z.real, z.imag]) @ q) @ p[block]
    flux, offset, re, im = sums
    return FringeHarmonics(float(offset), complex(re, im)), float(flux)


def _checked_harmonics(jsa, filt, medium, grid, thetas=None) -> FringeHarmonics:
    """_harmonics, re-estimated on a thinned node set.

    The check is on what the call returns. Without angles it is N and Z,
    whose shift max(|dN|, |dZ|) bounds the move of P(theta) at every angle.
    A scan is checked on P at its own angles only, so it refuses exactly
    where the per-angle form would at each of them, for any pair.
    """
    h, flux = _harmonics(jsa, filt, medium, grid)
    n_thin = _thinned(grid)
    h_thin, _ = _harmonics(jsa, filt, medium, grid, n_thin)
    if thetas is None:
        value = [h.offset, h.amplitude]
        check_value = [h_thin.offset, h_thin.amplitude]
    else:
        value, check_value = h.at(thetas), h_thin.at(thetas)
    _check_refinement("fringe", value, check_value, flux, grid.nodes_per_axis,
                      n_thin, ACCURACY_TOL)
    return h


def fringe_harmonics(jsa: JointSpectrum, filt: FilterProfile,
                     medium: DispersiveMedium,
                     grid: FrequencyGrid) -> FringeHarmonics:
    """Fringe components of any pair: P(theta) = (N + Re(Z e^{8 i theta}))/2.

    N is the fringe offset (the filtered pair flux for a symmetric spectrum)
    and Z its phase-weighted counterpart, so visibility |Z|/N is free of
    theta sampling. Raises QuadratureAccuracyError when thinning the nodes
    moves N or Z by more than ACCURACY_TOL of the pair flux, and
    FloatingPointError when the flux, N or Z is not finite or no flux
    reaches the filters.
    """
    return _checked_harmonics(jsa, filt, medium, grid)


def simulate_fringe_scan(jsa: JointSpectrum, filt: FilterProfile,
                         medium: DispersiveMedium, thetas,
                         grid: FrequencyGrid | None = None) -> ProbabilityCurve:
    """Evaluate the fringe over a list of analyzer angles.

    One quadrature of the fringe harmonics serves the whole scan of any
    spectrum. Raises QuadratureAccuracyError when thinning the nodes moves
    P at one of the requested angles by more than ACCURACY_TOL of the pair
    flux.
    """
    th = np.asarray(thetas, dtype=float)
    if th.size == 0:
        raise ValueError("need at least one angle")
    if grid is None:
        grid = FrequencyGrid(center=jsa.pump_center / 2.0)
    return ProbabilityCurve(th, _checked_harmonics(jsa, filt, medium, grid,
                                                   th).at(th))


def single_photon_visibility(filt: FilterProfile,
                             medium: DispersiveMedium) -> float:
    """Fringe visibility of one photon through the same filter and medium.

    |integral T(w) e^{i phi(w)}| / integral T(w): the single-photon dephasing
    carries the full filter bandwidth, with no pair correlation to cancel it.

    The grid is much denser than the two-photon one: a millimeter-scale
    crystal wraps the phase through tens of cycles across the filter window,
    and the quadrature must resolve every one of them. Its 4096 trapezoid
    nodes pass the thinning check through ~27 cm of BBO.
    """
    grid = FrequencyGrid(center=filt.center, nodes_per_axis=4096)

    def value(n=None):
        x, w = grid.axis(filt.fwhm, n)
        # a phase that overflows ends in NaN, which is refused below
        with np.errstate(over="ignore", invalid="ignore"):
            t = filter_transmission(filt, filt.center + x) * w
            phi = medium_phase(medium, filt.center + x)
            return abs(np.sum(t * np.exp(1j * phi))) / np.sum(t)

    v = value()
    n_thin = _thinned(grid)
    # v is already relative to the transmitted flux: its scale is 1
    _check_refinement("single-photon visibility", v, value(n_thin), 1.0,
                      grid.nodes_per_axis, n_thin, ACCURACY_TOL)
    return float(v)
