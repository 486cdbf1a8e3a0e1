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
|Z|/N and a whole scan, of symmetric and asymmetric pairs alike.

The pass runs on the rotated trapezoid mesh of _mesh_axes. Its integrands
are smooth, and where they have decayed at both ends of the window the rule
converges geometrically in the node count (Trefethen & Weideman, SIAM Rev.
56:385, 2014): so the pass refuses a sum-frequency window that cuts off
pairs, and spectral._refine grows the node count from the grid's until N
and Z converge, up to MAX_NODES.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .spectral import (DispersiveMedium, FilterProfile, FrequencyGrid,
                       JointSpectrum, QuadratureAccuracyError, _TAIL_BITS,
                       _grid_rungs, _pair_envelope, _real_phase, _refine,
                       filter_transmission, medium_phase)
from .units import _fold_phase

__all__ = [
    "ProbabilityCurve",
    "FringeHarmonics",
    "simulate_fringe_scan",
    "fringe_harmonics",
    "single_photon_visibility",
]

#: the refinement's tolerance on N and Z in the pair flux, its cap in nodes
#: per axis, and the largest share of the flux past the sum window's ends
ACCURACY_TOL, MAX_NODES, WINDOW_TOL = 1e-5, 2048, 3e-6

#: mesh elements per row block of the harmonic pass, at most (a longer row
#: is a block alone). The blocks are balanced: a 256-node mesh of 76-114
#: columns runs as two 128-row blocks, not a full one and a small remainder
#: that repeats the per-block calls, and with smaller temporaries
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
        if th.shape != v.shape or th.ndim != 1:
            raise ValueError("thetas and values must be matching 1-d arrays")
        for name, arr in (("thetas", th), ("values", v)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
        # quadrature leaves O(eps)-negative dust at perfect fringe nulls
        tiny = 1e-12 * float(np.max(np.abs(v), initial=0.0))
        if np.any(v < -tiny):
            raise ValueError("probabilities must be nonnegative")
        object.__setattr__(self, "values", np.where(v < 0, 0.0, v))


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
        one read-only strided (n, m) view whose [i, j] is
        values[i + stride*j]. The second photon's is its mirror [:, ::-1]."""
        step = values.strides[0]
        view = np.ndarray((self.s.size, self.um.size), values.dtype, values,
                          0, (step, self.stride * step))
        view.flags.writeable = False
        return view


def _mesh_axes(jsa: JointSpectrum, filt: FilterProfile,
               grid: FrequencyGrid) -> _Mesh:
    """The rotated mesh: sum frequencies s_i and difference frequencies u_j,
    with trapezoid weights (the sum weights carry the Jacobian 1/2 of
    (w1, w2) -> (w_p, w_-)), and the 1-D lattice of the photon frequencies.

    The sum axis spans half_range*min(pump_fwhm, filter_fwhm) about the
    narrower feature's center in n nodes of step h. The difference axis has
    the step b*h, b = floor(2*filter_fwhm/scale) >= 2 for that sum scale,
    and m = 1 + floor((n - 1)*2*filter_fwhm/(scale*b)) nodes at multiples
    of b*h/2: exactly odd, never coarser than n nodes over +-2*half_range
    filter widths and never wider (at pump widths >= the filter's, b = 2
    and m = n). The axis then ends on its first node at or past u_cut =
    fwhm*(_TAIL_BITS/2)^(1/order), with m's parity and every node position
    kept. On each row T(w1)T(w2), relative to its value at u = 0, is at
    most 2^(-2(|u|/fwhm)^order), so every column dropped is below
    2^-_TAIL_BITS of its row's value and the sums move by their order
    only. u_cut is 5.5 filter widths at order 2, 2.3 at order 4 and 1.5
    at order 8.
    So w1 = (s_i + u_j)/2 is the point i + b*j of a lattice of step h/2,
    and w2 = (s_i - u_j)/2 the point i + b*(m - 1 - j): w1 mirrored along
    the difference axis. omega holds the lattice points the mesh reaches,
    indexed i + c*j with c = min(b, n): a wide lattice skips its unreached
    gaps, so omega never holds more than n*m points; when c == b they are
    consecutive. It is built antisymmetric about its centre, so the phases
    of mirrored points carry no rounding dust of their own.
    """
    center_p, scale_p = ((jsa.pump_center, jsa.pump_fwhm) if jsa.pump_fwhm
                         <= filt.fwhm else (2.0 * filt.center, filt.fwhm))
    up, wp = grid.axis(scale_p)
    n, h = up.size, wp[1]       # an interior trapezoid weight is the step
    ratio = 2.0 * filt.fwhm / scale_p
    b = max(2, math.floor(ratio))
    m = 1 + math.floor((n - 1) * ratio / b)
    # end on the first node at or past u_cut, with m's parity
    u_cut = filt.fwhm * (_TAIL_BITS / 2.0) ** (1.0 / filt.order)
    reach = math.ceil(u_cut / (0.5 * b * h))
    m = min(m, reach + 1 + (reach + 1 - m) % 2)
    um = np.arange(1 - m, m, 2) * (0.5 * b * h)
    wm = np.full(m, b * h)
    wm[[0, -1]] *= 0.5
    c = min(b, n)
    # each point's offset from the centre in steps h/4, 2*(i + b*j) -
    # (n - 1 + b*(m - 1)), a whole number exact in floats
    if c == b:      # a = i + b*j runs over consecutive points
        quarters = np.arange(1 - n - b * (m - 1), n + b * (m - 1), 2)
    else:           # in floats: b may pass 2**63
        j, i = np.divmod(np.arange(n + c * (m - 1)), c)
        quarters = (2 * i - (n - 1)) + float(b) * (2 * j - (m - 1))
    omega = 0.5 * center_p + quarters * (0.25 * h)
    return _Mesh(center_p + up, 0.5 * wp, um, wm, omega, c)


# --------------------------------------------------------------------------
# probability paths
# --------------------------------------------------------------------------

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

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array([self.offset, self.amplitude], dtype)   # [N, Z]

    def at(self, theta) -> np.ndarray:
        th = np.asarray(theta, dtype=float)
        osc = (self.amplitude.real * np.cos(8.0 * th)
               - self.amplitude.imag * np.sin(8.0 * th))
        return 0.5 * (self.offset + osc)


def _harmonics(jsa, filt, medium, grid) -> tuple[FringeHarmonics, float]:
    """Fringe harmonics of any spectrum in one folded pass, and the pair flux.

    a12 = E(w_p) M(w_-) e^{i chi12}: on the mesh |a12|^2 = |a21|^2 = P_i Q_j
    and Re(a12 a21*) = P_i Q_j cos(dchi), dchi = chi12 - chi21 (0 without a
    spectral phase). With p, q the weighted P, Q, the flux is sum p q T T,
    N = sum p q T T [1 + (1 - cos dchi) cos(phi1 - phi2)/2] and Z = sum
    p q T T (1 + cos dchi)/2 e^{i(phi1 + phi2)}. All are even in w_-, so the
    first ceil(m/2) columns count twice, an odd mesh's centre column once.
    P and Q are evaluated on the sum and the folded difference axis, T and
    g = T e^{i phi} once per lattice frequency of _mesh_axes. On the mesh
    T T, g1 g2 = T T e^{i(phi1 + phi2)} and Re(g1 g2*) = T T cos(phi1 -
    phi2) are products of the photon view of them and its mirror, in the
    row blocks of _MESH_BLOCK. Only chi is evaluated on the mesh, in row
    blocks of the first photon's frequencies; the second's mirrored. Raises
    QuadratureAccuracyError when the pairs past the ends of the sum window
    carry more than WINDOW_TOL of the flux.
    """
    mesh = _mesh_axes(jsa, filt, grid)
    s, wp, um, wm = mesh.s, mesh.wp, mesh.um, mesh.wm
    n, m, k = s.size, um.size, (um.size + 1) // 2
    blocks = -(-n // max(1, _MESH_BLOCK // m))
    rows, extra = divmod(n, blocks)     # the first extra blocks take one more
    sums = np.zeros(3 if jsa.spectral_phase is None else 4)
    edge = np.empty(n)      # each row's pair flux
    # steep filter powers overflow to an exact zero transmission; a phase
    # that overflows ends in NaN, which _check_refinement refuses
    with np.errstate(over="ignore", invalid="ignore"):
        # P and Q: E and M on the two axes, each with the other at offset 0
        p = wp * _pair_envelope(jsa, s - jsa.pump_center, 0.0) ** 2
        q = wm[:k] * _pair_envelope(jsa, 0.0, um[:k]) ** 2
        q[:m // 2] *= 2.0
        t = filter_transmission(filt, mesh.omega)
        g = t * np.exp(1j * medium_phase(medium, mesh.omega))
        t, g = mesh.photon(t), mesh.photon(g)
        for i in range(blocks):
            start = i * rows + min(i, extra)
            block = slice(start, start + rows + (i < extra))
            tt = t[block, :k] * t[block, ::-1][:, :k]
            g1, g2 = g[block, :k], g[block, ::-1][:, :k]
            z, terms = g1 * g2, [tt]
            if jsa.spectral_phase is not None:
                o1 = np.array(mesh.photon(mesh.omega)[block])
                chi = np.broadcast_to(_real_phase(jsa, o1, o1[:, ::-1]), o1.shape)
                bright = (1.0 + np.cos(chi[:, :k] - chi[:, ::-1][:, :k])) / 2.0
                # freed here, the two (rows, m) arrays leave malloc room to
                # reuse; held to the block's end, they grew the heap past
                # its trim threshold, and each call faulted it back in
                del o1, chi
                terms.append(tt + (1.0 - bright) * np.real(g1 * np.conj(g2)))
                z = z * bright
            # one stack, so equal terms sum in the same order: without a
            # medium phase |Z| is N to the last bit
            per_row = np.stack([*terms, z.real, z.imag]) @ q
            edge[block] = per_row[0] * p[block]
            sums += per_row @ p[block]
    # without a spectral phase N is the flux, the first row
    flux, (offset, re, im) = sums[0], sums[-3:]
    # the flux at and past each end of the sum window: the geometric tail
    # a/(1 - a/b) of the end rows' fluxes a, b at full weight. Rows rising
    # outward are a cut window; equal ones, a pump rounded to one frequency
    tail = 0.0
    for a, b in ((2.0 * edge[0], edge[1]), (2.0 * edge[-1], edge[-2])):
        tail += a / (1.0 - a / b) if a < b else math.inf if a > b else 0.0
    if tail > WINDOW_TOL * flux:
        raise QuadratureAccuracyError(
            f"fringe unconverged, sum-frequency window too narrow: the pairs "
            f"past its ends carry {tail / flux:.1e} of the pair flux "
            f"(tolerance {WINDOW_TOL:.0e}), which no node count mends")
    return FringeHarmonics(float(offset), complex(re, im)), float(flux)


def fringe_harmonics(jsa: JointSpectrum, filt: FilterProfile,
                     medium: DispersiveMedium,
                     grid: FrequencyGrid = FrequencyGrid()) -> FringeHarmonics:
    """Fringe components of any pair: P(theta) = (N + Re(Z e^{8 i theta}))/2.

    N is the fringe offset (the filtered pair flux for a symmetric spectrum)
    and Z its phase-weighted counterpart, so visibility |Z|/N is free of
    theta sampling. spectral._refine grows the rule from grid.nodes_per_axis
    until N and Z move by at most ACCURACY_TOL of the pair flux. Raises
    QuadratureAccuracyError past MAX_NODES or for a window that _harmonics
    refuses, and FloatingPointError when the flux, N or Z is not finite or
    no flux reaches the filters.
    """
    return _refine("fringe", _grid_rungs(grid.nodes_per_axis, MAX_NODES),
                   lambda n: _harmonics(jsa, filt, medium, replace(
                       grid, nodes_per_axis=n)), ACCURACY_TOL)


def simulate_fringe_scan(jsa: JointSpectrum, filt: FilterProfile,
                         medium: DispersiveMedium, thetas,
                         grid: FrequencyGrid = FrequencyGrid()) -> ProbabilityCurve:
    """The fringe over a list of analyzer angles: one fringe_harmonics,
    checked on N and Z, serves the whole scan of any spectrum."""
    th = np.asarray(thetas, dtype=float)
    if th.size == 0:
        raise ValueError("need at least one angle")
    return ProbabilityCurve(th, fringe_harmonics(jsa, filt, medium, grid).at(th))


def single_photon_visibility(filt: FilterProfile,
                             medium: DispersiveMedium) -> float:
    """Fringe visibility of one photon through the same filter and medium.

    |integral T(w) e^{i phi(w)}| / integral T(w): the single-photon dephasing
    carries the full filter bandwidth, with no pair correlation to cancel it.

    A millimeter-scale crystal wraps the phase through tens of cycles across
    the filter window, so the rule starts at 4096 trapezoid nodes, which
    pass through ~27 cm of BBO, and spectral._refine grows it up to 4*4096.
    The rule's nodes span +-4 filter widths, and it sums those with T >=
    2^-_TAIL_BITS, |w - center| <= (fwhm/2)*_TAIL_BITS^(1/order) (+-1.39
    widths at order 4), at their places: every term past them is below
    2^-_TAIL_BITS of the central one. Only these frequencies meet the
    medium. The rungs and messages count the rule's nodes.
    """
    cut = 0.5 * filt.fwhm * _TAIL_BITS ** (1.0 / filt.order)

    def value(nodes):
        x, w = FrequencyGrid(nodes_per_axis=nodes).axis(filt.fwhm)
        kept = np.abs(x) <= cut
        x, w = x[kept], w[kept]
        # a phase that overflows ends in NaN, which _refine refuses
        with np.errstate(over="ignore", invalid="ignore"):
            t = filter_transmission(filt, filt.center + x) * w
            phi = medium_phase(medium, filt.center + x)
            # v is already relative to the transmitted flux: its scale is 1
            return abs(np.sum(t * np.exp(1j * phi))) / np.sum(t), 1.0

    return float(_refine("single-photon visibility", _grid_rungs(
        4096, 4 * 4096), value, ACCURACY_TOL))
