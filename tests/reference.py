"""The direct per-angle form of the coincidence probability: the reference
the harmonic engine is checked against.

At one analyzer angle it sums the direct, swapped and interference terms of
the general bilinear form over the whole rotated mesh of the engine's axes,
with each photon's filter, amplitude and medium phase evaluated at its own
frequency. It shares no arithmetic with the engine's folded harmonic pass,
only the mesh and the thinning rule, so agreement between the two tests the
fold, the lattice and the harmonic reduction P(theta) = (N + Re(Z e^{8i
theta}))/2. A helper module, not a test file: the suites import it.
"""

import numpy as np

from noonfringe.engine import ACCURACY_TOL, _mesh_axes, _thinned
from noonfringe.spectral import (DispersiveMedium, FilterProfile,
                                 FrequencyGrid, JointSpectrum,
                                 _check_refinement, filter_transmission,
                                 jsa_amplitude, medium_phase)


def _rotated_mesh(jsa: JointSpectrum, filt: FilterProfile, grid: FrequencyGrid,
                  n: int | None = None):
    """Photon frequencies omega1, omega2 and weights on the mesh of
    _mesh_axes: omega1 read off its lattice, omega2 its mirror
    omega1[:, ::-1] (a view)."""
    mesh = _mesh_axes(jsa, filt, grid, n)
    omega1 = np.array(mesh.photon(mesh.omega))
    return omega1, omega1[:, ::-1], mesh.wp[:, None] * mesh.wm


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
                                    grid: FrequencyGrid) -> float:
    """Coincidence probability from the general bilinear form.

    Handles asymmetric and complex spectral amplitudes. The value is
    re-estimated with a thinned node set; disagreement beyond ACCURACY_TOL
    (relative to the total pair flux, so fringe nulls don't divide by zero)
    raises QuadratureAccuracyError; a mesh with no finite, nonzero flux or a
    non-finite value raises FloatingPointError.
    """
    p, flux = _general_value(jsa, filt, medium, theta, grid)
    n_thin = _thinned(grid)
    p_thin, _ = _general_value(jsa, filt, medium, theta, grid, n_thin)
    _check_refinement("fringe", p, p_thin, flux, grid.nodes_per_axis, n_thin,
                      ACCURACY_TOL)
    return p
