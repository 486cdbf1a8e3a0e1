"""Fringe engine: per-angle vs harmonic paths, frozen pins, and the engine
against the closed-form law.

The frozen visibilities below come from converged runs of this same engine
(regression pins) and, where stated, from independent dense-trapezoid oracles
rebuilt inline.
"""

import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import noonfringe
from noonfringe import (
    FilterProfile,
    FrequencyGrid,
    FringeHarmonics,
    FringeScan,
    JointSpectrum,
    ProbabilityCurve,
    QuadratureAccuracyError,
    TaylorMedium,
    bbo_crystal,
    closed_form_sigma_phi,
    filter_transmission,
    fit_fringe,
    fringe_harmonics,
    jsa_amplitude,
    medium_phase,
    simulate_fringe_scan,
    single_photon_visibility,
)
from noonfringe.engine import _harmonics, _mesh_axes, _thinned
from reference import _rotated_mesh, coincidence_probability_general

LN2 = math.log(2.0)

# engine visibility at the self-consistent calibration (kappa = 0.14)
V_AT_T_SC = 0.560066297
# dimensionless dispersion strength at which the engine returns v = 0.568
T_STAR = 7.059736525
# engine visibility in the uncorrelated limit, kappa = 1e-6
V_AT_TINY_KAPPA = 0.9999953941
# single-photon visibility through 3 mm of beta-BBO (dense-trapezoid oracle)
SINGLE_PHOTON_BBO_3MM = 7.689549e-5
# engine-vs-closed-form visibility shortfall at the reference configuration
CLOSED_FORM_SHORTFALL = -0.013968


def make_jsa(omega0, delta_omega, kappa):
    return JointSpectrum(pump_center=2.0 * omega0,
                         pump_fwhm=math.sqrt(kappa) * delta_omega)


def make_medium(omega0, delta_omega, t, phi0=0.0):
    return TaylorMedium(reference=omega0, phi0=phi0, phi_prime=t / delta_omega,
                        phi_double_prime=0.0)


class TestProbabilityCurve:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ProbabilityCurve(np.linspace(0, 1, 5), np.ones(4))

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ProbabilityCurve(np.linspace(0, 1, 5), np.array([1, 1, -0.1, 1, 1]))

    def test_quadrature_dust_is_clamped_to_zero(self):
        curve = ProbabilityCurve(np.linspace(0, 1, 3),
                                 np.array([1.0, -1e-13, 0.5]))
        assert curve.values[1] == 0.0

    @pytest.mark.parametrize("field", ["thetas", "values"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_names_the_field(self, field, bad):
        arrays = {"thetas": np.linspace(0, 1, 5), "values": np.ones(5)}
        arrays[field][2] = bad
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ProbabilityCurve(**arrays)


class TestVisibilityLaw:
    def test_closed_form_matches_inline_formula(self, delta_omega):
        kappa, t = 0.14, 5.0
        phi_prime = t / delta_omega
        expected = phi_prime ** 2 * delta_omega ** 2 / (8 * LN2) * kappa / (1 + kappa)
        assert closed_form_sigma_phi(kappa, phi_prime, delta_omega) == pytest.approx(
            expected, rel=1e-12)

    def test_closed_form_squares_the_dimensionless_strength(self):
        # phi' = 1e200 s squares past the float range; phi' * delta_omega = 1
        # does not
        s2 = closed_form_sigma_phi(0.14, 1e200, 1e-200)
        assert s2 == pytest.approx(0.14 / 1.14 / (8.0 * LN2), rel=1e-12)

    def test_negative_kappa_rejected(self, delta_omega):
        with pytest.raises(ValueError):
            closed_form_sigma_phi(-0.1, 3e-13, delta_omega)

    def test_zero_kappa_means_no_dephasing(self, delta_omega):
        s2 = closed_form_sigma_phi(0.0, 3e-13, delta_omega)
        assert s2 == 0.0
        assert math.exp(-s2 / 2.0) == 1.0


class TestSymmetricEngine:
    def test_no_dispersion_gives_perfect_fringe(self, ref_jsa, ref_filter,
                                                ref_grid, omega0, delta_omega):
        medium = make_medium(omega0, delta_omega, 0.0)
        h = fringe_harmonics(ref_jsa, ref_filter, medium, ref_grid)
        assert h.visibility == 1.0
        assert h.at(math.pi / 8.0) == 0.0     # perfect null
        assert h.at(0.0) == pytest.approx(h.offset, rel=1e-12)

    def test_visibility_at_self_consistent_calibration(self, ref_jsa, ref_filter,
                                                       ref_medium, ref_grid):
        v = fringe_harmonics(ref_jsa, ref_filter, ref_medium, ref_grid).visibility
        assert v == pytest.approx(V_AT_T_SC, abs=1e-6)

    def test_visibility_at_the_calibrated_strength(self, ref_jsa, ref_filter,
                                                   ref_grid, omega0, delta_omega):
        medium = make_medium(omega0, delta_omega, T_STAR)
        v = fringe_harmonics(ref_jsa, ref_filter, medium, ref_grid).visibility
        assert v == pytest.approx(0.568, abs=1e-6)

    def test_uncorrelated_limit_keeps_full_visibility(self, ref_filter, ref_grid,
                                                      omega0, delta_omega,
                                                      t_self_consistent):
        jsa = make_jsa(omega0, delta_omega, 1e-6)
        medium = make_medium(omega0, delta_omega, t_self_consistent)
        v = fringe_harmonics(jsa, ref_filter, medium, ref_grid).visibility
        assert v == pytest.approx(V_AT_TINY_KAPPA, abs=1e-7)
        assert v > 1.0 - 1e-4

    def test_visibility_decreases_with_correlation(self, ref_filter, ref_grid,
                                                   omega0, delta_omega,
                                                   t_self_consistent):
        medium = make_medium(omega0, delta_omega, t_self_consistent)
        vs = [fringe_harmonics(make_jsa(omega0, delta_omega, k),
                               ref_filter, medium, ref_grid).visibility
              for k in (0.05, 0.14, 0.5, 2.0, 5.0)]
        assert all(a > b for a, b in zip(vs, vs[1:]))

    def test_visibility_decreases_with_dispersion(self, ref_jsa, ref_filter,
                                                  ref_grid, omega0, delta_omega):
        vs = [fringe_harmonics(ref_jsa, ref_filter,
                               make_medium(omega0, delta_omega, t),
                               ref_grid).visibility
              for t in (0.5, 2.0, 4.0, 7.0, 10.0)]
        assert all(a > b for a, b in zip(vs, vs[1:]))

    def test_fringe_phase_is_twice_the_constant_offset(self, ref_jsa, ref_filter,
                                                       ref_grid, omega0,
                                                       delta_omega):
        medium = make_medium(omega0, delta_omega, T_STAR, phi0=0.122)
        h = fringe_harmonics(ref_jsa, ref_filter, medium, ref_grid)
        assert h.phase == pytest.approx(0.244, abs=1e-12)

    @pytest.mark.parametrize("imag,phase", [
        (-1e-17, 0.0), (-1e-300, 0.0), (-0.0, 0.0), (-1.0, 1.75 * math.pi)])
    def test_negative_angle_folds_into_one_period(self, imag, phase):
        # rounding dust below zero leaves a remainder modulo 2*pi that
        # rounds up to exactly 2*pi; it folds to 0
        assert FringeHarmonics(1.0, complex(1.0, imag)).phase == \
            pytest.approx(phase, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("imag,phase", [
        (2.0 ** -44, 0.0), (-2.0 ** -44, 0.0), (3e-17, 0.0),
        (1.9e-11, math.atan2(1.9e-11, 9e-6))])
    def test_dust_imaginary_part_reads_as_zero(self, imag, phase):
        # |Im Z| <= 2^-44 N is rounding dust of a real Z; a genuine
        # phi0 = 1e-6 at v = 9e-6 leaves Im Z = 1.9e-11 N, which is kept
        h = FringeHarmonics(2.0, 2.0 * complex(9e-6, imag))
        assert h.phase == pytest.approx(phase, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("kappa", [0.01, 0.05, 0.14, 1.0, 5.0])
    @pytest.mark.parametrize("t", [2.0, 7.147, 12.0])
    def test_harmonics_converge_by_96_nodes(self, ref_filter, omega0,
                                            delta_omega, kappa, t):
        # the trapezoid rule converges geometrically on these integrands:
        # 96 nodes already agree with a 512-node reference to ~1e-12
        jsa = make_jsa(omega0, delta_omega, kappa)
        medium = make_medium(omega0, delta_omega, t, phi0=0.3)
        h = fringe_harmonics(jsa, ref_filter, medium,
                             FrequencyGrid(center=omega0, nodes_per_axis=96))
        ref = fringe_harmonics(jsa, ref_filter, medium,
                               FrequencyGrid(center=omega0, nodes_per_axis=512))
        assert abs(h.offset - ref.offset) <= 1e-11 * ref.offset
        assert abs(h.amplitude - ref.amplitude) <= 1e-11 * ref.offset

    @pytest.mark.parametrize("nodes", [96, 97, 128, 129])
    def test_asymmetric_flag_keeps_the_harmonics(self, ref_jsa, ref_filter,
                                                 ref_medium, omega0, nodes):
        # the general harmonics of a symmetric pair flagged asymmetric, summed
        # over the whole mesh, are its symmetric ones, summed over the folded
        # half; an odd mesh weighs its centre column once
        grid = FrequencyGrid(center=omega0, nodes_per_axis=nodes)
        flagged = JointSpectrum(pump_center=ref_jsa.pump_center,
                                pump_fwhm=ref_jsa.pump_fwhm, symmetric=False)
        h = fringe_harmonics(flagged, ref_filter, ref_medium, grid)
        twin = fringe_harmonics(ref_jsa, ref_filter, ref_medium, grid)
        assert abs(h.offset - twin.offset) / twin.offset < 1e-12
        assert abs(h.amplitude - twin.amplitude) / twin.offset < 1e-12
        assert h.visibility == pytest.approx(V_AT_T_SC, abs=1e-9)

    def test_extract_visibility_agrees_with_harmonics(self, ref_jsa, ref_filter,
                                                      ref_medium, ref_grid):
        # 721 angles per fringe period trust the extrema to ~1e-5
        thetas = np.linspace(0.0, math.pi, 2881)
        values = simulate_fringe_scan(ref_jsa, ref_filter, ref_medium, thetas,
                                      grid=ref_grid).values
        hi, lo = values.max(), values.min()
        h = fringe_harmonics(ref_jsa, ref_filter, ref_medium, ref_grid)
        assert (hi - lo) / (hi + lo) == pytest.approx(h.visibility, abs=2e-5)


class TestGeneralPath:
    def test_reduces_to_the_symmetric_form(self, ref_filter, ref_grid, omega0,
                                           delta_omega):
        rng = np.random.default_rng(20260817)
        for _ in range(8):
            kappa = 10.0 ** rng.uniform(math.log10(0.05), math.log10(5.0))
            t = rng.uniform(0.5, 12.0) * rng.choice([-1.0, 1.0])
            theta = rng.uniform(0.0, math.pi)
            phi0 = rng.uniform(0.0, 2.0 * math.pi)
            jsa = make_jsa(omega0, delta_omega, kappa)
            medium = make_medium(omega0, delta_omega, t, phi0=phi0)
            general = coincidence_probability_general(jsa, ref_filter, medium,
                                                      theta, ref_grid)
            h = fringe_harmonics(jsa, ref_filter, medium, ref_grid)
            scale = h.offset / 2.0
            assert abs(general - float(h.at(theta))) / scale < 1e-9

    def test_periodicity_in_an_eighth_turn(self, ref_jsa, ref_filter, ref_medium,
                                           ref_grid):
        h = fringe_harmonics(ref_jsa, ref_filter, ref_medium, ref_grid)
        for theta in (0.0, 0.3, 1.1):
            a = coincidence_probability_general(ref_jsa, ref_filter, ref_medium,
                                                theta, ref_grid)
            b = coincidence_probability_general(ref_jsa, ref_filter, ref_medium,
                                                theta + math.pi / 4.0, ref_grid)
            assert abs(a - b) / h.offset < 1e-12

    def test_coarse_grid_is_reported(self, ref_filter, omega0, delta_omega):
        jsa = make_jsa(omega0, delta_omega, 5.0)
        medium = make_medium(omega0, delta_omega, 7.0)
        grid = FrequencyGrid(center=omega0, nodes_per_axis=20)
        with pytest.raises(QuadratureAccuracyError, match="coarse"):
            coincidence_probability_general(jsa, ref_filter, medium, 0.3, grid)
        chirped = chirped_pair(omega0, delta_omega, 5.0, 2.0, 0.3, 0.0)
        for pair in (jsa, chirped):
            with pytest.raises(QuadratureAccuracyError, match="coarse"):
                fringe_harmonics(pair, ref_filter, medium, grid)

    @pytest.mark.parametrize("phi_prime,pump_offset", [
        (1e308, 0.0),     # the phase overflows to inf on the mesh
        (0.0, 1e3),       # the pump misses the filters: no flux at all
    ], ids=["overflowing-phase", "no-flux"])
    def test_no_finite_fringe_is_refused(self, ref_jsa, ref_filter, ref_grid,
                                         omega0, delta_omega, phi_prime,
                                         pump_offset):
        jsa = JointSpectrum(
            pump_center=ref_jsa.pump_center + pump_offset * delta_omega,
            pump_fwhm=ref_jsa.pump_fwhm)
        medium = TaylorMedium(reference=omega0, phi_prime=phi_prime / delta_omega)
        for compute in (
                lambda: fringe_harmonics(jsa, ref_filter, medium, ref_grid),
                lambda: simulate_fringe_scan(jsa, ref_filter, medium, [0.0, 0.3],
                                             grid=ref_grid),
                lambda: coincidence_probability_general(jsa, ref_filter, medium,
                                                        0.3, ref_grid)):
            with pytest.raises(FloatingPointError, match="no finite fringe"):
                compute()

    @pytest.mark.parametrize("nodes", [96, 97, 128, 129])
    def test_symmetric_wrapper_matches_general(self, ref_jsa, ref_filter,
                                               ref_medium, omega0, nodes):
        # the folded harmonic form at one angle of an exchange-symmetric
        # pair against the unfolded per-angle form
        grid = FrequencyGrid(center=omega0, nodes_per_axis=nodes)
        h = fringe_harmonics(ref_jsa, ref_filter, ref_medium, grid)
        for theta in (0.0, 0.2, 0.7):
            b = coincidence_probability_general(ref_jsa, ref_filter,
                                                ref_medium, theta, grid)
            assert abs(float(h.at(theta)) - b) <= 1e-12 * h.offset


class TestSimulateScan:
    def test_default_grid_is_inferred_from_the_pump(self, ref_jsa, ref_filter,
                                                    ref_medium, ref_grid):
        thetas = np.linspace(0.0, math.pi, 12)
        implicit = simulate_fringe_scan(ref_jsa, ref_filter, ref_medium, thetas)
        explicit = simulate_fringe_scan(ref_jsa, ref_filter, ref_medium, thetas,
                                        grid=ref_grid)
        assert np.allclose(implicit.values, explicit.values, rtol=1e-12)

    def test_empty_scan_rejected(self, ref_jsa, ref_filter, ref_medium):
        with pytest.raises(ValueError, match="angle"):
            simulate_fringe_scan(ref_jsa, ref_filter, ref_medium, [])

    def test_symmetric_scan_is_checked_at_its_angles(self, ref_filter,
                                                     omega0, delta_omega):
        # at 58 nodes thinning moves Z by ~3e-5 of the flux, and the phase
        # pi/4 turns that shift perpendicular to the fringe at these angles,
        # so P(theta) there moves by ~6e-7: fringe_harmonics, checked on N
        # and Z, refuses; the scan, checked on P at its angles, returns the
        # per-angle values, as it does for an asymmetric pair
        jsa = make_jsa(omega0, delta_omega, 3.0)
        medium = make_medium(omega0, delta_omega, 3.0, phi0=math.pi / 4.0)
        grid = FrequencyGrid(center=omega0, nodes_per_axis=58)
        thetas = np.array([0.0, 0.5, 1.0]) * math.pi / 4.0
        with pytest.raises(QuadratureAccuracyError, match="coarse"):
            fringe_harmonics(jsa, ref_filter, medium, grid)
        scan = simulate_fringe_scan(jsa, ref_filter, medium, thetas, grid=grid)
        direct = [coincidence_probability_general(jsa, ref_filter, medium,
                                                  theta, grid)
                  for theta in thetas]
        flux = pair_flux(jsa, ref_filter, grid, omega0)
        assert np.max(np.abs(scan.values - direct)) / flux < 1e-12

    def test_general_fallback_equals_the_symmetric_twin(self, ref_filter,
                                                        ref_medium, ref_grid,
                                                        omega0, delta_omega):
        thetas = np.linspace(0.0, math.pi, 9)
        twin = make_jsa(omega0, delta_omega, 0.14)
        flagged = JointSpectrum(pump_center=twin.pump_center,
                                pump_fwhm=twin.pump_fwhm, symmetric=False)
        via_general = simulate_fringe_scan(flagged, ref_filter, ref_medium,
                                           thetas, grid=ref_grid)
        via_harmonics = simulate_fringe_scan(twin, ref_filter, ref_medium,
                                             thetas, grid=ref_grid)
        scale = via_harmonics.values.max()
        assert np.abs(via_general.values - via_harmonics.values).max() / scale < 1e-12

    def test_pair_fringe_runs_at_twice_the_single_photon_frequency(
            self, ref_jsa, ref_filter, ref_medium, ref_grid, omega0, delta_omega):
        thetas = np.linspace(0.0, math.pi, 160)
        pair = simulate_fringe_scan(ref_jsa, ref_filter, ref_medium, thetas,
                                    grid=ref_grid)
        pair_fit = fit_fringe(FringeScan(thetas, 1e3 * pair.values / pair.values.mean(),
                                         normalized=True))

        # one photon through the same filter and medium: sum T cos^2(2th + phi/2)
        x, w = ref_grid.axis(delta_omega, 512)
        t = filter_transmission(ref_filter, omega0 + x) * w
        phi = ref_medium.phi_prime * x
        single = np.array([np.sum(t * np.cos(2.0 * th + phi / 2.0) ** 2)
                           for th in thetas])
        single_fit = fit_fringe(FringeScan(thetas, 1e3 * single / single.mean(),
                                           normalized=True))

        assert pair_fit.harmonic == pytest.approx(8.0, abs=1e-6)
        assert single_fit.harmonic == pytest.approx(4.0, abs=1e-6)
        assert pair_fit.harmonic / single_fit.harmonic == pytest.approx(2.0,
                                                                        rel=1e-6)


def chirped_pair(omega0, delta_omega, kappa, phasematch, slope, chirp):
    """Asymmetric pair: finite phase matching and a spectral phase linear
    plus quadratic in the difference frequency (in filter widths)."""
    def phase(omega1, omega2):
        d = (omega1 - omega2) / delta_omega
        return slope * d + chirp * d * d
    return JointSpectrum(pump_center=2.0 * omega0,
                         pump_fwhm=math.sqrt(kappa) * delta_omega,
                         phasematch_fwhm=phasematch * delta_omega,
                         symmetric=False, spectral_phase=phase)


def pair_flux(jsa, filt, grid, omega0):
    """(|a12|^2 + |a21|^2)/2 integrated: with no medium phase the general
    form is the direct term at theta = 0 and the swapped one at pi/4."""
    bare = TaylorMedium(reference=omega0)
    return 0.5 * sum(coincidence_probability_general(jsa, filt, bare, theta, grid)
                     for theta in (0.0, math.pi / 4.0))


def refuses(fn):
    try:
        fn()
    except QuadratureAccuracyError as exc:
        return str(exc)
    return None


class TestGeneralScan:
    """simulate_fringe_scan against the per-angle form: asymmetric spectra,
    and where a scan of any pair refuses."""

    @pytest.mark.parametrize("medium,nodes,kappa,phasematch,slope,chirp", [
        ("taylor", 128, 0.3, 3.0, 0.7, -0.4),
        ("taylor", 192, 2.0, 2.0, -1.0, 0.8),
        ("curved", 128, 0.1, 4.0, 0.2, 0.5),
        ("bbo", 192, 0.5, 3.0, 0.9, -1.0),
        ("bbo", 256, 0.2, 2.5, -0.6, 0.3),
    ])
    def test_matches_the_per_angle_form(self, ref_filter, omega0, delta_omega,
                                        medium, nodes, kappa, phasematch,
                                        slope, chirp):
        media = {"taylor": make_medium(omega0, delta_omega, 3.0, phi0=0.4),
                 "curved": TaylorMedium(reference=omega0, phi0=1.3,
                                        phi_prime=-2.0 / delta_omega,
                                        phi_double_prime=1.5 / delta_omega ** 2),
                 "bbo": bbo_crystal(0.0027 if nodes == 256 else 0.0012)}
        jsa = chirped_pair(omega0, delta_omega, kappa, phasematch, slope, chirp)
        grid = FrequencyGrid(center=omega0, nodes_per_axis=nodes)
        thetas = np.linspace(0.0, math.pi, 37)
        scan = simulate_fringe_scan(jsa, ref_filter, media[medium], thetas,
                                    grid=grid)
        direct = [coincidence_probability_general(jsa, ref_filter, media[medium],
                                                  theta, grid)
                  for theta in thetas]
        flux = pair_flux(jsa, ref_filter, grid, omega0)
        assert np.max(np.abs(scan.values - direct)) / flux < 1e-12
        harmonics = fringe_harmonics(jsa, ref_filter, media[medium], grid)
        assert np.max(np.abs(harmonics.at(thetas) - direct)) / flux < 1e-12
        # a pi/4 turn flips the 4-theta component of the per-angle form,
        # which vanishes: both photons pass the same filter and medium, and
        # |a12|^2 - |a21|^2 is odd under their exchange
        shifted = [coincidence_probability_general(jsa, ref_filter,
                                                   media[medium],
                                                   theta + math.pi / 4.0, grid)
                   for theta in thetas]
        assert np.max(np.abs(np.subtract(shifted, direct))) / flux < 1e-12

    @pytest.mark.parametrize("pair,nodes,expected", [
        ("chirped", 20, []),
        ("chirped", 52, [1, 2, 3, 4, 5]),
        ("symmetric", 20, []),
        ("symmetric", 58, [0, 4, 5, 7, 8]),
    ], ids=["chirped-20", "chirped-52", "symmetric-20", "symmetric-58"])
    def test_refuses_exactly_where_the_per_angle_check_does(
            self, ref_filter, omega0, delta_omega, pair, nodes, expected):
        # at 52 nodes the per-angle check passes at the chirped pair's
        # angles 1 to 5 only; at 58 at five of the symmetric pair's, whose
        # N and Z fringe_harmonics refuses
        if pair == "chirped":
            jsa = chirped_pair(omega0, delta_omega, 2.0, 2.0, 0.3, 0.0)
            medium = make_medium(omega0, delta_omega, 3.0, phi0=0.4)
        else:
            jsa = make_jsa(omega0, delta_omega, 3.0)
            medium = make_medium(omega0, delta_omega, 3.0, phi0=math.pi / 4.0)
        grid = FrequencyGrid(center=omega0, nodes_per_axis=nodes)
        thetas = np.linspace(0.0, math.pi / 4.0, 9)
        per_angle = [refuses(lambda t=t: coincidence_probability_general(
            jsa, ref_filter, medium, t, grid)) for t in thetas]
        passing = [i for i, msg in enumerate(per_angle) if msg is None]
        assert passing == expected
        refusing = [i for i, msg in enumerate(per_angle) if msg is not None]
        subsets = [[i] for i in range(len(thetas))] + [
            list(range(len(thetas))), passing, passing + refusing[:1]]
        for subset in filter(None, subsets):
            scan = refuses(lambda: simulate_fringe_scan(
                jsa, ref_filter, medium, thetas[subset], grid=grid))
            refused = any(per_angle[i] is not None for i in subset)
            assert (scan is not None) == refused
            assert scan is None or "grid too coarse" in scan
        if nodes == 20:
            # every angle refuses; the scan reports the largest shift
            shifts = [float(msg.split(" by ")[1].split()[0]) for msg in per_angle]
            scan = refuses(lambda: simulate_fringe_scan(jsa, ref_filter, medium,
                                                        thetas, grid=grid))
            assert float(scan.split(" by ")[1].split()[0]) == max(shifts)


def full_mesh_harmonics(jsa, filt, medium, grid):
    """N and Z of any pair summed over the whole rotated mesh of the engine's
    axes from the bilinear form's A = |a12|^2, B = |a21|^2 and C =
    Re(a12 a21*), each photon's filter, phase and amplitude evaluated at its
    own frequency (s + u)/2 or (s - u)/2, not read off the lattice."""
    s, wp, um, wm = _mesh_axes(jsa, filt, grid)[:4]
    o1 = (s[:, None] + um[None, :]) / 2.0
    o2 = (s[:, None] - um[None, :]) / 2.0
    a12 = np.asarray(jsa_amplitude(jsa, o1, o2))
    a21 = np.asarray(jsa_amplitude(jsa, o2, o1))
    a, b, c = np.abs(a12) ** 2, np.abs(a21) ** 2, np.real(a12 * np.conj(a21))
    s = (a + b) / 2.0
    wtt = (wp[:, None] * wm[None, :] * filter_transmission(filt, o1)
           * filter_transmission(filt, o2))
    phi1, phi2 = medium_phase(medium, o1), medium_phase(medium, o2)
    return (np.sum(wtt * (s + (s - c) * np.cos(phi1 - phi2) / 2.0)),
            np.sum(wtt * (s + c) / 2.0 * np.exp(1j * (phi1 + phi2))))


class TestMirroredMesh:
    """omega2 is omega1 mirrored, and every pair's sum is folded."""

    @pytest.mark.parametrize("nodes", [96, 97, 128, 129])
    @pytest.mark.parametrize("kappa", [0.14, 3.0])
    def test_the_second_photon_is_the_first_mirrored(self, ref_filter, omega0,
                                                     delta_omega, nodes, kappa):
        jsa = make_jsa(omega0, delta_omega, kappa)
        grid = FrequencyGrid(center=omega0, nodes_per_axis=nodes)
        for n in (None, _thinned(grid)):
            mesh = _mesh_axes(jsa, ref_filter, grid, n)
            o1, o2, w = _rotated_mesh(jsa, ref_filter, grid, n)
            m, c = mesh.um.size, mesh.stride
            assert o1.shape == (n or nodes, m)
            # omega1 is read off the lattice: [i, j] is omega[i + c*j]
            rows, cols = np.indices(o1.shape)
            assert np.array_equal(o1, mesh.omega[rows + c * cols])
            assert np.array_equal(o2, o1[:, ::-1])
            assert np.array_equal(w, w[:, ::-1])
            # and it is the second photon: o1 - o2 runs over the
            # difference-axis nodes, the same in every row
            assert np.allclose(o1 - o2, mesh.um, rtol=0.0, atol=1e-15 * omega0)

    @pytest.mark.parametrize("pair", ["symmetric", "chirped"])
    @pytest.mark.parametrize("medium", ["taylor", "curved", "bbo"])
    @pytest.mark.parametrize("nodes", [97, 128])
    @pytest.mark.parametrize("kappa", [0.14, 3.0])
    def test_matches_a_full_mesh_sum(self, ref_filter, omega0, delta_omega,
                                     medium, nodes, kappa, pair):
        # an odd node count puts a centre column on the folded difference
        # axis; the chirped pair has finite phase matching
        media = {"taylor": make_medium(omega0, delta_omega, 7.0, phi0=0.4),
                 "curved": TaylorMedium(reference=omega0, phi0=1.3,
                                        phi_prime=-2.0 / delta_omega,
                                        phi_double_prime=1.5 / delta_omega ** 2),
                 "bbo": bbo_crystal(0.001)}
        jsa = make_jsa(omega0, delta_omega, kappa) if pair == "symmetric" else (
            chirped_pair(omega0, delta_omega, kappa, 3.0, 0.7, -0.4))
        grid = FrequencyGrid(center=omega0, nodes_per_axis=nodes)
        h = fringe_harmonics(jsa, ref_filter, media[medium], grid)
        offset, amplitude = full_mesh_harmonics(jsa, ref_filter, media[medium],
                                                grid)
        assert abs(h.offset - offset) <= 1e-13 * offset
        assert abs(h.amplitude - amplitude) <= 1e-13 * offset

    @pytest.mark.parametrize("pair", ["symmetric", "chirped"])
    @pytest.mark.parametrize("nodes", [97, 128])
    def test_row_blocks_match_one_block(self, monkeypatch, ref_filter, omega0,
                                        delta_omega, nodes, pair):
        # blocks of one row, and of 7 rows, which divide neither node count
        jsa = make_jsa(omega0, delta_omega, 0.14) if pair == "symmetric" else (
            chirped_pair(omega0, delta_omega, 0.3, 3.0, 0.7, -0.4))
        medium = TaylorMedium(reference=omega0, phi0=1.3,
                              phi_prime=-2.0 / delta_omega,
                              phi_double_prime=1.5 / delta_omega ** 2)
        grid = FrequencyGrid(center=omega0, nodes_per_axis=nodes)
        monkeypatch.setattr(noonfringe.engine, "_MESH_BLOCK", nodes * nodes)
        whole, flux = _harmonics(jsa, ref_filter, medium, grid)
        for block in (1, 7 * nodes):
            monkeypatch.setattr(noonfringe.engine, "_MESH_BLOCK", block)
            h, h_flux = _harmonics(jsa, ref_filter, medium, grid)
            assert abs(h.offset - whole.offset) <= 1e-13 * whole.offset
            assert abs(h.amplitude - whole.amplitude) <= 1e-13 * whole.offset
            assert abs(h_flux - flux) <= 1e-13 * whole.offset

    @pytest.mark.parametrize("pair", ["symmetric", "chirped"])
    def test_each_pass_evaluates_one_photon_once(self, monkeypatch, ref_jsa,
                                                 ref_filter, ref_medium,
                                                 ref_grid, omega0,
                                                 delta_omega, pair):
        # the filter and the medium see each lattice frequency once, in one
        # 1-d call; the amplitude envelope sees the sum axis and the folded
        # difference axis only, and the spectral phase each mesh element
        # once, in row blocks of the first photon's frequencies
        jsa = ref_jsa if pair == "symmetric" else chirped_pair(
            omega0, delta_omega, 0.3, 3.0, 0.7, -0.4)
        args = {"filter_transmission": [], "medium_phase": [],
                "jsa_amplitude": [], "_harmonics": []}

        def counted(name, fn):
            def wrapper(*a):
                args[name].append(a[1])
                return fn(*a)
            return wrapper

        for name in args:
            monkeypatch.setattr(noonfringe.engine, name,
                                counted(name, getattr(noonfringe.engine, name)))
        if jsa.spectral_phase is not None:
            jsa = dataclasses.replace(jsa, spectral_phase=counted(
                "spectral_phase", jsa.spectral_phase))
        args["spectral_phase"] = []
        mesh = _mesh_axes(jsa, ref_filter, ref_grid)
        n, m, c = mesh.s.size, mesh.um.size, mesh.stride
        assert m > n
        # 48-row blocks: the last of the three is partial
        monkeypatch.setattr(noonfringe.engine, "_MESH_BLOCK", 48 * m)
        noonfringe.engine._harmonics(jsa, ref_filter, ref_medium, ref_grid)
        for name in ("filter_transmission", "medium_phase"):
            assert [np.shape(a) for a in args[name]] == [(n + c * (m - 1),)]
            assert np.array_equal(args[name][0], mesh.omega)
        assert [np.shape(a) for a in args["jsa_amplitude"]] == [
            (n,), ((m + 1) // 2,)]
        if pair == "symmetric":
            assert args["spectral_phase"] == []
        else:
            assert [np.shape(a) for a in args["spectral_phase"]] == [
                (48, m), (48, m), (32, m)]
            # the wrapper records the second argument: omega2
            _, o2, _ = _rotated_mesh(jsa, ref_filter, ref_grid)
            assert np.array_equal(np.vstack(args["spectral_phase"]), o2)
        for calls in args.values():
            calls.clear()
        simulate_fringe_scan(jsa, ref_filter, ref_medium, [0.0, 0.3],
                             grid=ref_grid)
        assert len(args["_harmonics"]) == 2
        assert len(args["jsa_amplitude"]) == 4
        thin = _mesh_axes(jsa, ref_filter, ref_grid, _thinned(ref_grid))
        for name in ("filter_transmission", "medium_phase"):
            assert [np.size(a) for a in args[name]] == [mesh.omega.size,
                                                        thin.omega.size]
        assert sum(np.size(a) for a in args["spectral_phase"]) == (
            0 if pair == "symmetric"
            else n * m + thin.s.size * thin.um.size)

    @pytest.mark.parametrize("pair", ["symmetric", "asymmetric", "chirped"])
    def test_no_transcendental_runs_on_the_mesh_without_a_spectral_phase(
            self, monkeypatch, ref_jsa, ref_filter, omega0, delta_omega, pair):
        # the filter, the medium and every trig or exponential the pass
        # calls see 1-d arrays only, unless a spectral phase asks for
        # cos(chi12 - chi21) on the mesh
        jsa = {"symmetric": ref_jsa,
               "asymmetric": JointSpectrum(pump_center=2.0 * omega0,
                                           pump_fwhm=0.3 * delta_omega,
                                           phasematch_fwhm=3.0 * delta_omega,
                                           symmetric=False),
               "chirped": chirped_pair(omega0, delta_omega, 0.3, 3.0, 0.7,
                                       -0.4)}[pair]
        medium = bbo_crystal(0.001)
        dims = {}

        def recorded(name, fn):
            def wrapper(*a, **kw):
                dims.setdefault(name, set()).update(
                    np.ndim(x) for x in a if isinstance(x, np.ndarray))
                return fn(*a, **kw)
            return wrapper

        class Numpy:
            def __getattr__(self, name):
                fn = getattr(np, name)
                if name in ("cos", "sin", "tan", "exp", "exp2", "expm1",
                            "log", "log2", "power", "sqrt", "arctan2"):
                    return recorded(name, fn)
                return fn

        for name in ("filter_transmission", "medium_phase", "jsa_amplitude"):
            monkeypatch.setattr(noonfringe.engine, name,
                                recorded(name, getattr(noonfringe.engine, name)))
        monkeypatch.setattr(noonfringe.engine, "np", Numpy())
        grid = FrequencyGrid(center=omega0, nodes_per_axis=96)
        _harmonics(jsa, ref_filter, medium, grid)
        assert {"filter_transmission", "medium_phase", "exp"} <= set(dims)
        on_the_mesh = sorted(name for name, d in dims.items() if max(d) > 1)
        assert on_the_mesh == ([] if pair != "chirped" else ["cos"])

    def test_a_constant_spectral_phase_drops_out(self, ref_filter, ref_medium,
                                                 ref_grid, omega0,
                                                 delta_omega):
        # a phase callable may return a scalar; a constant phase is common
        # to a12 and a21 and leaves the fringe as it is without one
        bare = JointSpectrum(pump_center=2.0 * omega0, pump_fwhm=delta_omega,
                             phasematch_fwhm=3.0 * delta_omega, symmetric=False)
        const = dataclasses.replace(bare, spectral_phase=lambda a, b: 0.7)
        h = fringe_harmonics(const, ref_filter, ref_medium, ref_grid)
        h_bare = fringe_harmonics(bare, ref_filter, ref_medium, ref_grid)
        assert abs(h.offset - h_bare.offset) <= 1e-15 * h_bare.offset
        assert abs(h.amplitude - h_bare.amplitude) <= 1e-15 * h_bare.offset

    @pytest.mark.parametrize("path", ["harmonics", "scan", "per-angle"])
    def test_a_complex_spectral_phase_is_refused(self, ref_filter, ref_medium,
                                                 ref_grid, omega0, delta_omega,
                                                 path):
        # Im(chi) would scale |a12| and |a21| differently; the fold takes
        # them equal
        jsa = JointSpectrum(pump_center=2.0 * omega0, pump_fwhm=delta_omega,
                            symmetric=False,
                            spectral_phase=lambda a, b: 0.3j * (a - b) / delta_omega)
        calls = {"harmonics": lambda: fringe_harmonics(
                     jsa, ref_filter, ref_medium, ref_grid),
                 "scan": lambda: simulate_fringe_scan(
                     jsa, ref_filter, ref_medium, [0.0, 0.3], grid=ref_grid),
                 "per-angle": lambda: coincidence_probability_general(
                     jsa, ref_filter, ref_medium, 0.3, ref_grid)}
        with pytest.raises(ValueError, match="spectral_phase"):
            calls[path]()


class TestLattice:
    """The difference axis puts every photon frequency on one 1-d lattice."""

    @pytest.mark.parametrize("nodes", [16, 96, 97, 128, 129, 256])
    def test_difference_axis_rule(self, ref_filter, omega0, delta_omega,
                                  nodes):
        # read off _mesh_axes, nothing evaluated: the step of n nodes over
        # +-8 filter widths is the axis every kappa had before the lattice
        fwhm = ref_filter.fwhm
        grid = FrequencyGrid(center=omega0, nodes_per_axis=nodes)
        uniform, step = np.linspace(-8.0 * fwhm, 8.0 * fwhm, nodes,
                                    retstep=True)
        for kappa in np.logspace(-12.0, 4.0, 49):
            mesh = _mesh_axes(make_jsa(omega0, delta_omega, kappa),
                              ref_filter, grid)
            n, m, um = mesh.s.size, mesh.um.size, mesh.um
            h, du = 2.0 * mesh.wp[1], mesh.wm[1]
            b = round(du / h)
            assert b >= 2 and abs(du / h - b) <= 1e-12 * b
            assert du <= step * (1.0 + 1e-15)
            assert mesh.stride == min(b, n)
            assert np.array_equal(um, -um[::-1])
            assert np.all(np.diff(um) > 0)
            # no wider than +-8 widths, and short of them by under a step
            assert 8.0 * fwhm - du / 2.0 <= um[-1] <= 8.0 * fwhm * (1.0 + 1e-15)
            assert mesh.omega.size == n + mesh.stride * (m - 1) <= n * m
            if kappa >= 1.0:
                assert m == n
                assert np.allclose(um, uniform, rtol=0.0,
                                   atol=2.0 * np.spacing(8.0 * fwhm))


    @pytest.mark.parametrize("kappa", [1e-10, 0.14, 3.0])
    def test_no_medium_phase_gives_a_perfect_fringe_to_the_bit(
            self, ref_filter, omega0, delta_omega, kappa):
        # Z sums the same products as N, in the same order
        h = fringe_harmonics(make_jsa(omega0, delta_omega, kappa), ref_filter,
                             make_medium(omega0, delta_omega, 0.0),
                             FrequencyGrid(center=omega0))
        assert h.amplitude == h.offset
        assert h.visibility == 1.0


class TestSinglePhoton:
    def test_no_dispersion_keeps_unit_visibility(self, ref_filter, omega0,
                                                 delta_omega):
        medium = make_medium(omega0, delta_omega, 0.0)
        assert single_photon_visibility(ref_filter, medium) == pytest.approx(
            1.0, rel=1e-12)

    def test_matches_a_dense_trapezoid_oracle(self, ref_filter, omega0,
                                              delta_omega):
        medium = make_medium(omega0, delta_omega, 3.0)
        v = single_photon_visibility(ref_filter, medium)
        u = np.linspace(-4.0 * delta_omega, 4.0 * delta_omega, 200001)
        t = np.exp2(-((2.0 * u / delta_omega) ** 4))
        z = np.trapezoid(t * np.exp(1j * medium.phi_prime * u), u)
        oracle = abs(z) / np.trapezoid(t, u)
        assert v == pytest.approx(oracle, rel=1e-6)

    def test_millimeter_crystal_washes_the_fringe_out(self, ref_filter):
        v = single_photon_visibility(ref_filter, bbo_crystal(0.003))
        assert v == pytest.approx(SINGLE_PHOTON_BBO_3MM, rel=1e-4)
        assert v < 0.05

    def test_unconverged_thinning_is_reported(self, ref_filter, omega0,
                                              delta_omega, monkeypatch):
        # thinning 4096 nodes to 3072 moves v by rounding dust only; a
        # negative tolerance refuses even exact agreement
        medium = make_medium(omega0, delta_omega, 3.0)
        monkeypatch.setattr(noonfringe.engine, "ACCURACY_TOL", -1.0)
        with pytest.raises(QuadratureAccuracyError,
                           match="single-photon visibility") as info:
            single_photon_visibility(ref_filter, medium)
        assert "4096 vs 3072 nodes" in str(info.value)

    def test_overflowing_phase_is_refused(self, ref_filter, omega0,
                                          delta_omega):
        # the phase overflows to inf on the mesh, so both estimates are NaN
        medium = TaylorMedium(reference=omega0, phi_prime=1e308 / delta_omega)
        with pytest.raises(FloatingPointError,
                           match="no finite single-photon visibility"):
            single_photon_visibility(ref_filter, medium)


class TestClosedFormQuality:
    def test_frozen_shortfall_at_the_reference_configuration(
            self, ref_jsa, ref_filter, ref_medium, ref_grid, delta_omega,
            t_self_consistent):
        engine = fringe_harmonics(ref_jsa, ref_filter, ref_medium,
                                  ref_grid).visibility
        law = math.exp(-closed_form_sigma_phi(
            0.14, t_self_consistent / delta_omega, delta_omega) / 2.0)
        shortfall = engine / law - 1.0
        assert shortfall == pytest.approx(CLOSED_FORM_SHORTFALL, abs=2e-4)
        # the engine's fringe is always a touch dimmer than the Gaussian
        # surrogate predicts: the surrogate underestimates the phase spread
        assert shortfall < 0.0


_LINALG_PROBE = """
import math, sys
from noonfringe import (FilterProfile, FrequencyGrid, JointSpectrum,
                        TaylorMedium, bandwidth_nm_to_angular, bbo_crystal,
                        fringe_harmonics, simulate_fringe_scan,
                        single_photon_visibility, wavelength_nm_to_angular)
omega0 = wavelength_nm_to_angular(810.0)
delta_omega = bandwidth_nm_to_angular(7.3, 810.0)
filt = FilterProfile(center=omega0, fwhm=delta_omega)
jsa = JointSpectrum(pump_center=2.0 * omega0,
                    pump_fwhm=math.sqrt(0.14) * delta_omega)
medium = TaylorMedium(reference=omega0, phi_prime=7.147 / delta_omega)
fringe_harmonics(jsa, filt, medium, FrequencyGrid(center=omega0))
simulate_fringe_scan(jsa, filt, medium, [0.0, 0.3, 0.6])
single_photon_visibility(filt, bbo_crystal(0.003))
print("scipy.linalg" in sys.modules)
"""


def test_engine_runs_without_scipy_linalg():
    # the trapezoid rule needs no node generator: nothing the engine runs
    # pulls in scipy.linalg
    src = os.path.dirname(os.path.dirname(noonfringe.__file__))
    proc = subprocess.run([sys.executable, "-c", _LINALG_PROBE],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
