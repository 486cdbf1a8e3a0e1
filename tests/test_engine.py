"""Fringe engine: per-angle vs harmonic paths, frozen pins, and the engine
against the closed-form law.

The frozen visibilities below come from converged runs of this same engine
(regression pins) and, where stated, from independent dense-trapezoid oracles
rebuilt inline.
"""

import collections
import dataclasses
import importlib.util
import itertools
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
    NoFringeError,
    ProbabilityCurve,
    QuadratureAccuracyError,
    TaylorMedium,
    bbo_crystal,
    closed_form_sigma_phi,
    filter_transmission,
    fit_fringe,
    fringe_harmonics,
    medium_phase,
    simulate_fringe_scan,
    single_photon_visibility,
    wavelength_nm_to_angular,
)
from noonfringe.config import ExperimentConfig
from noonfringe.engine import ACCURACY_TOL, _harmonics, _mesh_axes
from noonfringe.spectral import _TAIL_BITS
from noonfringe.units import SPEED_OF_LIGHT, TWO_PI
from reference import (_rotated_mesh, coincidence_probability_general,
                       fixed_rule, jsa_amplitude, linear_pair,
                       sum_axis_harmonics, untrimmed_mesh)

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

    def test_coarse_grid_is_reported(self, ref_filter, omega0, delta_omega,
                                     monkeypatch):
        # the engine grows a 20-node rule until it converges; capped at its
        # start it refuses where the per-angle form does
        jsa = make_jsa(omega0, delta_omega, 5.0)
        medium = make_medium(omega0, delta_omega, 7.0)
        grid = FrequencyGrid(center=omega0, nodes_per_axis=20)
        with pytest.raises(QuadratureAccuracyError, match="coarse"):
            coincidence_probability_general(jsa, ref_filter, medium, 0.3, grid)
        chirped = chirped_pair(omega0, delta_omega, 5.0, 2.0, 0.3, 0.0)
        fine = FrequencyGrid(center=omega0, nodes_per_axis=512)
        for pair in (jsa, chirped):
            h, ref = (fringe_harmonics(pair, ref_filter, medium, g)
                      for g in (grid, fine))
            assert abs(h.amplitude - ref.amplitude) <= 1e-5 * ref.offset
        monkeypatch.setattr(noonfringe.engine, "MAX_NODES", 0)
        for pair in (jsa, chirped):
            with pytest.raises(QuadratureAccuracyError,
                               match="coarse: 20 vs 16 nodes.*cap of 20 nodes"):
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

    @pytest.mark.parametrize("pump_nm,phi_prime,part", [
        (810.0, 0.0, "pump"),       # pairs near 1620 nm: the filters pass none
        (392.0, 0.0, "window"),     # pairs in float range, off the sum axis
        (405.0, 1e308, "medium"),   # the phase overflows on the lattice
    ])
    def test_a_dead_end_names_its_part(self, ref_jsa, ref_filter, omega0,
                                       delta_omega, pump_nm, phi_prime, part):
        jsa = JointSpectrum(pump_center=wavelength_nm_to_angular(pump_nm),
                            pump_fwhm=ref_jsa.pump_fwhm)
        medium = TaylorMedium(reference=omega0, phi_prime=phi_prime / delta_omega)
        with pytest.raises(NoFringeError, match="no finite fringe") as info:
            fringe_harmonics(jsa, ref_filter, medium)
        assert info.value.part == part
        if part == "medium":
            with np.errstate(over="ignore"):
                assert not np.all(np.isfinite(
                    medium_phase(medium, info.value.omega)))

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

    def test_a_scan_is_checked_on_n_and_z(self, ref_filter, omega0,
                                          delta_omega, monkeypatch):
        # at 58 nodes thinning moves Z by ~3e-5 of the flux, and the phase
        # pi/4 turns that shift perpendicular to the fringe at these angles,
        # so P(theta) there moves by ~6e-7 only; the scan is checked on N
        # and Z, as fringe_harmonics is: it grows its rule alike, and capped
        # at its start it refuses alike
        jsa = make_jsa(omega0, delta_omega, 3.0)
        medium = make_medium(omega0, delta_omega, 3.0, phi0=math.pi / 4.0)
        grid = FrequencyGrid(center=omega0, nodes_per_axis=58)
        thetas = np.array([0.0, 0.5, 1.0]) * math.pi / 4.0
        scan = simulate_fringe_scan(jsa, ref_filter, medium, thetas, grid=grid)
        h = fringe_harmonics(jsa, ref_filter, medium, grid)
        assert np.array_equal(scan.values, h.at(thetas))
        monkeypatch.setattr(noonfringe.engine, "MAX_NODES", 0)
        for compute in (
                lambda: fringe_harmonics(jsa, ref_filter, medium, grid),
                lambda: simulate_fringe_scan(jsa, ref_filter, medium, thetas,
                                             grid=grid)):
            with pytest.raises(QuadratureAccuracyError,
                               match="58 vs 43 nodes"):
                compute()

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
        x, w = dataclasses.replace(ref_grid, nodes_per_axis=512).axis(delta_omega)
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

    @pytest.mark.parametrize("pair,nodes", [
        ("chirped", 20), ("chirped", 52), ("symmetric", 20),
        ("symmetric", 58),
    ], ids=["chirped-20", "chirped-52", "symmetric-20", "symmetric-58"])
    def test_refuses_exactly_where_the_harmonics_do(
            self, ref_filter, omega0, delta_omega, pair, nodes, monkeypatch):
        # a scan of any pair, at any subset of its angles, is the fringe
        # harmonics at those angles: it returns their values bit for bit
        # and, capped at its start rung, refuses with their message
        if pair == "chirped":
            jsa = chirped_pair(omega0, delta_omega, 2.0, 2.0, 0.3, 0.0)
            medium = make_medium(omega0, delta_omega, 3.0, phi0=0.4)
        else:
            jsa = make_jsa(omega0, delta_omega, 3.0)
            medium = make_medium(omega0, delta_omega, 3.0, phi0=math.pi / 4.0)
        grid = FrequencyGrid(center=omega0, nodes_per_axis=nodes)
        thetas = np.linspace(0.0, math.pi / 4.0, 9)
        subsets = [[i] for i in range(len(thetas))] + [list(range(9))]
        h = fringe_harmonics(jsa, ref_filter, medium, grid)
        for subset in subsets:
            scan = simulate_fringe_scan(jsa, ref_filter, medium,
                                        thetas[subset], grid=grid)
            assert np.array_equal(scan.values, h.at(thetas[subset]))
        monkeypatch.setattr(noonfringe.engine, "MAX_NODES", 0)
        refusal = refuses(lambda: fringe_harmonics(jsa, ref_filter, medium,
                                                   grid))
        assert refusal is not None and "grid too coarse" in refusal
        for subset in subsets:
            assert refuses(lambda: simulate_fringe_scan(
                jsa, ref_filter, medium, thetas[subset], grid=grid)) == refusal


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
    @pytest.mark.parametrize("kappa", [1e-6, 0.14, 3.0])
    def test_the_second_photon_is_the_first_mirrored(self, ref_filter, omega0,
                                                     delta_omega, nodes, kappa):
        # kappa 1e-6 has the wide lattice c = n < b, 0.14 and 3.0 have c = b
        jsa = make_jsa(omega0, delta_omega, kappa)
        grid = FrequencyGrid(center=omega0, nodes_per_axis=nodes)
        for g in (grid, dataclasses.replace(grid,
                                            nodes_per_axis=3 * nodes // 4)):
            mesh = _mesh_axes(jsa, ref_filter, g)
            o1, o2, w = _rotated_mesh(jsa, ref_filter, g)
            m, c = mesh.um.size, mesh.stride
            assert o1.shape == (g.nodes_per_axis, m)
            # omega1 is read off the lattice: [i, j] is omega[i + c*j]
            rows, cols = np.indices(o1.shape)
            assert np.array_equal(o1, mesh.omega[rows + c * cols])
            # the photon view strides a complex lattice array alike, and
            # refuses writes
            z = mesh.omega * (1.0 - 2.0j)
            assert np.array_equal(mesh.photon(z), z[rows + c * cols])
            for view in (mesh.photon(mesh.omega), mesh.photon(z)):
                with pytest.raises(ValueError, match="read-only"):
                    view[0, 0] = 0.0
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
                "_pair_envelope": [], "_harmonics": []}

        def counted(name, fn):
            def wrapper(*a):
                # the envelope's shape is that of its two offsets
                args[name].append(np.broadcast(*a[1:3])
                                  if name == "_pair_envelope" else a[1])
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
        # the difference axis ends at the tail level of the filter pair,
        # short of the n columns of +-8 filter widths
        assert m < n
        # a budget of 48 rows: the 128 rows take three blocks, balanced to
        # 43, 43 and 42 rows rather than 48, 48 and a 32-row remainder
        monkeypatch.setattr(noonfringe.engine, "_MESH_BLOCK", 48 * m)
        noonfringe.engine._harmonics(jsa, ref_filter, ref_medium, ref_grid)
        for name in ("filter_transmission", "medium_phase"):
            assert [np.shape(a) for a in args[name]] == [(n + c * (m - 1),)]
            assert np.array_equal(args[name][0], mesh.omega)
        assert [a.shape for a in args["_pair_envelope"]] == [
            (n,), ((m + 1) // 2,)]
        if pair == "symmetric":
            assert args["spectral_phase"] == []
        else:
            assert [np.shape(a) for a in args["spectral_phase"]] == [
                (43, m), (43, m), (42, m)]
            # the wrapper records the second argument: omega2
            _, o2, _ = _rotated_mesh(jsa, ref_filter, ref_grid)
            assert np.array_equal(np.vstack(args["spectral_phase"]), o2)
        for calls in args.values():
            calls.clear()
        simulate_fringe_scan(jsa, ref_filter, ref_medium, [0.0, 0.3],
                             grid=ref_grid)
        assert len(args["_harmonics"]) == 2
        assert len(args["_pair_envelope"]) == 4
        # the refinement walks its rungs upward: the thinned rule first
        thin = _mesh_axes(jsa, ref_filter, dataclasses.replace(
            ref_grid, nodes_per_axis=96))
        for name in ("filter_transmission", "medium_phase"):
            assert [np.size(a) for a in args[name]] == [thin.omega.size,
                                                        mesh.omega.size]
        assert sum(np.size(a) for a in args["spectral_phase"]) == (
            0 if pair == "symmetric"
            else n * m + thin.s.size * thin.um.size)

    @staticmethod
    def _phase_blocks(jsa, ref_filter, grid):
        """The row counts of the blocks in which one pass of _harmonics
        calls the spectral phase, and the mesh's (n, m)."""
        rows = []

        def phase(omega1, omega2):
            rows.append(np.shape(omega1)[0])
            return jsa.spectral_phase(omega1, omega2)

        chirped = dataclasses.replace(jsa, spectral_phase=phase)
        _harmonics(chirped, ref_filter, TaylorMedium(reference=grid.center),
                   grid)
        mesh = _mesh_axes(jsa, ref_filter, grid)
        return rows, mesh.s.size, mesh.um.size

    @pytest.mark.parametrize("nodes,blocks", [(128, [128]), (192, [192]),
                                              (256, [128, 128])],
                             ids=["128-nodes", "192-nodes", "256-nodes"])
    @pytest.mark.parametrize("kappa", [0.05, 0.14, 0.3, 0.5])
    def test_default_budget_takes_192_rows_whole_and_256_in_two_halves(
            self, ref_filter, omega0, delta_omega, kappa, nodes, blocks):
        # at the default budget the 42-54 columns of a 128-node mesh and
        # the 61-81 of a 192-node mesh fit one block, and 256 rows of 81-107
        # columns take two blocks of 128 rows, not one full block and a
        # small remainder
        jsa = chirped_pair(omega0, delta_omega, kappa, 3.0, 0.7, -0.4)
        rows, n, m = self._phase_blocks(
            jsa, ref_filter, FrequencyGrid(center=omega0, nodes_per_axis=nodes))
        assert n == nodes
        assert n * m <= 16384 if nodes < 256 else 16384 < n * m <= 2 * 16384
        assert rows == blocks

    @pytest.mark.parametrize("budget", [1, 100, 7 * 155, 48 * 155, 16384,
                                        128 * 155])
    @pytest.mark.parametrize("nodes", [97, 128])
    def test_row_blocks_are_the_fewest_within_the_budget_and_balanced(
            self, monkeypatch, ref_filter, omega0, delta_omega, budget, nodes):
        jsa = chirped_pair(omega0, delta_omega, 0.3, 3.0, 0.7, -0.4)
        monkeypatch.setattr(noonfringe.engine, "_MESH_BLOCK", budget)
        rows, n, m = self._phase_blocks(
            jsa, ref_filter, FrequencyGrid(center=omega0, nodes_per_axis=nodes))
        assert sum(rows) == n
        assert max(rows) - min(rows) <= 1
        # no block exceeds the budget unless it is a single row, and one
        # block fewer could not hold every row within it
        assert all(r * m <= budget or r == 1 for r in rows)
        assert (len(rows) - 1) * max(1, budget // m) < n

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

        for name in ("filter_transmission", "medium_phase", "_pair_envelope"):
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
    def test_difference_axis_rule(self, omega0, delta_omega, nodes):
        # read off _mesh_axes, nothing evaluated: the step of n nodes over
        # +-8 filter widths is the axis every kappa had before the lattice.
        # It ends on its first node at or past u_cut =
        # fwhm*(_TAIL_BITS/2)^(1/order), where the filter pair is below
        # 2^-_TAIL_BITS of its row's value at u = 0: order 2's u_cut is 5.5
        # widths, order 4's 2.3, both short of +-8
        grid = FrequencyGrid(center=omega0, nodes_per_axis=nodes)
        uniform, step = np.linspace(-8.0 * delta_omega, 8.0 * delta_omega,
                                    nodes, retstep=True)
        for order in (2, 4):
            filt = FilterProfile(center=omega0, fwhm=delta_omega, order=order)
            u_cut = delta_omega * (_TAIL_BITS / 2.0) ** (1.0 / order)
            assert u_cut < 8.0 * delta_omega
            for kappa in np.logspace(-12.0, 4.0, 49):
                mesh = _mesh_axes(make_jsa(omega0, delta_omega, kappa), filt,
                                  grid)
                n, m, um = mesh.s.size, mesh.um.size, mesh.um
                h, du = 2.0 * mesh.wp[1], mesh.wm[1]
                b = round(du / h)
                assert b >= 2 and abs(du / h - b) <= 1e-12 * b
                assert du <= step * (1.0 + 1e-15)
                assert mesh.stride == min(b, n)
                assert np.array_equal(um, -um[::-1])
                assert np.all(np.diff(um) > 0)
                assert um[-1] - du < u_cut <= um[-1]
                if kappa >= 1.0:
                    # the middle m of the n uniform nodes
                    assert m < n
                    assert np.allclose(um, uniform[(n - m) // 2:(n + m) // 2],
                                       rtol=0.0,
                                       atol=2.0 * np.spacing(8.0 * delta_omega))
                assert mesh.omega.size == n + mesh.stride * (m - 1) <= n * m
                # the lattice itself, point a = i + c*j at 2*(i + b*j) -
                # (n - 1 + b*(m - 1)) steps h/4 from the centre, counted in
                # Python integers
                # (the pump's centre and the filter pair's coincide here)
                c, center = mesh.stride, 2.0 * omega0
                quarters = [2 * (i + b * j) - (n - 1 + b * (m - 1))
                            for j, i in (divmod(a, c)
                                         for a in range(mesh.omega.size))]
                assert np.array_equal(mesh.omega, 0.5 * center + np.array(
                    quarters, dtype=float) * (h / 4.0))

    @pytest.mark.parametrize("pair", ["symmetric", "chirped"])
    @pytest.mark.parametrize("order", [2, 4, 6, 8, 40])
    def test_the_difference_axis_ends_at_the_tail_level(
            self, monkeypatch, omega0, delta_omega, order, pair):
        # against the full +-8-width mesh of tests/reference.py: the engine
        # keeps a centred run of its columns, on every row the filter pair
        # T(w1)T(w2) of each column it drops, and of its end columns, is at
        # most 2^-_TAIL_BITS of the row's value at u = 0, T(s/2)^2, and the
        # harmonics move by summation order only
        filt = FilterProfile(center=omega0, fwhm=delta_omega, order=order)
        medium = TaylorMedium(reference=omega0, phi0=1.3,
                              phi_prime=-2.0 / delta_omega,
                              phi_double_prime=1.5 / delta_omega ** 2)
        for kappa in (1e-10, 0.05, 0.14, 1.0, 3.0):
            jsa = make_jsa(omega0, delta_omega, kappa) if pair == "symmetric" \
                else chirped_pair(omega0, delta_omega, kappa, 3.0, 0.7, -0.4)
            for nodes in (16, 96, 128, 256):
                grid = FrequencyGrid(center=omega0, nodes_per_axis=nodes)
                mesh, full = (_mesh_axes(jsa, filt, grid),
                              untrimmed_mesh(jsa, filt, grid))
                size, r = full.um.size, (full.um.size - mesh.um.size) // 2
                kept = slice(r, size - r)
                assert r >= 0 and mesh.um.size == size - 2 * r
                assert np.array_equal(mesh.s, full.s)
                assert np.array_equal(mesh.wp, full.wp)
                assert np.array_equal(mesh.um, full.um[kept])
                assert np.array_equal(mesh.wm[1:-1], full.wm[kept][1:-1])
                assert mesh.stride == full.stride
                assert np.array_equal(mesh.photon(mesh.omega),
                                      full.photon(full.omega)[:, kept])
                t = full.photon(filter_transmission(filt, full.omega))
                tt = t * t[:, ::-1]
                row = filter_transmission(filt, 0.5 * full.s) ** 2
                # the columns dropped and the two kept end columns
                tail = np.ones(size, dtype=bool)
                tail[r + 1:size - 1 - r] = False
                assert np.all(tt[:, tail] <= 2.0 ** -_TAIL_BITS * row[:, None])
                h, flux = _harmonics(jsa, filt, medium, grid)
                with monkeypatch.context() as patch:
                    patch.setattr(noonfringe.engine, "_mesh_axes",
                                  untrimmed_mesh)
                    h_full, flux_full = _harmonics(jsa, filt, medium, grid)
                if r == 0:      # the same mesh: the same sums, to the bit
                    assert (h, flux) == (h_full, flux_full)
                tol = 2e-15 * h_full.offset
                assert abs(h.offset - h_full.offset) <= tol
                assert abs(h.amplitude - h_full.amplitude) <= tol
                assert abs(flux - flux_full) <= tol

    def test_a_crystal_is_read_only_down_to_the_tail_level(self):
        # 30 nm order-4 filters through 1 mm of BBO: the fringe and the
        # single-photon rule each once reached past 900 nm, where the
        # Sellmeier coefficients end, and were refused. Every frequency
        # either rule keeps lies inside 700-900 nm, so both return
        config = ExperimentConfig(filter_fwhm_nm=30.0, medium_variant="bbo",
                                  medium_length_mm=1.0)
        jsa, filt, medium = (config.joint_spectrum(), config.filter_profile(),
                             config.medium())
        lattice = _mesh_axes(jsa, filt, FrequencyGrid()).omega
        x, _ = FrequencyGrid(nodes_per_axis=4096).axis(filt.fwhm)
        every = filt.center + x
        single = every[filter_transmission(filt, every) >= 2.0 ** -_TAIL_BITS]
        for omega in (lattice, single):
            lam_nm = TWO_PI * SPEED_OF_LIGHT / omega * 1e9
            assert 700.0 < lam_nm.min() and lam_nm.max() < 900.0
        assert 0.0 < fringe_harmonics(jsa, filt, medium).visibility < 1e-5
        assert 0.0 < single_photon_visibility(filt, medium) < 1e-5

    @pytest.mark.parametrize("kappa", [1e-10, 0.14, 3.0])
    def test_no_medium_phase_gives_a_perfect_fringe_to_the_bit(
            self, ref_filter, omega0, delta_omega, kappa):
        # Z sums the same products as N, in the same order
        h = fringe_harmonics(make_jsa(omega0, delta_omega, kappa), ref_filter,
                             make_medium(omega0, delta_omega, 0.0),
                             FrequencyGrid(center=omega0))
        assert h.amplitude == h.offset
        assert h.visibility == 1.0


#: (filter order, kappa, T = phi' * delta_omega, pump nm) behind the 810 nm
#: filters: steep filters with a centred pump, where a rule can pass its
#: check by luck, and detuned pumps, where the sum-frequency window can cut
#: off pairs
REFINEMENT_TABLE = [
    *[(order, kappa, t, 405.0) for order in (4, 6, 8, 12, 20, 40)
      for t in (1.0, 3.0, 7.147, 15.0) for kappa in (0.05, 0.14, 1.0, 5.0)],
    # cut windows that 128 vs 96 nodes pass: off by 8e-5 to 2e-4 of the flux
    (2, 3.0, 3.0, 416.0), (2, 5.0, 1.0, 392.0), (4, 0.5, 3.0, 398.0),
    # cut windows off by 4.3e-6 and 7.2e-6 of the flux, refused all the same
    (2, 1.0, 1.0, 392.0), (4, 0.5, 7.147, 412.0),
    # detuned pumps that need more nodes
    (4, 0.01, 3.0, 400.0), (4, 0.05, 7.147, 410.0), (6, 0.14, 3.0, 402.0),
    (6, 1.0, 1.0, 410.0), (40, 0.14, 1.0, 408.0),
]


class TestRefinement:
    """fringe_harmonics against the window-free sum-axis reference."""

    @pytest.mark.parametrize("order,kappa,t,pump_nm", REFINEMENT_TABLE)
    def test_a_value_is_right_or_refused(self, order, kappa, t, pump_nm):
        # every value returned is within ACCURACY_TOL of the flux of the
        # reference; every value the fixed rule accepts is returned bit for
        # bit, or refused for its window
        jsa, filt, medium = linear_pair(order, kappa, t, pump_nm)
        n, z = sum_axis_harmonics(jsa, filt, medium)
        fixed, passes = fixed_rule(jsa, filt, medium)
        try:
            h = fringe_harmonics(jsa, filt, medium)
        except QuadratureAccuracyError as exc:
            assert not passes or "window too narrow" in str(exc)
            return
        assert max(abs(h.offset - n), abs(h.amplitude - z)) <= ACCURACY_TOL * n
        if passes:
            assert (h.offset, h.amplitude) == (fixed.offset, fixed.amplitude)

    def test_the_table_holds_false_passes_of_the_fixed_rule(self):
        wrong = []
        for entry in REFINEMENT_TABLE:
            jsa, filt, medium = linear_pair(*entry)
            n, z = sum_axis_harmonics(jsa, filt, medium)
            fixed, passes = fixed_rule(jsa, filt, medium)
            if passes and max(abs(fixed.offset - n),
                              abs(fixed.amplitude - z)) > ACCURACY_TOL * n:
                wrong.append(entry)
        assert wrong == REFINEMENT_TABLE[96:99]

    def test_every_twentieth_scan_configuration_is_right_or_refused(
            self, monkeypatch):
        # a tier-1 slice of tools/quadrature_scan.py: configurations 0, 20,
        # 40, ... of its 1240, each returned within ACCURACY_TOL of the
        # flux of the window-free reference, or refused. 33 of the 62
        # return, 18 are refused and through 11 no pairs pass
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        spec = importlib.util.spec_from_file_location(
            "quadrature_scan", os.path.join(root, "tools", "quadrature_scan.py"))
        tool = importlib.util.module_from_spec(spec)
        monkeypatch.setattr(sys, "path", list(sys.path))   # the tool adds tests/
        spec.loader.exec_module(tool)
        outcomes = collections.Counter()
        for entry in itertools.islice(tool.configurations(), 0, None, 20):
            jsa, filt, medium = linear_pair(*entry)
            reference = sum_axis_harmonics(jsa, filt, medium)
            if reference[0] == 0.0:
                outcomes["no pairs"] += 1
                continue
            try:
                h = fringe_harmonics(jsa, filt, medium)
            except (QuadratureAccuracyError, FloatingPointError):
                outcomes["refused"] += 1
                continue
            assert tool.error(h, reference) <= ACCURACY_TOL, entry
            outcomes["returned"] += 1
        assert sum(outcomes.values()) == 62
        assert outcomes["returned"] >= 33

    def test_the_engine_ab_tool_runs_a_tree_against_itself(self):
        # tools/engine_ab.py imports two copies of one tree under their own
        # names: every visibility agrees to the bit, every curve is timed
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        spec = importlib.util.spec_from_file_location(
            "engine_ab", os.path.join(root, "tools", "engine_ab.py"))
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        src = os.path.dirname(os.path.dirname(noonfringe.__file__))
        result = tool.compare(src, src, rounds=1)
        assert result["max_dv"] == 0.0
        assert [label for label, *_ in result["curves"]] == [
            f"{medium} {nodes}" for medium in ("linear", "curved", "bbo")
            for nodes in (128, 256)]
        assert all(old > 0.0 and new > 0.0 for _, old, new in result["curves"])

    def test_a_cut_window_is_refused_naming_it(self):
        jsa, filt, medium = linear_pair(2, 3.0, 3.0, 416.0)
        with pytest.raises(QuadratureAccuracyError,
                           match="window too narrow: the pairs past its ends "
                                 "carry 2.8e-04 of the pair flux"):
            fringe_harmonics(jsa, filt, medium)


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
        # successive rungs from 3072 nodes move v by rounding dust only; a
        # negative tolerance refuses even exact agreement, up to the cap
        medium = make_medium(omega0, delta_omega, 3.0)
        monkeypatch.setattr(noonfringe.engine, "ACCURACY_TOL", -1.0)
        with pytest.raises(QuadratureAccuracyError,
                           match="single-photon visibility") as info:
            single_photon_visibility(ref_filter, medium)
        assert "12948 vs 9711 nodes" in str(info.value)
        assert "cap of 12948 nodes" in str(info.value)

    @pytest.mark.parametrize("order", [2, 4, 6, 8])
    def test_the_rule_sums_its_nodes_down_to_the_tail_level(
            self, monkeypatch, omega0, delta_omega, order):
        # each rung meets the medium at exactly its nodes with T >=
        # 2^-_TAIL_BITS, at their places on the rule, and the terms past
        # them move v by summation order only: against the whole rule
        # (_TAIL_BITS = inf) within 2e-16
        filt = FilterProfile(center=omega0, fwhm=delta_omega, order=order)
        seen = []

        def phase(medium, omega):
            seen.append(np.array(omega))
            return medium_phase(medium, omega)

        monkeypatch.setattr(noonfringe.engine, "medium_phase", phase)
        media = [make_medium(omega0, delta_omega, t) for t in (0.0, 3.0, 7.147)]
        media.append(TaylorMedium(reference=omega0, phi0=1.3,
                                  phi_prime=-2.0 / delta_omega,
                                  phi_double_prime=1.5 / delta_omega ** 2))
        for medium in media:
            seen.clear()
            v = single_photon_visibility(filt, medium)
            assert len(seen) == 2       # 3072 nodes, then 4096
            for nodes, omega in zip((3072, 4096), seen):
                x, _ = FrequencyGrid(nodes_per_axis=nodes).axis(delta_omega)
                every = omega0 + x
                kept = filter_transmission(filt, every) >= 2.0 ** -_TAIL_BITS
                assert 0 < kept.sum() < nodes
                assert np.array_equal(omega, every[kept])
            with monkeypatch.context() as patch:
                patch.setattr(noonfringe.engine, "_TAIL_BITS", math.inf)
                whole = single_photon_visibility(filt, medium)
            assert seen[-1].size == 4096
            assert abs(v - whole) <= 2e-16

    def test_overflowing_phase_is_refused(self, ref_filter, omega0,
                                          delta_omega):
        # the phase passes 1e308 half a filter width out and overflows to
        # inf within the +-1.39 widths the rule sums, so both estimates are
        # NaN
        medium = TaylorMedium(reference=omega0,
                              phi_prime=1e308 / (0.5 * delta_omega))
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
