"""Fringe engine: general vs symmetric paths, frozen pins, closed-form law.

The frozen visibilities below come from converged runs of this same engine
(regression pins) and, where stated, from independent dense-trapezoid oracles
rebuilt inline.
"""

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
    FringeScan,
    JointSpectrum,
    ProbabilityCurve,
    QuadratureAccuracyError,
    TaylorMedium,
    VisibilityLaw,
    analytic_visibility,
    bbo_crystal,
    closed_form_sigma_phi,
    coincidence_probability_general,
    coincidence_probability_symmetric,
    extract_visibility,
    filter_transmission,
    fit_fringe,
    fringe_harmonics,
    harmonic_visibility,
    simulate_fringe_scan,
    single_photon_visibility,
)

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

    def test_unknown_normalization_rejected(self):
        with pytest.raises(ValueError, match="normalization"):
            ProbabilityCurve(np.linspace(0, 1, 3), np.ones(3), "percent")

    def test_mean_one_flag_is_checked(self):
        with pytest.raises(ValueError, match="average"):
            ProbabilityCurve(np.linspace(0, 1, 3), np.array([1.0, 2.0, 3.0]),
                             "mean-one")

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

    def test_law_bundle_is_self_consistent(self, delta_omega):
        law = analytic_visibility(0.14, 3e-13, delta_omega)
        assert law.visibility == pytest.approx(
            math.exp(-law.sigma_phi_sq / 2.0), rel=1e-12)
        assert law.sigma_phi_sq == closed_form_sigma_phi(0.14, 3e-13, delta_omega)

    def test_inconsistent_bundle_rejected(self, delta_omega):
        with pytest.raises(ValueError, match="inconsistent"):
            VisibilityLaw(kappa=0.14, phi_prime=3e-13, delta_omega=delta_omega,
                          sigma_phi_sq=1.0, visibility=0.9)

    def test_negative_kappa_rejected(self, delta_omega):
        with pytest.raises(ValueError):
            closed_form_sigma_phi(-0.1, 3e-13, delta_omega)

    def test_zero_kappa_means_no_dephasing(self, delta_omega):
        assert closed_form_sigma_phi(0.0, 3e-13, delta_omega) == 0.0
        assert analytic_visibility(0.0, 3e-13, delta_omega).visibility == 1.0


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
        v = harmonic_visibility(ref_jsa, ref_filter, ref_medium, ref_grid)
        assert v == pytest.approx(V_AT_T_SC, abs=1e-6)

    def test_visibility_at_the_calibrated_strength(self, ref_jsa, ref_filter,
                                                   ref_grid, omega0, delta_omega):
        medium = make_medium(omega0, delta_omega, T_STAR)
        v = harmonic_visibility(ref_jsa, ref_filter, medium, ref_grid)
        assert v == pytest.approx(0.568, abs=1e-6)

    def test_uncorrelated_limit_keeps_full_visibility(self, ref_filter, ref_grid,
                                                      omega0, delta_omega,
                                                      t_self_consistent):
        jsa = make_jsa(omega0, delta_omega, 1e-6)
        medium = make_medium(omega0, delta_omega, t_self_consistent)
        v = harmonic_visibility(jsa, ref_filter, medium, ref_grid)
        assert v == pytest.approx(V_AT_TINY_KAPPA, abs=1e-7)
        assert v > 1.0 - 1e-4

    def test_visibility_decreases_with_correlation(self, ref_filter, ref_grid,
                                                   omega0, delta_omega,
                                                   t_self_consistent):
        medium = make_medium(omega0, delta_omega, t_self_consistent)
        vs = [harmonic_visibility(make_jsa(omega0, delta_omega, k),
                                  ref_filter, medium, ref_grid)
              for k in (0.05, 0.14, 0.5, 2.0, 5.0)]
        assert all(a > b for a, b in zip(vs, vs[1:]))

    def test_visibility_decreases_with_dispersion(self, ref_jsa, ref_filter,
                                                  ref_grid, omega0, delta_omega):
        vs = [harmonic_visibility(ref_jsa, ref_filter,
                                  make_medium(omega0, delta_omega, t), ref_grid)
              for t in (0.5, 2.0, 4.0, 7.0, 10.0)]
        assert all(a > b for a, b in zip(vs, vs[1:]))

    def test_fringe_phase_is_twice_the_constant_offset(self, ref_jsa, ref_filter,
                                                       ref_grid, omega0,
                                                       delta_omega):
        medium = make_medium(omega0, delta_omega, T_STAR, phi0=0.122)
        h = fringe_harmonics(ref_jsa, ref_filter, medium, ref_grid)
        assert h.phase == pytest.approx(0.244, abs=1e-12)

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

    def test_asymmetric_flag_keeps_the_harmonics(self, ref_jsa, ref_filter,
                                                 ref_grid, ref_medium):
        # the general harmonics of a symmetric pair flagged asymmetric are
        # its symmetric ones; only the symmetric wrapper refuses the flag
        flagged = JointSpectrum(pump_center=ref_jsa.pump_center,
                                pump_fwhm=ref_jsa.pump_fwhm, symmetric=False)
        h = fringe_harmonics(flagged, ref_filter, ref_medium, ref_grid)
        twin = fringe_harmonics(ref_jsa, ref_filter, ref_medium, ref_grid)
        assert abs(h.offset - twin.offset) / twin.offset < 1e-12
        assert abs(h.amplitude - twin.amplitude) / twin.offset < 1e-12
        assert harmonic_visibility(flagged, ref_filter, ref_medium,
                                   ref_grid) == pytest.approx(V_AT_T_SC, abs=1e-9)
        with pytest.raises(ValueError, match="symmetric"):
            coincidence_probability_symmetric(flagged, ref_filter, ref_medium,
                                              0.3, ref_grid)

    def test_extract_visibility_agrees_with_harmonics(self, ref_jsa, ref_filter,
                                                      ref_medium, ref_grid):
        thetas = np.linspace(0.0, math.pi, 2881)
        curve = simulate_fringe_scan(ref_jsa, ref_filter, ref_medium, thetas,
                                     grid=ref_grid)
        v = extract_visibility(curve)
        assert v == pytest.approx(V_AT_T_SC, abs=2e-5)

    def test_extract_visibility_rejects_sparse_scans(self, ref_jsa, ref_filter,
                                                     ref_medium, ref_grid):
        thetas = np.linspace(0.0, math.pi, 100)
        curve = simulate_fringe_scan(ref_jsa, ref_filter, ref_medium, thetas,
                                     grid=ref_grid)
        with pytest.raises(ValueError, match="sparse"):
            extract_visibility(curve)

    def test_extract_visibility_needs_a_full_period(self, ref_jsa, ref_filter,
                                                    ref_medium, ref_grid):
        thetas = np.linspace(0.0, 0.5 * math.pi / 4.0, 1000)
        curve = simulate_fringe_scan(ref_jsa, ref_filter, ref_medium, thetas,
                                     grid=ref_grid)
        with pytest.raises(ValueError, match="period"):
            extract_visibility(curve)


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
        unchecked = coincidence_probability_general(jsa, ref_filter, medium, 0.3,
                                                    grid, check=False)
        assert np.isfinite(unchecked)
        chirped = chirped_pair(omega0, delta_omega, 5.0, 2.0, 0.3, 0.0)
        for pair in (jsa, chirped):
            with pytest.raises(QuadratureAccuracyError, match="coarse"):
                fringe_harmonics(pair, ref_filter, medium, grid)
            h = fringe_harmonics(pair, ref_filter, medium, grid, check=False)
            assert np.isfinite(h.offset) and np.isfinite(h.visibility)

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

    def test_symmetric_wrapper_matches_general(self, ref_jsa, ref_filter,
                                               ref_medium, ref_grid):
        a = coincidence_probability_symmetric(ref_jsa, ref_filter, ref_medium,
                                              0.7, ref_grid)
        b = coincidence_probability_general(ref_jsa, ref_filter, ref_medium,
                                            0.7, ref_grid)
        assert a == pytest.approx(b, rel=1e-12)


class TestSimulateScan:
    def test_mean_one_normalization(self, ref_jsa, ref_filter, ref_medium,
                                    ref_grid):
        thetas = np.linspace(0.0, math.pi, 100)
        curve = simulate_fringe_scan(ref_jsa, ref_filter, ref_medium, thetas,
                                     normalization="mean-one", grid=ref_grid)
        assert curve.values.mean() == pytest.approx(1.0, abs=1e-12)

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

    def test_symmetric_scan_is_checked_on_its_harmonics(self, ref_filter,
                                                        omega0, delta_omega):
        # at 58 nodes thinning moves Z by ~3e-5 of the flux, and the phase
        # pi/4 turns that shift perpendicular to the fringe at these angles,
        # so P(theta) there moves by ~6e-7: the per-angle checks pass, the
        # scan of a symmetric spectrum refuses as fringe_harmonics does
        jsa = make_jsa(omega0, delta_omega, 3.0)
        medium = make_medium(omega0, delta_omega, 3.0, phi0=math.pi / 4.0)
        grid = FrequencyGrid(center=omega0, nodes_per_axis=58)
        thetas = np.array([0.0, 0.5, 1.0]) * math.pi / 4.0
        for theta in thetas:
            coincidence_probability_general(jsa, ref_filter, medium, theta, grid)
        with pytest.raises(QuadratureAccuracyError, match="coarse"):
            fringe_harmonics(jsa, ref_filter, medium, grid)
        with pytest.raises(QuadratureAccuracyError, match="coarse"):
            simulate_fringe_scan(jsa, ref_filter, medium, thetas, grid=grid)

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
    """simulate_fringe_scan on asymmetric spectra against the per-angle form."""

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

    @pytest.mark.parametrize("nodes", [20, 52])
    def test_refuses_exactly_where_the_per_angle_check_does(
            self, ref_filter, omega0, delta_omega, nodes):
        # at 52 nodes the per-angle check passes at angles 1 to 5 only
        jsa = chirped_pair(omega0, delta_omega, 2.0, 2.0, 0.3, 0.0)
        medium = make_medium(omega0, delta_omega, 3.0, phi0=0.4)
        grid = FrequencyGrid(center=omega0, nodes_per_axis=nodes)
        thetas = np.linspace(0.0, math.pi / 4.0, 9)
        per_angle = [refuses(lambda t=t: coincidence_probability_general(
            jsa, ref_filter, medium, t, grid)) for t in thetas]
        passing = [i for i, msg in enumerate(per_angle) if msg is None]
        assert passing == ([] if nodes == 20 else [1, 2, 3, 4, 5])
        subsets = [[i] for i in range(len(thetas))] + [list(range(len(thetas))),
                                                       passing, passing + [0]]
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


class TestClosedFormQuality:
    def test_frozen_shortfall_at_the_reference_configuration(
            self, ref_jsa, ref_filter, ref_medium, ref_grid, delta_omega,
            t_self_consistent):
        engine = harmonic_visibility(ref_jsa, ref_filter, ref_medium, ref_grid)
        law = analytic_visibility(0.14, t_self_consistent / delta_omega,
                                  delta_omega)
        shortfall = engine / law.visibility - 1.0
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
