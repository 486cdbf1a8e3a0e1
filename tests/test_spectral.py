import math

import numpy as np
import pytest

from noonfringe import (BBO_EXTRAORDINARY, BBO_ORDINARY, FilterProfile,
                        FrequencyGrid, JointSpectrum, TaylorMedium,
                        bbo_crystal, filter_transmission, group_delay_slope,
                        jsa_amplitude, medium_phase, wavelength_nm_to_angular)
from noonfringe.spectral import (DispersionWindowError, SellmeierMedium,
                                 _even_power)

C = 299792458.0


# --------------------------------------------------------------------------
# quadrature grid
# --------------------------------------------------------------------------

class TestFrequencyGrid:
    def test_trapezoid_rule_converges_on_a_filter_shaped_integrand(self,
                                                                   omega0):
        grid = FrequencyGrid(center=omega0)
        x, w = grid.axis(scale=1.0)
        assert np.sum(w) == pytest.approx(8.0, rel=1e-14)
        assert np.all(np.diff(x) > 0) and w[0] == w[-1] == 0.5 * w[1]

        def integral(n):
            x, w = grid.axis(scale=1.0, n=n)
            return np.sum(w * np.exp2(-(2.0 * x) ** 4))
        # smooth and ~1e-70 at the window edges: the error falls
        # geometrically and 96 nodes reach the 4097-node value to rounding
        reference = integral(4097)
        assert integral(64) == pytest.approx(reference, rel=1e-9)
        assert integral(96) == pytest.approx(reference, rel=1e-14)

    def test_trapezoid_scheme(self, omega0):
        grid = FrequencyGrid(center=omega0, nodes_per_axis=1001)
        x, w = grid.axis(scale=1.0)
        assert np.sum(w) == pytest.approx(8.0, rel=1e-12)
        # limited by the Gaussian tail beyond +-4, not by the rule itself
        assert np.sum(w * np.exp(-x ** 2)) == pytest.approx(math.sqrt(math.pi),
                                                            abs=5e-8)

    def test_node_override(self, omega0):
        grid = FrequencyGrid(center=omega0)
        x, _ = grid.axis(scale=1.0, n=37)
        assert x.size == 37

    @pytest.mark.parametrize("kwargs", [
        dict(nodes_per_axis=8),
    ])
    def test_invalid_construction(self, omega0, kwargs):
        with pytest.raises(ValueError):
            FrequencyGrid(center=omega0, **kwargs)


# --------------------------------------------------------------------------
# filters
# --------------------------------------------------------------------------

class TestFilter:
    def test_half_maximum_at_half_width(self, ref_filter):
        # the width parameter is the FWHM for every order
        assert filter_transmission(ref_filter, ref_filter.center) == 1.0
        for sign in (+1, -1):
            edge = ref_filter.center + sign * ref_filter.fwhm / 2
            assert filter_transmission(ref_filter, edge) == pytest.approx(0.5,
                                                                          rel=1e-14)

    def test_order_two_is_gaussian(self, omega0, delta_omega):
        filt = FilterProfile(center=omega0, fwhm=delta_omega, order=2)
        x = np.linspace(-2, 2, 9) * delta_omega
        got = filter_transmission(filt, omega0 + x)
        expected = np.exp(-4.0 * math.log(2.0) * (x / delta_omega) ** 2)
        assert np.max(np.abs(got - expected)) < 1e-14

    def test_scalar_and_array(self, ref_filter):
        scalar = filter_transmission(ref_filter, ref_filter.center)
        assert isinstance(scalar, float)
        arr = filter_transmission(ref_filter, np.full(3, ref_filter.center))
        assert arr.shape == (3,)

    @pytest.mark.parametrize("order", [0, 3, -2])
    def test_order_must_be_positive_even(self, omega0, delta_omega, order):
        with pytest.raises(ValueError):
            FilterProfile(center=omega0, fwhm=delta_omega, order=order)

    @pytest.mark.parametrize("order", [2, 4, 6, 8])
    def test_matches_the_pow_form_on_a_mesh(self, omega0, delta_omega, order):
        filt = FilterProfile(center=omega0, fwhm=delta_omega, order=order)
        # the rotated mesh the engine integrates over, out to 4 filter widths
        d = np.linspace(-4.0, 4.0, 257) * delta_omega
        omega = omega0 + d[:, None] + 0.37 * d[None, :]
        x = 2.0 * (omega - omega0) / delta_omega
        expected = np.exp2(-(x ** order))
        got = filter_transmission(filt, omega)
        assert got.shape == omega.shape
        # relative to the peak transmission, which is 1
        assert np.abs(got - expected).max() <= 1e-14 * expected.max()
        assert np.array_equal(got == 0, expected == 0)


class TestEvenPower:
    # any multiplication chain for a**n errs by at most ~(n - 1)/2 eps relative
    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_pow_to_a_few_ulp(self, n):
        a = np.random.default_rng(n).uniform(-5.0, 5.0, 4001)
        a = np.concatenate([a, [0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 1e-3, -7.25]])
        got = _even_power(a, n)
        np.testing.assert_array_max_ulp(got, a ** n, maxulp=n)
        assert np.array_equal(np.signbit(got), np.signbit(a ** n))

    @pytest.mark.parametrize("n", range(2, 13))
    def test_overflow_gives_the_same_infinity(self, n):
        a = np.array([1e160, -1e160, 1e300, -1e300])
        with np.errstate(over="ignore"):
            got, expected = _even_power(a, n), a ** n
        assert np.all(np.isinf(expected))
        assert np.array_equal(got, expected)


# --------------------------------------------------------------------------
# joint spectrum
# --------------------------------------------------------------------------

class TestJointSpectrum:
    def test_pump_width_is_density_fwhm(self, ref_jsa):
        center = ref_jsa.pump_center
        shift = ref_jsa.pump_fwhm / 2
        peak = abs(jsa_amplitude(ref_jsa, center / 2, center / 2)) ** 2
        half = abs(jsa_amplitude(ref_jsa, center / 2 + shift, center / 2)) ** 2
        assert half / peak == pytest.approx(0.5, rel=1e-12)

    def test_depends_on_sum_frequency_only_when_unmatched(self, ref_jsa,
                                                          delta_omega):
        w = ref_jsa.pump_center / 2
        a = jsa_amplitude(ref_jsa, w + delta_omega, w - delta_omega)
        b = jsa_amplitude(ref_jsa, w, w)
        assert a == pytest.approx(b, rel=1e-12)

    def test_phasematch_envelope_narrows_difference_axis(self, omega0,
                                                         delta_omega):
        jsa = JointSpectrum(pump_center=2 * omega0, pump_fwhm=delta_omega,
                            phasematch_fwhm=delta_omega)
        on = abs(jsa_amplitude(jsa, omega0, omega0))
        off = abs(jsa_amplitude(jsa, omega0 + delta_omega,
                                omega0 - delta_omega))
        assert off < on

    def test_spectral_phase_requires_asymmetric(self, omega0, delta_omega):
        with pytest.raises(ValueError):
            JointSpectrum(pump_center=2 * omega0, pump_fwhm=delta_omega,
                          spectral_phase=lambda a, b: a - b)

    def test_asymmetric_amplitude_swaps(self, omega0, delta_omega):
        jsa = JointSpectrum(pump_center=2 * omega0, pump_fwhm=delta_omega,
                            symmetric=False,
                            spectral_phase=lambda a, b: (a - b) / delta_omega)
        w1, w2 = omega0 + delta_omega, omega0 - delta_omega
        a12 = jsa_amplitude(jsa, w1, w2)
        a21 = jsa_amplitude(jsa, w2, w1)
        assert a12 == pytest.approx(np.conj(a21), rel=1e-12)
        assert abs(a12.imag) > 0

    @pytest.mark.parametrize("shape", [(), (3, 4)])
    def test_complex_spectral_phase_is_refused(self, omega0, delta_omega,
                                               shape):
        # an imaginary part would change |amplitude|, and |a12| and |a21|
        # apart; the phase must be real
        jsa = JointSpectrum(pump_center=2 * omega0, pump_fwhm=delta_omega,
                            symmetric=False,
                            spectral_phase=lambda a, b: (a - b) / delta_omega
                            + 0.2j)
        w = np.full(shape, omega0)
        with pytest.raises(ValueError, match="spectral_phase"):
            jsa_amplitude(jsa, w + delta_omega, w - delta_omega)


# --------------------------------------------------------------------------
# dispersive media
# --------------------------------------------------------------------------

class TestTaylorMedium:
    def test_phase_is_the_stated_polynomial(self, omega0):
        medium = TaylorMedium(reference=omega0, phi0=0.3, phi_prime=2e-13,
                              phi_double_prime=5e-28)
        d = 3e12
        expected = 0.3 + 2e-13 * d + 0.5 * 5e-28 * d * d
        assert medium_phase(medium, omega0 + d) == pytest.approx(expected,
                                                                 rel=1e-14)

    def test_slope_is_the_derivative_of_the_polynomial(self, omega0):
        medium = TaylorMedium(reference=omega0, phi0=0.3, phi_prime=2e-13,
                              phi_double_prime=5e-28)
        slope = group_delay_slope(medium, omega0 + 1e13)
        assert slope == pytest.approx(2e-13 + 5e-28 * 1e13, rel=1e-14)


class TestSellmeier:
    def test_published_indices_at_810nm(self):
        # direct evaluation of n^2 = a + b/(lam^2 - c) - d lam^2, lam in um
        lam2 = 0.810 ** 2
        a, b, c, d = (BBO_ORDINARY.a, BBO_ORDINARY.b, BBO_ORDINARY.c,
                      BBO_ORDINARY.d)
        n_o = math.sqrt(a + b / (lam2 - c) - d * lam2)
        assert BBO_ORDINARY.index(0.810) == pytest.approx(n_o, rel=1e-15)
        assert BBO_ORDINARY.index(0.810) == pytest.approx(1.661072, abs=1e-6)
        assert BBO_EXTRAORDINARY.index(0.810) == pytest.approx(1.545994,
                                                               abs=1e-6)

    def test_index_slope_matches_finite_difference(self):
        h = 1e-6
        for coeffs in (BBO_ORDINARY, BBO_EXTRAORDINARY):
            fd = (coeffs.index(0.810 + h) - coeffs.index(0.810 - h)) / (2 * h)
            assert coeffs.index_dlam(0.810) == pytest.approx(fd, rel=1e-6)

    def test_group_index_definition(self):
        lam = 0.810
        expected = (BBO_ORDINARY.index(lam)
                    - lam * BBO_ORDINARY.index_dlam(lam))
        assert BBO_ORDINARY.group_index(lam) == pytest.approx(expected,
                                                              rel=1e-15)

    def test_birefringent_phase_at_center(self, omega0):
        # Delta n * omega * L / c for a 3 mm crystal
        crystal = bbo_crystal(0.003)
        dn = (BBO_EXTRAORDINARY.index(0.810) - BBO_ORDINARY.index(0.810))
        expected = dn * omega0 * 0.003 / C
        got = medium_phase(crystal, omega0)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(-2677.995360, abs=1e-5)

    def test_linearized_slope_is_group_delay_difference(self, omega0):
        crystal = bbo_crystal(0.003)
        slope = group_delay_slope(crystal, omega0)
        dng = (BBO_EXTRAORDINARY.group_index(0.810)
               - BBO_ORDINARY.group_index(0.810))
        assert slope == pytest.approx(dng * 0.003 / C, rel=1e-12)
        assert slope == pytest.approx(-1.2402148056e-12, rel=1e-9)
        # independent check: finite difference of the full phase
        h = 1e9
        fd = (medium_phase(crystal, omega0 + h)
              - medium_phase(crystal, omega0 - h)) / (2 * h)
        assert slope == pytest.approx(fd, rel=1e-6)

    def test_zero_length_crystal_is_transparent(self, omega0):
        crystal = bbo_crystal(0.0)
        assert medium_phase(crystal, omega0) == 0.0
        assert group_delay_slope(crystal, omega0) == 0.0
        # a zero length has no window to leave
        assert group_delay_slope(crystal, wavelength_nm_to_angular(500.0)) == 0.0

    def test_wavelength_window_enforced(self):
        crystal = bbo_crystal(0.003)
        omega = wavelength_nm_to_angular(500.0)
        with pytest.raises(DispersionWindowError):
            medium_phase(crystal, omega)
        with pytest.raises(DispersionWindowError, match="500.0 nm"):
            group_delay_slope(crystal, omega)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            bbo_crystal(-0.001)


def test_medium_phase_accepts_arrays(omega0):
    crystal = bbo_crystal(0.003)
    omegas = omega0 + np.linspace(-1, 1, 5) * 1e13
    phases = medium_phase(crystal, omegas)
    assert phases.shape == (5,)
    assert np.all(np.isfinite(phases))
