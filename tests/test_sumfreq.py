"""Sum-frequency density: closed form vs convolution, Gaussian surrogate, moments.

Frozen reference values below were produced by the independent oracles in this
file's own helpers (dense trapezoid arithmetic on the public curves) and by
high-resolution runs of the same quantities; they pin regressions, not physics.
"""

import functools
import math

import numpy as np
import pytest
from scipy.optimize import least_squares
from scipy.special import roots_legendre

import noonfringe.sumfreq
from noonfringe import (
    DensityCurve,
    F_EXACT_AT_ZERO,
    FilterProfile,
    JointSpectrum,
    NU_SCALE,
    QuadratureAccuracyError,
    TaylorMedium,
    bbo_crystal,
    closed_form_sigma_phi,
    default_nu_grid,
    gaussian_approximation,
    group_delay_slope,
    kl_divergence,
    moment_matched_gaussian,
    phase_distribution_moments,
    sum_frequency_density_exact,
    sum_frequency_density_numeric,
)

LN2 = math.log(2.0)

# Gaussian surrogate of the order-4 self-convolution, on the dimensionless axis.
FIT_FWHM = 1.024152
DIRECT_FWHM = 1.052656
FIT_RMS = 0.008072

# Trapezoid moments of the order-4 self-convolution on the default grid.
VAR_NU = 0.168994560
EXCESS_KURTOSIS_F = -0.405780

# Divergence from the moment-matched Gaussian, order 4, default grid.
KL_FORWARD = 0.00551971
KL_REVERSE = 0.00960167

# Overall exact/numeric scale on the default grid (the exact form is defined
# up to a factor; only constancy is meaningful, this pins the bookkeeping).
RATIO_MEAN = 1.341610762540

# Phase-variance excess over the closed form, kappa -> ratio (trapezoid oracle).
VARIANCE_RATIO = {0.05: 1.008222, 0.14: 1.026023, 1.0: 1.121581, 5.0: 1.139436}

# Moments through a 3 mm beta-BBO crystal at the reference configuration.
BBO_VARIANCE = 15.352015068
BBO_SKEWNESS = -1.664026e-4
BBO_EXCESS_KURTOSIS = 0.010847


def _unfolded_convolution(order, x, inner_nodes=800):
    """The self-convolution on a symmetric Gauss-Legendre rule over one span
    for every abscissa, powers by ``**``: the reference for the trapezoid
    table, which shares neither its rule nor its spans."""
    span = max(3.0, 1.3 * 49.8 ** (1.0 / order))
    s, w = roots_legendre(inner_nodes)
    s, w = s * span, w * span
    with np.errstate(over="ignore"):
        ex = (x[:, None] + s[None, :]) ** order + (x[:, None] - s[None, :]) ** order
    return 0.5 * (np.exp2(-ex) * w[None, :]).sum(axis=1)


@functools.lru_cache(maxsize=None)
def _unfolded_on_the_default_grid(order, inner_nodes=800):
    """_unfolded_convolution on default_nu_grid(), once per (order,
    inner_nodes): the tests that compare several rules with it share it."""
    full = _unfolded_convolution(order, default_nu_grid() / NU_SCALE,
                                 inner_nodes)
    full.flags.writeable = False
    return full


@pytest.fixture(scope="module")
def nu():
    return default_nu_grid()


@pytest.fixture(scope="module")
def curve(ref_filter, nu):
    return sum_frequency_density_numeric(ref_filter, nu)


class TestDensityCurve:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DensityCurve(np.linspace(-4, 4, 9), np.ones(8))

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            DensityCurve(np.linspace(-4, 4, 7), np.ones(7))

    @pytest.mark.parametrize("value", [-0.1, math.nan, math.inf])
    def test_negative_or_non_finite_density_rejected(self, value):
        x = np.linspace(-4, 4, 9)
        rho = np.ones(9)
        rho[4] = value
        with pytest.raises(ValueError, match="finite and nonnegative"):
            DensityCurve(x, rho)

    def test_asymmetric_density_on_symmetric_grid_rejected(self):
        x = np.linspace(-4, 4, 101)
        with pytest.raises(ValueError, match="even"):
            DensityCurve(x, np.exp(-((x - 0.5) ** 2)))

    def test_construction_scales_to_unit_mass(self):
        x = np.linspace(-4, 4, 101)
        rho = 3.7 * np.exp(-(x ** 2))
        c = DensityCurve(x, rho)
        assert np.trapezoid(c.density, c.nu) == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(c.density, rho / np.trapezoid(rho, x))

    def test_zero_curve_rejected(self):
        with pytest.raises(ValueError, match="integrates to 0.0"):
            DensityCurve(np.linspace(-4, 4, 9), np.zeros(9))

    def test_default_grid_must_be_odd_and_big_enough(self):
        assert default_nu_grid(9).size == 9
        with pytest.raises(ValueError):
            default_nu_grid(8)
        with pytest.raises(ValueError):
            default_nu_grid(7)


class TestExactForm:
    def test_peak_value_is_the_analytic_limit(self):
        assert F_EXACT_AT_ZERO == pytest.approx(
            0.5 * math.gamma(0.25) * (2.0 / 9.0) ** 0.25, rel=1e-15)
        assert sum_frequency_density_exact(0.0) == F_EXACT_AT_ZERO

    def test_continuous_at_the_origin(self):
        assert sum_frequency_density_exact(1e-80) == F_EXACT_AT_ZERO
        assert sum_frequency_density_exact(1e-3) == pytest.approx(
            F_EXACT_AT_ZERO, rel=1e-4)

    def test_even(self):
        a = np.linspace(0.0, 4.0, 801)
        assert np.array_equal(sum_frequency_density_exact(a),
                              sum_frequency_density_exact(-a))

    def test_large_argument_is_stable(self):
        v4 = sum_frequency_density_exact(4.0)
        assert np.isfinite(v4) and v4 > 0.0
        assert np.isfinite(sum_frequency_density_exact(50.0))

    def test_ratio_to_numeric_convolution_is_constant(self, curve, nu):
        ratio = sum_frequency_density_exact(nu) / curve.density
        mean = float(np.mean(ratio))
        assert float(np.std(ratio)) / mean < 1e-6
        assert float(np.max(np.abs(ratio / mean - 1.0))) < 1e-6
        assert mean == pytest.approx(RATIO_MEAN, rel=1e-6)


class TestNumericConvolution:
    def test_has_unit_mass(self, curve, nu):
        assert np.trapezoid(curve.density, nu) == pytest.approx(1.0, abs=1e-12)

    def test_grid_must_reach_three_widths(self, ref_filter):
        with pytest.raises(ValueError, match="at least"):
            sum_frequency_density_numeric(ref_filter, np.linspace(-2.5, 2.5, 101))

    def test_nan_abscissa_is_refused(self, ref_filter):
        nu = np.linspace(-4.0, 4.0, 9)
        nu[3] = math.nan
        with pytest.raises(FloatingPointError,
                           match="no finite sum-frequency convolution"):
            sum_frequency_density_numeric(ref_filter, nu)

    def test_unconverged_inner_rule_is_reported(self, ref_filter, nu,
                                                monkeypatch):
        # order 8 needs a second halving; a cap at the first table forbids it
        steep = FilterProfile(center=ref_filter.center, fwhm=ref_filter.fwhm,
                              order=8)
        noonfringe.sumfreq._self_convolution.cache_clear()
        monkeypatch.setattr(noonfringe.sumfreq, "_MAX_INTERVALS",
                            noonfringe.sumfreq._START_INTERVALS)
        with pytest.raises(QuadratureAccuracyError, match="unconverged"):
            sum_frequency_density_numeric(steep, nu)

    def test_order_two_self_convolution_is_gaussian(self, omega0, delta_omega, nu):
        # convolving a Gaussian density with itself doubles the variance:
        # the filter density has var 1/(8 ln2) in filter-width units, so F has
        # 1/(4 ln2), i.e. 1/(4 sqrt(ln2)) on the rescaled axis.
        filt = FilterProfile(center=omega0, fwhm=delta_omega, order=2)
        num = sum_frequency_density_numeric(filt, nu)
        var = 1.0 / (4.0 * math.sqrt(LN2))
        gauss = np.exp(-nu ** 2 / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)
        assert np.abs(num.density - gauss).max() < 1e-9

    def test_repeat_tabulation_is_memoised_and_read_only(self, ref_filter, nu):
        table = noonfringe.sumfreq._self_convolution
        key = (nu / NU_SCALE).tobytes()
        first = table(ref_filter.order, key)
        misses = table.cache_info().misses
        again = table(ref_filter.order, key)
        assert table.cache_info().misses == misses
        assert again is first
        assert not again.flags.writeable
        with pytest.raises(ValueError):
            again[0] = 0.0
        # a public curve holds its own normalized copy of the shared table
        curve = sum_frequency_density_numeric(ref_filter, nu)
        assert table.cache_info().misses == misses
        assert curve.density.flags.writeable
        assert np.array_equal(curve.density, first / np.trapezoid(first, nu))

    @pytest.mark.parametrize("start", [16, 17, 400, 401])
    @pytest.mark.parametrize("order", [2, 4, 6, 8])
    def test_folded_rule_matches_the_full_rule(self, nu, order, start,
                                               monkeypatch):
        # the checked table does not depend on the rule it starts from
        monkeypatch.setattr(noonfringe.sumfreq, "_START_INTERVALS", start)
        x = nu / NU_SCALE
        full = _unfolded_on_the_default_grid(order)
        folded = noonfringe.sumfreq._self_convolution.__wrapped__(
            order, x.tobytes())
        assert np.abs(folded - full).max() <= 1e-14 * full.max()

    @pytest.mark.parametrize("points", [9, 8001])
    @pytest.mark.parametrize("order", [2, 4, 6, 8])
    def test_row_blocks_match_the_full_rule(self, order, points):
        # 9 points is less than one block; 8001 ends in a partial one, as
        # the default 4001-point grid of the test above does
        x = default_nu_grid(points) / NU_SCALE
        full = _unfolded_convolution(order, x)
        blocked = noonfringe.sumfreq._self_convolution.__wrapped__(
            order, x.tobytes())
        assert blocked.shape == full.shape
        assert np.abs(blocked - full).max() <= 1e-14 * full.max()

    @pytest.mark.parametrize("tail_bits", [60, 6000])
    @pytest.mark.parametrize("order", [4, 6, 8])
    def test_far_tails_are_accurate_to_their_own_size(self, order, tail_bits,
                                                      monkeypatch):
        # a dense trapezoid rule over one span for every abscissa: F's far
        # tails, many decades below its peak, must match it value by value,
        # as the order-4 exact/numeric ratio does over the whole grid; spans
        # wider than the integrand needs cost nodes, not accuracy
        monkeypatch.setattr(noonfringe.sumfreq, "_TAIL_BITS", tail_bits)
        x = default_nu_grid(101) / NU_SCALE
        span = max(3.0, 1.3 * 49.8 ** (1.0 / order))
        s = np.linspace(0.0, span, 2 ** 15 + 1)
        w = np.full(s.size, span / 2 ** 15)
        w[0] = w[-1] = 0.5 * w[0]
        with np.errstate(over="ignore"):
            ex = (x[:, None] + s) ** order + (x[:, None] - s) ** order
        dense = np.exp2(-ex) @ w
        table = noonfringe.sumfreq._self_convolution.__wrapped__(
            order, x.tobytes())
        live = dense > 1e-290
        assert dense[live].min() < 1e-200 * dense.max()
        assert np.abs(table[live] / dense[live] - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("order,nodes", [(4, 33), (8, 129), (28, 257)])
    def test_rule_stops_at_the_recorded_node_count(self, nu, order, nodes,
                                                   monkeypatch):
        # the spans follow the integrand, so no abscissa drives the rule
        # past the node counts of the recorded sweep; a rule whose first
        # halving fails is accepted once two successive halvings pass
        evaluated = []
        node_sum = noonfringe.sumfreq._node_sum

        def counting(order, x, b, t, w):
            evaluated.append(t.size)
            return node_sum(order, x, b, t, w)

        monkeypatch.setattr(noonfringe.sumfreq, "_node_sum", counting)
        noonfringe.sumfreq._self_convolution.__wrapped__(
            order, (nu / NU_SCALE).tobytes())
        assert sum(evaluated) == nodes

    @pytest.mark.parametrize("inner_nodes", [400, 800])
    def test_order_six_underflows_where_the_full_rule_does(self, nu,
                                                           inner_nodes):
        x = nu / NU_SCALE
        full = _unfolded_on_the_default_grid(6, inner_nodes)
        folded = noonfringe.sumfreq._self_convolution.__wrapped__(
            6, x.tobytes())
        assert np.count_nonzero(full == 0) == 1402
        assert np.array_equal(folded == 0, full == 0)

    def test_order_four_moments(self, curve, nu):
        var = float(np.trapezoid(nu ** 2 * curve.density, nu))
        m4 = float(np.trapezoid(nu ** 4 * curve.density, nu))
        assert var == pytest.approx(VAR_NU, abs=1e-7)
        assert m4 / var ** 2 - 3.0 == pytest.approx(EXCESS_KURTOSIS_F, abs=1e-5)


class TestGaussianApproximation:
    def test_recovers_an_exact_gaussian(self, nu):
        sigma = 0.37
        rho = np.exp(-0.5 * (nu / sigma) ** 2)
        fit = gaussian_approximation(DensityCurve(nu, rho))
        assert fit.fwhm == pytest.approx(sigma * math.sqrt(8.0 * LN2), rel=1e-9)
        assert fit.center == pytest.approx(0.0, abs=1e-12)
        assert fit.rms_residual < 1e-12
        assert fit.direct_fwhm == pytest.approx(sigma * math.sqrt(8.0 * LN2), rel=1e-4)

    def test_order_four_fit_is_within_a_few_percent_of_unit_width(self, curve):
        fit = gaussian_approximation(curve)
        assert fit.fwhm == pytest.approx(FIT_FWHM, abs=2e-5)
        assert fit.direct_fwhm == pytest.approx(DIRECT_FWHM, abs=2e-5)
        assert fit.rms_residual == pytest.approx(FIT_RMS, abs=2e-5)
        assert abs(fit.center) < 1e-9
        # the headline statement: the surrogate width matches the curve's
        # natural unit to better than 3 percent
        assert abs(fit.fwhm - 1.0) < 0.03

    @pytest.mark.parametrize("points", [4001, 8001])
    @pytest.mark.parametrize("order", [2, 4, 6, 8])
    def test_is_the_least_squares_minimum(self, omega0, delta_omega, order,
                                          points):
        grid = default_nu_grid(points)
        filt = FilterProfile(center=omega0, fwhm=delta_omega, order=order)
        curve = sum_frequency_density_numeric(filt, grid)
        fit = gaussian_approximation(curve)
        f = curve.density

        # reference: MINPACK Levenberg-Marquardt, tolerances at rounding level
        mean = float(np.trapezoid(grid * f, grid))
        var = float(np.trapezoid((grid - mean) ** 2 * f, grid))
        ref = least_squares(
            lambda p: p[0] * np.exp(-0.5 * ((grid - p[1]) / p[2]) ** 2) - f,
            [f.max(), mean, math.sqrt(var)], method="lm",
            xtol=1e-15, ftol=1e-15, gtol=1e-15)
        ref_fwhm = abs(ref.x[2]) * math.sqrt(8.0 * LN2)
        ref_rms = math.sqrt(np.mean(ref.fun ** 2))
        assert fit.fwhm == pytest.approx(ref_fwhm, rel=1e-8)
        assert fit.rms_residual == pytest.approx(ref_rms, rel=1e-10, abs=1e-15)

        # first-order optimality at the reported centre and width, with the
        # amplitude that minimizes the residual there
        s = fit.fwhm / math.sqrt(8.0 * LN2)
        z = (grid - fit.center) / s
        g = np.exp(-0.5 * z * z)
        a = float(g @ f) / float(g @ g)
        r = a * g - f
        jac = np.column_stack([g, a * g * z / s, a * g * z * z / s])
        if order == 2:
            # F is itself Gaussian: the residual is rounding and has no
            # direction left to be orthogonal to
            assert fit.rms_residual < 1e-15
        else:
            assert (np.linalg.norm(jac.T @ r)
                    <= 1e-10 * np.linalg.norm(jac) * np.linalg.norm(r))

    def test_rejects_bimodal_curves(self, nu):
        rho = np.exp(-0.5 * ((nu - 1.5) / 0.3) ** 2) + np.exp(-0.5 * ((nu + 1.5) / 0.3) ** 2)
        bimodal = DensityCurve(nu, rho)
        with pytest.raises(ValueError, match="unimodal"):
            gaussian_approximation(bimodal)

    def test_rejects_a_curve_above_half_maximum_at_the_grid_ends(self, nu):
        # a Gaussian of FWHM ~12 on the grid's +-4 has no half-maximum point
        rho = np.exp(-0.5 * (nu / 5.0) ** 2)
        with pytest.raises(ValueError, match="half maximum"):
            gaussian_approximation(DensityCurve(nu, rho))

    def test_moment_matched_gaussian_preserves_variance(self, curve, nu):
        g = moment_matched_gaussian(curve)
        assert np.trapezoid(g.density, nu) == pytest.approx(1.0, abs=1e-12)
        var_f = np.trapezoid(nu ** 2 * curve.density, nu)
        var_g = np.trapezoid(nu ** 2 * g.density, nu)
        assert var_g == pytest.approx(var_f, rel=1e-9)

    def test_moment_matching_minimizes_forward_divergence(self, curve, nu):
        best = kl_divergence(curve, moment_matched_gaussian(curve)).forward
        var = float(np.trapezoid(nu ** 2 * curve.density, nu))
        for scale in (0.95, 1.05):
            g = np.exp(-0.5 * nu ** 2 / (scale * var))
            other = DensityCurve(nu, g)
            assert kl_divergence(curve, other).forward > best


class TestKLDivergence:
    def test_identical_curves_have_zero_divergence(self, curve):
        kl = kl_divergence(curve, curve)
        assert kl.forward == 0.0
        assert kl.reverse == 0.0

    def test_frozen_value_against_the_gaussian_surrogate(self, curve):
        kl = kl_divergence(curve, moment_matched_gaussian(curve))
        assert kl.forward == pytest.approx(KL_FORWARD, abs=1e-6)
        assert kl.reverse == pytest.approx(KL_REVERSE, abs=1e-6)
        # both directions sit in the few-times-1e-3 band
        assert 0.0051 < kl.forward < 0.0081 or 0.0051 < kl.reverse < 0.0081

    def test_stable_under_grid_doubling(self, ref_filter, curve):
        fine_nu = default_nu_grid(8001)
        fine = sum_frequency_density_numeric(ref_filter, fine_nu)
        coarse = kl_divergence(curve, moment_matched_gaussian(curve))
        refined = kl_divergence(fine, moment_matched_gaussian(fine))
        assert abs(refined.forward - coarse.forward) < 1e-4
        assert abs(refined.reverse - coarse.reverse) < 1e-4

    def test_divergence_grows_with_filter_order(self, omega0, delta_omega, nu):
        def forward(p, q):
            live = p.density > 0
            term = np.where(live, p.density * np.log(
                np.where(live, p.density / q.density, 1.0)), 0.0)
            return float(np.trapezoid(term, nu))

        values = []
        for order in (2, 4, 6):
            filt = FilterProfile(center=omega0, fwhm=delta_omega, order=order)
            f = sum_frequency_density_numeric(filt, nu)
            values.append(forward(f, moment_matched_gaussian(f)))
        assert values[0] < values[1] < values[2]
        # the helper agrees with the library on the order-4 case
        filt4 = FilterProfile(center=omega0, fwhm=delta_omega, order=4)
        f4 = sum_frequency_density_numeric(filt4, nu)
        assert values[1] == pytest.approx(
            kl_divergence(f4, moment_matched_gaussian(f4)).forward, abs=1e-12)

    def test_support_violation_is_an_error(self, omega0, delta_omega, nu):
        # an order-6 convolution underflows to exact zero inside the grid, so
        # the reverse direction (Gaussian against it) is undefined
        filt = FilterProfile(center=omega0, fwhm=delta_omega, order=6)
        f = sum_frequency_density_numeric(filt, nu)
        assert np.any(f.density == 0.0)
        with pytest.raises(ValueError, match="support"):
            kl_divergence(f, moment_matched_gaussian(f))

    def test_requires_a_common_grid(self, ref_filter, curve):
        other = sum_frequency_density_numeric(ref_filter, default_nu_grid(4003))
        with pytest.raises(ValueError, match="grid"):
            kl_divergence(curve, other)


class TestPhaseMoments:
    def test_zero_dispersion_means_zero_moments(self, ref_jsa, ref_filter, omega0):
        flat = TaylorMedium(reference=omega0, phi0=0.4, phi_prime=0.0,
                            phi_double_prime=0.0)
        m = phase_distribution_moments(ref_jsa, ref_filter, flat)
        assert m.variance == 0.0
        assert m.skewness == 0.0
        assert m.excess_kurtosis == 0.0

    def test_variance_factorizes_for_linear_dispersion(self, ref_jsa, ref_filter,
                                                       ref_medium, delta_omega, nu):
        # for a linear medium the fringe phase is an affine map of the sum
        # frequency, so Var(phase) = phi'^2 * Var(omega_p) exactly; rebuild
        # the right-hand side from the public density and the pump weight
        m = phase_distribution_moments(ref_jsa, ref_filter, ref_medium)
        f = sum_frequency_density_numeric(ref_filter, nu)
        x = nu / NU_SCALE
        omega_p = 2.0 * ref_filter.center + x * ref_filter.fwhm
        pump = np.exp2(-4.0 * (omega_p - ref_jsa.pump_center) ** 2
                       / ref_jsa.pump_fwhm ** 2)
        w = pump * f.density
        w /= np.trapezoid(w, x)
        var_x = float(np.trapezoid(x ** 2 * w, x))
        expected = ref_medium.phi_prime ** 2 * delta_omega ** 2 * var_x
        assert m.variance == pytest.approx(expected, rel=1e-9)

    def test_linear_dispersion_has_no_skew(self, ref_jsa, ref_filter, ref_medium):
        m = phase_distribution_moments(ref_jsa, ref_filter, ref_medium)
        assert abs(m.skewness) < 1e-9

    def test_constant_phase_offset_changes_nothing(self, ref_jsa, ref_filter,
                                                   ref_medium, omega0):
        shifted = TaylorMedium(reference=omega0, phi0=0.122,
                               phi_prime=ref_medium.phi_prime,
                               phi_double_prime=0.0)
        a = phase_distribution_moments(ref_jsa, ref_filter, ref_medium)
        b = phase_distribution_moments(ref_jsa, ref_filter, shifted)
        assert b.variance == pytest.approx(a.variance, rel=1e-12)
        assert b.excess_kurtosis == pytest.approx(a.excess_kurtosis, rel=1e-9)

    @pytest.mark.parametrize("kappa", sorted(VARIANCE_RATIO))
    def test_variance_exceeds_the_closed_form_by_the_frozen_ratio(
            self, kappa, omega0, delta_omega, ref_filter, t_self_consistent):
        phi_prime = t_self_consistent / delta_omega
        jsa = JointSpectrum(pump_center=2.0 * omega0,
                            pump_fwhm=math.sqrt(kappa) * delta_omega)
        medium = TaylorMedium(reference=omega0, phi0=0.0, phi_prime=phi_prime,
                              phi_double_prime=0.0)
        m = phase_distribution_moments(jsa, ref_filter, medium)
        ratio = m.variance / closed_form_sigma_phi(kappa, phi_prime, delta_omega)
        assert ratio == pytest.approx(VARIANCE_RATIO[kappa], abs=1e-5)
        assert ratio > 1.0

    @pytest.mark.parametrize("kappa", [1e-20, 1e-40, 1e-200])
    @pytest.mark.parametrize("pump_x", [0.0, 0.05, -0.3])
    def test_a_pump_far_below_the_float_spacing_of_omega_p_resolves(
            self, ref_filter, ref_medium, delta_omega, kappa, pump_x):
        # a pump thousands of ulp of omega_p wide (kappa 1e-20) or far
        # narrower, centred on twice the filter center or off it: the
        # variance is the pump Gaussian's, kappa*fwhm^2/(8 ln 2), to the
        # relative order kappa of F's curvature
        jsa = JointSpectrum(
            pump_center=2.0 * ref_filter.center + pump_x * delta_omega,
            pump_fwhm=math.sqrt(kappa) * delta_omega)
        m = phase_distribution_moments(jsa, ref_filter, ref_medium)
        expected = (ref_medium.phi_prime * delta_omega) ** 2 * kappa / (8.0 * LN2)
        assert m.variance == pytest.approx(expected, rel=1e-12)
        assert abs(m.skewness) < 1e-12
        assert abs(m.excess_kurtosis) < 1e-12

    def test_reference_configuration_kurtosis(self, ref_jsa, ref_filter, ref_medium):
        m = phase_distribution_moments(ref_jsa, ref_filter, ref_medium)
        assert m.excess_kurtosis == pytest.approx(0.0108465, abs=2e-5)

    def test_crystal_dispersion_moments(self, ref_jsa, ref_filter):
        # full Sellmeier phase: the slight curvature shows up as a tiny skew
        m = phase_distribution_moments(ref_jsa, ref_filter, bbo_crystal(0.003))
        assert m.variance == pytest.approx(BBO_VARIANCE, rel=1e-6)
        assert m.skewness == pytest.approx(BBO_SKEWNESS, rel=1e-3)
        assert m.excess_kurtosis == pytest.approx(BBO_EXCESS_KURTOSIS, abs=1e-4)

    @pytest.mark.parametrize("kappa,expected", [
        (1e-10, 1.0), (1e-20, QuadratureAccuracyError), (1e-30, 0.0)])
    def test_a_crystal_under_a_narrow_pump(self, ref_filter, delta_omega,
                                           kappa, expected):
        # a Sellmeier phase, ~3e3 rad here, is taken at absolute
        # frequencies: under a pump of ~2e3 rad/s (kappa 1e-20) its rounding
        # moves the variance on the doubled grid, which refuses it; at ~0.02
        # rad/s (1e-30), below the float spacing of omega_p/2 (0.5 rad/s),
        # every frequency is one float, so the phase is flat, its moments 0
        crystal = bbo_crystal(0.003)
        jsa = JointSpectrum(pump_center=2.0 * ref_filter.center,
                            pump_fwhm=math.sqrt(kappa) * delta_omega)
        if expected is QuadratureAccuracyError:
            with pytest.raises(expected, match="phase variance unconverged"):
                phase_distribution_moments(jsa, ref_filter, crystal)
            return
        m = phase_distribution_moments(jsa, ref_filter, crystal)
        pump_variance = kappa * delta_omega ** 2 / (8.0 * LN2)
        slope = group_delay_slope(crystal, ref_filter.center)
        assert m.variance / (slope ** 2 * pump_variance) == pytest.approx(
            expected, abs=1e-8)

    @pytest.mark.parametrize("pump_fwhm,pump_offset", [
        (1e-300, 0.0),       # the width's square underflows: 0/0 at the center
        (None, 1e3),         # the pump lies a thousand filter widths away
    ], ids=["underflowing-width", "pump-off-the-filters"])
    def test_no_sum_frequency_density_names_the_pump_width(
            self, ref_jsa, ref_filter, ref_medium, delta_omega, pump_fwhm,
            pump_offset):
        width = ref_jsa.pump_fwhm if pump_fwhm is None else pump_fwhm
        jsa = JointSpectrum(
            pump_center=ref_jsa.pump_center + pump_offset * delta_omega,
            pump_fwhm=width)
        with pytest.raises(FloatingPointError, match=f"pump of width {width!r}"):
            phase_distribution_moments(jsa, ref_filter, ref_medium)

    def test_overflowing_phase_is_refused(self, ref_jsa, ref_filter, omega0,
                                          delta_omega):
        steep = TaylorMedium(reference=omega0, phi_prime=1e300 / delta_omega)
        with pytest.raises(FloatingPointError, match="not finite"):
            phase_distribution_moments(ref_jsa, ref_filter, steep)

    def test_unconverged_moment_grid_is_reported(self, ref_jsa, ref_filter,
                                                 ref_medium, monkeypatch):
        # doubling the grid leaves the variance as it is here; a negative
        # tolerance refuses even exact agreement
        monkeypatch.setattr(noonfringe.sumfreq, "_MOMENT_TOL", -1.0)
        with pytest.raises(QuadratureAccuracyError,
                           match="phase variance unconverged") as info:
            phase_distribution_moments(ref_jsa, ref_filter, ref_medium)
        assert "4001 vs 8001 nodes" in str(info.value)
