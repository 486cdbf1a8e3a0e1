"""Fringe fitting and the visibility -> correlation-bound inversion.

All synthetic fringes here are built directly from the fit model
offset*(1 + v*cos(m*theta + phi0)), so the fit layer is tested in isolation
from the interference engine.
"""

import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

import noonfringe
import noonfringe.analysis
from noonfringe import (
    BootstrapResult,
    CorrelationEstimate,
    FitResult,
    FringeScan,
    InfeasibleVisibilityError,
    bootstrap_kappa_uncertainty,
    closed_form_sigma_phi,
    fit_fringe,
    kappa_from_visibility,
    self_consistent_calibration,
    sigma_phi_from_visibility,
)
from noonfringe.analysis import (_LOWER, _UPPER, _fit_stack, _project,
                                 _residuals_and_jacobian, _start_points,
                                 _weights)
from noonfringe.cli import read_fringe_csv

LN2 = math.log(2.0)

DATA_DIR = os.path.join(os.path.dirname(noonfringe.__file__), "data")

THETAS = np.linspace(0.0, math.pi, 100)

# dimensionless dispersion strength that makes (v=0.568, kappa=0.14) exact
T_SELF_CONSISTENT = 7.147083062419402
# -2 ln(0.568)
SIGMA_PHI_SQ_REF = 1.1312677205219717


def model_counts(offset=1000.0, v=0.568, phase=0.244, m=8.0, thetas=THETAS):
    return offset * (1.0 + v * np.cos(m * thetas + phase))


@pytest.fixture(scope="module")
def calibration(delta_omega):
    return T_SELF_CONSISTENT / delta_omega


class TestFringeScan:
    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="8"):
            FringeScan(np.linspace(0, 1, 7), np.ones(7))

    def test_short_span_rejected(self):
        with pytest.raises(ValueError, match="period"):
            FringeScan(np.linspace(0, math.pi / 5, 20), np.ones(20))

    def test_negative_counts_rejected(self):
        counts = np.ones(20)
        counts[3] = -1.0
        with pytest.raises(ValueError, match="nonnegative"):
            FringeScan(np.linspace(0, 1, 20), counts)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="matching"):
            FringeScan(np.linspace(0, 1, 20), np.ones(19))

    @pytest.mark.parametrize("field", ["thetas", "counts"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_names_the_field(self, field, bad):
        arrays = {"thetas": np.linspace(0, 1, 20), "counts": np.ones(20)}
        arrays[field][5] = bad
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            FringeScan(**arrays)


class TestFitResult:
    def make(self, **kw):
        args = dict(offset=1000.0, visibility=0.5, phase0=0.3, harmonic=8.0,
                    covariance=np.eye(4), residual_rms=1.0)
        args.update(kw)
        return FitResult(**args)

    def test_stderr_indexing(self):
        r = self.make(covariance=np.diag([4.0, 9.0, 16.0, 25.0]))
        assert r.stderr("offset") == 2.0
        assert r.stderr("visibility") == 3.0
        assert r.stderr("phase0") == 4.0
        assert r.stderr("harmonic") == 5.0
        with pytest.raises(KeyError):
            r.stderr("period")

    def test_model_evaluates_the_fitted_fringe(self):
        r = self.make()
        th = np.array([0.0, 0.1])
        expected = 1000.0 * (1.0 + 0.5 * np.cos(8.0 * th + 0.3))
        assert np.allclose(r.model(th), expected, rtol=1e-15)

    def test_visibility_range_enforced(self):
        with pytest.raises(ValueError, match="visibility"):
            self.make(visibility=1.2)

    def test_phase_range_enforced(self):
        with pytest.raises(ValueError, match="phase0"):
            self.make(phase0=-0.1)
        with pytest.raises(ValueError, match="phase0"):
            self.make(phase0=2.0 * math.pi)

    def test_covariance_must_be_symmetric_4x4(self):
        bad = np.eye(4)
        bad[0, 1] = 0.5
        with pytest.raises(ValueError, match="symmetric"):
            self.make(covariance=bad)
        with pytest.raises(ValueError, match="symmetric"):
            self.make(covariance=np.eye(3))

    @pytest.mark.parametrize("variance,degenerate", [(0.04, True),
                                                     (1e-4, False)])
    def test_degenerate_within_three_standard_errors(self, variance,
                                                      degenerate):
        # a numpy visibility still gives a bool that json.dumps accepts
        r = self.make(visibility=np.float64(0.5),
                      covariance=np.diag([1.0, variance, 1.0, 1.0]))
        assert r.degenerate is degenerate
        assert json.dumps(r.degenerate) == json.dumps(degenerate)

    def test_covariance_must_be_positive_semidefinite(self):
        bad = np.eye(4)
        bad[0, 1] = bad[1, 0] = 2.0     # eigenvalue -1
        with pytest.raises(ValueError, match="semidefinite"):
            self.make(covariance=bad)


class TestCorrelationEstimate:
    def test_bound_kind_is_fixed(self):
        assert CorrelationEstimate.bound_kind == "lower bound"
        with pytest.raises(TypeError, match="bound_kind"):
            CorrelationEstimate(kappa_bar=0.1, sigma_phi_sq=1.0,
                                bound_kind="upper bound")

    def test_negative_kappa_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            CorrelationEstimate(kappa_bar=-0.1, sigma_phi_sq=1.0)


class TestFitFringe:
    def test_noiseless_recovery_is_exact(self):
        fit = fit_fringe(FringeScan(THETAS, model_counts()))
        assert fit.visibility == pytest.approx(0.568, abs=1e-9)
        assert fit.phase0 == pytest.approx(0.244, abs=1e-9)
        assert fit.harmonic == pytest.approx(8.0, abs=1e-9)
        assert fit.offset == pytest.approx(1000.0, rel=1e-9)
        assert fit.residual_rms < 1e-6
        assert not fit.degenerate

    def test_fixed_harmonic_zeroes_its_covariance(self):
        fit = fit_fringe(FringeScan(THETAS, model_counts()), fix_harmonic=8.0)
        assert fit.harmonic == 8.0
        assert fit.stderr("harmonic") == 0.0
        assert np.all(fit.covariance[3, :] == 0.0)
        assert np.all(fit.covariance[:, 3] == 0.0)
        assert fit.visibility == pytest.approx(0.568, abs=1e-9)

    def test_nonpositive_fix_harmonic_rejected(self):
        with pytest.raises(ValueError, match="fix_harmonic"):
            fit_fringe(FringeScan(THETAS, model_counts()), fix_harmonic=0.0)

    def test_phase_shift_moves_only_the_phase(self):
        a = fit_fringe(FringeScan(THETAS, model_counts(phase=0.3)))
        b = fit_fringe(FringeScan(THETAS, model_counts(phase=0.8)))
        assert b.phase0 - a.phase0 == pytest.approx(0.5, abs=1e-9)
        assert b.visibility == pytest.approx(a.visibility, abs=1e-12)
        assert b.harmonic == pytest.approx(a.harmonic, abs=1e-12)

    @pytest.mark.parametrize("scale,normalized", [
        (3.0, False), (1e150, False), (1e300, False), (1e150, True)])
    def test_count_scale_moves_only_the_offset(self, scale, normalized):
        a = fit_fringe(FringeScan(THETAS, model_counts(), normalized=normalized))
        b = fit_fringe(FringeScan(THETAS, scale * model_counts(),
                                  normalized=normalized))
        assert b.offset == pytest.approx(scale * a.offset, rel=1e-9)
        assert b.visibility == pytest.approx(a.visibility, abs=1e-12)
        assert b.phase0 == pytest.approx(a.phase0, abs=1e-12)
        if not normalized:
            # Poisson weights: every relative variance falls as 1/scale
            root = math.sqrt(scale)
            assert b.stderr("offset") == pytest.approx(
                root * a.stderr("offset"), rel=1e-6)
            for name in ("visibility", "phase0", "harmonic"):
                assert b.stderr(name) == pytest.approx(a.stderr(name) / root,
                                                       rel=1e-6)

    @pytest.mark.parametrize("level", [1e308, 1.7e308])
    def test_a_flat_scan_near_the_largest_float_fits(self, level):
        # Poisson weights near 1e-154 square to subnormals unless the fit
        # takes them in units of their peak
        scan = FringeScan(THETAS, np.full(THETAS.size, level))
        fit = fit_fringe(scan, fix_harmonic=8.0)
        assert fit.offset == pytest.approx(level, rel=1e-12)
        assert fit.visibility < 1e-12
        assert fit.stderr("offset") == pytest.approx(
            math.sqrt(level / THETAS.size), rel=1e-3)
        # a free harmonic wanders to where offset and visibility trade, so
        # the offset variance may pass the largest float: then it is named
        try:
            fit = fit_fringe(scan)
        except FloatingPointError as exc:
            assert f"counts up to {level!r}" in str(exc)
        else:
            assert 0.0 < fit.stderr("offset") < math.inf

    def test_an_offset_variance_beyond_float_range_is_refused(self):
        # normalized counts near 1e250 (a 1000-count fringe times 1e250)
        # leave residuals of rounding size, ~1e237, so the offset variance
        # is ~1e472: no float holds it
        scan = FringeScan(THETAS, 1e250 * model_counts(), normalized=True)
        named = re.escape(f"counts up to {float(scan.counts.max())!r}")
        for fix_harmonic in (None, 8.0):
            with pytest.raises(FloatingPointError, match=named):
                fit_fringe(scan, fix_harmonic=fix_harmonic)

    def test_poisson_scatter_matches_the_reported_stderr(self):
        truth = model_counts()
        vs, ses = [], []
        for i in range(150):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=[77, i]))
            fit = fit_fringe(FringeScan(THETAS, rng.poisson(truth).astype(float)))
            vs.append(fit.visibility)
            ses.append(fit.stderr("visibility"))
        ratio = np.std(vs, ddof=1) / np.mean(ses)
        assert abs(ratio - 1.0) < 0.20

    def test_flat_data_is_flagged_degenerate(self):
        rng = np.random.default_rng(3)
        counts = rng.poisson(1000.0, THETAS.size).astype(float)
        fit = fit_fringe(FringeScan(THETAS, counts), fix_harmonic=8.0)
        assert fit.degenerate
        assert fit.visibility < 3.0 * fit.stderr("visibility")

    @pytest.mark.parametrize("fix_harmonic", [None, 8.0],
                             ids=["free", "fixed"])
    def test_every_fit_ends_in_the_box_at_a_root_of_the_slope(self,
                                                              fix_harmonic):
        # v = 1 resamples, flat noise and a fringe clipped at zero counts in
        # one stack: each row ends inside the box, no worse than its start,
        # and a free harmonic at a zero of the cost's slope unless it sits
        # on the box
        rng = np.random.default_rng(11)
        counts = np.concatenate([
            rng.poisson(model_counts(v=1.0), (20, THETAS.size)),
            rng.poisson(1000.0, (10, THETAS.size)),
            np.round(np.maximum(model_counts(v=1.2), 0.0))[None]]).astype(float)
        params = _fit_stack(THETAS, counts, False, fix_harmonic)
        p = params.shape[1]
        assert np.all((params >= _LOWER[:p]) & (params <= _UPPER[:p]))
        sigma = _weights(counts, False)
        start = _start_points(THETAS, counts, fix_harmonic)
        start_cost, cost = (np.sum(_residuals_and_jacobian(
            x, THETAS, counts, sigma, fix_harmonic)[0] ** 2, axis=1)
            for x in (start, params))
        assert np.all(cost <= start_cost)
        if fix_harmonic is None:
            m = params[:, 3]
            _, slope, curvature = _project(THETAS, counts, 1.0 / sigma, m)
            on_box = (m == _LOWER[3]) | (m == _UPPER[3])
            assert np.all(on_box | (np.abs(slope)
                                    <= 1e-11 * m * np.abs(curvature)))

    def test_a_sine_of_rounding_noise_is_dropped(self):
        # at the scan's Nyquist harmonic cos(m*theta) = (-1)^k and sin(m*theta)
        # is rounding noise: the fit is the weighted least-squares fit of the
        # offset and the alternating term alone
        m = math.pi * (THETAS.size - 1) / THETAS[-1]
        counts = model_counts()
        fit = fit_fringe(FringeScan(THETAS, counts), fix_harmonic=m)
        sigma = _weights(counts, False)
        design = np.stack([np.ones_like(THETAS), (-1.0) ** np.arange(
            THETAS.size)], 1) / sigma[:, None]
        a, c = np.linalg.lstsq(design, counts / sigma, rcond=None)[0]
        assert fit.offset == pytest.approx(a, rel=1e-12)
        assert fit.visibility == pytest.approx(abs(c) / a, abs=1e-12)

    @pytest.mark.parametrize("fix_harmonic,seed", [(1e-300, 0), (1e-8, 1)])
    def test_a_constant_cosine_column_fits_visibility_zero(self, fix_harmonic,
                                                           seed):
        # cos(m*theta) is 1 to rounding at every angle: the fringe term is
        # indistinguishable from the offset, so the fit is the weighted mean
        theta = np.radians(np.linspace(0.0, 180.0, 50))
        counts = np.random.default_rng(seed).poisson(100, 50).astype(float)
        fit = fit_fringe(FringeScan(theta, counts), fix_harmonic=fix_harmonic)
        assert fit.visibility == 0.0 and fit.phase0 == 0.0 and fit.degenerate
        assert fit.offset == pytest.approx(
            np.sum(counts / np.maximum(counts, 1.0))
            / np.sum(1.0 / np.maximum(counts, 1.0)), rel=1e-12)


class TestVisibilityInversion:
    def test_sigma_phi_domain(self):
        with pytest.raises(ValueError):
            sigma_phi_from_visibility(0.0)
        with pytest.raises(ValueError):
            sigma_phi_from_visibility(1.0 + 1e-9)
        with pytest.raises(ValueError):
            sigma_phi_from_visibility(-0.5)

    def test_sigma_phi_reference_points(self):
        full = sigma_phi_from_visibility(1.0)
        assert full == 0.0 and math.copysign(1.0, full) == 1.0
        assert sigma_phi_from_visibility(math.exp(-0.5)) == pytest.approx(
            1.0, rel=1e-12)
        assert sigma_phi_from_visibility(0.568) == pytest.approx(
            SIGMA_PHI_SQ_REF, rel=1e-12)

    def test_reference_inversion(self, calibration, delta_omega):
        est = kappa_from_visibility(0.568, calibration, delta_omega)
        assert est.kappa_bar == pytest.approx(0.14, rel=1e-9)
        assert est.sigma_phi_sq == pytest.approx(SIGMA_PHI_SQ_REF, rel=1e-12)
        assert est.bound_kind == "lower bound"

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(log_kappa=st.floats(-8.0, 8.0), t=st.floats(0.1, 50.0))
    @example(log_kappa=math.log10(0.14), t=T_SELF_CONSISTENT)
    @example(log_kappa=math.log10(37.0), t=T_SELF_CONSISTENT)
    def test_round_trip(self, log_kappa, t, delta_omega):
        kappa = 10.0 ** log_kappa
        phi_prime = t / delta_omega
        s2 = closed_form_sigma_phi(kappa, phi_prime, delta_omega)
        v = math.exp(-s2 / 2.0)
        est = kappa_from_visibility(v, phi_prime, delta_omega)
        # forward of inverse is the identity, at every kappa and strength
        assert closed_form_sigma_phi(est.kappa_bar, phi_prime, delta_omega) \
            == pytest.approx(est.sigma_phi_sq, rel=1e-9)
        # inverse of forward returns kappa; v holds s2 only to its rounding,
        # which dkappa/kappa = (1 + kappa) ds2/s2 amplifies where v nears 1
        # or kappa nears saturation
        lost = 8.0 * np.finfo(float).eps * (1.0 + kappa) * (1.0 + 2.0 / s2)
        assert abs(est.kappa_bar / kappa - 1.0) <= 1e-9 + lost
        # a larger kappa dims the fringe, and a dimmer fringe inverts higher
        v_dim = math.exp(-closed_form_sigma_phi(2.0 * kappa, phi_prime,
                                                delta_omega) / 2.0)
        assert v_dim < v
        assert kappa_from_visibility(v_dim, phi_prime,
                                     delta_omega).kappa_bar > est.kappa_bar
        # the floor is the law's visibility as kappa -> infinity; past 2^53,
        # kappa/(1 + kappa) rounds to 1
        saturated = closed_form_sigma_phi(2.0 ** 60, phi_prime, delta_omega)
        with pytest.raises(InfeasibleVisibilityError) as err:
            kappa_from_visibility(0.0, phi_prime, delta_omega)
        assert err.value.floor == math.exp(-saturated / 2.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name,call", [
        ("phi_prime", lambda x, dw: kappa_from_visibility(0.5, x, dw)),
        ("delta_omega", lambda x, dw: kappa_from_visibility(0.5, 3e-13, x)),
        ("kappa", lambda x, dw: closed_form_sigma_phi(x, 3e-13, dw)),
        ("phi_prime", lambda x, dw: closed_form_sigma_phi(0.14, x, dw)),
        ("delta_omega", lambda x, dw: closed_form_sigma_phi(0.14, 3e-13, x)),
        ("kappa", lambda x, dw: self_consistent_calibration(kappa=x)),
    ], ids=["inverse-phi_prime", "inverse-delta_omega", "law-kappa",
            "law-phi_prime", "law-delta_omega", "calibration-kappa"])
    def test_non_finite_argument_is_refused_by_name(self, name, call, bad,
                                                    delta_omega):
        with pytest.raises(ValueError, match=name):
            call(bad, delta_omega)

    def test_full_visibility_means_zero_correlation(self, calibration,
                                                    delta_omega):
        est = kappa_from_visibility(1.0, calibration, delta_omega)
        assert est.kappa_bar == 0.0

    def test_sign_of_the_calibration_slope_is_irrelevant(self, calibration,
                                                         delta_omega):
        plus = kappa_from_visibility(0.568, calibration, delta_omega)
        minus = kappa_from_visibility(0.568, -calibration, delta_omega)
        assert plus.kappa_bar == minus.kappa_bar

    def test_bound_decreases_as_visibility_recovers(self, calibration,
                                                    delta_omega):
        vs = np.linspace(0.2, 0.95, 8)
        kappas = [kappa_from_visibility(v, calibration, delta_omega).kappa_bar
                  for v in vs]
        sigmas = [sigma_phi_from_visibility(v) for v in vs]
        assert all(a > b for a, b in zip(kappas, kappas[1:]))
        assert all(a > b for a, b in zip(sigmas, sigmas[1:]))

    def test_below_the_floor_is_infeasible(self, calibration, delta_omega):
        floor = math.exp(-(calibration * delta_omega) ** 2 / (16.0 * LN2))
        with pytest.raises(InfeasibleVisibilityError) as err:
            kappa_from_visibility(0.005, calibration, delta_omega)
        assert err.value.visibility == 0.005
        assert err.value.floor == pytest.approx(floor, rel=1e-12)
        assert "calibration" in str(err.value) or "phi_prime" in str(err.value)
        # the floor itself needs kappa -> infinity, so it is infeasible too
        with pytest.raises(InfeasibleVisibilityError):
            kappa_from_visibility(floor, calibration, delta_omega)
        # so is zero, where a fit of a flat scan may sit on its bound
        with pytest.raises(InfeasibleVisibilityError):
            kappa_from_visibility(0.0, calibration, delta_omega)

    def test_zero_slope_rejected(self, delta_omega):
        with pytest.raises(ValueError, match="phi_prime"):
            kappa_from_visibility(0.568, 0.0, delta_omega)


class TestSelfConsistentCalibration:
    def test_reference_value(self):
        assert self_consistent_calibration() == pytest.approx(
            T_SELF_CONSISTENT, rel=1e-12)

    def test_matches_the_inline_formula(self):
        t = self_consistent_calibration(visibility=0.7, kappa=0.5)
        expected = math.sqrt(-2.0 * math.log(0.7) * 8.0 * LN2 * 1.5 / 0.5)
        assert t == pytest.approx(expected, rel=1e-12)

    def test_closes_the_loop(self, delta_omega):
        t = self_consistent_calibration()
        est = kappa_from_visibility(0.568, t / delta_omega, delta_omega)
        assert est.kappa_bar == pytest.approx(0.14, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            self_consistent_calibration(visibility=1.0)
        with pytest.raises(ValueError):
            self_consistent_calibration(kappa=0.0)


class TestBootstrap:
    @pytest.mark.parametrize("fraction,flagged", [(0.105, True), (0.10, False),
                                                  (0.0, False)])
    def test_unreliable_above_a_tenth_failed(self, fraction, flagged):
        out = BootstrapResult(kappa_std=0.01, kappa_mean=0.14,
                              failure_fraction=np.float64(fraction),
                              n_resamples=200)
        assert out.flagged_unreliable is flagged
        assert json.dumps(out.flagged_unreliable) == json.dumps(flagged)

    def test_needs_at_least_100_resamples(self, calibration, delta_omega):
        scan = FringeScan(THETAS, model_counts())
        with pytest.raises(ValueError, match="100"):
            bootstrap_kappa_uncertainty(scan, calibration, 0.0, delta_omega,
                                        n_resamples=99)

    def test_deterministic_for_a_fixed_seed(self, calibration, delta_omega):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=[11]))
        scan = FringeScan(THETAS, rng.poisson(model_counts()).astype(float))
        a = bootstrap_kappa_uncertainty(scan, calibration, 0.063 * calibration,
                                        delta_omega, n_resamples=100, seed=0,
                                        fix_harmonic=8.0)
        b = bootstrap_kappa_uncertainty(scan, calibration, 0.063 * calibration,
                                        delta_omega, n_resamples=100, seed=0,
                                        fix_harmonic=8.0)
        assert a.kappa_std == b.kappa_std
        assert a.kappa_mean == b.kappa_mean
        assert a.failure_fraction == b.failure_fraction

    def test_noiseless_data_has_no_spread(self, calibration, delta_omega):
        scan = FringeScan(THETAS, 1.0 + 0.568 * np.cos(8.0 * THETAS + 0.244),
                          normalized=True)
        out = bootstrap_kappa_uncertainty(scan, calibration, 0.0, delta_omega,
                                          n_resamples=100, seed=1)
        assert out.kappa_std < 1e-9
        assert out.failure_fraction == 0.0
        assert not out.flagged_unreliable
        assert out.kappa_mean == pytest.approx(0.14, rel=1e-6)

    def test_reference_scale_spread(self, calibration, delta_omega):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=[11]))
        scan = FringeScan(THETAS, rng.poisson(model_counts()).astype(float))
        out = bootstrap_kappa_uncertainty(scan, calibration, 0.063 * calibration,
                                          delta_omega, n_resamples=200, seed=0)
        assert isinstance(out, BootstrapResult)
        assert 0.012 < out.kappa_std < 0.030
        assert 0.12 < out.kappa_mean < 0.18
        assert out.failure_fraction == 0.0
        assert not out.flagged_unreliable

    def test_near_floor_estimates_are_flagged_unreliable(self, calibration,
                                                         delta_omega):
        floor = math.exp(-(calibration * delta_omega) ** 2 / (16.0 * LN2))
        truth = 300.0 * (1.0 + 1.05 * floor * np.cos(8.0 * THETAS + 0.244))
        rng = np.random.default_rng(np.random.SeedSequence(entropy=[5]))
        scan = FringeScan(THETAS, rng.poisson(truth).astype(float))
        out = bootstrap_kappa_uncertainty(scan, calibration, 0.0, delta_omega,
                                          n_resamples=200, seed=2,
                                          fix_harmonic=8.0)
        assert out.failure_fraction > 0.10
        assert out.flagged_unreliable


def trf_fit(scan, fix_harmonic):
    """The fit parameters by scipy's bounded trust-region solver (TRF), the
    reference for the batched solver: the same start row, box, residuals
    and Jacobian, with tolerances 1e-14 and 2000 evaluations. Returns the
    parameter row and whether TRF converged."""
    harmonic = None if fix_harmonic is None else float(fix_harmonic)
    y = scan.counts[None, :]
    sigma = _weights(y, scan.normalized)
    x0 = _start_points(scan.thetas, y, harmonic)[0]

    def residuals(params):
        return _residuals_and_jacobian(params[None], scan.thetas, y, sigma,
                                       harmonic)[0][0]

    def jacobian(params):
        return _residuals_and_jacobian(params[None], scan.thetas, y, sigma,
                                       harmonic)[1][0]

    res = least_squares(residuals, x0, jac=jacobian,
                        bounds=(_LOWER[:x0.size], _UPPER[:x0.size]),
                        xtol=1e-14, ftol=1e-14, gtol=1e-14, max_nfev=2000)
    return res.x, res.success


def reference_bootstrap(scan, phi_prime, phi_prime_uncertainty, delta_omega,
                        n_resamples, seed, fix_harmonic):
    """The bootstrap as a plain loop of TRF fits over the per-index draws
    around fit_fringe's base fit."""
    base = fit_fringe(scan, fix_harmonic=fix_harmonic)
    model = base.model(scan.thetas)
    kappas, failures = [], 0
    for i in range(n_resamples):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=[seed, i]))
        if scan.normalized:
            counts = np.maximum(rng.normal(model, base.residual_rms), 0.0)
        else:
            counts = rng.poisson(model).astype(float)
        pp = rng.normal(phi_prime, phi_prime_uncertainty)
        x, success = trf_fit(FringeScan(scan.thetas, counts,
                                        normalized=scan.normalized),
                             fix_harmonic)
        if not success or x[1] <= 0 or pp == 0:
            failures += 1
            continue
        try:
            kappas.append(kappa_from_visibility(x[1], pp,
                                                delta_omega).kappa_bar)
        except InfeasibleVisibilityError:
            failures += 1
    arr = np.asarray(kappas)
    return arr.std(ddof=1), arr.mean(), failures / n_resamples


def bundled_scan(name, normalized):
    theta_deg, counts = read_fringe_csv(os.path.join(DATA_DIR, name))
    return FringeScan(np.radians(theta_deg), counts, normalized=normalized)


def full_visibility_scan():
    """A v = 1 fringe: most resamples fit to v = 1, on the bound of the box."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=[7]))
    return FringeScan(THETAS, rng.poisson(model_counts(v=1.0)).astype(float))


def clipped_scan():
    """A fringe clipped at zero counts: its unbounded fit has v > 1."""
    theta = np.radians(np.linspace(0.0, 180.0, 100))
    return FringeScan(theta, np.round(np.maximum(
        1000.0 * (1.0 + 1.2 * np.cos(8.0 * theta + 0.244)), 0.0)))


def eight_point_scan():
    """Flat noise on 8 points over 45 degrees: its free fit ends on the
    harmonic's lower bound."""
    rng = np.random.default_rng(79)
    return FringeScan(np.radians(np.linspace(0.0, 45.0, 8)),
                      rng.poisson(100, 8).astype(float))


def near_floor_scan(calibration, delta_omega):
    floor = math.exp(-(calibration * delta_omega) ** 2 / (16.0 * LN2))
    truth = 300.0 * (1.0 + 1.05 * floor * np.cos(8.0 * THETAS + 0.244))
    rng = np.random.default_rng(np.random.SeedSequence(entropy=[5]))
    return FringeScan(THETAS, rng.poisson(truth).astype(float))


def assert_matches_reference(scan, calibration, delta_omega, uncertainty,
                             seed, fix_harmonic, rel):
    want = reference_bootstrap(scan, calibration, uncertainty, delta_omega,
                               100, seed, fix_harmonic)
    got = bootstrap_kappa_uncertainty(scan, calibration, uncertainty,
                                      delta_omega, n_resamples=100, seed=seed,
                                      fix_harmonic=fix_harmonic)
    assert got.kappa_std == pytest.approx(want[0], rel=rel)
    assert got.kappa_mean == pytest.approx(want[1], rel=rel)
    assert got.failure_fraction == want[2]


class TestBatchedBootstrap:
    @pytest.mark.parametrize("normalized", [False, True],
                             ids=["counts", "normalized"])
    @pytest.mark.parametrize("fix_harmonic", [None, 8.0],
                             ids=["free", "fixed"])
    @pytest.mark.parametrize("name", ["withcrystal.csv", "calibration.csv"])
    def test_matches_the_fit_loop_on_bundled_scans(self, name, fix_harmonic,
                                                   normalized, calibration,
                                                   delta_omega):
        assert_matches_reference(bundled_scan(name, normalized), calibration,
                                 delta_omega, 0.063 * calibration, 42,
                                 fix_harmonic, rel=1e-8)

    @pytest.mark.parametrize("fix_harmonic", [None, 8.0],
                             ids=["free", "fixed"])
    def test_matches_the_fit_loop_at_full_visibility(self, fix_harmonic,
                                                     calibration, delta_omega):
        assert_matches_reference(full_visibility_scan(), calibration,
                                 delta_omega, 0.063 * calibration, 0,
                                 fix_harmonic, rel=1e-6)

    def test_matches_the_fit_loop_near_the_floor(self, calibration,
                                                 delta_omega):
        assert_matches_reference(near_floor_scan(calibration, delta_omega),
                                 calibration, delta_omega, 0.0, 2, 8.0,
                                 rel=1e-6)

    @pytest.mark.parametrize("harmonic", [None, 8.0], ids=["free", "fixed"])
    def test_jacobian_matches_central_differences(self, harmonic):
        rng = np.random.default_rng(4)
        counts = rng.poisson(model_counts(), (3, THETAS.size)).astype(float)
        sigma = np.sqrt(np.maximum(counts, 1.0))
        params = np.array([[990.0, 0.55, 0.3, 7.9], [1010.0, 0.6, 5.5, 8.05],
                           [1000.0, 0.2, -1.0, 8.0]])
        if harmonic is not None:
            params = params[:, :3]
        _, jac = _residuals_and_jacobian(params, THETAS, counts, sigma,
                                         harmonic)
        for k in range(params.shape[1]):
            h = 1e-6 * np.maximum(np.abs(params[:, k:k + 1]), 1.0)
            up, down = params.copy(), params.copy()
            up[:, k:k + 1] += h
            down[:, k:k + 1] -= h
            central = (_residuals_and_jacobian(up, THETAS, counts, sigma,
                                               harmonic)[0]
                       - _residuals_and_jacobian(down, THETAS, counts, sigma,
                                                 harmonic)[0]) / (2.0 * h)
            np.testing.assert_allclose(
                jac[..., k], central, rtol=1e-6,
                atol=1e-6 * np.max(np.abs(central)))

    @pytest.mark.parametrize("harmonic", [None, 8.0], ids=["free", "fixed"])
    def test_start_point_of_a_row_does_not_depend_on_the_stack(self,
                                                               harmonic):
        rng = np.random.default_rng(9)
        counts = rng.poisson(model_counts(), (37, THETAS.size)).astype(float)
        stacked = _start_points(THETAS, counts, harmonic)
        for row in (0, 17, 36):
            single = _start_points(THETAS, counts[row:row + 1], harmonic)
            np.testing.assert_array_equal(single[0], stacked[row])

    def test_fit_fringe_runs_once_per_bootstrap_at_every_visibility(
            self, monkeypatch, calibration, delta_omega):
        # one base fit, unless the caller hands it in, and one batched solve
        # per block of resamples, at v = 0.56 and at v = 1 alike
        calls = {"fit_fringe": 0, "_fit_stack": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(noonfringe.analysis, name,
                                counted(name, getattr(noonfringe.analysis,
                                                      name)))
        scan = bundled_scan("withcrystal.csv", False)
        fitted_here = bootstrap_kappa_uncertainty(
            scan, calibration, 0.063 * calibration, delta_omega,
            n_resamples=200, seed=42)
        assert calls == {"fit_fringe": 1, "_fit_stack": 5}

        base = fit_fringe(scan)
        calls.update(fit_fringe=0, _fit_stack=0)
        assert bootstrap_kappa_uncertainty(
            scan, calibration, 0.063 * calibration, delta_omega,
            n_resamples=200, seed=42, base=base) == fitted_here
        assert calls == {"fit_fringe": 0, "_fit_stack": 4}

        calls.update(fit_fringe=0, _fit_stack=0)
        out = bootstrap_kappa_uncertainty(full_visibility_scan(), calibration,
                                          0.063 * calibration, delta_omega,
                                          n_resamples=200, seed=0)
        assert calls == {"fit_fringe": 1, "_fit_stack": 5}
        assert out.failure_fraction == 0.0

    @pytest.mark.parametrize("phi_prime,delta_omega", [
        (1.0, 0.0), (1.0, -1.0), (0.0, 1.0)],
        ids=["zero-width", "negative-width", "zero-slope"])
    def test_caller_errors_raise_instead_of_counting_failures(
            self, phi_prime, delta_omega):
        scan = FringeScan(THETAS, model_counts())
        with pytest.raises(ValueError, match="phi_prime must be nonzero"):
            bootstrap_kappa_uncertainty(scan, phi_prime, 0.0, delta_omega,
                                        n_resamples=100)


TRF_PARITY_SCANS = [f"{name}-{kind}" for name in ("withcrystal.csv",
                                                   "calibration.csv")
                    for kind in ("counts", "normalized")] + [
    "full-visibility", "near-floor", "clipped", "eight-points"] + [
    f"flat-noise-{seed}" for seed in range(5)]


def parity_scan(case, calibration, delta_omega):
    if case.endswith(".csv-counts") or case.endswith(".csv-normalized"):
        name, kind = case.rsplit("-", 1)
        return bundled_scan(name, kind == "normalized")
    if case.startswith("flat-noise-"):
        rng = np.random.default_rng(int(case.rsplit("-", 1)[1]))
        return FringeScan(THETAS, rng.poisson(1000.0, THETAS.size).astype(float))
    return {"full-visibility": full_visibility_scan,
            "near-floor": lambda: near_floor_scan(calibration, delta_omega),
            "clipped": clipped_scan, "eight-points": eight_point_scan}[case]()


@pytest.mark.parametrize("fix_harmonic", [None, 8.0], ids=["free", "fixed"])
@pytest.mark.parametrize("case", TRF_PARITY_SCANS)
def test_fit_matches_trf_from_the_same_start(case, fix_harmonic, calibration,
                                             delta_omega):
    scan = parity_scan(case, calibration, delta_omega)
    want, success = trf_fit(scan, fix_harmonic)
    assert success
    fit = fit_fringe(scan, fix_harmonic=fix_harmonic)
    got = [fit.offset, fit.visibility, fit.phase0]
    names = ["offset", "visibility", "phase0"]
    if fix_harmonic is None:
        got.append(fit.harmonic)
        names.append("harmonic")
    for k, name in enumerate(names):
        diff = got[k] - want[k]
        if name == "phase0":
            diff = math.remainder(diff, 2.0 * math.pi)
        if fit.degenerate:
            # the fringe is indistinguishable from noise, and the cost pins
            # its parameters only to roundoff, far inside their errors
            assert abs(diff) <= 1e-5 * fit.stderr(name), name
        elif name == "phase0":
            assert abs(diff) <= 1e-7, name
        else:
            assert abs(diff) <= 1e-8 * abs(want[k]), name
