import math

import numpy as np
import pytest
import scipy.special

from noonfringe import bessel_k_quarter_scaled


def k_quarter(x):
    """K_{1/4}(x) from the scaled function; underflows to 0 past x ~ 745."""
    return bessel_k_quarter_scaled(x) * np.exp(-np.asarray(x, dtype=float))


def integral_representation(x: float) -> float:
    """K_nu(x) = integral_0^inf exp(-x cosh t) cosh(nu t) dt, evaluated densely.

    Independent oracle: pure quadrature, no Bessel routines involved.
    """
    t = np.linspace(0.0, 30.0, 300001)
    return float(np.trapezoid(np.exp(-x * np.cosh(t)) * np.cosh(0.25 * t), t))


def test_matches_integral_representation_at_one():
    assert k_quarter(1.0) == pytest.approx(integral_representation(1.0),
                                           rel=1e-10)


@pytest.mark.parametrize("x", [0.3, 2.5, 7.0])
def test_matches_integral_representation_elsewhere(x):
    assert k_quarter(x) == pytest.approx(integral_representation(x),
                                         rel=1e-10)


def test_matches_scipy_over_full_range():
    # scipy's unscaled kv underflows to zero just below x = 700; compare
    # against it where it survives and against kve at the far end
    x = np.logspace(-6, math.log10(690.0), 400)
    ours = k_quarter(x)
    reference = scipy.special.kv(0.25, x)
    assert np.max(np.abs(ours / reference - 1.0)) < 1e-10
    expected_700 = scipy.special.kve(0.25, 700.0) * math.exp(-700.0)
    assert k_quarter(700.0) == pytest.approx(expected_700, rel=1e-10)


def test_scaled_variant_matches_scipy_kve():
    x = np.logspace(-6, math.log10(700.0), 400)
    assert np.max(np.abs(bessel_k_quarter_scaled(x)
                         / scipy.special.kve(0.25, x) - 1.0)) < 1e-10


def test_leading_asymptotic_at_fifty():
    asymptotic = math.sqrt(math.pi / 100.0) * math.exp(-50.0)
    assert abs(k_quarter(50.0) / asymptotic - 1.0) < 0.005


def test_small_argument_form():
    x = 1e-6
    leading = 0.5 * math.gamma(0.25) * (2.0 / x) ** 0.25
    assert abs(k_quarter(x) / leading - 1.0) < 0.001


def test_scaled_times_decay_equals_unscaled():
    for x in (0.5, 1.9, 2.0, 2.1, 30.0):
        assert bessel_k_quarter_scaled(x) * math.exp(-x) == pytest.approx(
            scipy.special.kv(0.25, x), rel=1e-13)


def test_series_and_continued_fraction_join_smoothly():
    below = k_quarter(2.0 - 1e-9)
    above = k_quarter(2.0 + 1e-9)
    assert below == pytest.approx(above, rel=1e-8)


def test_strictly_decreasing():
    x = np.linspace(0.05, 20.0, 200)
    values = k_quarter(x)
    assert np.all(np.diff(values) < 0)
    assert np.all(values > 0)


def test_domain_errors():
    with pytest.raises(ValueError):
        bessel_k_quarter_scaled(0.0)
    with pytest.raises(ValueError):
        bessel_k_quarter_scaled(-1.0)
    with pytest.raises(ValueError):
        bessel_k_quarter_scaled(np.array([1.0, -2.0]))
    with pytest.raises(ValueError):
        bessel_k_quarter_scaled(math.nan)


def test_array_shape_preserved():
    x = np.array([[0.5, 1.0], [2.0, 4.0]])
    assert bessel_k_quarter_scaled(x).shape == (2, 2)
    assert isinstance(bessel_k_quarter_scaled(1.0), float)
