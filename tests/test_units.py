import math

import pytest

from noonfringe import (angular_to_wavelength_nm, bandwidth_nm_to_angular,
                        wavelength_nm_to_angular)
from noonfringe.units import _fold_phase

C = 299792458.0


def test_wavelength_roundtrip():
    for lam in (405.0, 810.0, 1550.0):
        omega = wavelength_nm_to_angular(lam)
        assert omega == pytest.approx(2.0 * math.pi * C / (lam * 1e-9), rel=1e-15)
        assert angular_to_wavelength_nm(omega) == pytest.approx(lam, rel=1e-15)


def test_bandwidth_conversion_matches_first_order_dispersion():
    # d(omega)/d(lambda) = -2 pi c / lambda^2; 7.3 nm at 810 nm
    expected = 2.0 * math.pi * C * 7.3e-9 / (810e-9) ** 2
    assert bandwidth_nm_to_angular(7.3, 810.0) == pytest.approx(expected, rel=1e-15)
    assert bandwidth_nm_to_angular(7.3, 810.0) == pytest.approx(2.0958171683e13,
                                                                rel=1e-9)


@pytest.mark.parametrize("fn", [wavelength_nm_to_angular,
                                angular_to_wavelength_nm])
def test_nonpositive_rejected(fn):
    with pytest.raises(ValueError):
        fn(0.0)
    with pytest.raises(ValueError):
        fn(-1.0)


def test_bandwidth_nonpositive_rejected():
    with pytest.raises(ValueError):
        bandwidth_nm_to_angular(0.0, 810.0)
    with pytest.raises(ValueError):
        bandwidth_nm_to_angular(7.3, -810.0)


@pytest.mark.parametrize("phase", [-9e-295, -0.0, 2.0 * math.pi])
def test_fold_phase_sends_a_full_turn_to_zero(phase):
    # a hair-negative phase leaves a remainder that rounds up to exactly
    # 2*pi; it folds to 0, like a whole turn and a negative zero
    folded = _fold_phase(phase)
    assert folded == 0.0 and math.copysign(1.0, folded) == 1.0


def test_fold_phase_keeps_the_largest_phase_below_a_turn():
    below = math.nextafter(2.0 * math.pi, 0.0)
    assert _fold_phase(below) == below
