"""Unit conversions at the package boundary.

Everything internal works in angular frequency (rad/s). Wavelengths in nm are
accepted only at configuration time and converted here, in one place.
"""

from __future__ import annotations

import math

SPEED_OF_LIGHT = 299792458.0  # m/s

TWO_PI = 2.0 * math.pi


def _fold_phase(phase: float) -> float:
    """phase folded into [0, 2*pi). A hair-negative phase, whose remainder
    rounds up to 2*pi, folds to 0."""
    folded = float(phase % TWO_PI)
    return 0.0 if folded >= TWO_PI else folded


def wavelength_nm_to_angular(lambda_nm: float) -> float:
    """Angular frequency (rad/s) of a vacuum wavelength given in nm."""
    if lambda_nm <= 0:
        raise ValueError(f"wavelength must be positive, got {lambda_nm} nm")
    return TWO_PI * SPEED_OF_LIGHT / (lambda_nm * 1e-9)


def bandwidth_nm_to_angular(fwhm_nm: float, center_nm: float) -> float:
    """First-order conversion of a wavelength FWHM to an angular-frequency FWHM.

    dw = 2*pi*c * dlambda / lambda0^2, the standard narrowband relation.
    """
    if fwhm_nm <= 0 or center_nm <= 0:
        raise ValueError("bandwidth and center wavelength must be positive")
    return TWO_PI * SPEED_OF_LIGHT * (fwhm_nm * 1e-9) / (center_nm * 1e-9) ** 2

