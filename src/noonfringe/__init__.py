"""Two-photon fringe interference through dispersive media.

Simulates the polarization fringe of frequency-correlated photon pairs,
models its dephasing by a birefringent medium, and inverts the measured
visibility into a lower bound on the strength of the pair's frequency
correlation.
"""

__version__ = "0.1.0"

from .analysis import (BootstrapResult, CorrelationEstimate, FitResult,
                       FringeScan, InfeasibleVisibilityError,
                       bootstrap_kappa_uncertainty, closed_form_sigma_phi,
                       fit_fringe, kappa_from_visibility,
                       self_consistent_calibration, sigma_phi_from_visibility)
from .besselk import bessel_k_quarter_scaled
from .config import ConfigError, ExperimentConfig, load_config_file
from .engine import (FringeHarmonics, ProbabilityCurve, fringe_harmonics,
                     simulate_fringe_scan, single_photon_visibility)
from .spectral import (BBO_ORDINARY, BBO_EXTRAORDINARY, DispersiveMedium,
                       FilterProfile, FrequencyGrid, JointSpectrum,
                       QuadratureAccuracyError, SellmeierCoefficients,
                       SellmeierMedium, TaylorMedium, bbo_crystal,
                       filter_transmission, group_delay_slope, jsa_amplitude,
                       medium_phase)
from .sumfreq import (DensityCurve, F_EXACT_AT_ZERO, GaussianApproximation,
                      KLDivergence, NU_SCALE, PhaseMoments, default_nu_grid,
                      gaussian_approximation, kl_divergence,
                      moment_matched_gaussian, phase_distribution_moments,
                      sum_frequency_density_exact,
                      sum_frequency_density_numeric)
from .units import (angular_to_wavelength_nm, bandwidth_nm_to_angular,
                    wavelength_nm_to_angular)

__all__ = [
    "__version__",
    # spectral building blocks
    "FrequencyGrid", "FilterProfile", "JointSpectrum", "TaylorMedium",
    "SellmeierCoefficients", "SellmeierMedium", "DispersiveMedium",
    "QuadratureAccuracyError", "BBO_ORDINARY", "BBO_EXTRAORDINARY",
    "bbo_crystal", "filter_transmission", "jsa_amplitude", "medium_phase",
    "group_delay_slope",
    # fringe engine
    "ProbabilityCurve", "FringeHarmonics", "simulate_fringe_scan",
    "fringe_harmonics", "single_photon_visibility",
    # fitting and estimation
    "FringeScan", "FitResult", "CorrelationEstimate", "BootstrapResult",
    "InfeasibleVisibilityError", "fit_fringe",
    "closed_form_sigma_phi", "sigma_phi_from_visibility",
    "kappa_from_visibility",
    "bootstrap_kappa_uncertainty", "self_consistent_calibration",
    # sum-frequency density and approximation checks
    "DensityCurve", "GaussianApproximation", "KLDivergence", "PhaseMoments",
    "NU_SCALE", "F_EXACT_AT_ZERO",
    "default_nu_grid", "sum_frequency_density_numeric",
    "sum_frequency_density_exact", "gaussian_approximation",
    "moment_matched_gaussian", "kl_divergence", "phase_distribution_moments",
    "bessel_k_quarter_scaled",
    # configuration
    "ExperimentConfig", "ConfigError", "load_config_file",
    # units
    "wavelength_nm_to_angular", "angular_to_wavelength_nm",
    "bandwidth_nm_to_angular",
]
