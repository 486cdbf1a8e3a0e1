"""The public listing: every exported name resolves, once, and names that
restated another quantity stay gone."""

import importlib

import pytest

import noonfringe

# each restated a quantity another public name already gives, or was read
# by tests alone; the per-angle form and the two-photon amplitude live on as
# the test suite's references (tests/reference.py)
REMOVED = ("VisibilityLaw", "analytic_visibility",
           "coincidence_probability_symmetric", "harmonic_visibility",
           "extract_visibility", "bessel_k_quarter", "fwhm_to_sigma",
           "FitConvergenceError", "coincidence_probability_general",
           "LinearizedPhase", "linearize_phase", "jsa_amplitude",
           "angular_to_wavelength_nm")

MODULES = ["noonfringe"] + [
    f"noonfringe.{name}" for name in ("analysis", "besselk", "config",
                                      "engine", "spectral", "sumfreq")]


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_resolves_once(name):
    module = importlib.import_module(name)
    listed = module.__all__
    assert len(listed) == len(set(listed))
    for attr in listed:
        assert hasattr(module, attr), f"{name}.{attr}"
    assert not set(REMOVED) & set(listed)
    assert not any(hasattr(module, attr) for attr in REMOVED)


def test_the_surrogate_law_lives_in_analysis_only():
    from noonfringe import analysis, engine
    assert noonfringe.closed_form_sigma_phi is analysis.closed_form_sigma_phi
    assert not hasattr(engine, "closed_form_sigma_phi")
    assert not hasattr(analysis, "_sigma_phi_closed")
