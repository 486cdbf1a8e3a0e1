"""Configuration parsing, layering, and derived physics objects."""

import math

import pytest

from noonfringe import (
    ConfigError,
    ExperimentConfig,
    SellmeierMedium,
    TaylorMedium,
    bandwidth_nm_to_angular,
    bbo_crystal,
    group_delay_slope,
    load_config_file,
    wavelength_nm_to_angular,
)
from noonfringe.config import MAX_POINTS, merge_config, parse_config_text


class TestParse:
    def test_typed_values(self):
        text = """
        # reference run
        schema = 1
        filter_fwhm_nm = 7.3
        points = 64

        medium_variant = bbo
        kappa = none
        pump_fwhm = 8.0e12
        normalize_calibration = yes
        """
        values = parse_config_text(text)
        assert values["schema"] == 1
        assert values["filter_fwhm_nm"] == 7.3
        assert values["points"] == 64
        assert values["medium_variant"] == "bbo"
        assert values["kappa"] is None
        assert values["pump_fwhm"] == 8.0e12
        assert values["normalize_calibration"] is True

    @pytest.mark.parametrize("text,expected", [
        ("true", True), ("YES", True), ("1", True), ("on", True),
        ("false", False), ("No", False), ("0", False), ("off", False),
    ])
    def test_boolean_spellings(self, text, expected):
        parsed = parse_config_text(f"normalize_calibration = {text}")
        assert parsed["normalize_calibration"] is expected

    def test_unknown_key_names_the_location(self):
        with pytest.raises(ConfigError, match=r"run\.cfg:2.*unknown"):
            parse_config_text("points = 9\nfilter_width = 7.3", source="run.cfg")

    def test_bad_value_names_the_location(self):
        with pytest.raises(ConfigError, match=r"run\.cfg:1"):
            parse_config_text("points = many", source="run.cfg")
        with pytest.raises(ConfigError, match="boolean"):
            parse_config_text("normalize_calibration = maybe")

    def test_line_without_equals_is_an_error(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("points 9")

    def test_error_carries_the_field_name(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("filter_width = 7.3")
        assert err.value.key == "filter_width"

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("points = 12\nseed = 7\n")
        assert load_config_file(str(path)) == {"points": 12, "seed": 7}

    def test_file_errors_name_the_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("points = twelve\n")
        with pytest.raises(ConfigError, match="run.cfg:1"):
            load_config_file(str(path))


class TestMerge:
    def test_defaults_only(self):
        config = merge_config()
        assert config.kappa == 0.14
        assert config.filter_order == 4
        assert config.points == 100

    def test_file_overrides_defaults(self):
        config = merge_config({"points": 50, "seed": 9})
        assert config.points == 50
        assert config.seed == 9

    def test_flag_overrides_file(self):
        config = merge_config({"points": 50}, {"points": 25})
        assert config.points == 25

    def test_none_overrides_are_not_given(self):
        config = merge_config({"points": 50}, {"points": None})
        assert config.points == 50

    def test_pump_width_in_file_displaces_the_default_kappa(self):
        config = merge_config({"pump_fwhm": 8.0e12})
        assert config.kappa is None
        assert config.pump_fwhm == 8.0e12

    def test_kappa_flag_displaces_a_file_pump_width(self):
        config = merge_config({"pump_fwhm": 8.0e12}, {"kappa": 0.2})
        assert config.kappa == 0.2
        assert config.pump_fwhm is None

    def test_pump_width_flag_displaces_a_file_kappa(self):
        config = merge_config({"kappa": 0.2}, {"pump_fwhm": 8.0e12})
        assert config.kappa is None
        assert config.pump_fwhm == 8.0e12

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            merge_config({}, {"filter_width": 7.3})


class TestValidation:
    def test_both_pump_parametrizations_rejected(self):
        with pytest.raises(ConfigError, match="exactly one"):
            ExperimentConfig(kappa=0.14, pump_fwhm=8.0e12)
        with pytest.raises(ConfigError, match="exactly one"):
            ExperimentConfig(kappa=None, pump_fwhm=None)

    def test_schema_version_is_enforced(self):
        with pytest.raises(ConfigError, match="schema"):
            ExperimentConfig(schema=2)

    @pytest.mark.parametrize("kwargs", [
        {"points": 7},
        {"filter_order": 3},
        {"filter_order": 0},
        {"medium_variant": "quartz"},
        {"theta_stop_deg": 0.0},
        {"medium_length_mm": -1.0},
        {"phi_prime_fractional_uncertainty": -0.1},
        {"fix_harmonic": 0.0},
        {"kappa": -0.1},
        {"kappa": 0.0},
        {"kappa": None, "pump_fwhm": -1.0},
        {"mean_counts": 0.0},
        {"filter_fwhm_nm": 0.0},
    ])
    def test_out_of_range_fields_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize("key,value", [
        ("kappa", math.nan),
        ("kappa", math.inf),
        ("mean_counts", math.nan),
        ("filter_fwhm_nm", math.inf),
        ("pump_wavelength_nm", math.nan),
        ("medium_phi_prime", -math.inf),
        ("medium_phi_double_prime", math.nan),
        ("theta_start_deg", -math.inf),
        ("fix_harmonic", math.nan),
        ("pump_fwhm", math.inf),
    ])
    def test_non_finite_fields_rejected(self, key, value):
        kwargs = {key: value}
        if key == "pump_fwhm":
            kwargs["kappa"] = None
        with pytest.raises(ConfigError, match="finite") as info:
            ExperimentConfig(**kwargs)
        assert info.value.key == key

    def test_non_finite_file_value_names_the_field(self):
        with pytest.raises(ConfigError, match="mean_counts"):
            merge_config(parse_config_text("mean_counts = nan"))

    def test_filter_width_needs_a_finite_angular_bandwidth(self):
        # finite in nm, but the conversion to rad/s overflows
        with pytest.raises(ConfigError, match="angular bandwidth") as info:
            ExperimentConfig(filter_fwhm_nm=1e300)
        assert info.value.key == "filter_fwhm_nm"

    def test_filter_center_needs_a_finite_angular_bandwidth(self):
        # positive, but its square in metres underflows to zero (1e-300) or
        # to a subnormal (1e-150) in the conversion to rad/s
        for center in (1e-300, 1e-150):
            with pytest.raises(ConfigError, match="angular bandwidth") as info:
                ExperimentConfig(filter_center_nm=center)
            assert info.value.key == "filter_center_nm"

    @pytest.mark.parametrize("overrides,key,message", [
        (dict(filter_center_nm=1e200), "filter_center_nm", "below the normal"),
        (dict(filter_fwhm_nm=5e-324), "filter_fwhm_nm", "below the normal"),
        (dict(pump_wavelength_nm=1e-300), "pump_wavelength_nm", "frequency"),
        (dict(pump_wavelength_nm=5e-324), "pump_wavelength_nm", "frequency"),
        (dict(filter_fwhm_nm=1e-300, kappa=1e-300), "kappa", "pump width"),
        (dict(seed=-1), "seed", "nonnegative"),
        (dict(kappa=1e300), "kappa", "overflows"),
        (dict(kappa=None, pump_fwhm=1e300), "pump_fwhm", "overflows"),
        (dict(kappa=None, pump_fwhm=1e150, filter_fwhm_nm=1e-20),
         "pump_fwhm", "overflows"),
        (dict(theta_start_deg=-1e308, theta_stop_deg=1e308),
         "theta_stop_deg", "overflows"),
    ], ids=["center-square-overflows", "bandwidth-underflows", "pump-overflow",
            "pump-zero-division", "pump-width", "seed", "kappa-overflows",
            "pump-width-square-overflows", "pump-kappa-overflows",
            "angle-span-overflows"])
    def test_out_of_range_values_name_their_field(self, overrides, key,
                                                  message):
        with pytest.raises(ConfigError, match=message) as info:
            ExperimentConfig(**overrides)
        assert info.value.key == key

    @pytest.mark.parametrize("points", [MAX_POINTS + 1, 10 ** 21])
    def test_points_are_bounded(self, points):
        with pytest.raises(ConfigError, match=str(MAX_POINTS)) as info:
            ExperimentConfig(points=points)
        assert info.value.key == "points"

    def test_largest_scan_is_accepted(self):
        assert ExperimentConfig(points=MAX_POINTS).points == MAX_POINTS


class TestDerivedObjects:
    def test_filter_width_matches_the_unit_conversion(self):
        config = ExperimentConfig()
        assert config.delta_omega() == bandwidth_nm_to_angular(7.3, 810.0)

    def test_filter_profile(self):
        profile = ExperimentConfig().filter_profile()
        assert profile.center == wavelength_nm_to_angular(810.0)
        assert profile.fwhm == bandwidth_nm_to_angular(7.3, 810.0)
        assert profile.order == 4

    def test_pump_is_the_filter_frequency_doubled(self):
        jsa = ExperimentConfig().joint_spectrum()
        assert jsa.pump_center == pytest.approx(
            2.0 * wavelength_nm_to_angular(810.0), rel=1e-12)

    def test_pump_width_from_kappa(self):
        config = ExperimentConfig(kappa=0.14)
        expected = math.sqrt(0.14) * config.delta_omega()
        assert config.joint_spectrum().pump_fwhm == pytest.approx(expected,
                                                                  rel=1e-12)

    def test_effective_kappa_from_pump_width(self):
        base = ExperimentConfig()
        width = 0.5 * base.delta_omega()
        config = ExperimentConfig(kappa=None, pump_fwhm=width)
        assert config.effective_kappa() == pytest.approx(0.25, rel=1e-12)
        assert config.joint_spectrum().pump_fwhm == width

    def test_taylor_medium_carries_the_configured_phase(self):
        config = ExperimentConfig(medium_phi0=0.1, medium_phi_prime=3e-13,
                                  medium_phi_double_prime=1e-27)
        medium = config.medium()
        assert isinstance(medium, TaylorMedium)
        assert medium.phi0 == 0.1
        assert medium.phi_prime == 3e-13
        assert medium.phi_double_prime == 1e-27
        assert medium.reference == wavelength_nm_to_angular(810.0)
        assert config.medium_phi_prime_effective() == 3e-13

    def test_none_medium_is_transparent_even_with_phase_fields_set(self):
        config = ExperimentConfig(medium_variant="none", medium_phi_prime=3e-13)
        medium = config.medium()
        assert isinstance(medium, TaylorMedium)
        assert medium.phi0 == medium.phi_prime == medium.phi_double_prime == 0.0
        assert config.medium_phi_prime_effective() == 0.0

    def test_crystal_medium_linearizes_to_a_negative_slope(self):
        config = ExperimentConfig(medium_variant="bbo", medium_length_mm=3.0)
        medium = config.medium()
        assert isinstance(medium, SellmeierMedium)
        reference = wavelength_nm_to_angular(810.0)
        expected = group_delay_slope(bbo_crystal(0.003), reference)
        assert config.medium_phi_prime_effective() == pytest.approx(expected,
                                                                    rel=1e-12)
        assert config.medium_phi_prime_effective() < 0.0

    def test_scan_angles_are_in_radians(self):
        config = ExperimentConfig(theta_start_deg=0.0, theta_stop_deg=180.0,
                                  points=100)
        thetas = config.thetas_rad()
        assert thetas.size == 100
        assert thetas[0] == 0.0
        assert thetas[-1] == pytest.approx(math.pi, rel=1e-15)
