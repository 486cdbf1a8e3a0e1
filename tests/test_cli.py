"""End-to-end command-line tests, run in process through main(argv).

The frozen fit values for the bundled sample files are regression pins:
the samples are versioned artifacts (their generating configuration is in
their # cfg: headers), so their fits are exactly reproducible.
"""

import dataclasses
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import noonfringe
import noonfringe.cli
import noonfringe.config
from noonfringe.cli import (CONFIG_ENV_VAR, EXIT_INPUT, EXIT_IO, EXIT_OK,
                            EXIT_VALIDATION, FIELDS_READ, main,
                            read_fringe_csv)
from noonfringe.config import ExperimentConfig, merge_config, parse_config_text
from noonfringe.engine import _mesh_axes
from noonfringe.spectral import QuadratureAccuracyError, group_delay_slope

DATA_DIR = os.path.join(os.path.dirname(noonfringe.__file__), "data")
CALIBRATION_CSV = os.path.join(DATA_DIR, "calibration.csv")
WITHCRYSTAL_CSV = os.path.join(DATA_DIR, "withcrystal.csv")

# group-delay slope (s) whose dimensionless strength gives v = 0.568 at
# kappa = 0.14 through the interference engine
PHI_PRIME_STAR = 3.368488736379334e-13


@pytest.fixture(autouse=True)
def _isolated_config_env(monkeypatch):
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)


def run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:      # argparse refuses the command line
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_rows(csv_text):
    lines = [l for l in csv_text.splitlines() if l and not l.startswith("#")]
    return lines[0], lines[1:]


def write_flat_csv(path, n=100):
    rng = np.random.default_rng(3)
    rows = ["theta_deg,counts"]
    for theta, count in zip(np.linspace(0.0, 180.0, n), rng.poisson(1000.0, n)):
        rows.append(f"{float(theta)!r},{int(count)}")
    path.write_text("\n".join(rows) + "\n")


class TestSimulate:
    def test_default_run(self, capsys):
        code, out, _ = run(capsys, ["simulate"])
        assert code == EXIT_OK
        header, rows = data_rows(out)
        assert header == "theta_deg,counts"
        assert len(rows) == 100
        assert "# schema = fringe-csv/1" in out
        # the default medium has no dispersion, so the fringe is perfect
        assert "# visibility_raw = 1.0" in out

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, ["simulate", "--phi-prime", "1e-13"])
        _, second, _ = run(capsys, ["simulate", "--phi-prime", "1e-13"])
        assert first == second

    def test_rounding_dust_phase_prints_zero(self, capsys):
        # Im(Z) is rounding dust below zero, whose angle folds to 0, not 2*pi
        config = ExperimentConfig(kappa=0.01, medium_phi_prime=3e-13)
        harmonics = noonfringe.engine.fringe_harmonics(
            config.joint_spectrum(), config.filter_profile(), config.medium(),
            noonfringe.cli._default_grid(config))
        assert -1e-15 * harmonics.offset < harmonics.amplitude.imag < 0.0
        _, out, _ = run(capsys, ["simulate", "--kappa", "0.01",
                                 "--phi-prime", "3e-13"])
        assert "# fringe_phase_rad = 0.0\n" in out

    @pytest.mark.parametrize("phi_prime", ["-3e-13", "3e-13"])
    def test_real_fringe_prints_zero_phase(self, capsys, phi_prime):
        # without phi0 Z is real; its Im(Z) of either sign is dust
        _, out, _ = run(capsys, ["simulate", f"--phi-prime={phi_prime}"])
        assert "# fringe_phase_rad = 0.0\n" in out

    def test_a_tiny_kappa_evaluates_no_more_points_than_the_mesh(
            self, capsys, monkeypatch):
        # at kappa = 1e-10 a difference step spans ~2e5 sum steps; the
        # lattice skips the gaps the mesh never reaches
        sizes = []
        transmission = noonfringe.engine.filter_transmission

        def counted(filt, omega):
            sizes.append(np.size(omega))
            return transmission(filt, omega)

        monkeypatch.setattr(noonfringe.engine, "filter_transmission", counted)
        code, out, _ = run(capsys, ["simulate", "--kappa", "1e-10",
                                    "--phi-prime", "3e-13"])
        assert code == EXIT_OK
        v = float(out.split("# visibility_raw = ")[1].split()[0])
        assert v == pytest.approx(0.9999999996435456, rel=1e-13)
        config = ExperimentConfig(kappa=1e-10, medium_phi_prime=3e-13)
        mesh = noonfringe.engine._mesh_axes(
            config.joint_spectrum(), config.filter_profile(),
            noonfringe.cli._default_grid(config))
        assert len(sizes) == 2
        assert sizes[0] == mesh.omega.size <= mesh.s.size * mesh.um.size

    def test_point_count_flag(self, capsys):
        code, out, _ = run(capsys, ["simulate", "--points", "64"])
        assert code == EXIT_OK
        assert len(data_rows(out)[1]) == 64

    def test_file_output(self, tmp_path, capsys):
        target = tmp_path / "curve.csv"
        code, out, _ = run(capsys, ["simulate", "-o", str(target)])
        assert code == EXIT_OK
        assert out == ""
        text = target.read_text()
        assert text.endswith("\n")
        assert len(data_rows(text)[1]) == 100


class TestSynth:
    def test_same_seed_is_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, ["synth", "--seed", "9", "-o", str(a)])[0] == EXIT_OK
        assert run(capsys, ["synth", "--seed", "9", "-o", str(b)])[0] == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_different_seeds_differ(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, ["synth", "--seed", "9", "-o", str(a)])
        run(capsys, ["synth", "--seed", "10", "-o", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_three_column_schema(self, tmp_path, capsys):
        target = tmp_path / "noisy.csv"
        run(capsys, ["synth", "-o", str(target)])
        header, rows = data_rows(target.read_text())
        assert header == "theta_deg,counts,counts_err"
        theta, counts = read_fringe_csv(str(target))
        assert theta.size == 100
        assert np.all(counts == np.round(counts))
        err = np.array([float(row.split(",")[2]) for row in rows])
        assert np.allclose(err, np.sqrt(np.maximum(counts, 1.0)))

    def test_huge_counts_reproduce_the_noiseless_fringe(self, tmp_path, capsys):
        target = tmp_path / "bright.csv"
        code, _, _ = run(capsys, [
            "synth", "--phi-prime", repr(PHI_PRIME_STAR), "--phi0", "0.122",
            "--mean-counts", "1e9", "--seed", "5", "-o", str(target)])
        assert code == EXIT_OK
        code, out, _ = run(capsys, ["fit", str(target)])
        assert code == EXIT_OK
        fit = json.loads(out)["fit"]
        assert fit["visibility"] == pytest.approx(0.568, abs=1e-3)
        assert fit["phase0_rad"] == pytest.approx(0.244, abs=5e-3)
        assert fit["harmonic"] == pytest.approx(8.0, abs=1e-2)

    def test_oversized_mean_counts_is_an_input_error(self, capsys):
        code, out, err = run(capsys, ["synth", "--mean-counts", "1e30"])
        assert code == EXIT_INPUT
        assert out == ""
        assert "mean_counts" in err
        # the noiseless curve has no sampling limit
        assert run(capsys, ["simulate", "--mean-counts", "1e30"])[0] == EXIT_OK


    @pytest.mark.parametrize("command", ["simulate", "synth"])
    def test_mean_counts_that_overflow_are_refused_by_name(self, capsys,
                                                           command):
        # mean_counts * P(theta)/mean(P) overflows at the fringe peak: one
        # error line naming the field, and no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run(capsys, [command, "--mean-counts", "1e308"])
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'mean_counts'" in err

    def test_mean_counts_just_below_overflow_give_finite_counts(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run(capsys, ["simulate", "--mean-counts", "8e307"])
        assert code == EXIT_OK and err == ""
        counts = np.array([float(row.split(",")[1])
                           for row in data_rows(out)[1]])
        assert counts.size == 100
        assert np.all(np.isfinite(counts)) and counts.max() > 1e308


class TestFit:
    def test_bundled_calibration_sample(self, capsys):
        code, out, _ = run(capsys, ["fit", CALIBRATION_CSV])
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["schema"] == "noonfringe-report/1"
        assert report["input"] == "calibration.csv"
        fit = report["fit"]
        assert fit["visibility"] == pytest.approx(0.967142, abs=5e-5)
        assert fit["visibility_stderr"] == pytest.approx(0.001818, abs=5e-5)
        assert not fit["degenerate"]
        assert report["warnings"] == []

    def test_bundled_crystal_sample(self, capsys):
        code, out, _ = run(capsys, ["fit", WITHCRYSTAL_CSV])
        assert code == EXIT_OK
        fit = json.loads(out)["fit"]
        assert fit["visibility"] == pytest.approx(0.563400, abs=5e-5)
        assert fit["phase0_rad"] == pytest.approx(0.2436, abs=5e-4)
        assert fit["harmonic"] == pytest.approx(7.9962, abs=5e-3)

    def test_flat_data_warns_degenerate(self, tmp_path, capsys):
        csv = tmp_path / "flat.csv"
        write_flat_csv(csv)
        code, out, _ = run(capsys, ["fit", str(csv), "--fix-harmonic", "8"])
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["fit"]["degenerate"]
        assert any("degenerate" in w for w in report["warnings"])

    def test_normalized_flag(self, tmp_path, capsys):
        csv = tmp_path / "clean.csv"
        run(capsys, ["simulate", "--medium", "none", "-o", str(csv)])
        code, out, _ = run(capsys, ["fit", str(csv), "--normalized"])
        assert code == EXIT_OK
        assert json.loads(out)["fit"]["visibility"] == pytest.approx(1.0,
                                                                     abs=1e-6)

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["fit", "/no/such/file.csv"])
        assert code == EXIT_INPUT
        assert "cannot read" in err

    def test_wrong_header(self, tmp_path, capsys):
        csv = tmp_path / "bad.csv"
        csv.write_text("angle,counts\n0.0,10\n")
        code, _, err = run(capsys, ["fit", str(csv)])
        assert code == EXIT_INPUT
        assert f"{csv}:1" in err and "theta_deg" in err

    def test_wrong_column_count(self, tmp_path, capsys):
        csv = tmp_path / "bad.csv"
        rows = ["theta_deg,counts"] + [f"{t},100" for t in range(0, 100, 2)]
        rows[7] = "12.0,100,3.0"
        csv.write_text("\n".join(rows) + "\n")
        code, _, err = run(capsys, ["fit", str(csv)])
        assert code == EXIT_INPUT
        assert f"{csv}:8" in err and "columns" in err

    def test_unparsable_number(self, tmp_path, capsys):
        csv = tmp_path / "bad.csv"
        csv.write_text("theta_deg,counts\n0.0,10\n4.0,ten\n")
        code, _, err = run(capsys, ["fit", str(csv)])
        assert code == EXIT_INPUT
        assert f"{csv}:3" in err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_the_line(self, tmp_path, capsys, cell):
        csv = tmp_path / "bad.csv"
        rows = ["theta_deg,counts"] + [f"{t},100" for t in range(0, 100, 2)]
        rows[5] = f"8.0,{cell}"
        csv.write_text("\n".join(rows) + "\n")
        code, _, err = run(capsys, ["fit", str(csv)])
        assert code == EXIT_INPUT
        assert f"{csv}:6" in err and "non-finite" in err

    @pytest.mark.parametrize("command", ["fit", "estimate"])
    def test_non_utf8_file_names_the_path(self, tmp_path, capsys, command):
        bad = tmp_path / "latin.csv"
        bad.write_bytes(b"theta_deg,counts\n0.0,\xff\n")
        code, out, err = run(capsys, [command, str(bad)])
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("error: ") and "latin.csv" in err

    @pytest.mark.parametrize("scale", [1e250, 1e307])
    @pytest.mark.parametrize("argv", [
        ["fit"], ["estimate", "--bootstrap", "0"], ["estimate"],
        ["fit", "--normalized"], ["estimate", "--normalized"]],
        ids=["fit", "estimate-no-bootstrap", "estimate", "fit-normalized",
             "estimate-normalized"])
    def test_huge_counts_give_a_finite_report_or_name_the_counts(
            self, tmp_path, capsys, scale, argv):
        # scale*(1 + 0.5 cos 8 theta) over 60 angles: a Poisson fit has
        # finite standard errors, and the bootstrap resamples such counts
        # from the normal law; a normalized fit's offset variance leaves
        # floating-point range
        theta = np.linspace(0.0, 180.0, 60, endpoint=False)
        counts = scale * (1.0 + 0.5 * np.cos(8.0 * np.radians(theta)))
        csv = tmp_path / "huge.csv"
        csv.write_text("theta_deg,counts\n" + "".join(
            f"{float(t)!r},{float(c)!r}\n" for t, c in zip(theta, counts)))
        code, out, err = run(capsys, [argv[0], str(csv)] + argv[1:])
        if "--normalized" in argv:
            assert code == EXIT_INPUT
            assert out == ""
            assert f"counts up to {float(counts.max())!r}" in err
            return
        assert code == EXIT_OK
        report = json.loads(out)
        if argv == ["estimate"]:
            boot = report["bootstrap"]
            assert boot["failure_fraction"] == 0.0
            assert math.isfinite(boot["kappa_mean"])
            assert 0.0 < boot["kappa_std"] < math.inf
        fit = report["fit"]
        assert fit["visibility"] == pytest.approx(0.5, abs=1e-9)
        assert fit["offset_stderr"] == pytest.approx(math.sqrt(scale / 60.0),
                                                     rel=0.05)
        for name in ("visibility_stderr", "phase0_stderr_rad",
                     "harmonic_stderr"):
            assert 0.0 < fit[name] < 1.0 / math.sqrt(scale)

    def test_too_few_rows(self, tmp_path, capsys):
        csv = tmp_path / "bad.csv"
        csv.write_text("theta_deg,counts\n" + "".join(
            f"{t * 30.0},100\n" for t in range(3)))
        code, _, err = run(capsys, ["fit", str(csv)])
        assert code == EXIT_INPUT
        assert "8" in err


class TestEstimate:
    def test_full_visibility_means_zero_bound(self, capsys):
        code, out, _ = run(capsys, ["estimate", "--visibility", "1.0"])
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["kappa_bar"] == 0.0
        assert report["sigma_phi_sq_rad2"] == 0.0
        assert report["bound_kind"] == "lower bound"
        assert report["fit"] is None
        assert report["visibility"]["source"] == "flag"
        assert report["calibration"]["source"] == "self-consistent"
        assert report["kappa_uncertainty"] is None
        assert report["validation"]["filter_order"] == 4
        assert report["validation"]["kl_forward"] > 0
        assert "kl_undefined" not in report["validation"]

    def test_reference_visibility_recovers_the_reference_kappa(self, capsys):
        code, out, _ = run(capsys, ["estimate", "--visibility", "0.568"])
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["kappa_bar"] == pytest.approx(0.14, rel=1e-9)
        assert report["sigma_phi_sq_rad2"] == pytest.approx(
            -2.0 * math.log(0.568), rel=1e-12)

    def test_pipeline_on_the_bundled_sample(self, capsys):
        code, out, _ = run(capsys, ["estimate", WITHCRYSTAL_CSV,
                                    "--bootstrap", "0"])
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["visibility"]["source"] == "fit"
        assert report["fit"]["visibility"] == pytest.approx(0.563400, abs=5e-5)
        assert report["kappa_bar"] == pytest.approx(0.14229884790354475,
                                                    rel=1e-6)
        assert report["kappa_uncertainty"] is None

    def test_bootstrap_uncertainty_band(self, capsys):
        code, out, _ = run(capsys, ["estimate", WITHCRYSTAL_CSV,
                                    "--bootstrap", "100",
                                    "--fix-harmonic", "8"])
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["bootstrap"]["n_resamples"] == 100
        assert 0.012 < report["kappa_uncertainty"] < 0.030
        assert report["bootstrap"]["failure_fraction"] == 0.0

    def test_near_floor_scan_flags_the_bootstrap_unreliable(self, tmp_path,
                                                            capsys):
        # the scan of test_analysis's near-floor bootstrap, 5% above the
        # visibility floor of the self-consistent slope
        t = noonfringe.self_consistent_calibration()
        floor = math.exp(-t * t / (16.0 * math.log(2.0)))
        thetas = np.linspace(0.0, math.pi, 100)
        truth = 300.0 * (1.0 + 1.05 * floor * np.cos(8.0 * thetas + 0.244))
        rng = np.random.default_rng(np.random.SeedSequence(entropy=[5]))
        rows = [f"{float(theta)!r},{int(count)}"
                for theta, count in zip(np.degrees(thetas), rng.poisson(truth))]
        csv = tmp_path / "near-floor.csv"
        csv.write_text("\n".join(["theta_deg,counts", *rows]) + "\n")
        code, out, _ = run(capsys, ["estimate", str(csv), "--fix-harmonic", "8",
                                    "--phi-prime-frac-unc", "0", "--seed", "2"])
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["bootstrap"]["failure_fraction"] > 0.10
        assert "bootstrap unreliable: %.0f%% of resamples failed" % (
            100 * report["bootstrap"]["failure_fraction"]) in report["warnings"]

    def test_fit_and_estimate_word_a_degenerate_fit_alike(self, capsys):
        warned = []
        for command in ("fit", "estimate"):
            code, out, _ = run(capsys, [command, WITHCRYSTAL_CSV,
                                        "--fix-harmonic", "1e-20"])
            assert code == EXIT_OK
            report = json.loads(out)
            assert report["fit"]["degenerate"]
            warned.append([w for w in report["warnings"]
                           if w.startswith("degenerate-fit")])
        assert len(warned[0]) == 1 and warned[0] == warned[1]

    def test_small_bootstrap_request_is_raised_to_the_floor(self, capsys):
        code, out, _ = run(capsys, ["estimate", WITHCRYSTAL_CSV,
                                    "--bootstrap", "7", "--fix-harmonic", "8"])
        assert code == EXIT_OK
        assert json.loads(out)["bootstrap"]["n_resamples"] == 100

    def test_negative_bootstrap_count_is_an_input_error(self, capsys):
        code, out, err = run(capsys, ["estimate", WITHCRYSTAL_CSV,
                                      "--bootstrap", "-7"])
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("error: --bootstrap ")

    def test_sellmeier_calibration_reports_both_inversions(self, capsys):
        code, out, _ = run(capsys, ["estimate", "--visibility", "0.568",
                                    "--calibration", "sellmeier"])
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["calibration"]["source"] == "sellmeier"
        assert report["calibration"]["phi_prime_s"] < 0.0
        assert report["kappa_bar"] == pytest.approx(0.00937, abs=2e-4)
        comparison = report["calibration_comparison"]
        assert comparison["self-consistent"]["kappa_bar"] == pytest.approx(
            0.14, rel=1e-6)
        assert comparison["sellmeier"]["kappa_bar"] == report["kappa_bar"]

    def test_comparison_below_the_self_consistent_floor(self, capsys):
        # feasible under the Sellmeier slope, below the self-consistent floor
        code, out, _ = run(capsys, ["estimate", "--visibility", "0.005",
                                    "--calibration", "sellmeier"])
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["kappa_bar"] > 0.0
        comparison = report["calibration_comparison"]
        assert comparison["sellmeier"]["kappa_bar"] == report["kappa_bar"]
        alt = comparison["self-consistent"]
        assert alt["kappa_bar"] is None
        assert alt["infeasibility"]["visibility"] == 0.005
        assert alt["infeasibility"]["visibility_floor"] > 0.005
        assert "below the filter-limited minimum" in alt["infeasibility"]["reason"]

    @pytest.mark.parametrize("flag,calibration", [
        ("--phi-prime-cal", "user"), ("--phi-prime", "config-medium")])
    def test_negative_exponent_slope_parses_in_both_spellings(
            self, capsys, flag, calibration):
        base = ["estimate", "--visibility", "0.3", "--calibration", calibration]
        code, spaced, _ = run(capsys, base + [flag, "-3e-13"])
        assert code == EXIT_OK
        code, joined, _ = run(capsys, base + [f"{flag}=-3e-13"])
        assert code == EXIT_OK
        assert spaced == joined
        assert json.loads(spaced)["calibration"]["phi_prime_s"] == -3e-13

    def test_config_medium_calibration(self, capsys):
        code, out, _ = run(capsys, ["estimate", "--visibility", "0.568",
                                    "--calibration", "config-medium",
                                    "--phi-prime", repr(PHI_PRIME_STAR)])
        assert code == EXIT_OK
        report = json.loads(out)
        t_sq = (PHI_PRIME_STAR * report["calibration"]["delta_omega_rad_per_s"]) ** 2
        x = -2.0 * math.log(0.568) * 8.0 * math.log(2.0) / t_sq
        assert report["kappa_bar"] == pytest.approx(x / (1.0 - x), rel=1e-9)

    def test_config_medium_without_slope_is_an_input_error(self, capsys):
        code, _, err = run(capsys, ["estimate", "--visibility", "0.568",
                                    "--calibration", "config-medium"])
        assert code == EXIT_INPUT
        assert "zero group-delay slope" in err

    def test_user_calibration_requires_the_slope(self, capsys):
        code, _, err = run(capsys, ["estimate", "--visibility", "0.568",
                                    "--calibration", "user"])
        assert code == EXIT_INPUT
        assert "--phi-prime-cal" in err

    def test_infeasible_visibility_is_reported_not_crashed(self, capsys):
        code, out, _ = run(capsys, ["estimate", "--visibility", "0.3",
                                    "--calibration", "user",
                                    "--phi-prime-cal", "1e-13"])
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["kappa_bar"] is None
        block = report["infeasibility"]
        assert block["visibility"] == 0.3
        assert block["visibility_floor"] > 0.3
        assert "calibration" in block["reason"] or "phi_prime" in block["reason"]

    def test_visibility_flag_domain(self, capsys):
        code, _, err = run(capsys, ["estimate", "--visibility", "0.0"])
        assert code == EXIT_INPUT
        assert "(0, 1]" in err

    @pytest.mark.parametrize("value", ["0", "nan", "inf", "1.5", "-0.5"])
    def test_calibration_visibility_domain(self, capsys, value):
        code, _, err = run(capsys, ["estimate", "--visibility", "0.549",
                                    "--normalize-calibration",
                                    "--calibration-visibility", value])
        assert code == EXIT_INPUT
        assert "--calibration-visibility" in err and "(0, 1]" in err

    @pytest.mark.parametrize("value", ["0", "nan", "inf"])
    def test_user_slope_must_be_finite_and_nonzero(self, capsys, value):
        code, _, err = run(capsys, ["estimate", "--visibility", "0.568",
                                    "--calibration", "user",
                                    "--phi-prime-cal", value])
        assert code == EXIT_INPUT
        assert "--phi-prime-cal" in err

    def test_steep_order_reports_the_divergence_as_undefined(self, capsys):
        code, out, _ = run(capsys, ["estimate", "--visibility", "0.5",
                                    "--filter-order", "6"])
        assert code == EXIT_OK
        validation = json.loads(out)["validation"]
        assert validation["filter_order"] == 6
        assert validation["kl_forward"] is None
        assert validation["kl_reverse"] is None
        assert "support violation" in validation["kl_undefined"]

    def test_needs_data_or_visibility(self, capsys):
        code, _, err = run(capsys, ["estimate"])
        assert code == EXIT_INPUT
        assert "--visibility" in err

    def test_calibration_normalization_is_opt_in_and_warned(self, capsys):
        code, _, err = run(capsys, ["estimate", "--visibility", "0.549",
                                    "--normalize-calibration"])
        assert code == EXIT_INPUT
        assert "--calibration-visibility" in err

        code, out, _ = run(capsys, ["estimate", "--visibility", "0.549",
                                    "--normalize-calibration",
                                    "--calibration-visibility", "0.966"])
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["visibility"]["corrected"] == pytest.approx(
            0.549 / 0.966, rel=1e-12)
        assert report["visibility"]["used"] == report["visibility"]["corrected"]
        assert any("0.966" in w for w in report["warnings"])

    @pytest.mark.parametrize("argv,flag", [
        (["--phi-prime-cal", "3e-13"], "--phi-prime-cal"),
        (["--calibration", "sellmeier", "--phi-prime-cal", "3e-13"],
         "--phi-prime-cal"),
        (["--calibration-visibility", "0.9"], "--calibration-visibility"),
    ], ids=["phi-prime-cal", "phi-prime-cal-sellmeier",
            "calibration-visibility"])
    def test_a_flag_outside_its_mode_is_refused(self, capsys, argv, flag):
        # read only by --calibration user or normalize_calibration, the
        # flag would otherwise be dropped without a word
        code, out, err = run(capsys, ["estimate", "--visibility", "0.5",
                                      *argv])
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith(f"error: {flag} ") and "read only with" in err

    def test_deterministic_report(self, capsys):
        argv = ["estimate", "--visibility", "0.568"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second


class TestValidate:
    def test_order_four_table_passes(self, capsys):
        code, out, _ = run(capsys, ["validate"])
        assert code == EXIT_OK
        assert "8/8 checks passed" in out

    def test_order_four_json(self, capsys):
        code, out, _ = run(capsys, ["validate", "--json"])
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["failed"] == 0
        assert len(report["rows"]) == 8
        assert all(r["status"] == "pass" for r in report["rows"])
        names = [r["check"] for r in report["rows"]]
        assert any("ratio constancy" in n for n in names)
        assert any("FWHM" in n for n in names)

    def test_order_two_is_exactly_gaussian(self, capsys):
        code, out, _ = run(capsys, ["validate", "--filter-order", "2"])
        assert code == EXIT_OK
        assert "5/5 checks passed" in out

    def test_steep_orders_degrade_gracefully(self, capsys):
        code, out, _ = run(capsys, ["validate", "--filter-order", "6"])
        assert code == EXIT_OK
        assert "2/2 checks passed" in out

    @pytest.mark.parametrize("kappa", [1e-5, 1e-8, 1e-10])
    def test_narrow_pumps_pass_every_row(self, capsys, kappa):
        # the phase-moment grid shrinks to a pump far narrower than the
        # filters; the variance then exceeds the closed form by ~0.139 kappa
        code, out, _ = run(capsys, ["validate", "--kappa", repr(kappa),
                                    "--json"])
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["failed"] == 0
        assert len(report["rows"]) == 8
        ratio = next(r["value"] for r in report["rows"]
                     if r["check"] == "phase variance / closed form")
        assert (ratio - 1.0) / kappa == pytest.approx(0.1388, rel=2e-3)

    @pytest.mark.parametrize("flag,value,key", [
        *[("--kappa", k, None) for k in ("1e-14", "1e-20", "1e-26", "1e-30",
                                         "1e-40", "1e-100", "1e-300")],
        *[("--pump-fwhm", w, None) for w in ("0.05", "1e-3", "1e-100")],
        # kappa, or the closed form it gives, leaves the normal float range:
        # the ratio row has no divisor
        ("--pump-fwhm", "1e-160", "'pump_fwhm'"),
        ("--kappa", "5e-324", "'kappa'"),
    ], ids=lambda v: "rows" if v is None else v.strip("-'"))
    def test_pumps_narrower_than_the_float_spacing_of_omega_p_print_every_row(
            self, capsys, flag, value, key):
        # omega_p ~ 4.6e15 rad/s has a float spacing of 0.5 rad/s; the
        # moments run on offsets in filter widths and never form it. The
        # ratio's excess ~0.139 kappa is below one ulp of 1 here, so the
        # ratio row reads 1 to rounding and may FAIL its band's edge by a
        # few ulp; every other row passes
        code, out, err = run(capsys, ["validate", "--json", flag, value])
        assert "numeric failure" not in err
        if key is not None:
            assert code == EXIT_INPUT and out == ""
            assert err.startswith("error: config field ") and key in err
            return
        assert err == ""
        rows = json.loads(out)["rows"]
        assert len(rows) == 8
        ratio = rows.pop()
        assert ratio["check"] == "phase variance / closed form"
        assert abs(ratio["value"] - 1.0) <= 2e-15
        assert all(r["status"] == "pass" for r in rows)
        assert code == (EXIT_OK if ratio["status"] == "pass"
                        else EXIT_VALIDATION)

    @pytest.mark.parametrize("medium,rest", [
        (["--phi-prime", "1e100"], []),
        (["--phi-prime", "5e-324"], []),
        (["--phi-prime", "-1e-300"], []),
        (["--phi-prime", "1e-25"], []),
        (["--medium", "bbo", "--length-mm", "1e300"], []),
        (["--medium", "bbo", "--length-mm", "1e95"], []),
        (["--medium", "bbo", "--length-mm", "1e-300"], []),
        # a crystal outside its Sellmeier window
        (["--medium", "bbo"], ["--filter-center-nm", "650",
                               "--pump-wavelength-nm", "325"]),
    ], ids=["slope-overflow", "slope-underflow", "negative-slope-underflow",
            "tiny-slope", "crystal-phase-overflow", "crystal-moments-overflow",
            "crystal-slope-underflow", "crystal-outside-sellmeier-window"])
    def test_moment_rows_do_not_depend_on_the_medium(self, capsys, medium,
                                                     rest):
        # every phase-moment row is invariant under a linear medium's slope,
        # so no medium setting, however extreme, reaches the moments, and
        # validate offers no slope flag
        code, out, err = run(capsys, ["validate", "--json", *rest, *medium])
        if medium[0] == "--phi-prime":
            assert code == EXIT_INPUT and out == ""
            assert "unrecognized arguments: --phi-prime" in err
            return
        assert code == EXIT_OK and err == ""
        code, plain, _ = run(capsys, ["validate", "--json", *rest])
        assert code == EXIT_OK
        rows = [r for r in json.loads(out)["rows"]
                if r["check"].startswith("phase")]
        expected = [r for r in json.loads(plain)["rows"]
                    if r["check"].startswith("phase")]
        assert len(rows) == 3
        for row, want in zip(rows, expected, strict=True):
            assert row["check"] == want["check"]
            assert row["status"] == want["status"] == "pass"
            if "skewness" in row["check"]:
                assert abs(row["value"] - want["value"]) <= 1e-9
            else:
                assert row["value"] == pytest.approx(want["value"], rel=1e-12)

    def test_never_reads_a_medium_slope(self, capsys, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return group_delay_slope(*args)

        monkeypatch.setattr(noonfringe.config, "group_delay_slope", counted)
        for argv in ([], ["--medium", "bbo", "--length-mm", "3"]):
            code, _, _ = run(capsys, ["validate", *argv])
            assert code == EXIT_OK
        code, _, err = run(capsys, ["validate", "--phi-prime", "3e-13"])
        assert code == EXIT_INPUT
        assert "unrecognized arguments: --phi-prime" in err
        assert calls == []
        # the counter does see the calibration slope estimate reads
        code, _, _ = run(capsys, ["estimate", "--visibility", "0.5",
                                  "--calibration", "sellmeier"])
        assert code == EXIT_OK
        assert len(calls) == 1

    def test_table_to_file(self, tmp_path, capsys):
        target = tmp_path / "checks.txt"
        code, out, _ = run(capsys, ["validate", "-o", str(target)])
        assert code == EXIT_OK
        assert out == ""
        assert "checks passed" in target.read_text()

    def test_quadrature_failure_exits_nonzero(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise QuadratureAccuracyError("synthetic convergence failure")

        monkeypatch.setattr(noonfringe.cli, "sum_frequency_density_numeric",
                            broken)
        code, out, _ = run(capsys, ["validate"])
        assert code == EXIT_VALIDATION
        assert "FAIL" in out

    @pytest.mark.parametrize("order,tabulations", [("4", 4), ("6", 3)])
    def test_each_convolution_is_computed_once(self, capsys, order,
                                               tabulations):
        # validate asks for F on two grids, 4001 and 8001 points: at order 4
        # for the density and the moments on each, at order 6 (no defined
        # divergence, so no finer density) for the moments on the finer one
        # too; each grid's table is computed once and shared
        memo = noonfringe.sumfreq._self_convolution
        memo.cache_clear()
        code, _, _ = run(capsys, ["validate", "--json",
                                  "--filter-order", order])
        assert code == EXIT_OK
        info = memo.cache_info()
        assert info.misses == 2
        assert info.hits + info.misses == tabulations


class TestConfigPlumbing:
    def test_env_var_supplies_the_config(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("points = 64\n")
        monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg))
        _, out, _ = run(capsys, ["simulate"])
        assert len(data_rows(out)[1]) == 64

    def test_flag_overrides_env_config(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("points = 64\n")
        monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg))
        _, out, _ = run(capsys, ["simulate", "--points", "32"])
        assert len(data_rows(out)[1]) == 32

    def test_config_flag_beats_env_var(self, tmp_path, capsys, monkeypatch):
        env_cfg = tmp_path / "env.cfg"
        env_cfg.write_text("points = 64\n")
        flag_cfg = tmp_path / "flag.cfg"
        flag_cfg.write_text("points = 16\n")
        monkeypatch.setenv(CONFIG_ENV_VAR, str(env_cfg))
        _, out, _ = run(capsys, ["simulate", "--config", str(flag_cfg)])
        assert len(data_rows(out)[1]) == 16

    def test_bad_config_file_names_the_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("points = 12\nfilter_order = three\n")
        code, _, err = run(capsys, ["simulate", "--config", str(cfg)])
        assert code == EXIT_INPUT
        assert "run.cfg:2" in err

    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, ["simulate", "--config", "/no/such.cfg"])
        assert code == EXIT_INPUT
        assert "cannot read" in err

    @pytest.mark.parametrize("route", ["flag", "env"])
    def test_non_utf8_config_names_the_path(self, tmp_path, capsys,
                                            monkeypatch, route):
        cfg = tmp_path / "latin.cfg"
        cfg.write_bytes(b"points = 64\n# caf\xe9\n")
        argv = ["simulate"]
        if route == "flag":
            argv += ["--config", str(cfg)]
        else:
            monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg))
        code, out, err = run(capsys, argv)
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("error: cannot read config") and "latin.cfg" in err

    def test_invalid_flag_value(self, capsys):
        code, _, err = run(capsys, ["simulate", "--points", "5"])
        assert code == EXIT_INPUT
        assert "points" in err

    @pytest.mark.parametrize("flag", ["--kappa", "--mean-counts",
                                      "--filter-fwhm-nm"])
    def test_non_finite_flag_value(self, capsys, flag):
        code, _, err = run(capsys, ["simulate", flag, "nan"])
        assert code == EXIT_INPUT
        assert flag[2:].replace("-", "_") in err and "finite" in err

    @pytest.mark.parametrize("command", ["simulate", "synth", "validate"])
    def test_zero_kappa_is_an_input_error(self, capsys, command):
        code, _, err = run(capsys, [command, "--kappa", "0"])
        assert code == EXIT_INPUT
        assert "'kappa'" in err and "must be positive" in err

    @pytest.mark.parametrize("argv,message", [
        (["simulate", "--filter-order", "40"], "grid too coarse"),
        (["synth", "--filter-order", "40"], "grid too coarse"),
        (["simulate", "--medium", "bbo", "--length-mm", "1e9"],
         "grid too coarse"),
        # F converges through order 256; order 512 needs over 1025 nodes
        (["estimate", "--visibility", "0.5", "--filter-order", "512"],
         "convolution unconverged"),
    ])
    def test_unconverged_quadrature_is_an_input_error(self, capsys, argv,
                                                      message):
        code, out, err = run(capsys, argv)
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("error: ") and message in err

    def test_numeric_failure_is_an_input_error(self, capsys, monkeypatch):
        # the last resort for a float fault that no boundary check names
        def overflow(*args, **kwargs):
            raise OverflowError("math range error")

        monkeypatch.setattr(noonfringe.cli, "kappa_from_visibility", overflow)
        code, out, err = run(capsys, ["estimate", "--visibility", "0.5"])
        assert code == EXIT_INPUT
        assert out == ""
        assert err == "error: numeric failure: math range error\n"

    @pytest.mark.parametrize("argv,prefix,key", [
        (["simulate", "--pump-wavelength-nm", "1e300"], "error: config field ",
         "'pump_wavelength_nm'"),
        (["simulate", "--pump-wavelength-nm", "380"], "error: config field ",
         "'pump_wavelength_nm'"),
        # pairs in floating-point range, but off the engine's mesh
        (["simulate", "--pump-wavelength-nm", "392"], "error: config field ",
         "'pump_wavelength_nm'"),
        (["synth", "--pump-wavelength-nm", "390"], "error: config field ",
         "'pump_wavelength_nm'"),
        # filters that pass no pairs of the pump, before any photon of the
        # mesh reaches outside the crystal's dispersion window
        (["simulate", "--medium", "bbo", "--filter-center-nm", "500"],
         "error: config field ", "'pump_wavelength_nm'"),
        # validate asks the no-pairs clause alone, without the engine's mesh
        (["validate", "--pump-wavelength-nm", "380"], "error: config field ",
         "'pump_wavelength_nm'"),
        (["estimate", "--visibility", "0.5", "--calibration", "user",
          "--phi-prime-cal", "1e-300"], "error: ", "--phi-prime-cal"),
        (["estimate", "--visibility", "0.5", "--calibration", "sellmeier",
          "--length-mm", "1e-300"], "error: config field ",
         "'medium_length_mm'"),
        (["estimate", "--visibility", "0.5", "--calibration", "sellmeier",
          "--length-mm", "0"], "error: config field ", "'medium_length_mm'"),
        # (phi_prime*delta_omega)^2 overflows
        (["estimate", "--visibility", "0.5", "--calibration", "user",
          "--phi-prime-cal", "1e200"], "error: ", "--phi-prime-cal"),
        (["estimate", "--visibility", "0.5", "--calibration",
          "config-medium", "--phi-prime", "1e200"], "error: config field ",
         "'medium_phi_prime'"),
        # the crystal's phase at the filter center overflows
        (["estimate", "--visibility", "0.5", "--calibration", "sellmeier",
          "--length-mm", "1e300"], "error: config field ",
         "'medium_length_mm'"),
        # the medium's phase overflows at the corners of the engine's mesh
        (["simulate", "--medium", "bbo", "--length-mm", "1e300"],
         "error: config field ", "'medium_length_mm'"),
        (["synth", "--phi-prime", "1e300"], "error: config field ",
         "'medium_phi_prime'"),
        (["simulate", "--phi-double-prime", "1e300"], "error: config field ",
         "'medium_phi_double_prime'"),
        # the pump width's square underflows to zero
        (["simulate", "--pump-fwhm", "1e-200"], "error: config field ",
         "'pump_fwhm'"),
        (["synth", "--pump-fwhm", "1e-300"], "error: config field ",
         "'pump_fwhm'"),
        (["validate", "--pump-fwhm", "1e-300"], "error: config field ",
         "'pump_fwhm'"),
        # ... and so does the kappa-derived one of a tiny filter width
        (["simulate", "--filter-fwhm-nm", "1e-300"], "error: config field ",
         "'kappa'"),
        (["synth", "--filter-fwhm-nm", "1e-300"], "error: config field ",
         "'kappa'"),
    ], ids=["pump-wavelength", "detuned-pump", "off-mesh-pump",
            "off-mesh-pump-synth", "bbo-filters-pass-no-pairs",
            "validate-detuned-pump", "user-slope", "sellmeier-length",
            "sellmeier-zero-length", "user-slope-overflow",
            "config-medium-slope-overflow", "sellmeier-phase-overflow", "simulate-crystal-phase-overflow",
            "synth-slope-phase-overflow", "simulate-curvature-phase-overflow",
            "simulate-pump-square-underflow", "synth-pump-square-underflow",
            "validate-pump-square-underflow", "simulate-kappa-square-underflow",
            "synth-kappa-square-underflow"])
    def test_numeric_dead_ends_name_their_field(self, capsys, argv, prefix,
                                                key):
        code, out, err = run(capsys, argv)
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith(prefix) and key in err
        assert "numeric failure" not in err

    @pytest.mark.parametrize("flag,value", [("--kappa", "1e-24")],
                             ids=["1e-24"])
    def test_narrow_pumps_the_moments_still_resolve_keep_their_exit_code(
            self, capsys, flag, value):
        # a pump width of ~21 rad/s, some forty float steps of omega_p: the
        # variance resolves and every row, the ratio's included, passes
        code, out, err = run(capsys, ["validate", "--json", flag, value])
        assert code == EXIT_OK and err == ""
        rows = json.loads(out)["rows"]
        assert len(rows) == 8
        assert all(r["status"] == "pass" for r in rows)

    def test_a_named_dead_end_builds_the_mesh_once(self, capsys,
                                                  monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return _mesh_axes(*args)

        monkeypatch.setattr(noonfringe.cli, "_mesh_axes", counted)
        code, _, err = run(capsys, ["simulate", "--medium", "bbo",
                                    "--length-mm", "1e300"])
        assert code == EXIT_INPUT and "'medium_length_mm'" in err
        assert len(calls) == 1

    @pytest.mark.parametrize("flag,value", [("--kappa", "5e-324"),
                                            ("--pump-fwhm", "1e-160")])
    def test_smallest_pump_width_with_a_nonzero_square_simulates(
            self, capsys, flag, value):
        # the pump width's square, ~2e-297 and ~1e-320 (subnormal), is not
        # zero: the underflow refusal stops short of it
        code, out, err = run(capsys, ["simulate", flag, value])
        assert code == EXIT_OK
        assert out and err == ""

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    @pytest.mark.parametrize("flag,key", [("--kappa", "'kappa'"),
                                          ("--pump-fwhm", "'pump_fwhm'")],
                             ids=["kappa", "pump-fwhm"])
    def test_overflowing_pump_width_names_its_field(self, capsys, command,
                                                    flag, key):
        code, out, err = run(capsys, [command, flag, "1e300"])
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("error: config field ") and key in err
        assert "overflows" in err

    @pytest.mark.parametrize("argv,key", [
        (["estimate", "--visibility", "0.5", "--calibration",
          "config-medium", "--phi-prime", "5e-324"], "'medium_phi_prime'"),
    ], ids=["estimate-config-medium"])
    def test_underflowing_slope_names_its_field(self, capsys, argv, key):
        # (phi_prime*delta_omega)^2 underflows, and the closed-form law
        # divides by it
        code, out, err = run(capsys, argv)
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("error: config field ") and key in err
        assert "underflows" in err

    @pytest.mark.parametrize("argv", [
        ["estimate", "--visibility", "0.5"], ["validate"], ["simulate"],
        ["synth"],
    ], ids=["estimate", "validate", "simulate", "synth"])
    def test_infinite_angular_bandwidth_is_an_input_error(self, capsys, argv):
        code, out, err = run(capsys, argv + ["--filter-fwhm-nm", "1e300"])
        assert code == EXIT_INPUT
        assert out == ""
        assert "'filter_fwhm_nm'" in err and "finite angular bandwidth" in err

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    def test_underflowing_filter_center_is_an_input_error(self, capsys,
                                                          command):
        # the center's square underflows to zero or to a subnormal in the
        # unit conversion
        for center in ("1e-300", "1e-150"):
            code, out, err = run(capsys, [command, "--filter-center-nm", center])
            assert code == EXIT_INPUT
            assert out == ""
            assert "'filter_center_nm'" in err
            assert "finite angular bandwidth" in err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--medium", "bbo", "--filter-center-nm", "650",
         "--pump-wavelength-nm", "325"],
        ["simulate", "--medium", "bbo", "--pump-wavelength-nm", "2"],
        ["estimate", "--visibility", "0.5", "--calibration", "sellmeier",
         "--filter-center-nm", "2"],
    ], ids=["filter", "pump", "sellmeier-calibration"])
    def test_crystal_outside_its_dispersion_window_is_an_input_error(
            self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("error: wavelength") and "validity window" in err

    def test_the_sellmeier_window_is_read_where_the_filters_pass_pairs(
            self, capsys):
        # the engine's photon lattice ends where the filter pair underflows,
        # so every photon 20 nm filters can pass lies inside 700-900 nm
        code, out, err = run(capsys, ["simulate", "--medium", "bbo",
                                      "--length-mm", "1",
                                      "--filter-fwhm-nm", "20"])
        assert code == 0 and err == "" and out

    def test_pump_off_the_filters_is_an_input_error(self, capsys):
        # an 810 nm pump makes pairs about 1620 nm, which never reach the
        # 810 nm filters: no flux on the mesh
        code, out, err = run(capsys, ["simulate", "--pump-wavelength-nm", "810"])
        assert code == EXIT_INPUT
        assert out == ""
        assert "no finite fringe" in err and err.count("\n") == 1

    def test_oversized_scan_is_an_input_error(self, capsys):
        # numpy refuses this size before allocating anything
        code, out, err = run(capsys, ["simulate", "--points",
                                      "999999999999999999999"])
        assert code == EXIT_INPUT
        assert out == ""
        assert "'points'" in err and "1000000" in err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--filter-fwhm-nm", "1e-300"],
        ["synth", "--filter-fwhm-nm", "1e-300"],
        ["validate", "--filter-fwhm-nm", "1e-300"],
        ["simulate", "--pump-fwhm", "1e-300"],
    ], ids=["simulate", "synth", "validate", "pump-width"])
    def test_degenerate_width_leaves_stderr_one_error_line(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _, err = run(capsys, argv)
        assert code == EXIT_INPUT
        assert err.startswith("error: ") and err.count("\n") == 1
        if argv[0] == "validate":
            # the kappa-derived pump width's square underflows
            assert "'kappa'" in err

    def test_csv_headers_round_trip_the_config(self, tmp_path, capsys):
        target = tmp_path / "curve.csv"
        run(capsys, ["synth", "--kappa", "0.2", "--seed", "3",
                     "-o", str(target)])
        text = target.read_text()
        assert "# cfg: kappa = 0.2" in text
        assert "# cfg: seed = 3" in text
        assert "# generated-by = noonfringe synth" in text

    @pytest.mark.parametrize("flags,cfg,expected", [
        ([], "", ExperimentConfig()),
        # simulate offers a flag for each field it reads; the file, shared
        # by every subcommand, sets the four it does not
        (["--pump-wavelength-nm", "404", "--filter-center-nm", "808",
          "--filter-fwhm-nm", "7", "--filter-order", "6", "--medium", "bbo",
          "--phi0", "0.25", "--phi-prime", "-3e-13",
          "--phi-double-prime", "1e-27", "--length-mm", "2.5",
          "--pump-fwhm", "8e12",
          "--theta-start-deg", "10", "--theta-stop-deg", "100",
          "--points", "64", "--mean-counts", "500"],
         "phi_prime_fractional_uncertainty = 0.05\nseed = 7\n"
         "fix_harmonic = 8\nnormalize_calibration = true\n",
         ExperimentConfig(pump_wavelength_nm=404.0, filter_center_nm=808.0,
                          filter_fwhm_nm=7.0, filter_order=6,
                          medium_variant="bbo", medium_phi0=0.25,
                          medium_phi_prime=-3e-13,
                          medium_phi_double_prime=1e-27,
                          medium_length_mm=2.5,
                          phi_prime_fractional_uncertainty=0.05, kappa=None,
                          pump_fwhm=8e12, theta_start_deg=10.0,
                          theta_stop_deg=100.0, points=64, mean_counts=500.0,
                          seed=7, fix_harmonic=8.0,
                          normalize_calibration=True)),
    ], ids=["defaults", "every-field-off-its-default"])
    def test_cfg_block_parses_back_to_the_config(self, tmp_path, capsys,
                                                 flags, cfg, expected):
        if flags:
            default = ExperimentConfig()
            assert [f.name for f in dataclasses.fields(expected)
                    if getattr(expected, f.name) == getattr(default, f.name)
                    ] == ["schema"]
        (tmp_path / "rest.cfg").write_text(cfg)
        code, out, _ = run(capsys, ["simulate", *flags,
                                    "--config", str(tmp_path / "rest.cfg")])
        assert code == EXIT_OK
        block = "\n".join(line[len("# cfg: "):] for line in out.splitlines()
                          if line.startswith("# cfg: "))
        assert merge_config(parse_config_text(block)) == expected


# two valid values of each config field's flag
FLAG_VALUES = {
    "pump_wavelength_nm": ("405", "404.9"), "filter_center_nm": ("810", "809.9"),
    "filter_fwhm_nm": ("7.3", "7"), "filter_order": ("4", "2"),
    "medium_variant": ("taylor", "bbo"), "medium_phi0": ("0.1", "0.2"),
    "medium_phi_prime": ("3e-13", "4e-13"),
    "medium_phi_double_prime": ("1e-27", "2e-27"),
    "medium_length_mm": ("2", "3"),
    "phi_prime_fractional_uncertainty": ("0.05", "0.1"),
    "kappa": ("0.14", "0.2"), "pump_fwhm": ("1e12", "2e12"),
    "theta_start_deg": ("0", "10"), "theta_stop_deg": ("180", "170"),
    "points": ("64", "100"), "mean_counts": ("1000", "500"),
    "seed": ("1", "2"), "fix_harmonic": ("8", "7.9"),
}
CONFIG_FIELDS = [f.name for f in dataclasses.fields(ExperimentConfig)
                 if f.name != "schema"]


def given(name, k):
    """The argv that gives a config field's flag its k-th value (k = 0, 1).
    The switch normalize_calibration is off, then on with the contrast
    estimate needs with it."""
    flag = noonfringe.cli._flag(name)[0]
    if name == "normalize_calibration":
        return [flag, "--calibration-visibility", "0.9"] if k else []
    return [flag, FLAG_VALUES[name][k]]


# each subcommand's small fixed set of inputs, on one of which each flag it
# reads must change what it prints
INPUTS = {"simulate": [[], ["--medium", "bbo"]],
          "synth": [[], ["--medium", "bbo"]],
          "fit": [[WITHCRYSTAL_CSV]],
          # validate's rows are in filter widths: the filter width shows
          # through a pump width in rad/s
          "validate": [[], ["--pump-fwhm", "1e12"]]}
_RESAMPLING = {"seed", "phi_prime_fractional_uncertainty"}
_MEDIUM = {"medium_variant", "medium_phi_prime", "medium_length_mm"}
# each estimate mode: its command line, and the fields it offers a flag for
# that it does not read, and so refuses (under sellmeier --medium is taken
# as bbo alone, which exits 0, and refused as taylor)
ESTIMATE_MODES = {
    "visibility": (["--visibility", "0.5"],
                   {"fix_harmonic", *_RESAMPLING, *_MEDIUM}),
    "sellmeier": (["--visibility", "0.5", "--calibration", "sellmeier"],
                  {"fix_harmonic", *_RESAMPLING, "medium_phi_prime"}),
    "user": (["--visibility", "0.5", "--calibration", "user",
              "--phi-prime-cal", "3e-13"],
             {"fix_harmonic", *_RESAMPLING, *_MEDIUM}),
    "config-medium": (["--visibility", "0.5", "--calibration",
                       "config-medium", "--phi-prime", "3e-13"],
                      {"fix_harmonic", *_RESAMPLING, "medium_length_mm"}),
    "config-medium-crystal": (["--visibility", "0.5", "--calibration",
                               "config-medium", "--medium", "bbo"],
                              {"fix_harmonic", *_RESAMPLING,
                               "medium_phi_prime"}),
    "csv": ([WITHCRYSTAL_CSV, "--bootstrap", "0"], {*_RESAMPLING, *_MEDIUM}),
    "csv-bootstrap": ([WITHCRYSTAL_CSV, "--bootstrap", "100"], _MEDIUM),
}


def offered_flags(capsys, command):
    """Every flag a subcommand's help lists."""
    code, out, _ = run(capsys, [command, "--help"])
    assert code == EXIT_OK
    return set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", out))


class TestFlagTable:
    @pytest.mark.parametrize("command", sorted(FIELDS_READ))
    def test_a_subcommand_offers_the_flags_of_the_fields_it_reads(
            self, capsys, command):
        offered = offered_flags(capsys, command)
        read = {noonfringe.cli._flag(name)[0] for name in FIELDS_READ[command]}
        unread = {noonfringe.cli._flag(name)[0] for name in CONFIG_FIELDS
                  if name not in FIELDS_READ[command]}
        assert read <= offered and not unread & offered
        # an unread flag given in full must not parse as the abbreviation of
        # one offered, as --phi-prime would of --phi-prime-cal
        assert not [(flag, option) for flag in unread for option in offered
                    if option.startswith(flag)]

    @pytest.mark.parametrize("command", sorted(FIELDS_READ))
    def test_a_flag_not_offered_is_refused_by_name(self, capsys, command):
        base = ESTIMATE_MODES["visibility"][0] if command == "estimate" \
            else INPUTS[command][0]
        for name in CONFIG_FIELDS:
            if name in FIELDS_READ[command]:
                continue
            code, out, err = run(capsys, [command, *base, *given(name, 1)])
            assert code == EXIT_INPUT and out == "", name
            assert "unrecognized arguments: " + given(name, 1)[0] in err

    def test_every_offered_flag_is_read_but_two_of_validate(self, capsys):
        unread = []
        for command, inputs in INPUTS.items():
            for name in FIELDS_READ[command]:
                if not any(run(capsys, [command, *argv, *given(name, 0)])[:2]
                           != run(capsys, [command, *argv, *given(name, 1)])[:2]
                           for argv in inputs):
                    unread.append((command, noonfringe.cli._flag(name)[0]))
        # the frozen audit benchmark deck passes these to every validate
        # operation; they go once that deck no longer does
        assert unread == [("validate", "--medium"), ("validate", "--length-mm")]

    @pytest.mark.parametrize("mode", sorted(ESTIMATE_MODES))
    def test_estimate_reads_each_flag_in_its_mode_or_refuses_it(
            self, capsys, mode):
        base, refused = ESTIMATE_MODES[mode]
        for name in FIELDS_READ["estimate"]:
            flag = noonfringe.cli._flag(name)[0]
            runs = [run(capsys, ["estimate", *base, *given(name, k)])
                    for k in (0, 1)]
            if name in refused:
                for code, out, err in runs:
                    assert code == EXIT_INPUT and out == "", name
                    assert err.startswith(f"error: {flag} is read only with")
            else:
                assert runs[0][:2] != runs[1][:2], name


class TestIoErrors:
    def test_unwritable_output_is_exit_three(self, tmp_path, capsys):
        target = tmp_path / "missing" / "out.csv"
        code, _, err = run(capsys, ["simulate", "-o", str(target)])
        assert code == EXIT_IO
        assert "i/o error" in err

    def test_unwritable_report_is_exit_three(self, tmp_path, capsys):
        target = tmp_path / "missing" / "report.json"
        code, _, err = run(capsys, ["estimate", "--visibility", "0.9",
                                    "-o", str(target)])
        assert code == EXIT_IO


_SCIPY_PROBE = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

from noonfringe.cli import main
steps = [[None, scipy_modules()]]
with contextlib.redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        steps.append([main(argv), scipy_modules()])
print(json.dumps(steps))
"""


def _scipy_after_each(argvs):
    """In one fresh interpreter: the scipy modules loaded after importing the
    CLI, then the exit code and the scipy modules after each command."""
    src = os.path.dirname(os.path.dirname(noonfringe.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    env.pop(CONFIG_ENV_VAR, None)
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, json.dumps(argvs)],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_no_command_loads_scipy_optimize(tmp_path):
    argvs = []
    for order in ("2", "4", "6"):
        argvs.append(["estimate", "--visibility", "0.568",
                      "--filter-order", order])
        argvs.append(["validate", "--json", "--filter-order", order])
    # a fringe clipped at zero counts fits to v = 1, on the bound of the box
    theta = np.linspace(0.0, 180.0, 100)
    counts = np.maximum(1000.0 * (1.0 + 1.2 * np.cos(8.0 * np.radians(theta)
                                                     + 0.244)), 0.0)
    clipped = tmp_path / "clipped.csv"
    clipped.write_text("theta_deg,counts\n" + "".join(
        f"{float(t)!r},{round(c)}\n" for t, c in zip(theta, counts)))
    for path in (CALIBRATION_CSV, WITHCRYSTAL_CSV, str(clipped)):
        argvs.append(["fit", path])
        argvs.append(["estimate", path, "--bootstrap", "200"])
    steps = _scipy_after_each(argvs)
    assert [code for code, _ in steps[1:]] == [EXIT_OK] * len(argvs)
    assert "scipy.optimize" not in steps[-1][1]


def test_scipy_loads_only_for_the_order_four_closed_form():
    # orders 2 and 6 run first, so nothing before them has loaded scipy
    argvs = [[command, *value, "--filter-order", order]
             for order in ("2", "6", "4")
             for command, *value in (["validate"],
                                     ["estimate", "--visibility", "0.568"])]
    argvs += [["estimate", path, "--bootstrap", "200"]
              for path in (CALIBRATION_CSV, WITHCRYSTAL_CSV)]
    steps = _scipy_after_each(argvs)
    assert [code for code, _ in steps[1:]] == [EXIT_OK] * len(argvs)
    assert steps[0][1] == []                      # import noonfringe.cli
    assert all(loaded == [] for _, loaded in steps[1:5])
    assert "scipy.special" in steps[5][1]         # order-4 validate: K_1/4
    assert not any("scipy.linalg" in loaded for _, loaded in steps)


@pytest.mark.parametrize("argv,noted", [
    (["estimate", "--visibility", "0.6"], None),
    # the benchmark's lab-estimate shape: fit, bootstrap and F
    (["estimate", CALIBRATION_CSV, "--bootstrap", "100"], "analysis.bootstrap"),
    (["validate", "--json"], None),
    (["simulate"], "spectral.nodes"),
], ids=["estimate-visibility", "estimate-csv", "validate", "simulate"])
def test_traced_benchmark_child_runs(argv, noted):
    # perfbench's tracer wraps package names at start-up, and notes what the
    # node generators and the bootstrap return; a name it expects that the
    # package no longer has, or a return value it cannot read, kills every
    # traced run
    root = os.path.dirname(os.path.dirname(os.path.dirname(noonfringe.__file__)))
    child = os.path.join(root, "perfbench", "child.py")
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    env.pop(CONFIG_ENV_VAR, None)
    proc = subprocess.run(
        [sys.executable, child, "1", "0", *argv],
        capture_output=True, text=True, env=env, cwd=root, timeout=300)
    assert proc.returncode == 0, proc.stderr
    marks = [json.loads(line[len("@perfbench "):])
             for line in proc.stderr.splitlines()
             if line.startswith("@perfbench ")]
    spans = [span for mark in marks for span in mark.get("spans", [])]
    assert spans, proc.stderr
    if noted is not None:
        assert any(span[1] == noted and span[6] is not None for span in spans)


def _perfbench_module(monkeypatch, name):
    root = os.path.dirname(os.path.dirname(os.path.dirname(noonfringe.__file__)))
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(root, "perfbench", name + ".py"))
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["engine-sweep", "general-scan"])
def test_benchmark_library_deck_passes_its_oracles(monkeypatch, workload):
    # the library workloads build package objects themselves; a change to
    # what they pass the engine shows here, not only at benchmark time
    _perfbench_module(monkeypatch, "oracle")
    workloads = _perfbench_module(monkeypatch, "workloads")
    runner = workloads.LibraryRunner()
    deck = workloads.library_deck(workload, workloads.deck_rng(1, workload))
    for op in deck:
        prepared = runner.prepare(op)
        assert runner.check(op, prepared, runner.run(op, prepared)) == [], op


class _Reached(Exception):
    """Raised where a command has parsed and passed its mode rules."""


@pytest.mark.parametrize("workload", ["lab-estimate", "audit"])
def test_benchmark_cli_deck_is_not_refused(monkeypatch, tmp_path, capsys,
                                           workload):
    # the CLI workloads pass flags to each operation; a flag the table or
    # estimate's mode rules refuse would fail every such operation
    _perfbench_module(monkeypatch, "oracle")
    workloads = _perfbench_module(monkeypatch, "workloads")
    deck = workloads.cli_deck(workload, workloads.deck_rng(1, workload))

    def reached(*args):
        raise _Reached

    for name in ("_fit_csv", "_calibration_block", "_validate_rows"):
        monkeypatch.setattr(noonfringe.cli, name, reached)
    for k, op in enumerate(deck):
        csv = tmp_path / f"scan{k}.csv"
        if op.scan is not None:
            workloads.write_scan(csv, op.scan)
        argv = [str(csv) if arg == "{csv}" else arg for arg in op.argv]
        with pytest.raises(_Reached):
            run(capsys, argv)
