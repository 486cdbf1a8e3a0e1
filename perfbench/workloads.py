"""Workload decks: the operations each workload runs, and their oracles.

A run deals whole decks, one operation at a time, and stops at the deck
boundary nearest its time limit. Every deck of a workload has the same positions: each position fixes the
operation kind and its input size, and the seed draws the physics inside
that position's stratum. So every run measures the same mix of work, and a
run that ends after two decks measures the same mix as one that ends after
three. Input sizes are the stated ones in SIZES.

CLI decks are plain data built here with numpy; library decks are executed
by worker.py through LibraryRunner, which imports the package.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

import oracle

CLI_WORKLOADS = ("lab-estimate", "audit")
LIBRARY_WORKLOADS = ("engine-sweep", "general-scan")
WORKLOADS = CLI_WORKLOADS + LIBRARY_WORKLOADS

FILTER_CENTER_NM = 810.0
FILTER_FWHM_NM = 7.3
BOOTSTRAP = 200
KAPPA_COUNT = 12
KAPPAS = np.geomspace(0.05, 5.0, KAPPA_COUNT)
NODE_STEPS = (128, 192, 256)

# position -> (harmonic fixed?, calibration, points per scan)
LAB_DECK = ((False, "self-consistent", 140), (True, "self-consistent", 60),
            (False, "sellmeier", 87), (True, "self-consistent", 113))
# position -> (command, filter order, calibration or validate medium)
AUDIT_DECK = (("validate", 4, "taylor"), ("estimate", 4, "self-consistent"),
              ("estimate", 4, "sellmeier"), ("validate", 2, "taylor"),
              ("estimate", 6, "self-consistent"), ("validate", 4, "bbo"),
              ("estimate", 4, "self-consistent"), ("validate", 6, "taylor"),
              ("estimate", 2, "sellmeier"), ("estimate", 4, "self-consistent"))
# position -> (kind, medium, nodes_per_axis)
ENGINE_DECK = (("curve", "linear", 128), ("curve", "curved", 256),
               ("curve", "bbo", 128), ("single", "bbo", None),
               ("curve", "linear", 256), ("curve", "curved", 128),
               ("curve", "bbo", 256), ("single", "bbo", None))
# position -> (medium, strength range, |linear JSA phase| range,
#              phase-matching width range in filter widths, angles); the
# ranges keep each position on one side of the 128/192/256-node refusals
GENERAL_DECK = (("taylor", (2.0, 4.0), (0.0, 1.0), (2.0, 4.0), 72),
                ("bbo", (2.5, 3.0), (0.8, 1.0), (3.0, 4.0), 24),
                ("taylor", (11.5, 12.0), (0.9, 1.0), (3.5, 4.0), 48),
                ("bbo", (0.5, 0.8), (0.0, 0.6), (2.0, 4.0), 96))

DECKS = {"lab-estimate": LAB_DECK, "audit": AUDIT_DECK,
         "engine-sweep": ENGINE_DECK, "general-scan": GENERAL_DECK}

SIZES = {
    "lab-estimate": {"points_per_scan": [p for *_, p in LAB_DECK],
                     "bootstrap_resamples": BOOTSTRAP, "filter_order": 4},
    "audit": {"filter_orders": [o for _, o, _ in AUDIT_DECK]},
    "engine-sweep": {"kappa_per_curve": KAPPA_COUNT,
                     "nodes_per_axis": [n for *_, n in ENGINE_DECK]},
    "general-scan": {"angles_per_scan": [a for *_, a in GENERAL_DECK],
                     "nodes_per_axis_steps": list(NODE_STEPS)},
}

# the one operation failure this benchmark expects: estimate at filter
# order >= 6 raises "support violation" from kl_divergence in the
# validation block and exits 1 with a traceback
KNOWN_DEFECT = "support violation"

# phi' * fwhm at which the symmetric engine gives v = 0.568 at kappa = 0.14
T_STAR = 7.059736525


def deck_rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def dealt(seconds: float, make_deck):
    """Operations of whole decks from make_deck(); another deck starts only
    while it would end the run nearer to ``seconds`` than stopping now."""
    started = time.perf_counter()
    while True:
        deck_started = time.perf_counter()
        yield from make_deck()
        now = time.perf_counter()
        if now - started + (now - deck_started) / 2.0 >= seconds:
            return


# --------------------------------------------------------------------------
# CLI workloads
# --------------------------------------------------------------------------

@dataclass
class CliOp:
    argv: list                      # "{csv}" stands for the scan file
    expect: dict
    scan: tuple | None = None       # (theta_deg, counts) to write as CSV
    defect_possible: bool = False


def cli_deck(workload: str, rng: np.random.Generator) -> list[CliOp]:
    return _lab_deck(rng) if workload == "lab-estimate" else _audit_deck(rng)


def _lab_deck(rng) -> list[CliOp]:
    ops = []
    n = len(LAB_DECK)
    for i, (fixed, calibration, points) in enumerate(LAB_DECK):
        # v and the mean counts are stratified across positions
        v = 0.3 + 0.6 * ((i * 3) % n + rng.random()) / n
        counts = 300.0 * 10.0 ** (((i * 5 + 1) % n + rng.random()) / n)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        theta_deg = np.linspace(0.0, 180.0, points)
        mean = counts * (1.0 + v * np.cos(8.0 * np.radians(theta_deg) + phase))
        argv = ["estimate", "{csv}", "--bootstrap", str(BOOTSTRAP),
                "--filter-order", "4", "--calibration", calibration,
                "--seed", str(int(rng.integers(2 ** 31)))]
        if fixed:
            argv += ["--fix-harmonic", "8"]
        ops.append(CliOp(argv, {"kind": "lab", "v": v, "fixed": fixed,
                                "calibration": calibration, "order": 4},
                         scan=(theta_deg, rng.poisson(mean))))
    return ops


def _audit_deck(rng) -> list[CliOp]:
    ops = []
    estimates = [i for i, (cmd, *_) in enumerate(AUDIT_DECK) if cmd == "estimate"]
    for i, (command, order, variant) in enumerate(AUDIT_DECK):
        if command == "validate":
            argv = ["validate", "--json", "--filter-order", str(order),
                    "--medium", variant]
            if variant == "bbo":
                argv += ["--length-mm", repr(float(rng.uniform(0.5, 3.0)))]
            ops.append(CliOp(argv, {"kind": "validate", "order": order}))
            continue
        k = estimates.index(i)
        v = 0.3 + 0.65 * (k + rng.random()) / len(estimates)
        argv = ["estimate", "--visibility", repr(v), "--filter-order",
                str(order), "--calibration", variant]
        ops.append(CliOp(argv, {"kind": "estimate", "v": v, "order": order,
                                "calibration": variant},
                         defect_possible=order >= 6))
    return ops


def write_scan(path, scan) -> None:
    theta_deg, counts = scan
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("theta_deg,counts\n")
        for t, c in zip(theta_deg, counts):
            handle.write(f"{float(t)!r},{int(c)}\n")


def check_cli(op: CliOp, code: int, stdout: str, stderr: str) -> tuple[str, str]:
    """Classify one CLI operation: ("ok" | "defect" | "fail", reason)."""
    if code != 0:
        if op.defect_possible and code == 1 and KNOWN_DEFECT in stderr:
            return "defect", "order >= 6 estimate: " + KNOWN_DEFECT
        tail = stderr.strip().splitlines()[-1:] or [""]
        return "fail", f"exit {code}: {tail[0]}"
    try:
        report = json.loads(stdout)
    except ValueError:
        return "fail", "report is not JSON"
    expect = op.expect
    problems = (_check_validate(report) if expect["kind"] == "validate"
                else _check_estimate(report, expect))
    return ("fail", "; ".join(problems)) if problems else ("ok", "")


def _check_validate(report) -> list[str]:
    rows = report.get("rows") or []
    bad = [r["check"] for r in rows if r.get("status") != "pass"]
    problems = [f"row not pass: {name}" for name in bad]
    if not rows:
        problems.append("no validation rows")
    return problems


def _check_estimate(report, expect) -> list[str]:
    problems = []
    used = report["visibility"]["used"]
    t_product = report["calibration"]["phi_prime_times_delta_omega"]
    if report["calibration"]["source"] != expect["calibration"]:
        problems.append("calibration source")
    if report.get("kappa_bar") is None:
        return problems + ["kappa_bar missing (infeasible)"]
    want = oracle.kappa_bar(used, t_product)
    if abs(report["kappa_bar"] - want) > 1e-9 * (1.0 + want):
        problems.append(f"kappa_bar {report['kappa_bar']!r} != x/(1-x) {want!r}")
    validation = report.get("validation") or {}
    if validation.get("filter_order") != expect["order"]:
        problems.append("validation block filter order")
    if expect["order"] == 4 and not validation.get(
            "exact_numeric_ratio_rel_stdev", 1.0) <= 1e-6:
        problems.append("order-4 exact/numeric ratio not constant")
    if expect["kind"] == "estimate":
        if used != expect["v"]:
            problems.append("visibility flag not used as given")
        return problems
    fit = report["fit"]
    if abs(fit["visibility"] - expect["v"]) > 5.0 * fit["visibility_stderr"]:
        problems.append(f"fitted v {fit['visibility']:.4f} more than 5 "
                        f"standard errors from {expect['v']:.4f}")
    if not expect["fixed"] and abs(fit["harmonic"] - 8.0) > 5.0 * fit["harmonic_stderr"]:
        problems.append(f"fitted harmonic {fit['harmonic']:.4f} is not 8")
    boot = report.get("bootstrap") or {}
    if boot.get("n_resamples") != BOOTSTRAP:
        problems.append("bootstrap resample count")
    elif boot["failure_fraction"] > 0.1:
        problems.append(f"bootstrap failure fraction {boot['failure_fraction']}")
    return problems


# --------------------------------------------------------------------------
# library workloads (run inside worker.py, after the package is imported)
# --------------------------------------------------------------------------

@dataclass
class LibraryOp:
    kind: str                       # curve | single | scan
    params: dict = field(default_factory=dict)


def library_deck(workload: str, rng) -> list[LibraryOp]:
    if workload == "engine-sweep":
        return [_engine_op(i, kind, medium, nodes, rng)
                for i, (kind, medium, nodes) in enumerate(ENGINE_DECK)]
    return [_general_op(spec, rng) for spec in GENERAL_DECK]


def warmup_op(workload: str, rng) -> LibraryOp:
    """The deck's first position; for engine-sweep, the reference point T*."""
    if workload == "engine-sweep":
        return LibraryOp("curve", {"medium": "linear", "nodes": 128,
                                   "t": T_STAR, "phi0": 0.0, "pin": True})
    return _general_op(GENERAL_DECK[0], rng)


def _engine_op(i, kind, medium, nodes, rng) -> LibraryOp:
    half = i // 4      # the two halves of the deck take the two strata
    if medium == "bbo":
        # single-photon positions take the upper length stratum first, so
        # each half carries one short and one long crystal
        upper = half == 0 if kind == "single" else half == 1
        lo = 1.75 if upper else 0.5
        return LibraryOp(kind, {"medium": "bbo", "nodes": nodes,
                                "length_mm": rng.uniform(lo, lo + 1.25)})
    params = {"medium": medium, "nodes": nodes,
              "t": rng.uniform(2.0 + 5.0 * half, 7.0 + 5.0 * half),
              "phi0": rng.uniform(0.0, 2.0 * math.pi)}
    if medium == "curved":
        # phi'' in units of 1/fwhm^2; the 128-node check refuses above ~5
        params["curvature"] = rng.uniform(0.5, 3.0)
    return LibraryOp(kind, params)


def _general_op(spec, rng) -> LibraryOp:
    medium, (lo, hi), (alo, ahi), (plo, phi), angles = spec
    sign = lambda: 1.0 if rng.random() < 0.5 else -1.0
    strength = ({"t": sign() * rng.uniform(lo, hi)} if medium == "taylor"
                else {"length_mm": rng.uniform(lo, hi)})
    return LibraryOp("scan", {
        "medium": medium, **strength, "phi0": rng.uniform(0.0, 2.0 * math.pi),
        "kappa": math.exp(rng.uniform(math.log(0.1), 0.0)),
        "phasematch": rng.uniform(plo, phi),
        "linear_phase": sign() * rng.uniform(alo, ahi),
        "quadratic_phase": rng.uniform(-1.0, 1.0),
        "angles": angles})


class LibraryRunner:
    """Builds package objects for deck operations, runs them, checks them.

    Attribute lookups go through the package modules at call time, so
    wrappers installed by the tracer are seen.
    """

    def __init__(self):
        from noonfringe import engine, spectral, units
        self.engine, self.spectral = engine, spectral
        self.center = units.wavelength_nm_to_angular(FILTER_CENTER_NM)
        self.fwhm = units.bandwidth_nm_to_angular(FILTER_FWHM_NM, FILTER_CENTER_NM)
        self.filter = spectral.FilterProfile(self.center, self.fwhm, 4)

    def _medium(self, p):
        sp = self.spectral
        if p["medium"] == "bbo":
            return sp.bbo_crystal(p["length_mm"] * 1e-3)
        return sp.TaylorMedium(reference=self.center, phi0=p["phi0"],
                               phi_prime=p["t"] / self.fwhm,
                               phi_double_prime=p.get("curvature", 0.0) / self.fwhm ** 2)

    def _reference_phase(self, medium):
        if isinstance(medium, self.spectral.TaylorMedium):
            return oracle.taylor_phase(medium.phi0, medium.phi_prime,
                                       medium.phi_double_prime, medium.reference)
        coeffs = lambda c: (c.a, c.b, c.c, c.d)
        return oracle.sellmeier_phase(medium.length, coeffs(medium.ordinary),
                                      coeffs(medium.extraordinary))

    def _pair(self, kappa):
        return self.spectral.JointSpectrum(2.0 * self.center,
                                           math.sqrt(kappa) * self.fwhm)

    def _asymmetric(self, p):
        a, b, fwhm = p["linear_phase"], p["quadratic_phase"], self.fwhm

        def phase(omega1, omega2):
            d = (omega1 - omega2) / fwhm
            return a * d + b * d * d
        return self.spectral.JointSpectrum(
            2.0 * self.center, math.sqrt(p["kappa"]) * fwhm,
            p["phasematch"] * fwhm, symmetric=False, spectral_phase=phase)

    def prepare(self, op: LibraryOp):
        """Untimed: package objects for the operation."""
        p = op.params
        medium = self._medium(p)
        if op.kind == "curve":
            grid = self.spectral.FrequencyGrid(self.center, nodes_per_axis=p["nodes"])
            return medium, [self._pair(k) for k in KAPPAS], grid
        if op.kind == "single":
            return (medium,)
        thetas = np.linspace(0.0, math.pi, p["angles"], endpoint=False)
        return medium, self._asymmetric(p), thetas

    def run(self, op: LibraryOp, prepared):
        """Timed: the package calls of one operation."""
        engine, spectral = self.engine, self.spectral
        if op.kind == "curve":
            medium, spectra, grid = prepared
            return [engine.fringe_harmonics(jsa, self.filter, medium, grid).visibility
                    for jsa in spectra]
        if op.kind == "single":
            return engine.single_photon_visibility(self.filter, prepared[0])
        medium, jsa, thetas = prepared
        for nodes in NODE_STEPS:
            grid = spectral.FrequencyGrid(self.center, nodes_per_axis=nodes)
            try:
                return engine.simulate_fringe_scan(jsa, self.filter, medium,
                                                   thetas, grid=grid).values
            except spectral.QuadratureAccuracyError:
                if nodes == NODE_STEPS[-1]:
                    raise

    def check(self, op: LibraryOp, prepared, result) -> list[str]:
        """Untimed: compare against the reference numerics in oracle.py."""
        p = op.params
        medium = prepared[0]
        phase = self._reference_phase(medium)
        if op.kind == "curve":
            want = oracle.pair_visibilities(self.center, self.fwhm, 4, KAPPAS, phase)
            worst = float(np.max(np.abs(np.asarray(result) - want)))
            problems = [f"visibility off the reference by {worst:.2e}"] if worst > 2e-5 else []
            if p.get("pin"):
                grid = prepared[2]
                v = self.engine.fringe_harmonics(self._pair(0.14), self.filter,
                                                 medium, grid).visibility
                if abs(v - 0.568) > 5e-3:
                    problems.append(f"v(kappa=0.14, T*) = {v:.4f}, not 0.568 +- 0.005")
            return problems
        if op.kind == "single":
            want = oracle.single_photon_visibility(self.center, self.fwhm, 4, phase)
            problems = [] if abs(result - want) <= 2e-5 else [
                f"single-photon v {result:.3e} vs reference {want:.3e}"]
            if p["length_mm"] >= 2.5 and result >= 0.05:
                problems.append("single-photon v >= 0.05 through >= 2.5 mm BBO")
            return problems
        _, jsa, thetas = prepared
        values = np.asarray(result)
        problems = []
        residual = oracle.trig_residual(thetas, values)
        if residual > 1e-9:
            problems.append(f"scan is not a 0/4/8-theta polynomial ({residual:.1e})")
        probe = [len(thetas) // 3]
        want = oracle.general_probability(
            self.center, self.fwhm, 4, p["kappa"], p["phasematch"],
            jsa.spectral_phase, phase, thetas[probe])
        worst = float(np.max(np.abs(values[probe] - want)) / values.mean())
        if worst > 1e-5:
            problems.append(f"P(theta) off the reference by {worst:.1e} of the mean")
        return problems
