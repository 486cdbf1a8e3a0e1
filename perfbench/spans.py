"""Spans around the package's public functions, installed from outside.

The package binds its imports by name (``from .sumfreq import ...``), so a
wrapper is written into every loaded noonfringe module whose namespace holds
the original function, not only into the defining module. Spans are kept in
memory as lists and handed back when the process ends.

A span is [op, name, start, end, parent, child_time, note]: ``name`` is
"<layer>.<function>", ``parent`` the index of the enclosing span (-1 for a
root), ``child_time`` the time covered by direct children, and ``note`` what
the call reported (nodes made, bootstrap outcome, exception class).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("sumfreq", "besselk", "analysis", "engine", "spectral", "cli")

# short names the per-layer metrics use for these functions
SHORT = {
    "sum_frequency_density_numeric": "density_numeric",
    "phase_distribution_moments": "phase_moments",
    "sum_frequency_density_exact": "density_exact",
    "bessel_k_quarter_scaled": "k_quarter_scaled",
    "bootstrap_kappa_uncertainty": "bootstrap",
    "coincidence_probability_general": "coincidence_general",
    "single_photon_visibility": "single_photon",
}


def _nodes_made(args, kwargs, result):
    return len(result[0])


def _bootstrap_outcome(args, kwargs, result):
    return [result.n_resamples, result.failure_fraction]


NOTES = {"spectral.nodes": _nodes_made, "analysis.bootstrap": _bootstrap_outcome}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = 0

    def wrap(self, fn, name):
        note = NOTES.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [self.op, name, 0.0, 0.0, parent, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[6] = type(exc).__name__
                raise
            finally:
                span[3] = time.perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += span[3] - span[2]
            if note is not None:
                span[6] = note(args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        """Wrap every public function of each layer wherever it is bound."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "noonfringe" or n.startswith("noonfringe.")]
        for layer in LAYERS:
            module = importlib.import_module("noonfringe." + layer)
            public = getattr(module, "__all__", None) or [
                n for n in vars(module) if not n.startswith("_")]
            for attr in public:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    self._rebind(modules, fn, f"{layer}.{SHORT.get(attr, attr)}")
        # quadrature nodes: the grid method, and the Gauss-Legendre calls that
        # sumfreq makes directly (spectral's own call sits inside axis)
        spectral = importlib.import_module("noonfringe.spectral")
        sumfreq = importlib.import_module("noonfringe.sumfreq")
        grid = spectral.FrequencyGrid
        grid.axis = self.wrap(grid.axis, "spectral.nodes")
        sumfreq.roots_legendre = self.wrap(sumfreq.roots_legendre, "spectral.nodes")

    def _rebind(self, modules, fn, name) -> None:
        wrapped = self.wrap(fn, name)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)


# --------------------------------------------------------------------------
# per-layer metrics
# --------------------------------------------------------------------------

# (metric, unit): "<layer>.self_s", or "<layer>.<function>.<what>"
PER_LAYER = (
    ("sumfreq.self_s", "s/op"),
    ("sumfreq.density_numeric.calls", "calls/op"),
    ("sumfreq.density_numeric.busy_s", "s/op"),
    ("sumfreq.phase_moments.calls", "calls/op"),
    ("sumfreq.phase_moments.busy_s", "s/op"),
    ("sumfreq.density_exact.busy_s", "s/op"),
    ("sumfreq.gaussian_approximation.busy_s", "s/op"),
    ("sumfreq.kl_divergence.busy_s", "s/op"),
    ("besselk.self_s", "s/op"),
    ("besselk.k_quarter_scaled.calls", "calls/op"),
    ("besselk.k_quarter_scaled.busy_s", "s/op"),
    ("analysis.self_s", "s/op"),
    ("analysis.fit_fringe.calls", "calls/op"),
    ("analysis.fit_fringe.busy_s", "s/op"),
    ("analysis.bootstrap.calls", "calls/op"),
    ("analysis.bootstrap.busy_s", "s/op"),
    ("analysis.bootstrap.resamples", "resamples/op"),
    ("analysis.bootstrap.useful_frac", "ratio"),
    ("analysis.kappa_from_visibility.calls", "calls/op"),
    ("analysis.kappa_from_visibility.busy_s", "s/op"),
    ("engine.self_s", "s/op"),
    ("engine.fringe_harmonics.calls", "calls/op"),
    ("engine.fringe_harmonics.busy_s", "s/op"),
    ("engine.coincidence_general.calls", "calls/op"),
    ("engine.coincidence_general.busy_s", "s/op"),
    ("engine.single_photon.calls", "calls/op"),
    ("engine.single_photon.busy_s", "s/op"),
    ("engine.quadrature_refusals", "count/op"),
    ("spectral.self_s", "s/op"),
    ("spectral.nodes.calls", "calls/op"),
    ("spectral.nodes.busy_s", "s/op"),
    ("spectral.nodes.points", "nodes/op"),
    ("spectral.medium_phase.calls", "calls/op"),
    ("spectral.medium_phase.busy_s", "s/op"),
    ("cli.self_s", "s/op"),
    ("cli.read_fringe_csv.busy_s", "s/op"),
    ("process.startup_s", "s/op"),
    ("unattributed_s", "s/op"),
    ("traced.op_wall_s", "s/op"),
    ("traced.ops_per_s", "1/s"),
)


def layer_metrics(spans, n_ops, op_wall, startup, ops_per_s) -> dict:
    """Per-operation means over a traced run.

    ``op_wall`` is the summed wall time of the operations and ``startup`` the
    summed interpreter-start-to-ready time inside it (CLI workloads only);
    whatever wall time no root span and no start-up covers is unattributed.
    """
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls, busy, points = {}, {}, 0
    resamples = useful = refusals = 0.0
    root_time = 0.0
    for op, name, start, end, parent, child, note in spans:
        dur = end - start
        layer = name.split(".", 1)[0]
        self_s[layer] += dur - child
        calls[name] = calls.get(name, 0) + 1
        parent_name = spans[parent][1] if parent >= 0 else None
        if parent < 0:
            root_time += dur
        if not _inside(spans, parent, name):
            busy[name] = busy.get(name, 0.0) + dur
        if name == "spectral.nodes" and isinstance(note, int):
            points += note
        elif name == "analysis.bootstrap" and isinstance(note, list):
            resamples += note[0]
            useful += note[0] * (1.0 - note[1])
        if (note == "QuadratureAccuracyError" and layer == "engine"
                and not (parent_name or "").startswith("engine.")):
            refusals += 1
    per = 1.0 / max(n_ops, 1)
    values = {f"{layer}.self_s": s * per for layer, s in self_s.items()}
    for metric, _ in PER_LAYER:
        head, _, what = metric.rpartition(".")
        if what == "calls":
            values[metric] = calls.get(head, 0) * per
        elif what == "busy_s":
            values[metric] = busy.get(head, 0.0) * per
    values.update({
        "analysis.bootstrap.resamples": resamples * per,
        "analysis.bootstrap.useful_frac": useful / resamples if resamples else 0.0,
        "engine.quadrature_refusals": refusals * per,
        "spectral.nodes.points": points * per,
        "process.startup_s": startup * per,
        "unattributed_s": (op_wall - startup - root_time) * per,
        "traced.op_wall_s": op_wall * per,
        "traced.ops_per_s": ops_per_s,
    })
    return {metric: {"value": values[metric], "unit": unit}
            for metric, unit in PER_LAYER}


def _inside(spans, index, name) -> bool:
    """Whether an ancestor span (from ``index`` up) has the same name."""
    while index >= 0:
        if spans[index][1] == name:
            return True
        index = spans[index][4]
    return False
