"""Scan the fringe engine's refinement over a fixed grid of configurations
and compare every value it returns with a window-free reference.

    PYTHONPATH=src python tools/quadrature_scan.py [--list]

Each configuration is a symmetric pair in a linear Taylor medium behind the
default 810 nm filters of 7.3 nm: a filter order, kappa, the strength T =
phi' * delta_omega and a pump wavelength. The reference is
tests/reference.py's sum_axis_harmonics, the same N and Z on the sum axis
alone over a window that no pair reaches past. For each configuration the
scan runs

* the fixed rule: the default 128-node grid checked against 96 nodes once,
  with no window check (the engine before its refinement loop), and
* fringe_harmonics on the default grid,

and prints how many of each return a value, how many of those are off the
reference by more than ACCURACY_TOL of the flux, how many are refused and
why, and whether every value the fixed rule accepts is returned bit for bit.
--list also prints each configuration that changes. The grid is fixed, so
the output is deterministic; it takes about 30 s on a shared 2-core host.
It exits 1 if a returned value is off the reference.
"""

from __future__ import annotations

import argparse
import collections
import itertools
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "tests"))

from noonfringe import engine                                   # noqa: E402
from noonfringe.spectral import QuadratureAccuracyError        # noqa: E402
from reference import (fixed_rule, linear_pair,                 # noqa: E402
                       sum_axis_harmonics)

ORDERS = (2, 4, 6, 8, 12, 20, 40)
KAPPAS = (0.01, 0.05, 0.14, 0.5, 1.0, 3.0, 5.0, 20.0)
STRENGTHS = (0.5, 1.0, 3.0, 7.147, 15.0)
#: the pump at twice the filter centre, and detuned ones
CENTRED, DETUNED = 405.0, (392.0, 396.0, 398.0, 400.0, 402.0, 408.0, 410.0,
                           412.0, 416.0, 418.0)


def configurations():
    """(order, kappa, T, pump nm): every order, kappa and T with a centred
    pump, and every detuned pump at orders 2, 4, 6 and 40 with T 1, 3 and
    7.147."""
    yield from itertools.product(ORDERS, KAPPAS, STRENGTHS, (CENTRED,))
    yield from itertools.product((2, 4, 6, 40), KAPPAS, (1.0, 3.0, 7.147),
                                 DETUNED)


def error(h, reference):
    """max(|dN|, |dZ|) of h from the reference, in its flux N."""
    n, z = reference
    return max(abs(h.offset - n), abs(h.amplitude - z)) / n


def refusal(message: str) -> str:
    for key, why in (("window too narrow", "window"), ("cap of", "cap"),
                     ("no finite", "no flux in the window")):
        if key in message:
            return why
    return "other"


def scan(listing: bool) -> dict:
    counts = collections.Counter()
    rungs = collections.Counter()
    worst = 0.0
    harmonics = engine._harmonics
    for order, kappa, strength, pump in configurations():
        jsa, filt, medium = linear_pair(order, kappa, strength, pump)
        reference = sum_axis_harmonics(jsa, filt, medium)
        if reference[0] == 0.0:
            counts["no pairs pass the filters"] += 1
            continue
        old, old_passes = fixed_rule(jsa, filt, medium)
        old_wrong = old_passes and error(old, reference) > engine.ACCURACY_TOL
        counts["fixed rule returns"] += old_passes
        counts["fixed rule returns a wrong value"] += old_wrong
        sizes = []

        def counted(jsa, filt, medium, grid):
            sizes.append(grid.nodes_per_axis)
            return harmonics(jsa, filt, medium, grid)

        engine._harmonics = counted
        try:
            new, why = engine.fringe_harmonics(jsa, filt, medium), None
        except (QuadratureAccuracyError, FloatingPointError) as exc:
            new, why = None, refusal(str(exc))
        finally:
            engine._harmonics = harmonics
        label = f"order {order}, kappa {kappa}, T {strength}, pump {pump} nm"
        if new is None:
            counts[f"refinement refuses ({why})"] += 1
            if old_passes and not old_wrong:
                counts["refused, but right under the fixed rule"] += 1
                print(f"refused ({why}), right under the fixed rule: {label}")
            elif listing and old_passes:
                print(f"refused ({why}), wrong under the fixed rule: {label}")
            continue
        err = error(new, reference)
        worst = max(worst, err)
        rungs[sizes[-1]] += 1
        counts["refinement returns"] += 1
        counts["refinement returns a wrong value"] += err > engine.ACCURACY_TOL
        if old_passes:
            same = (new.offset == old.offset and new.amplitude == old.amplitude)
            counts["fixed rule's values returned bit for bit"] += same
            if not same:
                print(f"changed value the fixed rule returns: {label}")
        elif listing:
            print(f"returned at {sizes[-1]} nodes, refused by the fixed rule "
                  f"{'(wrong)' if err > engine.ACCURACY_TOL else ''}: {label}")
    counts["configurations"] = sum(1 for _ in configurations())
    return {"counts": counts, "rungs": rungs, "worst": worst}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--list", action="store_true",
                        help="print each configuration that changes")
    args = parser.parse_args(argv)
    result = scan(args.list)
    for key, value in sorted(result["counts"].items()):
        print(f"{key:50s} {value:5d}")
    print("accepted rung (nodes per axis): " + ", ".join(
        f"{n}: {k}" for n, k in sorted(result["rungs"].items())))
    print(f"largest error of a returned value: {result['worst']:.1e} of the "
          f"flux (tolerance {engine.ACCURACY_TOL:.0e})")
    wrong = result["counts"]["refinement returns a wrong value"]
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
