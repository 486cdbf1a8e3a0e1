"""Time the fringe engine of two source trees against each other in one
process, and compare the visibilities they return.

    python tools/engine_ab.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold a noonfringe package, such as
the src/ of two checkouts. Each package is copied under its own name into a
temporary directory and imported, so both engines run in this interpreter,
on the same host at the same time. Run-level benchmark pairs, each a fresh
process on a shared host, cannot resolve engine changes of a few percent;
this interleaved A/B can.

The curve mix is the engine-sweep workload's: a curve is 12
fringe_harmonics calls, one per kappa log-spaced over [0.05, 5], behind the
default 810 nm order-4 filters of 7.3 nm, in a linear, a curved or a BBO
medium, on 128 or 256 nodes per axis. Each round times every curve on both
trees, one right after the other, and alternates which tree goes first.

It prints each curve's median time on both trees and their ratio, the ratio
of the summed medians, and the largest |dv| between the visibilities of
the two trees.
"""

from __future__ import annotations

import argparse
import importlib
import math
import os
import shutil
import sys
import tempfile
import time

import numpy as np

#: the engine-sweep deck's kappas
KAPPAS = np.geomspace(0.05, 5.0, 12)
NODES = (128, 256)
ROUNDS = 40


def curves(pkg) -> list[tuple[str, object]]:
    """(label, run) of each curve of the mix, run() returning the curve's
    visibilities through the package pkg."""
    center = pkg.wavelength_nm_to_angular(810.0)
    fwhm = pkg.bandwidth_nm_to_angular(7.3, 810.0)
    filt = pkg.FilterProfile(center, fwhm, 4)
    spectra = [pkg.JointSpectrum(2.0 * center, math.sqrt(k) * fwhm)
               for k in KAPPAS]
    media = {"linear": pkg.TaylorMedium(center, phi0=1.0,
                                        phi_prime=7.06 / fwhm),
             "curved": pkg.TaylorMedium(center, phi0=1.0,
                                        phi_prime=4.5 / fwhm,
                                        phi_double_prime=1.75 / fwhm ** 2),
             "bbo": pkg.bbo_crystal(2e-3)}
    out = []
    for name, medium in media.items():
        for nodes in NODES:
            grid = pkg.FrequencyGrid(center, nodes_per_axis=nodes)
            out.append((f"{name} {nodes}", lambda medium=medium, grid=grid: [
                pkg.fringe_harmonics(jsa, filt, medium, grid).visibility
                for jsa in spectra]))
    return out


def compare(old_src: str, new_src: str, rounds: int = ROUNDS) -> dict:
    """Median seconds per curve on each tree over rounds interleaved runs,
    and the largest |dv| between the trees."""
    with tempfile.TemporaryDirectory() as tmp:
        names = [f"noonfringe_ab{i}_{os.getpid()}" for i in range(2)]
        for name, src in zip(names, (old_src, new_src)):
            shutil.copytree(os.path.join(src, "noonfringe"),
                            os.path.join(tmp, name),
                            ignore=shutil.ignore_patterns("__pycache__"))
        sys.path.insert(0, tmp)
        try:
            trees = [curves(importlib.import_module(name)) for name in names]
        finally:
            sys.path.remove(tmp)
        seconds = np.empty((2, len(trees[0]), rounds))
        values = np.empty((2, len(trees[0]), KAPPAS.size))
        for r in range(rounds):
            for c in range(len(trees[0])):
                for side in ((0, 1) if r % 2 == 0 else (1, 0)):
                    start = time.perf_counter()
                    values[side, c] = trees[side][c][1]()
                    seconds[side, c, r] = time.perf_counter() - start
    medians = np.median(seconds, axis=2)
    return {"curves": [(label, *medians[:, c])
                       for c, (label, _) in enumerate(trees[0])],
            "ratio": float(medians[1].sum() / medians[0].sum()),
            "max_dv": float(np.max(np.abs(values[1] - values[0])))}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    args = parser.parse_args(argv)
    result = compare(args.old_src, args.new_src)
    print(f"{'curve':12s} {'old ms':>9s} {'new ms':>9s} {'new/old':>8s}")
    for label, old, new in result["curves"]:
        print(f"{label:12s} {1e3 * old:9.3f} {1e3 * new:9.3f} "
              f"{new / old:8.3f}")
    print(f"ratio of totals (new/old, summed medians over {ROUNDS} rounds): "
          f"{result['ratio']:.3f}")
    print(f"largest |dv| between the trees: {result['max_dv']:.1e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
