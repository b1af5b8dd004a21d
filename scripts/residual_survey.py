#!/usr/bin/env python3
"""Residual survey: sweep seeds, evaluate the flatness/compatibility
identities and (for even dimension, invertible B) the Ricci transport
identity on random polynomial backgrounds, and print one row per seed.

    python3 scripts/residual_survey.py --dim 2 --seeds 8

Seed s surveys the scene that ``make_scene.py --dim D --seed s`` writes.
The identity columns should sit at float-roundoff level for every seed;
the residual-magnitude columns show how far off-shell the random
backgrounds are (order one).
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gencourant import expr as ex
from gencourant import streff
from gencourant.scene import scene_from_dict
from make_scene import build


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dim", type=int, default=2, choices=(2, 3))
    parser.add_argument("--seeds", type=int, default=8)
    parser.add_argument("--invertible-b", action="store_true")
    args = parser.parse_args()
    if args.invertible_b and args.dim % 2:
        parser.error("--invertible-b needs an even dimension")

    cols = ["seed", "beta max", "identity: scalar", "identity: off-block"]
    if args.invertible_b:
        cols += ["identity: transport"]
    cols += ["sec"]
    print("  ".join(f"{c:>20}" for c in cols))
    for seed in range(args.seeds):
        t0 = time.perf_counter()
        doc = build(args.dim, seed, args.invertible_b, scale=0.25, points=12)
        bg = scene_from_dict(doc, name=f"seed {seed}").background
        pts = bg.chart.sample_points()
        derived = streff.Derived(bg)
        scalar_residual, ricci_residual = streff.central_residuals(derived)
        beta_max = derived.beta_max[0]
        scalar = ex.max_abs_on_points(scalar_residual, pts)[0]
        offblock = ex.max_abs_on_points(ricci_residual, pts)[0]
        row = [f"{seed:>20}", f"{beta_max:>20.3e}", f"{scalar:>20.3e}", f"{offblock:>20.3e}"]
        if args.invertible_b:
            tmax = ex.max_abs_on_points(derived.transport, pts)[0]
            row.append(f"{tmax:>20.3e}")
        row.append(f"{time.perf_counter() - t0:>20.2f}")
        print("  ".join(row))


if __name__ == "__main__":
    main()
