#!/usr/bin/env python3
"""Generate a random polynomial scene file.

    python3 scripts/make_scene.py --dim 2 --seed 5 --invertible-b -o scene.json

Coefficients are drawn from the same seeded generator the library uses, so
a (dim, seed) pair always produces the same scene.  The metric is a small
polynomial perturbation of the identity (positive definite on the default
box), the 2-form gets a constant symplectic block when --invertible-b is
set, and the 3-form twist is supplied through a potential so that it is
closed by construction.
"""

import argparse
import json
import sys
from pathlib import Path

if __name__ == "__main__":
    # run as a script, it uses its own checkout's package; imported, it
    # leaves sys.path to its importer
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gencourant.expr import SplitMix64, chart, random_polynomial, to_string  # noqa: E402


def poly_text(c, gen, scale):
    return to_string(random_polynomial(c, gen, degree=2, scale=scale))


def build(dim, seed, invertible_b, scale, points):
    names = ("x", "y", "z", "w", "u", "v")[:dim]
    c = chart(names, seed=seed, num_points=points)
    gen = SplitMix64(seed * 7919 + dim)
    g = {}
    for i in range(dim):
        for j in range(i, dim):
            if i == j:
                g[f"{i + 1}{j + 1}"] = f"1 + {poly_text(c, gen, scale)}"
            else:
                g[f"{i + 1}{j + 1}"] = poly_text(c, gen, scale / 2)
    B = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            text = poly_text(c, gen, scale)
            if invertible_b and j == i + 1 and i % 2 == 0:
                text = f"1 + {text}"
            B[f"{i + 1}{j + 1}"] = text
    B0 = {
        f"{i + 1}{j + 1}": poly_text(c, gen, scale)
        for i in range(dim)
        for j in range(i + 1, dim)
    }
    return {
        "schema_version": 1,
        "chart": {
            "dim": dim,
            "coords": list(names),
            "domain": [-1, 1],
            "seed": seed,
            "points": points,
        },
        "background": {"g": g, "B": B, "phi": poly_text(c, gen, scale), "B0": B0},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dim", type=int, default=2, choices=(2, 3, 4, 5, 6))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=0.25)
    parser.add_argument("--points", type=int, default=12)
    parser.add_argument("--invertible-b", action="store_true",
                        help="add a constant symplectic block to B (even dim only)")
    parser.add_argument("-o", "--out", default=None)
    args = parser.parse_args()
    if args.invertible_b and args.dim % 2:
        parser.error("--invertible-b needs an even dimension")
    doc = build(args.dim, args.seed, args.invertible_b, args.scale, args.points)
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)


if __name__ == "__main__":
    main()
