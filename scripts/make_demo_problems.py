#!/usr/bin/env python3
"""Write a set of small demo manifests (with their matrix files) into a
directory, ready to run through the CLI.

Example:
    python scripts/make_demo_problems.py demo/
    opapprox --batch demo/
"""

import argparse
import json
import os

import numpy as np

from opapprox.manifest import write_matrix


def _write(dirname, name, matrix):
    write_matrix(os.path.join(dirname, name), np.atleast_2d(np.asarray(matrix, dtype=complex)))
    return name


DEMOS = {
    "wls": (
        {"problem": "wls"},
        {"A": [[1.0], [1.0]], "W": np.diag([2.0, 1.0]), "x": [[1.0], [0.0]]},
    ),
    "owls": (
        {"problem": "owls", "p": 2},
        {"A": [[1.0], [0.0]], "W": np.diag([1.0, 4.0])},
    ),
    "shorted": (
        {"problem": "shorted"},
        {"W": [[2.0, 1.0], [1.0, 1.0]], "S": [[1.0], [0.0]]},
    ),
    "spline": (
        {"problem": "spline"},
        {"T": [[1.0, 1.0], [0.0, 1.0]], "V": [[1.0, 0.0]], "f0": [[1.0]]},
    ),
    "smoothing": (
        {"problem": "smoothing"},
        {"T": [[1.0]], "V": [[2.0]], "f0": [[1.0]]},
    ),
    "opt_inverse": (
        {"problem": "opt-inverse"},
        {"A": [[1.0]], "W11": [[1.0]], "W12": [[0.0]], "W22": [[1.0]]},
    ),
    "chain_report": (
        {"problem": "report", "seed": 7},
        {
            "T": np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 2.0]]),
            "V": np.array([[1.0, 1.0, 1.0]]),
        },
    ),
}


def write_demos(outdir: str) -> list:
    """Write every demo manifest and its matrix files into ``outdir``;
    return the manifest names."""
    os.makedirs(outdir, exist_ok=True)
    for name, (spec, matrices) in DEMOS.items():
        spec = dict(spec)
        for role, matrix in matrices.items():
            spec[role] = _write(outdir, f"{name}_{role}.mtx", matrix)
        with open(os.path.join(outdir, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(spec, fh, indent=2)
    return list(DEMOS)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("outdir", nargs="?", default="demo")
    args = parser.parse_args()
    for name in write_demos(args.outdir):
        print(f"wrote {name}.json")

    print(f"\nrun them with:  opapprox --batch {args.outdir}")


if __name__ == "__main__":
    main()
