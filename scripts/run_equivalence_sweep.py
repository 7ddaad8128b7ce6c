#!/usr/bin/env python3
"""Sweep random instances through the four equivalence chains and print a
summary of flag agreement and worst residuals.  The instance generators
are the test suite's (tests/conftest.py).

Example:
    python scripts/run_equivalence_sweep.py --instances 200 --max-dim 12 --seed 3
"""

import argparse
import os
import sys

import numpy as np

from opapprox import (
    BlockWeight,
    hat_equivalence_check,
    hat_lift,
    smoothing_equivalence_report,
    spline_equivalence_report,
    wls_existence_report,
)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests"))
from conftest import cgauss, random_psd  # noqa: E402


def sweep_wls(rng, instances, max_dim):
    worst = 0.0
    for _ in range(instances):
        f = int(rng.integers(2, max_dim + 1))
        h = int(rng.integers(1, f + 1))
        a = cgauss(rng, f, h)
        w = random_psd(rng, f, int(rng.integers(1, f + 1)))
        report = wls_existence_report(a, w)
        assert len(set(report.conditions.values())) == 1, report.conditions
        worst = max(worst, report.diagnostics["max_basis_residual"])
    return worst


def sweep_smoothing(rng, instances, max_dim):
    worst = 0.0
    for k in range(instances):
        n = int(rng.integers(2, max_dim + 1))
        t = cgauss(rng, int(rng.integers(1, max_dim + 1)), n)
        v = cgauss(rng, int(rng.integers(1, max_dim + 1)), n)
        report = smoothing_equivalence_report(t, v, rng=np.random.default_rng(k))
        assert len(set(report.conditions.values())) == 1, report.conditions
        worst = max(worst, report.diagnostics["max_basis_residual"])
    return worst


def sweep_spline(rng, instances, max_dim):
    existing = 0
    for _ in range(instances):
        n = int(rng.integers(2, max_dim + 1))
        t = cgauss(rng, int(rng.integers(1, max_dim + 1)), n)
        v = cgauss(rng, int(rng.integers(1, max_dim + 1)), n)
        # a disagreement raises EquivalenceViolation
        existing += spline_equivalence_report(t, v).exists
    return existing


def sweep_lift(rng, instances, max_dim):
    worst = 0.0
    for _ in range(instances):
        f = int(rng.integers(1, max_dim + 1))
        h = int(rng.integers(1, max_dim + 1))
        a = cgauss(rng, f, h)
        w_full = random_psd(rng, f + h, int(rng.integers(1, f + h + 1)))
        w = BlockWeight(w_full[:f, :f], w_full[:f, f:], w_full[f:, f:])
        report = hat_equivalence_check(a, w)
        flags = report.conditions
        assert flags["hat_w_inverse_exists"] == (
            flags["optimal_inverse_exists"] and flags["companion_eq_solvable"]
        ), flags
        if report.residual is not None:
            lifted = hat_lift(a)
            scale = max(np.linalg.norm(lifted.conj().T @ w_full @ lifted), 1.0)
            worst = max(worst, report.residual / scale)
    return worst


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=100)
    parser.add_argument("--max-dim", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    print(f"sweeping {args.instances} instances per chain, dims <= {args.max_dim}")

    worst = sweep_wls(rng, args.instances, args.max_dim)
    print(f"weighted least squares chain: all flags agree, worst basis residual {worst:.3e}")

    worst = sweep_smoothing(rng, args.instances, args.max_dim)
    print(f"smoothing chain:              all flags agree, worst basis residual {worst:.3e}")

    worst = sweep_lift(rng, args.instances, args.max_dim)
    print(f"lift equivalence chain:       all flags agree, worst scaled defect {worst:.3e}")

    existing = sweep_spline(rng, args.instances, args.max_dim)
    print(f"spline chain:                 all flags agree, {existing}/{args.instances} solvable")


if __name__ == "__main__":
    main()
