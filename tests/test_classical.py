"""The abstract problems specialise to the classical natural cubic spline.

On a uniform grid of m points on [0, 1], T = h^{-3/2} D2 (second
differences, so ||T h||^2 is a Riemann sum of the squared second
derivative) and V samples nine equally spaced knots.  The abstract spline
of f = sin(2 pi x) + x^2 at the knots converges to the natural cubic
spline through those values at the rate O(h^2) of the finite-difference
discretisation.  cond(T*T + V*V) is 1.2e9 at m = 161, so a report that
decided its normal equations on the Gram would refuse these well-posed
pairs; the root route certifies them.
"""

import json

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from opapprox import smoothing_equivalence_report, spline_solve, tv_report
from opapprox.cli import main
from opapprox.manifest import write_matrix

LADDER = (41, 81, 161, 321)


def _classical(m):
    """The grid x, T, V and the data f(x) for m grid points."""
    x = np.linspace(0.0, 1.0, m)
    rows = np.arange(m - 2)
    D2 = np.zeros((m - 2, m))
    D2[rows, rows], D2[rows, rows + 1], D2[rows, rows + 2] = 1.0, -2.0, 1.0
    V = np.eye(m)[:: (m - 1) // 8]
    return x, (x[1] - x[0]) ** -1.5 * D2, V, np.sin(2 * np.pi * x) + x**2


def _spline_error(m):
    x, T, V, f = _classical(m)
    knots = V @ x
    h = spline_solve(T, V, V @ f).witness[:, 0]
    natural = CubicSpline(knots, V @ f, bc_type="natural")
    return float(np.max(np.abs(h - natural(x))))


def test_spline_solve_converges_to_the_natural_cubic_spline():
    errors = [_spline_error(m) for m in LADDER]
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    assert all(3.5 <= r <= 4.5 for r in ratios), (errors, ratios)


@pytest.mark.parametrize("m", [161, 321])
def test_reports_certify_the_classical_pair(m, tmp_path):
    _, T, V, _ = _classical(m)
    assert tv_report(T, V).exists
    assert smoothing_equivalence_report(T, V).exists
    write_matrix(str(tmp_path / "T.mtx"), T)
    write_matrix(str(tmp_path / "V.mtx"), V)
    manifest = tmp_path / "tv.json"
    manifest.write_text(json.dumps({"problem": "report", "T": "T.mtx", "V": "V.mtx"}))
    assert main([str(manifest), "--out", str(tmp_path / "tv.report.json")]) == 0
