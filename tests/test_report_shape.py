"""Every existence report and the solvers of the spline, smoothing and
operator rows have one shape: the ResultReport a library function returns
is, byte for byte, the report the CLI renders for the matching registry
row, once ``cli.execute`` has added ``problem`` and the ``seed``
diagnostic.  The equivalence sweep
script reads those reports."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import opapprox
from opapprox import (
    DEFAULT_TOL,
    BlockWeight,
    ResultReport,
    hat_equivalence_check,
    operator_smoothing_min,
    operator_spline_min,
    optimal_inverse,
    owls_min,
    smoothing_solve,
    spline_solve,
    tv_report,
    wls_existence_report,
)
from opapprox.cli import execute
from opapprox.manifest import ProblemManifest, render_report
from opapprox.problems import REGISTRY
from test_factor_once import _role_matrices

SEED = 7


def _wls(m, p):
    return wls_existence_report(m["A"], m["W"], DEFAULT_TOL, p=p)


def _tv(m, p):
    return tv_report(m["T"], m["V"], DEFAULT_TOL)


def _blocks(m):
    return BlockWeight(m["W11"], m["W12"], m["W22"])


def _hat(m, p):
    return hat_equivalence_check(m["A"], _blocks(m), DEFAULT_TOL)


LIBRARY = {("A", "W"): _wls, ("T", "V"): _tv, ("A", "W11", "W12", "W22"): _hat}
# kind -> (roles, p, the library call of that registry row)
SOLVERS = {
    "spline": (("T", "V", "f0"), None,
               lambda m, p: spline_solve(m["T"], m["V"], m["f0"], DEFAULT_TOL)),
    "smoothing": (("T", "V", "f0"), None,
                  lambda m, p: smoothing_solve(m["T"], m["V"], m["f0"], DEFAULT_TOL)),
    "owls": (("A", "W"), 1.5, lambda m, p: owls_min(m["A"], m["W"], p, DEFAULT_TOL)),
    "op-spline": (("T", "V", "B0"), 1.5,
                  lambda m, p: operator_spline_min(m["T"], m["V"], m["B0"], p, DEFAULT_TOL)),
    "op-smoothing": (("T", "V", "B0"), None,
                     lambda m, p: operator_smoothing_min(m["T"], m["V"], m["B0"], DEFAULT_TOL)),
    "opt-inverse": (("A", "W11", "W12", "W22"), None,
                    lambda m, p: optimal_inverse(m["A"], _blocks(m), DEFAULT_TOL)),
}
CASES = (
    [("report", roles, None) for roles in LIBRARY]
    + [("report", ("A", "W"), 1.5)]
    + [(kind, roles, p) for kind, (roles, p, _) in SOLVERS.items()]
)


def test_every_report_row_has_a_library_function():
    assert {row.roles for row in REGISTRY if row.kind == "report"} == set(LIBRARY)


@pytest.mark.parametrize("deficient", [False, True], ids=["full_rank", "rank_deficient"])
@pytest.mark.parametrize(
    "kind,roles,p",
    CASES,
    ids=[
        ("" if kind == "report" else f"{kind}:") + ",".join(roles) + ("" if p is None else f",p={p}")
        for kind, roles, p in CASES
    ],
)
def test_library_report_is_the_cli_report(kind, roles, p, deficient):
    every_role = _role_matrices(8, deficient)
    matrices = {role: every_role[role] for role in roles}
    manifest = ProblemManifest(
        problem=kind, matrices=matrices, p=p, tolerances=DEFAULT_TOL, seed=SEED
    )
    library = (LIBRARY[roles] if kind == "report" else SOLVERS[kind][2])(matrices, p)
    assert isinstance(library, ResultReport)
    library = dataclasses.replace(
        library, problem=kind, diagnostics={**library.diagnostics, "seed": SEED}
    )
    assert render_report(library) == render_report(execute(manifest))


def test_public_surface_resolves():
    namespace = {}
    exec("from opapprox import *", namespace)
    assert set(opapprox.__all__) <= set(namespace)
    assert all(getattr(opapprox, name) is namespace[name] for name in opapprox.__all__)


def test_equivalence_sweep_script_runs():
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )}
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_equivalence_sweep.py"),
         "--instances", "5", "--max-dim", "5", "--seed", "1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    chains = [line.split(":")[0].strip() for line in proc.stdout.splitlines()[1:]]
    assert chains == [
        "weighted least squares chain", "smoothing chain", "lift equivalence chain", "spline chain"
    ]
    assert all("all flags agree" in line for line in proc.stdout.splitlines()[1:])
