"""Every existence report has one shape: the ResultReport a library report
function returns is, byte for byte, the report the CLI renders for the
matching ``report`` row, once ``cli.execute`` has added ``problem`` and the
``seed`` diagnostic.  The equivalence sweep script reads those reports."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from opapprox import (
    DEFAULT_TOL,
    BlockWeight,
    hat_equivalence_check,
    smoothing_equivalence_report,
    spline_equivalence_report,
    wls_existence_report,
)
from opapprox.cli import execute
from opapprox.manifest import ProblemManifest, render_report
from opapprox.problems import REGISTRY
from opapprox.result import ResultReport
from test_factor_once import _role_matrices

SEED = 7


def _wls(m, p):
    return wls_existence_report(m["A"], m["W"], DEFAULT_TOL, p=p)


def _tv(m, p):
    # the (T,V) row merges the spline flags into the smoothing report
    smooth = smoothing_equivalence_report(
        m["T"], m["V"], DEFAULT_TOL, rng=np.random.default_rng(SEED)
    )
    spline = spline_equivalence_report(m["T"], m["V"], DEFAULT_TOL)
    return dataclasses.replace(
        smooth,
        exists=smooth.exists and spline.exists,
        conditions={
            **{f"smoothing_{k}": v for k, v in smooth.conditions.items()},
            **spline.conditions,
        },
    )


def _hat(m, p):
    return hat_equivalence_check(m["A"], BlockWeight(m["W11"], m["W12"], m["W22"]), DEFAULT_TOL)


LIBRARY = {("A", "W"): _wls, ("T", "V"): _tv, ("A", "W11", "W12", "W22"): _hat}
CASES = [(roles, None) for roles in LIBRARY] + [(("A", "W"), 1.5)]


def test_every_report_row_has_a_library_function():
    assert {row.roles for row in REGISTRY if row.kind == "report"} == set(LIBRARY)


@pytest.mark.parametrize("deficient", [False, True], ids=["full_rank", "rank_deficient"])
@pytest.mark.parametrize(
    "roles,p", CASES, ids=[",".join(roles) + ("" if p is None else f",p={p}") for roles, p in CASES]
)
def test_library_report_is_the_cli_report(roles, p, deficient):
    every_role = _role_matrices(8, deficient)
    matrices = {role: every_role[role] for role in roles}
    manifest = ProblemManifest(
        problem="report", matrices=matrices, p=p, tolerances=DEFAULT_TOL, seed=SEED
    )
    library = LIBRARY[roles](matrices, p)
    assert isinstance(library, ResultReport)
    library = dataclasses.replace(
        library, problem="report", diagnostics={**library.diagnostics, "seed": SEED}
    )
    assert render_report(library) == render_report(execute(manifest))


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
