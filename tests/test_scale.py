"""Every decision is relative to the scale of its operands.

Scaling all inputs of a problem by c in {1e-12, 1, 1e12} leaves its flags
and exit code unchanged, and its value moves by the right power of c:
||A X - I||_{p,cW} = sqrt(c) ||A X - I||_{p,W} for the weighted operator
problem (scaling A changes only the minimizer), and ||c T X|| = c ||T X||
for the operator spline problem (cV X = cB0 has the solutions of
V X = B0).  A closed-form value cross-check is relative at every c: an
achieved norm that is off by a factor of 1 + 1e-3 is refused, and so is a
smoothing operator G that is off by 1e-3 of its norm.
"""

import json

import numpy as np
import pytest

import opapprox.spline
import opapprox.wls
from conftest import cgauss, perturb_stack_solve, random_psd, random_rank_deficient
from opapprox import EquivalenceViolation, operator_spline_min, owls_min, tv_report
from opapprox.cli import main
from opapprox.manifest import write_matrix

SCALES = (1e-12, 1.0, 1e12)
N = 8
P = 1.5
SABOTAGE = 1.0 + 1e-3


def _instance(deficient):
    """A, W, T, V and B0 in R(V).  Both minima are positive: a zero minimum
    is a rounding-level value, which no relative test can compare.  So a
    deficient V keeps its nullity below the rank of T, and T N(V) cannot
    span R(T)."""
    rng = np.random.default_rng([N, int(deficient), 7])
    h = N // 2
    if deficient:
        A = random_rank_deficient(rng, N, h, h // 2)
        W = random_psd(rng, N, rank=N - 2)
        T = random_rank_deficient(rng, N, N, N - 2)
        V = random_rank_deficient(rng, h, N, h - 1)
    else:
        A, W = cgauss(rng, N, h), random_psd(rng, N)
        T, V = cgauss(rng, N, N), cgauss(rng, h, N)
    return {"A": A, "W": W, "T": T, "V": V, "B0": V @ cgauss(rng, N, N)}


# the problem kinds and the roles each reads
KINDS = {
    "report-aw": ("report", ("A", "W"), None),
    "report-tv": ("report", ("T", "V"), None),
    "owls": ("owls", ("A", "W"), P),
    "op-spline": ("op-spline", ("T", "V", "B0"), P),
}


def _run(tmp_path, kind, matrices, c):
    """(exit code, report) of one manifest with every input scaled by c."""
    problem, roles, p = KINDS[kind]
    spec = {"problem": problem}
    if p is not None:
        spec["p"] = p
    for role in roles:
        write_matrix(str(tmp_path / f"{role}.mtx"), c * matrices[role])
        spec[role] = f"{role}.mtx"
    (tmp_path / "m.json").write_text(json.dumps(spec))
    out = tmp_path / "m.report.json"
    code = main([str(tmp_path / "m.json"), "--out", str(out)])
    return code, json.loads(out.read_text()) if out.exists() else None


@pytest.mark.parametrize("deficient", [False, True], ids=["full_rank", "rank_deficient"])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_flags_and_exit_codes_do_not_move_with_scale(tmp_path, kind, deficient):
    matrices = _instance(deficient)
    outcomes = []
    for c in SCALES:
        code, report = _run(tmp_path, kind, matrices, c)
        report = report or {}
        outcomes.append((code, report.get("exists"), report.get("conditions")))
    assert outcomes[0] == outcomes[1] == outcomes[2], outcomes
    assert outcomes[1][0] == 0


@pytest.mark.parametrize("deficient", [False, True], ids=["full_rank", "rank_deficient"])
def test_values_scale_by_the_right_power(deficient):
    m = _instance(deficient)
    # at p = 60 the singular values to the power p under- and overflow
    # unless the sum is scaled by the largest of them
    for p in (P, 60.0):
        owls = {c: owls_min(c * m["A"], c * m["W"], p).min_value for c in SCALES}
        spline = {c: operator_spline_min(c * m["T"], c * m["V"], c * m["B0"], p).min_value
                  for c in SCALES}
        for c in SCALES:
            assert owls[c] == pytest.approx(np.sqrt(c) * owls[1.0], rel=1e-9), (p, c)
            assert spline[c] == pytest.approx(c * spline[1.0], rel=1e-9), (p, c)


def _scaled_result(fn, index=None):
    """``fn`` with its result (or item ``index`` of it) times SABOTAGE."""
    def sabotaged(*args, **kwargs):
        out = fn(*args, **kwargs)
        if index is None:
            return SABOTAGE * out
        return tuple(SABOTAGE * x if i == index else x for i, x in enumerate(out))
    return sabotaged


@pytest.mark.parametrize("deficient", [False, True], ids=["full_rank", "rank_deficient"])
@pytest.mark.parametrize("c", SCALES)
def test_a_sabotaged_achieved_norm_is_refused_at_every_scale(monkeypatch, c, deficient):
    m = _instance(deficient)
    # the weighted norm the weighted inverse achieves
    monkeypatch.setattr(opapprox.wls, "weighted_schatten_norm",
                        _scaled_result(opapprox.wls.weighted_schatten_norm))
    with pytest.raises(EquivalenceViolation):
        owls_min(c * m["A"], c * m["W"], P)
    # the minimizer, so the norm ||T X0|| it achieves
    monkeypatch.setattr(opapprox.spline, "_spline_columns",
                        _scaled_result(opapprox.spline._spline_columns, index=0))
    with pytest.raises(EquivalenceViolation):
        operator_spline_min(c * m["T"], c * m["V"], c * m["B0"], P)


@pytest.mark.parametrize("deficient", [False, True], ids=["full_rank", "rank_deficient"])
@pytest.mark.parametrize("c", SCALES)
def test_a_perturbed_smoothing_operator_is_refused_at_every_scale(monkeypatch, c, deficient):
    m = _instance(deficient)
    T, V = c * m["T"], c * m["V"]
    assert tv_report(T, V).exists
    perturb_stack_solve(monkeypatch, (T.shape[0] + V.shape[0], T.shape[1]))
    with pytest.raises(EquivalenceViolation):
        tv_report(T, V)
