"""The problem-kind registry: one row per accepted role set of a problem kind.

Each row names a kind, the roles its manifest must provide, whether it
needs ``p``, and the handler that turns a validated manifest into a
ResultReport.  A kind that accepts several role sets (``report``) has one
row per set.  Adding a problem kind means adding one row and one handler.

Handlers leave ``problem`` and the ``seed`` diagnostic out of their
reports; ``cli.execute`` adds both to every report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import DimensionError
from .linalg import factor, matrix_rank, null_basis, psd_sqrt, range_basis
from .shorted import is_compatible, shorted
from .smoothing import (
    BlockWeight,
    _lifted_gram,
    hat_equivalence_check,
    operator_smoothing_min,
    optimal_inverse,
    smoothing_equivalence_report,
    smoothing_solve,
)
from .spline import (
    _check_op_dims,
    _operator_spline_min,
    spline_equivalence_report,
    spline_solve,
)
from .wls import owls_min, w_inverse, wls_existence_report, wlss_solve

if TYPE_CHECKING:
    from .manifest import ProblemManifest


@dataclass(frozen=True, eq=False, kw_only=True)
class ResultReport:
    """Machine-readable outcome of one manifest execution."""

    problem: str = ""
    exists: bool
    min_value: float | None = None
    witness: np.ndarray | None = None
    residuals: dict = field(default_factory=dict)
    conditions: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)


def _column(v) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape(-1, 1)


def _vector_role(m: ProblemManifest, role: str) -> np.ndarray:
    v = m.matrices[role]
    if v.shape[1] != 1:
        raise DimensionError(f"role {role} must be a column vector (n-by-1), got {v.shape}")
    return v.ravel()


def _block_weight(m: ProblemManifest) -> BlockWeight:
    return BlockWeight(w11=m.matrices["W11"], w12=m.matrices["W12"], w22=m.matrices["W22"])


def _subspace_role(m: ProblemManifest):
    # the S file may hold any spanning set; its range defines the subspace
    return range_basis(m.matrices["S"], m.tolerances)


def _weighted_inverse_residual(A, W, G) -> float:
    """||A* W (A G - I)||_F, the defect of G in the weighted-inverse normal equation."""
    eye = np.eye(A.shape[0], dtype=complex)
    return float(np.linalg.norm(A.conj().T @ W @ (A @ G - eye)))


def _run_wls(m: ProblemManifest) -> ResultReport:
    A, W = m.matrices["A"], m.matrices["W"]
    x = _vector_role(m, "x")
    u = wlss_solve(A, W, x, m.tolerances)
    r = A @ u - x
    return ResultReport(
        exists=True,
        min_value=float(np.linalg.norm(psd_sqrt(W, m.tolerances) @ r)),
        witness=_column(u),
        residuals={"normal_equation": float(np.linalg.norm(A.conj().T @ W @ r))},
        diagnostics={"rank_a": matrix_rank(A, m.tolerances)},
    )


def _run_w_inverse(m: ProblemManifest) -> ResultReport:
    A, W = m.matrices["A"], m.matrices["W"]
    G = w_inverse(A, W, m.tolerances)
    return ResultReport(
        exists=G is not None,
        witness=G,
        residuals={} if G is None else {"normal_equation": _weighted_inverse_residual(A, W, G)},
        conditions={"normal_eq_solvable": G is not None},
        diagnostics={"rank_a": matrix_rank(A, m.tolerances)},
    )


def _run_owls(m: ProblemManifest) -> ResultReport:
    A, W = m.matrices["A"], m.matrices["W"]
    value, X0 = owls_min(A, W, m.p, m.tolerances)
    return ResultReport(
        exists=True,
        min_value=value,
        witness=X0,
        residuals={"normal_equation": _weighted_inverse_residual(A, W, X0)},
        diagnostics={"rank_a": matrix_rank(A, m.tolerances), "p": m.p},
    )


def _run_spline(m: ProblemManifest) -> ResultReport:
    T, V = m.matrices["T"], m.matrices["V"]
    f0 = _vector_role(m, "f0")
    sol = spline_solve(T, V, f0, m.tolerances)
    return ResultReport(
        exists=True,
        min_value=sol.min_value,
        witness=_column(sol.h),
        residuals={
            "interpolation": float(np.linalg.norm(V @ sol.h - f0)),
            "normal_equation": sol.normal_residual,
        },
        diagnostics={"nullity_v": null_basis(V, m.tolerances).dim},
    )


def _run_op_spline(m: ProblemManifest) -> ResultReport:
    T, V, B0 = _check_op_dims(m.matrices["T"], m.matrices["V"], m.matrices["B0"])
    # one factorization of V serves the solver and the nullity diagnostic
    fv = factor(V, m.tolerances)
    value, X0 = _operator_spline_min(T, fv, fv.lstsq(B0), m.p, m.tolerances)
    N = fv.null()
    Pn = N.projector()
    return ResultReport(
        exists=True,
        min_value=value,
        witness=X0,
        residuals={
            "constraint": float(np.linalg.norm(V @ X0 - B0)),
            "normal_equation": float(np.linalg.norm(Pn @ (T.conj().T @ (T @ X0)))),
        },
        diagnostics={"nullity_v": N.dim, "p": m.p},
    )


def _run_smoothing(m: ProblemManifest) -> ResultReport:
    T, V = m.matrices["T"], m.matrices["V"]
    sol = smoothing_solve(T, V, _vector_role(m, "f0"), m.tolerances)
    return ResultReport(
        exists=True,
        min_value=sol.objective,
        witness=_column(sol.h),
        residuals={"normal_equation": sol.normal_residual},
    )


def _run_op_smoothing(m: ProblemManifest) -> ResultReport:
    T, V, B0 = m.matrices["T"], m.matrices["V"], m.matrices["B0"]
    value, X0 = operator_smoothing_min(T, V, B0, m.tolerances)
    gram = T.conj().T @ T + V.conj().T @ V
    return ResultReport(
        exists=True,
        min_value=value,
        witness=X0,
        residuals={"normal_equation": float(np.linalg.norm(gram @ X0 - V.conj().T @ B0))},
    )


def _run_opt_inverse(m: ProblemManifest) -> ResultReport:
    A = m.matrices["A"]
    W = _block_weight(m)
    G = optimal_inverse(A, W, m.tolerances)
    residuals = {}
    if G is not None:
        rhs = A.conj().T @ W.w11 + W.w12.conj().T
        residuals["normal_equation"] = float(np.linalg.norm(_lifted_gram(A, W) @ G - rhs))
    return ResultReport(
        exists=G is not None,
        witness=G,
        residuals=residuals,
        conditions={"normal_eq_solvable": G is not None},
    )


def _run_shorted(m: ProblemManifest) -> ResultReport:
    W = m.matrices["W"]
    S = _subspace_role(m)
    sigma = shorted(W, S, m.tolerances)
    return ResultReport(
        exists=True,
        witness=sigma,
        residuals={
            "hermitian_defect": float(np.linalg.norm(sigma - sigma.conj().T)),
            "range_defect": float(np.linalg.norm(S.projector() @ sigma)),
        },
        diagnostics={"dim_s": S.dim, "rank_w": matrix_rank(W, m.tolerances)},
    )


def _run_compat(m: ProblemManifest) -> ResultReport:
    W = m.matrices["W"]
    cert = is_compatible(W, _subspace_role(m), m.tolerances)
    residuals = {}
    if cert.projection is not None:
        Q = cert.projection
        residuals = {
            "idempotency": float(np.linalg.norm(Q @ Q - Q)),
            "commutation": float(np.linalg.norm(W @ Q - Q.conj().T @ W)),
        }
    return ResultReport(
        exists=cert.compatible,
        witness=cert.projection,
        residuals=residuals,
        conditions={"compatible": cert.compatible},
        diagnostics={
            "dim_s": cert.s_basis.dim,
            "dim_s_perp_w": cert.s_perp_w_basis.dim,
            "sum_rank": cert.sum_rank,
        },
    )


def _report_wls(m: ProblemManifest) -> ResultReport:
    A, W = m.matrices["A"], m.matrices["W"]
    rep = wls_existence_report(A, W, m.tolerances, p=m.p)
    G = rep.w_inverse
    return ResultReport(
        exists=rep.exists,
        min_value=rep.min_value_p,
        witness=G,
        residuals={} if G is None else {"normal_equation": _weighted_inverse_residual(A, W, G)},
        conditions={**rep.conditions, "compatible": rep.compat.compatible},
        diagnostics=rep.diagnostics,
    )


def _report_tv(m: ProblemManifest) -> ResultReport:
    T, V = m.matrices["T"], m.matrices["V"]
    smooth = smoothing_equivalence_report(T, V, m.tolerances, rng=np.random.default_rng(m.seed))
    spline = spline_equivalence_report(T, V, m.tolerances)
    residuals = {}
    if smooth.global_solution is not None:
        gram = T.conj().T @ T + V.conj().T @ V
        residuals["normal_equation"] = float(
            np.linalg.norm(gram @ smooth.global_solution - V.conj().T)
        )
    conditions = {f"smoothing_{k}": v for k, v in smooth.conditions.items()}
    conditions.update(spline.conditions)
    return ResultReport(
        exists=smooth.exists and spline.exists,
        witness=smooth.global_solution,
        residuals=residuals,
        conditions=conditions,
        diagnostics=smooth.diagnostics,
    )


def _report_hat(m: ProblemManifest) -> ResultReport:
    rep = hat_equivalence_check(m.matrices["A"], _block_weight(m), m.tolerances)
    return ResultReport(
        exists=all(rep.conditions.values()),
        witness=rep.z,
        residuals={} if rep.residual is None else {"lifted_normal_equation": rep.residual},
        conditions=rep.conditions,
    )


@dataclass(frozen=True)
class Problem:
    """One registry row: a problem kind with one role set it accepts."""

    kind: str
    roles: tuple
    handler: Callable[[ProblemManifest], ResultReport]
    needs_p: bool = False


REGISTRY = (
    Problem("wls", ("A", "W", "x"), _run_wls),
    Problem("w-inverse", ("A", "W"), _run_w_inverse),
    Problem("owls", ("A", "W"), _run_owls, needs_p=True),
    Problem("spline", ("T", "V", "f0"), _run_spline),
    Problem("op-spline", ("T", "V", "B0"), _run_op_spline, needs_p=True),
    Problem("smoothing", ("T", "V", "f0"), _run_smoothing),
    Problem("op-smoothing", ("T", "V", "B0"), _run_op_smoothing),
    Problem("opt-inverse", ("A", "W11", "W12", "W22"), _run_opt_inverse),
    Problem("shorted", ("W", "S"), _run_shorted),
    Problem("compat", ("W", "S"), _run_compat),
    Problem("report", ("A", "W"), _report_wls),
    Problem("report", ("T", "V"), _report_tv),
    Problem("report", ("A", "W11", "W12", "W22"), _report_hat),
)

PROBLEMS = tuple(dict.fromkeys(row.kind for row in REGISTRY))
ROLES = tuple(dict.fromkeys(role for row in REGISTRY for role in row.roles))


def lookup(manifest: ProblemManifest) -> Problem:
    """The registry row matching the manifest's kind and role set.

    A role set that fits no row, or a missing ``p``, is a DimensionError.
    """
    present = set(manifest.matrices)
    rows = [row for row in REGISTRY if row.kind == manifest.problem]
    for row in rows:
        if present == set(row.roles):
            if row.needs_p and manifest.p is None:
                raise DimensionError(f"problem {row.kind!r} requires p")
            return row
    if len(rows) > 1:
        role_sets = tuple(row.roles for row in rows)
        raise DimensionError(
            f"{manifest.problem} requires exactly one of the role sets {role_sets}, "
            f"got {sorted(present)}"
        )
    required = set(rows[0].roles)
    raise DimensionError(
        f"problem {manifest.problem!r} needs roles {sorted(required)}; "
        f"missing {sorted(required - present)}, unexpected {sorted(present - required)}"
    )
