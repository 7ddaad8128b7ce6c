"""Abstract spline interpolation: minimize ||T h|| over an affine set
h0 + N(V), pointwise and as an operator problem in Schatten norms.

The classical solve parametrizes the affine set by an orthonormal nullspace
basis and solves one dense least-squares problem; ties are broken by the
minimal coefficient norm.  The operator problem is reduced to the normal
equation P_N T*T (P_N X + V^+ B0) = 0 and its value is expressed through
T*T shorted to N(V).  The four equivalent existence conditions are
evaluated independently by ``spline_equivalence_report``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EquivalenceViolation, InconsistentDims, NotInRange
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    as_matrix,
    as_vector,
    null_basis,
    pinv,
    psd_sqrt,
    range_included,
)
from .schatten import schatten_norm
from .shorted import is_compatible, shorted


@dataclass(frozen=True, eq=False)
class SplineSolution:
    """Interpolant with its objective value and normal-equation residual."""

    h: np.ndarray
    min_value: float
    normal_residual: float


@dataclass(frozen=True, eq=False)
class SplineEquivalenceReport:
    """Four-way agreement report for the spline problem."""

    exists: bool
    conditions: dict


def _check_tv_dims(T, V):
    T = as_matrix(T, "T")
    V = as_matrix(V, "V")
    if T.shape[1] != V.shape[1]:
        raise InconsistentDims(
            f"T and V must share a domain, got {T.shape[1]} and {V.shape[1]} columns"
        )
    return T, V


def spline_solve(T, V, f0, tol: Tolerances = DEFAULT_TOL) -> SplineSolution:
    """Minimize ||T h|| subject to V h = f0.

    Requires f0 in R(V); writes h = V^+ f0 + z with z in N(V) and solves
    the reduced least squares for z.
    """
    T, V = _check_tv_dims(T, V)
    f0 = as_vector(f0, "f0")
    if f0.size != V.shape[0]:
        raise InconsistentDims(f"f0 has length {f0.size}, expected {V.shape[0]}")
    h0 = pinv(V, tol) @ f0
    if np.linalg.norm(V @ h0 - f0) > tol.residual_rtol * max(np.linalg.norm(f0), 1e-300):
        raise NotInRange("f0 is not in the range of V")
    N = null_basis(V, tol).basis
    c = -pinv(T @ N, tol) @ (T @ h0)
    h = h0 + N @ c
    tth = T.conj().T @ (T @ h)
    normal_residual = float(np.linalg.norm(N.conj().T @ tth)) if N.shape[1] else 0.0
    return SplineSolution(h=h, min_value=float(np.linalg.norm(T @ h)), normal_residual=normal_residual)


def is_abstract_spline(T, V, h0, h, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Does h minimize ||T .|| over h0 + N(V)?

    Checks membership (V h = V h0) and first-order optimality
    (P_{N(V)} T*T h = 0), both within residual tolerance.
    """
    T, V = _check_tv_dims(T, V)
    h0 = as_vector(h0, "h0")
    h = as_vector(h, "h")
    if h0.size != T.shape[1] or h.size != T.shape[1]:
        raise InconsistentDims("h0 and h must live in the domain of T and V")
    scale = max(np.linalg.norm(V) * max(np.linalg.norm(h), np.linalg.norm(h0)), 1e-300)
    if np.linalg.norm(V @ (h - h0)) > tol.residual_rtol * scale:
        return False
    N = null_basis(V, tol).basis
    if N.shape[1] == 0:
        return True
    grad = N.conj().T @ (T.conj().T @ (T @ h))
    grad_scale = max(np.linalg.norm(T) ** 2 * np.linalg.norm(h), 1e-300)
    return bool(np.linalg.norm(grad) <= tol.residual_rtol * grad_scale)


def _shorted_to_nullspace(T, V, tol: Tolerances):
    # T*T shorted to N(V): block Schur complement, reused from the weight machinery
    return shorted(T.conj().T @ T, null_basis(V, tol), tol)


def operator_spline_min(T, V, B0, p, tol: Tolerances = DEFAULT_TOL):
    """Minimum of ||T X||_p over V X = B0, with a minimizer.

    Requires R(B0) inside R(V).  Solves the nullspace-compressed normal
    equation for the minimal-norm correction, then anchors it at V^+ B0.
    The closed-form value uses T*T shorted to N(V); the achieved norm
    ||T X0||_p is cross-checked against it.
    """
    T, V = _check_tv_dims(T, V)
    B0 = as_matrix(B0, "B0")
    if B0.shape != V.shape:
        raise InconsistentDims(f"B0 must have the shape of V {V.shape}, got {B0.shape}")
    ok, _ = range_included(B0, V, tol)
    if not ok:
        raise NotInRange("R(B0) is not contained in R(V)")

    anchor = pinv(V, tol) @ B0
    N = null_basis(V, tol).basis
    Pn = N @ N.conj().T
    tt = T.conj().T @ T
    M = Pn @ tt @ Pn
    Z = pinv(M, tol) @ (-Pn @ tt @ anchor)
    X0 = Pn @ Z + anchor

    value = schatten_norm(psd_sqrt(_shorted_to_nullspace(T, V, tol), tol) @ anchor, p)
    achieved = schatten_norm(T @ X0, p)
    if abs(achieved - value) > tol.residual_rtol * max(value, achieved, 1.0):
        raise EquivalenceViolation(
            "achieved spline norm disagrees with the shorted-operator value",
            {"value": value, "achieved": achieved},
        )
    return value, X0


def global_spline_solution(T, V, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Operator G whose columns interpolate: G h minimizes ||T .|| over h + N(V).

    Built from the operator solution for B0 = V, composed with the
    projection onto N(V)-perp.
    """
    T, V = _check_tv_dims(T, V)
    _, X0 = operator_spline_min(T, V, V, p=2, tol=tol)
    N = null_basis(V, tol).basis
    n = V.shape[1]
    proj_perp = np.eye(n, dtype=complex) - N @ N.conj().T
    return X0 @ proj_perp


def spline_equivalence_report(T, V, tol: Tolerances = DEFAULT_TOL) -> SplineEquivalenceReport:
    """Evaluate the equivalent spline-existence conditions independently.

    Flags: solvability of the operator problem for B0 = V; the columns of
    the global solution being abstract splines for the standard basis;
    compatibility of (T*T, N(V)); pointwise solvability from every
    standard-basis anchor.  All must agree or EquivalenceViolation is
    raised.
    """
    T, V = _check_tv_dims(T, V)
    n = V.shape[1]
    basis = np.eye(n, dtype=complex)
    try:
        operator_spline_min(T, V, V, p=2, tol=tol)
        op_solvable = True
    except NotInRange:
        op_solvable = False

    columns_ok = False
    if op_solvable:
        G = global_spline_solution(T, V, tol)
        columns_ok = all(is_abstract_spline(T, V, basis[i], G[:, i], tol) for i in range(n))

    compat = is_compatible(T.conj().T @ T, null_basis(V, tol), tol)

    # every anchor is solved, so a NotInRange from any of them still surfaces
    scale = max(np.linalg.norm(T) ** 2, 1.0)
    residuals = [spline_solve(T, V, V @ basis[i], tol).normal_residual for i in range(n)]
    pointwise_ok = not any(r > tol.residual_rtol * scale for r in residuals)

    conditions = {
        "spline_operator_solvable": op_solvable,
        "spline_global_columns": bool(columns_ok),
        "spline_compatible": bool(compat.compatible),
        "spline_pointwise_nonempty": bool(pointwise_ok),
    }
    if len(set(conditions.values())) != 1:
        raise EquivalenceViolation(
            "spline equivalence flags disagree (rank-decision inconsistency)",
            {"conditions": conditions},
        )
    return SplineEquivalenceReport(exists=op_solvable, conditions=conditions)
