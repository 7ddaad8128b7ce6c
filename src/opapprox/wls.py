"""Weighted least squares: pointwise solves, weighted inverses, the operator
minimum in weighted Schatten norms, and the four-way existence report.

A W-least-squares solution of A z = x minimizes the seminorm ||A z - x||_W;
a weighted inverse G maps every x to such a solution, and exists exactly
when the normal equation A* W (A X - I) = 0 is solvable.  Among the affine
set of weighted inverses the minimal-Frobenius-norm representative is
returned, for determinism.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EquivalenceViolation, InconsistentDims, NoMinimum
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    as_matrix,
    as_vector,
    factor,
    matrix_rank,
    pinv,
    psd_sqrt,
    range_basis,
    range_included,
    subspace_sum_rank,
)
from .schatten import schatten_norm, weighted_schatten_norm
from .shorted import CompatCertificate, _certificate, shorted, w_orthogonal_complement


@dataclass(frozen=True, eq=False)
class WlsReport:
    """Existence report for the weighted least squares problem.

    The four condition flags must agree (their disagreement raises
    EquivalenceViolation before a report is built): solvability for every
    right-hand side, fullness of R(A) + W(R(A))-perp, solvability of the
    normal equation, and existence of a weighted inverse.
    """

    exists: bool
    conditions: dict
    w_inverse: np.ndarray | None
    compat: CompatCertificate
    min_value_p: float | None = None
    shorted_w: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)


def _check_wls_dims(A, W, x=None):
    A = as_matrix(A, "A")
    W = as_matrix(W, "W")
    if W.shape[0] != W.shape[1] or W.shape[0] != A.shape[0]:
        raise InconsistentDims(
            f"W must be square with dimension {A.shape[0]} (rows of A), got {W.shape}"
        )
    if x is not None:
        x = as_vector(x, "x")
        if x.size != A.shape[0]:
            raise InconsistentDims(f"x has length {x.size}, expected {A.shape[0]}")
        return A, W, x
    return A, W


def wlss_solve(A, W, x, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Minimal-Euclidean-norm solution of the normal equation A* W A u = A* W x."""
    A, W, x = _check_wls_dims(A, W, x)
    return pinv(A.conj().T @ W @ A, tol) @ (A.conj().T @ W @ x)


def w_inverse(A, W, tol: Tolerances = DEFAULT_TOL) -> np.ndarray | None:
    """Minimal-Frobenius-norm weighted inverse of A, or None.

    Exists iff A* W A X = A* W is solvable; nonexistence is a value, not an
    error (it cannot occur in exact finite-dimensional arithmetic, only
    through rank decisions).
    """
    A, W = _check_wls_dims(A, W)
    ok, G = range_included(A.conj().T @ W, A.conj().T @ W @ A, tol)
    return G if ok else None


def owls_min(A, W, p, tol: Tolerances = DEFAULT_TOL):
    """Minimum of ||A X - I||_{p,W} over X, with a minimizer.

    The value is the p-Schatten norm of the square root of W shorted to
    R(A); the minimizer is the weighted inverse.  The achieved seminorm is
    cross-checked against the closed-form value before returning.
    """
    A, W = _check_wls_dims(A, W)
    G = w_inverse(A, W, tol)
    if G is None:
        raise NoMinimum("the normal equation is unsolvable under the current rank decisions")
    return _owls_value(A, W, G, shorted(W, range_basis(A, tol), tol), p, tol), G


def _owls_value(A, W, G, shorted_w, p, tol: Tolerances) -> float:
    """The closed-form minimum from W shorted to R(A), cross-checked against
    the weighted norm that the weighted inverse G achieves."""
    value = schatten_norm(psd_sqrt(shorted_w, tol), p)
    eye = np.eye(A.shape[0], dtype=complex)
    achieved = weighted_schatten_norm(A @ G - eye, W, p, tol)
    if abs(achieved - value) > tol.residual_rtol * max(value, achieved, 1.0):
        raise EquivalenceViolation(
            "achieved weighted norm disagrees with the shorted-operator value",
            {"value": value, "achieved": achieved},
        )
    return value


def _basis_residual_scale(A, W) -> float:
    """||A||_F ||W||_F: the report accepts a basis solve whose normal-equation
    residual is at most residual_rtol times this."""
    return float(np.linalg.norm(A) * np.linalg.norm(W))


def wls_existence_report(A, W, tol: Tolerances = DEFAULT_TOL, p=None) -> WlsReport:
    """Evaluate the four equivalent existence conditions.

    Conditions (i), (iii) and (iv) are statements about the one operator
    A* W A, so they share one factorization of it: (i) solves the whole
    standard basis as one right-hand side and tests each column's
    normal-equation residual, (iii) and (iv) are the range-inclusion test
    of A* W in it.  Sharing the factorization shares only the rank
    decision, which each of them would make identically on its own;
    condition (ii) is decided on different matrices (R(A) and its
    W-orthogonal complement).  Disagreement raises EquivalenceViolation
    with the divergent flags attached.  The report also carries the
    compatibility certificate of (W, R(A)) and, when ``p`` is given, the
    operator minimum value and the shorted weight.
    """
    A, W = _check_wls_dims(A, W)
    f_dim = A.shape[0]
    aw = A.conj().T @ W
    normal = factor(aw @ A, tol)
    # column i of U = (A* W A)^+ A* W solves the normal equation for e_i,
    # and column i of R is its residual A* W e_i - A* W A u_i
    U, R, normal_ok = normal.lstsq(aw)

    # (i) a solution exists for every right-hand side: the standard basis
    # is exhaustive by linearity
    scale = _basis_residual_scale(A, W)
    residuals = [float(r) for r in np.linalg.norm(R, axis=0)]
    solvable_for_all = all(r <= tol.residual_rtol * scale for r in residuals)

    # (ii) R(A) + W(R(A))-perp spans the whole codomain
    ra = range_basis(A, tol)
    w_perp = w_orthogonal_complement(W, ra, tol)
    sum_rank = subspace_sum_rank(ra, w_perp, tol)
    range_sum_full = sum_rank == f_dim

    # (iii) the normal equation A* W A X = A* W is solvable, and (iv) its
    # minimal-norm solution U is the weighted inverse
    G = U if normal_ok else None

    conditions = {
        "wlss_for_all_x": bool(solvable_for_all),
        "range_sum_full": bool(range_sum_full),
        "normal_eq_solvable": bool(normal_ok),
        "w_inverse_exists": G is not None,
    }
    if len(set(conditions.values())) != 1:
        raise EquivalenceViolation(
            "existence conditions disagree (rank-decision inconsistency)",
            {"conditions": conditions, "basis_residuals": residuals, "sum_rank": sum_rank},
        )
    exists = all(conditions.values())

    # the certificate of (W, R(A)) is built on the complement and sum rank
    # that (ii) has just computed
    compat = _certificate(ra, w_perp, sum_rank, tol)
    min_value_p = None
    shorted_w = None
    if p is not None and exists:
        shorted_w = shorted(W, ra, tol)
        min_value_p = _owls_value(A, W, G, shorted_w, p, tol)

    diagnostics = {
        "rank_a": ra.dim,
        "rank_w": matrix_rank(W, tol),
        "sum_rank": sum_rank,
        "max_basis_residual": max(residuals) if residuals else 0.0,
        # finite dimensions: closedness of R(A)+N(W) and R(A) cap N(W) is automatic
        "range_plus_nullspace_closed": True,
        "range_cap_nullspace_closed": True,
    }
    return WlsReport(
        exists=exists,
        conditions=conditions,
        w_inverse=G,
        compat=compat,
        min_value_p=min_value_p,
        shorted_w=shorted_w,
        diagnostics=diagnostics,
    )
