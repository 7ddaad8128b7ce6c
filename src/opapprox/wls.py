"""Weighted least squares: pointwise solves, weighted inverses, the operator
minimum in weighted Schatten norms, and the four-way existence report.

A W-least-squares solution of A z = x minimizes the seminorm ||A z - x||_W;
a weighted inverse G maps every x to such a solution, and exists exactly
when the normal equation A* W (A X - I) = 0 is solvable.  Among the affine
set of weighted inverses the minimal-Frobenius-norm representative is
returned, for determinism.
"""

from __future__ import annotations

import numpy as np

from .errors import EquivalenceViolation, InconsistentDims, NoMinimum
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    Tolerances,
    as_matrix,
    as_vector,
    ensure_psd_weight,
    factor,
    matrix_rank,
    pinv,
    psd_sqrt,
    psd_weight,
    range_included,
)
from .result import ResultReport
from .schatten import _norm_of_singular_values, weighted_schatten_norm
from .shorted import _shorted, is_compatible


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


def owls_min(A, W, p, tol: Tolerances = DEFAULT_TOL) -> ResultReport:
    """Minimum of ||A X - I||_{p,W} over X, with a minimizer.

    The value is the p-Schatten norm of the square root of W shorted to
    R(A); the minimizer is the weighted inverse.  The achieved seminorm is
    cross-checked against the closed-form value before returning.  W is
    validated before the solve: a non-PSD W can read as nonexistence.

    The report is the one the CLI renders: the value as ``min_value``,
    the weighted inverse as the witness with its ``normal_equation``
    residual ||A* W (A X - I)||_F, and the ``rank_a`` and ``p``
    diagnostics.
    """
    A, W = _check_wls_dims(A, W)
    weight = psd_weight(W, tol)
    G = w_inverse(A, W, tol)
    if G is None:
        raise NoMinimum("the normal equation is unsolvable under the current rank decisions")
    fa = factor(A, tol)
    return ResultReport(
        exists=True,
        min_value=_owls_value(A, weight, G, fa, p, tol),
        witness=G,
        residuals=_weighted_inverse_residual(A, W, G),
        diagnostics={"rank_a": fa.rank, "p": p},
    )


def _owls_value(A, weight, G, fa, p, tol: Tolerances) -> float:
    """The closed-form minimum from W shorted to R(A), cross-checked against
    the weighted norm that the weighted inverse G achieves.  ``weight`` is
    the PsdWeight of W and ``fa`` the factorization of A, whose U splits
    the codomain into R(A) and R(A)^perp.  The value is read off the
    shorted weight's eigenvalues, whose square roots are the singular
    values of its root."""
    shorted_w = _shorted(weight, fa.range(), Subspace(fa.U[:, fa.rank :]), tol)
    value = _norm_of_singular_values(shorted_w.root_eigvals, p)
    eye = np.eye(A.shape[0], dtype=complex)
    achieved = weighted_schatten_norm(A @ G - eye, weight, p, tol)
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


def _weighted_inverse_residual(A, W, G) -> dict:
    """{"normal_equation": ||A* W (A G - I)||_F}, the defect of a weighted
    inverse G, or no residual when there is none."""
    if G is None:
        return {}
    eye = np.eye(A.shape[0], dtype=complex)
    return {"normal_equation": float(np.linalg.norm(A.conj().T @ W @ (A @ G - eye)))}


def wls_existence_report(A, W, tol: Tolerances = DEFAULT_TOL, p=None) -> ResultReport:
    """Evaluate the four equivalent existence conditions.

    Conditions (i), (iii) and (iv) are statements about the one operator
    A* W A, so they share one factorization of it: (i) solves the whole
    standard basis as one right-hand side and tests each column's
    normal-equation residual, (iii) and (iv) are the range-inclusion test
    of A* W in it.  Sharing the factorization shares only the rank
    decision, which each of them would make identically on its own;
    condition (ii) is decided on different matrices (R(A) and its
    W-orthogonal complement).  Disagreement raises EquivalenceViolation
    with the divergent flags attached.

    The report is the one the CLI renders: the weighted inverse is the
    witness with its normal-equation residual, the conditions are the
    four flags plus ``compatible``, the verdict of the compatibility
    certificate of (W, R(A)), and, when ``p`` is given and a solution
    exists, ``min_value`` is the operator minimum.
    """
    A, W = _check_wls_dims(A, W)
    weight = psd_weight(W, tol)
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

    # (ii) R(A) + W(R(A))-perp spans the whole codomain; its rank decision
    # is the one of the compatibility certificate of (W, R(A))
    fa = factor(A, tol)
    ra = fa.range()
    compat = is_compatible(weight, ra, tol)
    sum_rank = compat.sum_rank
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

    min_value = None
    if p is not None and exists:
        min_value = _owls_value(A, weight, G, fa, p, tol)

    diagnostics = {
        "rank_a": ra.dim,
        "rank_w": weight.rank,
        "sum_rank": sum_rank,
        "max_basis_residual": max(residuals) if residuals else 0.0,
        # finite dimensions: closedness of R(A)+N(W) and R(A) cap N(W) is automatic
        "range_plus_nullspace_closed": True,
        "range_cap_nullspace_closed": True,
    }
    return ResultReport(
        exists=exists,
        min_value=min_value,
        witness=G,
        residuals=_weighted_inverse_residual(A, W, G),
        conditions={**conditions, "compatible": compat.compatible},
        diagnostics=diagnostics,
    )


# Registry builders (see problems.REGISTRY): a validated manifest -> ResultReport
def _build_wls(m) -> ResultReport:
    A, W, x = m.matrices["A"], m.matrices["W"], m.matrices["x"].ravel()
    u = wlss_solve(A, W, x, m.tolerances)
    r = A @ u - x
    return ResultReport(
        exists=True,
        min_value=float(np.linalg.norm(psd_sqrt(W, m.tolerances) @ r)),
        witness=u.reshape(-1, 1),
        residuals={"normal_equation": float(np.linalg.norm(A.conj().T @ W @ r))},
        diagnostics={"rank_a": matrix_rank(A, m.tolerances)},
    )


def _build_w_inverse(m) -> ResultReport:
    A, W = _check_wls_dims(m.matrices["A"], m.matrices["W"])
    # validated before the solve: a non-PSD W can read as nonexistence
    ensure_psd_weight(W, m.tolerances)
    G = w_inverse(A, W, m.tolerances)
    return ResultReport(
        exists=G is not None,
        witness=G,
        residuals=_weighted_inverse_residual(A, W, G),
        conditions={"normal_eq_solvable": G is not None},
        diagnostics={"rank_a": matrix_rank(A, m.tolerances)},
    )


def _build_owls(m) -> ResultReport:
    return owls_min(m.matrices["A"], m.matrices["W"], m.p, m.tolerances)


def _build_report(m) -> ResultReport:
    return wls_existence_report(m.matrices["A"], m.matrices["W"], m.tolerances, p=m.p)
