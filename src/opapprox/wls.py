"""Weighted least squares: pointwise solves, weighted inverses, the operator
minimum in weighted Schatten norms, and the four-way existence report.

A W-least-squares solution of A z = x minimizes the seminorm ||A z - x||_W;
a weighted inverse G maps every x to such a solution, and exists exactly
when the normal equation A* W (A X - I) = 0 is solvable.  It is decided
on the root M = W^{1/2} A (``Factorization.normal``), never on A* W A, and
G = M^+ W^{1/2} is the minimal-Frobenius-norm weighted inverse.
"""

from __future__ import annotations

import numpy as np

from .errors import EquivalenceViolation, InconsistentDims, NoMinimum
from .linalg import (
    DEFAULT_TOL,
    PsdWeight,
    Tolerances,
    as_matrix,
    as_vector,
    factor,
    matrix_rank,
    normal_bound,
    pinv,
    psd_sqrt,
    psd_weight,
)
from .result import ResultReport
from .schatten import schatten_norm, weighted_schatten_norm
from .shorted import is_compatible


def _check_wls_dims(A, W, tol: Tolerances, x=None):
    """A, the PsdWeight of W and x, with their shapes checked and W
    validated (NotPsd) before any solve: a non-PSD W can read as
    nonexistence."""
    A = as_matrix(A, "A")
    if not isinstance(W, PsdWeight):
        W = as_matrix(W, "W")
    if W.shape[0] != W.shape[1] or W.shape[0] != A.shape[0]:
        raise InconsistentDims(
            f"W must be square with dimension {A.shape[0]} (rows of A), got {W.shape}"
        )
    if x is None:
        return A, psd_weight(W, tol)
    x = as_vector(x, "x")
    if x.size != A.shape[0]:
        raise InconsistentDims(f"x has length {x.size}, expected {A.shape[0]}")
    return A, psd_weight(W, tol), x


def _weighted_inverse(A, weight: PsdWeight, tol: Tolerances):
    """One factorization of the root W^{1/2} A and its normal solve for
    B = W^{1/2}: returns (factorization, G, R, solvable), G = (W^{1/2} A)^+
    W^{1/2} and R = A* W (I - A G), one column per standard basis vector."""
    fm = factor(weight.sqrt @ A, tol)
    return (fm, *fm.normal(weight.sqrt))


def wlss_solve(A, W, x, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Minimal-Euclidean-norm solution u = (W^{1/2} A)^+ W^{1/2} x of the
    normal equation A* W A u = A* W x.  W may be a matrix or a PsdWeight."""
    A, weight, x = _check_wls_dims(A, W, tol, x)
    return pinv(weight.sqrt @ A, tol) @ (weight.sqrt @ x)


def w_inverse(A, W, tol: Tolerances = DEFAULT_TOL) -> np.ndarray | None:
    """Minimal-Frobenius-norm weighted inverse of A, or None.

    Exists iff A* W A X = A* W is solvable; nonexistence is a value, not an
    error (it cannot occur in exact finite-dimensional arithmetic, only
    through rank decisions).
    """
    A, weight = _check_wls_dims(A, W, tol)
    _, G, _, solvable = _weighted_inverse(A, weight, tol)
    return G if solvable else None


def owls_min(A, W, p, tol: Tolerances = DEFAULT_TOL) -> ResultReport:
    """Minimum of ||A X - I||_{p,W} over X, with a minimizer.

    The value is the p-Schatten norm of the root of W shorted to R(A); the
    minimizer is the weighted inverse.  The achieved seminorm is
    cross-checked against the closed-form value before returning.

    The report is the one the CLI renders: the value as ``min_value``,
    the weighted inverse as the witness with its ``normal_equation``
    residual ||A* W (A X - I)||_F, and the ``rank_a`` and ``p``
    diagnostics.
    """
    A, weight = _check_wls_dims(A, W, tol)
    fm, G, R, solvable = _weighted_inverse(A, weight, tol)
    if not solvable:
        raise NoMinimum("the normal equation is unsolvable under the current rank decisions")
    return ResultReport(
        exists=True,
        min_value=_owls_value(A, weight, G, fm, p, tol),
        witness=G,
        residuals={"normal_equation": float(np.linalg.norm(R))},
        diagnostics={"rank_a": matrix_rank(A, tol), "p": p},
    )


def _owls_value(A, weight, G, fm, p, tol: Tolerances) -> float:
    """The closed-form minimum ||(I - P) W^{1/2}||_p, cross-checked against
    the weighted norm that the weighted inverse G achieves.

    W shorted to R(A) is W^{1/2} (I - P) W^{1/2}, with P the projection
    onto R(W^{1/2} A) (Anderson-Trapp), so (I - P) W^{1/2} is its root.
    ``weight`` is the PsdWeight of W and ``fm`` the factorization of
    W^{1/2} A, whose U splits the codomain into R(P) and its complement.
    The two norms must agree within residual_rtol times the larger of them
    and ||W^{1/2}||_F, the objective at X = 0, which is the scale of a
    minimum that is zero.
    """
    value = schatten_norm(fm.off_range(weight.sqrt), p)
    eye = np.eye(A.shape[0], dtype=complex)
    achieved = weighted_schatten_norm(A @ G - eye, weight, p, tol)
    scale = max(value, achieved, float(np.linalg.norm(weight.sqrt)))
    if abs(achieved - value) > tol.residual_rtol * scale:
        raise EquivalenceViolation(
            "achieved weighted norm disagrees with the shorted-operator value",
            {"value": value, "achieved": achieved},
        )
    return value


def wls_existence_report(A, W, tol: Tolerances = DEFAULT_TOL, p=None) -> ResultReport:
    """Evaluate the four equivalent existence conditions.

    Conditions (i), (iii) and (iv) are statements about the one root
    W^{1/2} A of A* W A, so they share one factorization of it: (i) solves
    the whole standard basis as one right-hand side and tests each
    column's normal-equation residual, (iii) and (iv) are the solvability
    decision of ``Factorization.normal`` on that solve.  Each column and
    the whole are judged by ``normal_bound``.  Sharing the factorization
    shares only the rank decision, which each of them would make
    identically on its own; condition (ii) is decided on different
    matrices (R(A) and its W-orthogonal complement).  Disagreement raises
    EquivalenceViolation with the divergent flags attached.

    The report is the one the CLI renders: the weighted inverse is the
    witness with its normal-equation residual, the conditions are the
    four flags plus ``compatible``, the verdict of the compatibility
    certificate of (W, R(A)), and, when ``p`` is given and a solution
    exists, ``min_value`` is the operator minimum.
    """
    A, weight = _check_wls_dims(A, W, tol)
    f_dim = A.shape[0]
    # column i of G solves the normal equation for e_i, and column i of R
    # is its residual A* W e_i - A* W A g_i
    fm, G, R, normal_ok = _weighted_inverse(A, weight, tol)

    # (i) a solution exists for every right-hand side: the standard basis
    # is exhaustive by linearity
    bound = normal_bound(fm.matrix, G, weight.sqrt, tol)
    residuals = [float(r) for r in np.linalg.norm(R, axis=0)]
    solvable_for_all = all(r <= bound for r in residuals)

    # (ii) R(A) + W(R(A))-perp spans the whole codomain; its rank decision
    # is the one of the compatibility certificate of (W, R(A))
    fa = factor(A, tol)
    ra = fa.range()
    compat = is_compatible(weight, ra, tol)
    sum_rank = compat.sum_rank
    range_sum_full = sum_rank == f_dim

    # (iii) the normal equation A* W A X = A* W is solvable, and (iv) its
    # minimal-norm solution G is the weighted inverse
    conditions = {
        "wlss_for_all_x": bool(solvable_for_all),
        "range_sum_full": bool(range_sum_full),
        "normal_eq_solvable": normal_ok,
        "w_inverse_exists": normal_ok,
    }
    if len(set(conditions.values())) != 1:
        raise EquivalenceViolation(
            "existence conditions disagree (rank-decision inconsistency)",
            {"conditions": conditions, "basis_residuals": residuals, "sum_rank": sum_rank},
        )
    exists = all(conditions.values())

    min_value = None
    if p is not None and exists:
        min_value = _owls_value(A, weight, G, fm, p, tol)

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
        witness=G if exists else None,
        residuals={"normal_equation": float(np.linalg.norm(R))} if exists else {},
        conditions={**conditions, "compatible": compat.compatible},
        diagnostics=diagnostics,
    )


# Registry builders (see problems.REGISTRY): a validated manifest -> ResultReport
def _build_wls(m) -> ResultReport:
    W = m.matrices["W"]
    A, weight, x = _check_wls_dims(m.matrices["A"], W, m.tolerances, m.matrices["x"].ravel())
    u = wlss_solve(A, weight, x, m.tolerances)
    r = A @ u - x
    return ResultReport(
        exists=True,
        min_value=float(np.linalg.norm(psd_sqrt(weight) @ r)),
        witness=u.reshape(-1, 1),
        residuals={"normal_equation": float(np.linalg.norm(A.conj().T @ W @ r))},
        diagnostics={"rank_a": matrix_rank(A, m.tolerances)},
    )


def _build_w_inverse(m) -> ResultReport:
    A, weight = _check_wls_dims(m.matrices["A"], m.matrices["W"], m.tolerances)
    _, G, R, solvable = _weighted_inverse(A, weight, m.tolerances)
    return ResultReport(
        exists=solvable,
        witness=G if solvable else None,
        residuals={"normal_equation": float(np.linalg.norm(R))} if solvable else {},
        conditions={"normal_eq_solvable": solvable},
        diagnostics={"rank_a": matrix_rank(A, m.tolerances)},
    )


def _build_owls(m) -> ResultReport:
    return owls_min(m.matrices["A"], m.matrices["W"], m.p, m.tolerances)


def _build_report(m) -> ResultReport:
    return wls_existence_report(m.matrices["A"], m.matrices["W"], m.tolerances, p=m.p)
