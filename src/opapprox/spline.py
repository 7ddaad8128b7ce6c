"""Abstract spline interpolation: minimize ||T h|| over an affine set
h0 + N(V), pointwise and as an operator problem in Schatten norms.

Every minimizer is computed by ``_spline_columns``: with N an orthonormal
basis of N(V) and h0 = V^+ f0 (or V^+ B0 column by column), it is
h0 - N (T N)^+ T h0, the least-squares solve on T N, whose condition
number is that of the problem rather than its square.  The operator
problem's value is T*T shorted to N(V) applied to the anchor, read
through the root T: ||(I - Q_t Q_t*) T V^+ B0||_p, with Q_t an
orthonormal basis of R(T N) from the same factorization of T N (see
``shorted``); it is cross-checked against the norm its minimizer
achieves.  No T*T is formed.  The four equivalent existence conditions
are evaluated by ``spline_equivalence_report``.  Every routine factors V
once and reads V^+ and N(V) off that one factorization.
"""

from __future__ import annotations

import numpy as np

from .errors import EquivalenceViolation, InconsistentDims, NotInRange
from .linalg import (
    DEFAULT_TOL,
    Factorization,
    Tolerances,
    as_matrix,
    as_vector,
    factor,
    normal_bound,
    null_basis,
)
from .result import ResultReport
from .schatten import schatten_norm
from .shorted import CompatCertificate, _certificate


def _check_tv_dims(T, V):
    T = as_matrix(T, "T")
    V = as_matrix(V, "V")
    if T.shape[1] != V.shape[1]:
        raise InconsistentDims(
            f"T and V must share a domain, got {T.shape[1]} and {V.shape[1]} columns"
        )
    return T, V


def spline_solve(T, V, f0, tol: Tolerances = DEFAULT_TOL) -> ResultReport:
    """Minimize ||T h|| subject to V h = f0.

    Requires f0 in R(V); writes h = V^+ f0 + z with z in N(V) and solves
    the reduced least squares for z.  The report is the one the CLI
    renders: h as an n x 1 witness, ||T h|| as ``min_value``, the
    ``interpolation`` defect ||V h - f0|| and the ``normal_equation``
    residual ||P_{N(V)} T*T h||, and the ``nullity_v`` diagnostic.
    """
    T, V = _check_tv_dims(T, V)
    f0 = as_vector(f0, "f0")
    if f0.size != V.shape[0]:
        raise InconsistentDims(f"f0 has length {f0.size}, expected {V.shape[0]}")
    fv = factor(V, tol)
    F0 = f0.reshape(-1, 1)
    H, _, R, _ = _spline_columns(T, fv, _pointwise_anchors(F0, fv.lstsq(F0), tol), tol)
    h = H[:, 0]
    return ResultReport(
        exists=True,
        min_value=float(np.linalg.norm(T @ h)),
        witness=H,
        residuals={
            "interpolation": float(np.linalg.norm(V @ h - f0)),
            "normal_equation": float(np.linalg.norm(R)),
        },
        diagnostics={"nullity_v": fv.null().dim},
    )


def _pointwise_anchors(F0, solved, tol: Tolerances) -> np.ndarray:
    """V^+ F0 from ``solved = fv.lstsq(F0)``; NotInRange when any column of
    F0 is outside R(V).

    Every column's residual is judged against residual_rtol ||F0||_F, the
    scale ``Factorization.lstsq`` applies to the whole solve.  V's rank is
    decided relative to sigma_1(V), so a column of F0 that is small beside
    the others carries a residual that is small beside ||F0||_F, not
    beside its own norm.  A single column is judged against its own norm.
    """
    H0, R, _ = solved
    outside = np.linalg.norm(R, axis=0)
    if np.any(outside > tol.residual_rtol * np.linalg.norm(F0)):
        raise NotInRange("f0 is not in the range of V")
    return H0


def _spline_columns(T, fv: Factorization, H0, tol: Tolerances):
    """The minimizer of ||T .|| over h0 + N(V) for every column h0 of H0 at
    once.

    ``fv`` is the factorization of V.  The minimizer is h0 - N (T N)^+ T h0
    for the orthonormal basis N of N(V), whose correction in N(V) has the
    minimal norm when T N is rank-deficient.  Returns (H, ftn, R, bound):
    the minimizers, the factorization of T N, the normal-equation residual
    R = -N* T* T H (one column per column of H0) and the ``normal_bound``
    of that solve.
    """
    N = fv.null().basis
    ftn = factor(T @ N, tol)
    TH0 = T @ H0
    C, R, _ = ftn.normal(-TH0)
    return H0 + N @ C, ftn, R, normal_bound(ftn.matrix, C, TH0, tol)


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
    N = null_basis(V, tol).basis
    return bool(_abstract_spline_columns(T, V, h0.reshape(-1, 1), h.reshape(-1, 1), N, tol)[0])


def _abstract_spline_columns(T, V, H0, H, N, tol: Tolerances) -> np.ndarray:
    """``is_abstract_spline`` for every column pair of (H0, H); N is an
    orthonormal basis of N(V)."""
    h_norm = np.linalg.norm(H, axis=0)
    scale = np.maximum(np.linalg.norm(V) * np.maximum(h_norm, np.linalg.norm(H0, axis=0)), 1e-300)
    member = np.linalg.norm(V @ (H - H0), axis=0) <= tol.residual_rtol * scale
    if N.shape[1] == 0:
        return member
    grad = np.linalg.norm(N.conj().T @ (T.conj().T @ (T @ H)), axis=0)
    grad_scale = np.maximum(np.linalg.norm(T) ** 2 * h_norm, 1e-300)
    return member & (grad <= tol.residual_rtol * grad_scale)


def operator_spline_min(T, V, B0, p, tol: Tolerances = DEFAULT_TOL) -> ResultReport:
    """Minimum of ||T X||_p over V X = B0, with a minimizer.

    Requires R(B0) inside R(V).  The minimizer is the spline of each column
    of the anchor V^+ B0 (see ``_spline_columns``).  The closed-form value
    uses T*T shorted to N(V); the achieved norm ||T X0||_p is cross-checked
    against it.

    The report is the one the CLI renders: the value as ``min_value``, X0
    as the witness with the ``constraint`` defect ||V X0 - B0||_F and the
    ``normal_equation`` residual ||P_{N(V)} T*T X0||_F, and the
    ``nullity_v`` and ``p`` diagnostics.
    """
    T, V, B0 = _check_op_dims(T, V, B0)
    fv = factor(V, tol)
    anchor = _anchor(fv.lstsq(B0))
    X0, ftn, R, _ = _spline_columns(T, fv, anchor, tol)
    return ResultReport(
        exists=True,
        min_value=_spline_value(T, ftn, anchor, X0, p, tol),
        witness=X0,
        residuals={
            "constraint": float(np.linalg.norm(V @ X0 - B0)),
            "normal_equation": float(np.linalg.norm(R)),
        },
        diagnostics={"nullity_v": fv.null().dim, "p": p},
    )


def _check_op_dims(T, V, B0):
    T, V = _check_tv_dims(T, V)
    B0 = as_matrix(B0, "B0")
    if B0.shape != V.shape:
        raise InconsistentDims(f"B0 must have the shape of V {V.shape}, got {B0.shape}")
    return T, V, B0


def _anchor(solved) -> np.ndarray:
    """V^+ B0 from ``solved = fv.lstsq(B0)``; NotInRange unless R(B0) lies in
    R(V)."""
    anchor, _, included = solved
    if not included:
        raise NotInRange("R(B0) is not contained in R(V)")
    return anchor


def _spline_value(T, ftn: Factorization, anchor, X0, p, tol: Tolerances):
    """The operator minimum ||(I - Q_t Q_t*) T V^+ B0||_p, with ``ftn`` the
    factorization of T N and the anchor V^+ B0; EquivalenceViolation unless
    the minimizer X0 achieves it.

    T*T shorted to N(V) is T* (I - Q_t Q_t*) T on N(V)-perp (see
    ``shorted``), where the anchor lies.  The two norms must agree within
    residual_rtol times the larger of them and ||T V^+ B0||_F, the
    objective at the anchor, which is the scale of a zero minimum.
    """
    TH0 = T @ anchor
    value = schatten_norm(ftn.off_range(TH0), p)
    achieved = schatten_norm(T @ X0, p)
    scale = max(value, achieved, float(np.linalg.norm(TH0)))
    if abs(achieved - value) > tol.residual_rtol * scale:
        raise EquivalenceViolation(
            "achieved spline norm disagrees with the shorted-operator value",
            {"value": value, "achieved": achieved},
        )
    return value


def global_spline_solution(T, V, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Operator G whose columns interpolate: G h minimizes ||T .|| over h + N(V).

    The minimizer of the operator problem for B0 = V.  It vanishes on N(V)
    as it stands: its anchor V^+ V does, and so does the correction that
    ``_spline_columns`` adds to it.
    """
    return operator_spline_min(T, V, V, 2, tol).witness


def spline_equivalence_report(T, V, tol: Tolerances = DEFAULT_TOL) -> ResultReport:
    """Evaluate the equivalent spline-existence conditions.

    Flags: solvability of the operator problem for B0 = V; the columns of
    the global solution being abstract splines for the standard basis;
    compatibility of (T*T, N(V)); pointwise solvability from every
    standard-basis anchor.  All must agree or EquivalenceViolation is
    raised; the report carries ``exists`` and the four flags.

    V is factored once and every condition reads V^+ or N(V) off that
    factorization: a separate SVD of the same matrix would make the same
    rank decision, so sharing it costs no independence.  The operator
    problem for B0 = V and the pointwise problems from the anchors V e_i
    have one minimizer, the global solution G, which is computed once
    through one factorization of T N.  The conditions differ in what
    they test: the operator problem cross-checks the shorted-operator
    value against the norm G achieves, the column check tests membership
    and first-order optimality of G with the per-column tests of
    ``is_abstract_spline``, compatibility is decided on dim(N(V) +
    N(V)^{perp T*T}), and the pointwise check tests each column's
    normal-equation residual as ``spline_solve`` does.
    """
    T, V = _check_tv_dims(T, V)
    fv = factor(V, tol)
    return _spline_equivalence(T, fv, _tt_compatibility(T, fv, tol), tol)


def _tt_compatibility(T, fv: Factorization, tol: Tolerances) -> CompatCertificate:
    """The compatibility certificate of (T*T, N(V)) for V factored as ``fv``.
    N(V)^{perp T*T} is the nullspace of (T N)* T for the orthonormal basis
    N of N(V), which is formed without T*T."""
    null_v = fv.null()
    perp = null_basis((T @ null_v.basis).conj().T @ T, tol)
    return _certificate(null_v, perp, tol)


def _spline_equivalence(T, fv: Factorization, compat: CompatCertificate, tol: Tolerances):
    """``spline_equivalence_report`` with V factored as ``fv`` and the
    certificate of (T*T, N(V)) already decided."""
    V = fv.matrix
    # B0 = V for the operator problem, and the pointwise anchors V e_i are
    # the columns of V: both are the one solve V^+ V, and their minimizers
    # are one matrix, the global solution G
    solved = fv.lstsq(V)
    G, ftn, R, bound = _spline_columns(T, fv, solved[0], tol)
    op_solvable = solved[2]  # R(V) in R(V), as ``_anchor`` decides it
    columns_ok = False
    if op_solvable:
        # raises unless G achieves the shorted-operator value
        _spline_value(T, ftn, solved[0], G, 2, tol)
        basis = np.eye(V.shape[1], dtype=complex)
        columns_ok = bool(np.all(_abstract_spline_columns(T, V, basis, G, fv.null().basis, tol)))

    # every anchor is checked, so a NotInRange from any of them still surfaces
    _pointwise_anchors(V, solved, tol)
    pointwise_ok = bool(np.all(np.linalg.norm(R, axis=0) <= bound))

    conditions = {
        "spline_operator_solvable": op_solvable,
        "spline_global_columns": columns_ok,
        "spline_compatible": bool(compat.compatible),
        "spline_pointwise_nonempty": pointwise_ok,
    }
    if len(set(conditions.values())) != 1:
        raise EquivalenceViolation(
            "spline equivalence flags disagree (rank-decision inconsistency)",
            {"conditions": conditions},
        )
    return ResultReport(exists=op_solvable, conditions=conditions)


# Registry builders (see problems.REGISTRY): a validated manifest -> ResultReport
def _build_spline(m) -> ResultReport:
    return spline_solve(m.matrices["T"], m.matrices["V"], m.matrices["f0"], m.tolerances)


def _build_op_spline(m) -> ResultReport:
    return operator_spline_min(
        m.matrices["T"], m.matrices["V"], m.matrices["B0"], m.p, m.tolerances
    )
