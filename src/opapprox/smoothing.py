"""Smoothing problems and block-weighted optimal inverses.

The classical smoothing objective ||T h||^2 + ||V h - f0||^2 is ordinary
least squares on the stacked operator M = [T; V] with right side
[0; f0]; its normal equation (T*T + V*V) h = V* f0 is solved on that root
by ``Factorization.normal``, so T*T + V*V is never formed.  A block weight
on F (+) H defines optimal inverses; the stack lift A -> (A h, h) turns
optimal inverses of A into weighted inverses of the lifted operator,
whose root is W^{1/2} times the lift, and the report operations certify
that the two existence questions (plus a companion equation) stay in
lockstep.  Everything here is p = 2: the Hilbert-space reduction is
specific to the squared norm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EquivalenceViolation, InconsistentDims, NoMinimum
from .linalg import (
    DEFAULT_TOL,
    Factorization,
    PsdWeight,
    Tolerances,
    as_matrix,
    as_vector,
    factor,
    hermitize,
    normal_bound,
    psd_weight,
)
from .result import ResultReport
from .shorted import CompatCertificate
from .spline import _check_tv_dims, _spline_equivalence, _tt_compatibility


@dataclass(frozen=True, eq=False)
class BlockWeight:
    """2x2 block PSD weight on F (+) H: [[w11, w12], [w12*, w22]].

    w11 acts on F, w22 on H, w12 maps H to F.  The assembled matrix must
    be PSD within tolerance; ``weight`` is its PsdWeight, whose root the
    lifted problems are solved on.
    """

    w11: np.ndarray
    w12: np.ndarray
    w22: np.ndarray
    weight: PsdWeight = field(init=False, repr=False)

    def __post_init__(self):
        w11 = as_matrix(self.w11, "w11")
        w12 = as_matrix(self.w12, "w12")
        w22 = as_matrix(self.w22, "w22")
        if w11.shape[0] != w11.shape[1] or w22.shape[0] != w22.shape[1]:
            raise InconsistentDims("w11 and w22 must be square")
        if w12.shape != (w11.shape[0], w22.shape[0]):
            raise InconsistentDims(
                f"w12 must have shape {(w11.shape[0], w22.shape[0])}, got {w12.shape}"
            )
        object.__setattr__(self, "w11", w11)
        object.__setattr__(self, "w12", w12)
        object.__setattr__(self, "w22", w22)
        weight = psd_weight(self.assemble(), name="assembled block weight")
        object.__setattr__(self, "weight", weight)

    @property
    def f_dim(self) -> int:
        return self.w11.shape[0]

    @property
    def h_dim(self) -> int:
        return self.w22.shape[0]

    def assemble(self) -> np.ndarray:
        top = np.hstack([self.w11, self.w12])
        bottom = np.hstack([self.w12.conj().T, self.w22])
        return np.vstack([top, bottom])


def _data(T, F) -> np.ndarray:
    """[0; F], the right side that pairs with the stack [T; V]."""
    return np.vstack([np.zeros((T.shape[0], F.shape[1]), dtype=complex), F])


def _smoothing_fit(T, V, B, tol: Tolerances):
    """The minimal-norm minimizer X = [T; V]^+ [0; B] of ||T X||^2 +
    ||V X - B||^2 as a report, and the solvability decision of its normal
    equation (T*T + V*V) X = V* B, whose residual T* T X + V* (V X - B) is
    the ``normal_equation`` residual."""
    X, R, solvable = factor(np.vstack([T, V]), tol).normal(_data(T, B))
    return ResultReport(
        exists=True,
        min_value=float(np.linalg.norm(T @ X) ** 2 + np.linalg.norm(V @ X - B) ** 2),
        witness=X,
        residuals={"normal_equation": float(np.linalg.norm(R))},
    ), solvable


def smoothing_solve(T, V, f0, tol: Tolerances = DEFAULT_TOL) -> ResultReport:
    """Minimize ||T h||^2 + ||V h - f0||^2; minimal-norm h among minimizers.

    The report is the one the CLI renders: h as an n x 1 witness, the
    objective as ``min_value`` and its ``normal_equation`` residual.
    """
    T, V = _check_tv_dims(T, V)
    f0 = as_vector(f0, "f0")
    if f0.size != V.shape[0]:
        raise InconsistentDims(f"f0 has length {f0.size}, expected {V.shape[0]}")
    return _smoothing_fit(T, V, f0.reshape(-1, 1), tol)[0]


def operator_smoothing_min(T, V, B0, tol: Tolerances = DEFAULT_TOL) -> ResultReport:
    """Minimum of ||T X||_2^2 + ||V X - B0||_2^2 over X, with a minimizer.

    Solvability of (T*T + V*V) X = V* B0 is decided on the stack [T; V];
    the minimal-norm solution is the returned minimizer.  The report is
    the one the CLI renders: the minimum as ``min_value`` and the
    minimizer as the witness, with its ``normal_equation`` residual.
    """
    T, V = _check_tv_dims(T, V)
    B0 = as_matrix(B0, "B0")
    if B0.shape[0] != V.shape[0]:
        raise InconsistentDims(f"B0 must have {V.shape[0]} rows, got {B0.shape[0]}")
    report, solvable = _smoothing_fit(T, V, B0, tol)
    if not solvable:
        raise NoMinimum("the smoothing normal equation is unsolvable under the rank decisions")
    return report


def optimal_inverse(A, W: BlockWeight, tol: Tolerances = DEFAULT_TOL) -> ResultReport:
    """Block-weighted optimal inverse of A.

    G minimizes the W-seminorm of the stacked residual (A G f - f, G f)
    for every f; it exists iff
    (A* w11 A + A* w12 + w12* A + w22) X = A* w11 + w12* is solvable.
    That is the normal equation of the lift's root W^{1/2} hat(A) with
    the first f columns of W^{1/2} as right side, so G is the first f
    columns of the lift's W-inverse.  Nonexistence is a value, not an
    error.  The report is the one the CLI renders: the
    ``normal_eq_solvable`` flag and, when it holds, the
    minimal-Frobenius-norm solution as the witness with its
    ``normal_equation`` residual.
    """
    A = _check_lift_dims(A, W)
    G, R, ok = _lifted_root(A, W, tol).normal(W.weight.sqrt[:, : W.f_dim])
    return ResultReport(
        exists=ok,
        witness=G if ok else None,
        residuals={"normal_equation": float(np.linalg.norm(R))} if ok else {},
        conditions={"normal_eq_solvable": ok},
    )


def _check_lift_dims(A, W: BlockWeight) -> np.ndarray:
    A = as_matrix(A, "A")
    if (A.shape[0], A.shape[1]) != (W.f_dim, W.h_dim):
        raise InconsistentDims(
            f"A must map H (dim {W.h_dim}) to F (dim {W.f_dim}), got shape {A.shape}"
        )
    return A


def hat_lift(A) -> np.ndarray:
    """The stack h -> (A h, h) into F (+) H, as a vertically stacked matrix."""
    A = as_matrix(A, "A")
    return np.vstack([A, np.eye(A.shape[1], dtype=complex)])


def _lifted_root(A, W: BlockWeight, tol: Tolerances) -> Factorization:
    """One factorization of W^{1/2} hat(A) = W^{1/2} [A; I], the root of the
    lifted Gram (hat A)* W (hat A) = A* w11 A + A* w12 + w12* A + w22."""
    return factor(W.weight.sqrt @ hat_lift(A), tol)


def hat_equivalence_check(A, W: BlockWeight, tol: Tolerances = DEFAULT_TOL) -> ResultReport:
    """Certify: the lift of A has a W-inverse iff A has a W-optimal inverse
    and the companion equation (same left side, right side A* w12 + w22)
    is solvable.

    The lift's W-inverse z is one normal solve on the root W^{1/2} hat(A)
    with right side W^{1/2}, since (hat A)* W = [A* w11 + w12* |
    A* w12 + w22] holds the other two right sides side by side: its first
    f columns are the optimal inverse and its last h columns solve the
    companion equation.  Each block and the whole are judged by
    ``normal_bound`` on their own columns.

    The report is the one the CLI renders: it exists when all three flags
    hold, and then its witness is z with its lifted normal-equation defect
    as the ``lifted_normal_equation`` residual.
    """
    A = _check_lift_dims(A, W)
    lifted = _lifted_root(A, W, tol)
    root = W.weight.sqrt
    z, R, lift_ok = lifted.normal(root)

    def block_ok(cols) -> bool:
        bound = normal_bound(lifted.matrix, z[:, cols], root[:, cols], tol)
        return bool(np.linalg.norm(R[:, cols]) <= bound)

    conditions = {
        "hat_w_inverse_exists": lift_ok,
        "optimal_inverse_exists": block_ok(slice(None, W.f_dim)),
        "companion_eq_solvable": block_ok(slice(W.f_dim, None)),
    }
    if conditions["hat_w_inverse_exists"] != (
        conditions["optimal_inverse_exists"] and conditions["companion_eq_solvable"]
    ):
        raise EquivalenceViolation(
            "lift equivalence flags disagree (rank-decision inconsistency)",
            {"conditions": conditions},
        )

    if not all(conditions.values()):
        return ResultReport(exists=False, conditions=conditions)
    return ResultReport(
        exists=True,
        witness=z,
        residuals={"lifted_normal_equation": float(np.linalg.norm(R))},
        conditions=conditions,
    )


def smoothing_equivalence_report(T, V, tol: Tolerances = DEFAULT_TOL) -> ResultReport:
    """Evaluate the equivalent smoothing-existence conditions.

    Flags: range inclusion R(V*) in R(T*T + V*V); pointwise solvability on
    the standard basis; existence of the (I, 0, T*T)-block optimal inverse
    of V; global dominance of G = (T*T + V*V)^+ V*; compatibility of
    (T*T, N(V)).  All must agree or EquivalenceViolation is raised.

    The range inclusion, the pointwise solves, the optimal inverse, G, the
    dominance form and the ``rank_gram`` diagnostic all concern
    T*T + V*V, whose root is the stack [T; V], and share one factorization
    of the stack.  The pointwise solves are one normal solve of the
    standard basis [0; I], each column judged by ``normal_bound``, and
    their columns are G.  That solve as a whole is the optimal inverse's
    normal equation (its lifted Gram is T*T + V*V and its right side V*).
    The range inclusion is read off the same SVD: R(V*) lies in
    R([T; V]*) iff V vanishes on N([T; V]).  Dominance is decided exactly
    (see ``_dominance``), and compatibility is decided on N(V).

    The report is the one the CLI renders for the smoothing chain: when a
    solution exists, its witness is G with the Frobenius norm of the
    basis residuals V* - (T*T + V*V) G as the ``normal_equation`` residual.
    """
    T, V = _check_tv_dims(T, V)
    compat = _tt_compatibility(T, factor(V, tol), tol)
    return _smoothing_equivalence(T, V, compat, tol)


def tv_report(T, V, tol: Tolerances = DEFAULT_TOL) -> ResultReport:
    """The (T,V) existence report: the smoothing and the spline conditions
    of one pair, as the CLI renders it.

    The smoothing flags carry a ``smoothing_`` prefix beside the spline
    flags, the witness, residuals and diagnostics are the smoothing
    report's, and the pair exists when both chains say so.  Both chains
    read N(V) off one factorization of V and share one certificate of
    (T*T, N(V)).
    """
    T, V = _check_tv_dims(T, V)
    fv = factor(V, tol)
    compat = _tt_compatibility(T, fv, tol)
    smooth = _smoothing_equivalence(T, V, compat, tol)
    spline = _spline_equivalence(T, fv, compat, tol)
    conditions = {f"smoothing_{k}": v for k, v in smooth.conditions.items()}
    conditions.update(spline.conditions)
    return ResultReport(
        exists=smooth.exists and spline.exists,
        witness=smooth.witness,
        residuals=smooth.residuals,
        conditions=conditions,
        diagnostics=smooth.diagnostics,
    )


def _smoothing_equivalence(T, V, compat: CompatCertificate, tol: Tolerances) -> ResultReport:
    """``smoothing_equivalence_report`` with the certificate of (T*T, N(V))
    already decided."""
    stack = factor(np.vstack([T, V]), tol)
    # column i of G solves the smoothing problem for f0 = e_i, and column i
    # of R is its normal-equation residual; the solve as a whole is the
    # (I, 0, T*T) optimal inverse of V
    E = _data(T, np.eye(V.shape[0], dtype=complex))
    G, R, optimal_ok = stack.normal(E)

    bound = normal_bound(stack.matrix, G, E, tol)
    basis_residuals = [float(r) for r in np.linalg.norm(R, axis=0)]
    pointwise_ok = all(r <= bound for r in basis_residuals)

    # R(V*) in R([T; V]*), the row space: V vanishes on N([T; V])
    outside = np.linalg.norm(V @ stack.null().basis)
    range_ok = bool(outside <= tol.residual_rtol * np.linalg.norm(V))

    dominance_ok, gap = _dominance(T, V, G, stack, E)

    conditions = {
        "range_inclusion": range_ok,
        "pointwise_solvable": bool(pointwise_ok),
        "optimal_inverse_exists": optimal_ok,
        "global_dominance": dominance_ok,
        "compatible": bool(compat.compatible),
    }
    if len(set(conditions.values())) != 1:
        raise EquivalenceViolation(
            "smoothing equivalence flags disagree (rank-decision inconsistency)",
            {"conditions": conditions, "basis_residuals": basis_residuals},
        )
    exists = all(conditions.values())
    diagnostics = {
        "rank_gram": stack.rank,
        "max_basis_residual": max(basis_residuals) if basis_residuals else 0.0,
        "worst_dominance_gap": gap,
    }
    return ResultReport(
        exists=exists,
        witness=G if exists else None,
        residuals={"normal_equation": float(np.linalg.norm(R))} if exists else {},
        conditions=conditions,
        diagnostics=diagnostics,
    )


def _dominance(T, V, G, stack: Factorization, E) -> tuple[bool, float]:
    """Exact global dominance of G: J(f, G f) = min_h J(f, h) for every f,
    where J(f, h) = ||T h||^2 + ||V h - f||^2.  ``stack`` is the
    factorization of M = [T; V] and E = [0; I].  Returns (flag, gap).

    J(f, G f) = f* F_G f with F_G = (T G)*(T G) + (V G - I)*(V G - I),
    formed from T, V and G directly, and min_h J(f, h) = f* F* f with
    F* = K*K for K = U_perp* E, the part of E outside R(M), read off the
    stack's SVD.  So G dominates iff the gap lambda_max(F_G - F*) is 0; it
    equals lambda_max(dG* M*M dG) for the error dG of G, so it is second
    order in that error, and rounding can leave it slightly negative.  The
    flag accepts gap <= residual_rtol (1 + ||M||_F ||G||_F): the 1 is the
    scale of the form (F* <= I, since J(f, 0) = ||f||^2) and the product is
    the rounding scale of forming T G and V G.
    """
    if not V.shape[0]:
        return True, 0.0
    TG = T @ G
    D = V @ G - np.eye(V.shape[0])
    K = stack.off_range(E)
    form = TG.conj().T @ TG + D.conj().T @ D - K.conj().T @ K
    gap = float(np.linalg.eigvalsh(hermitize(form))[-1])
    scale = 1.0 + np.linalg.norm(stack.matrix) * np.linalg.norm(G)
    return bool(gap <= stack.tol.residual_rtol * scale), gap


# Registry builders (see problems.REGISTRY): a validated manifest -> ResultReport
def _build_smoothing(m) -> ResultReport:
    return smoothing_solve(m.matrices["T"], m.matrices["V"], m.matrices["f0"], m.tolerances)


def _build_op_smoothing(m) -> ResultReport:
    return operator_smoothing_min(m.matrices["T"], m.matrices["V"], m.matrices["B0"], m.tolerances)


def _build_opt_inverse(m) -> ResultReport:
    W = BlockWeight(m.matrices["W11"], m.matrices["W12"], m.matrices["W22"])
    return optimal_inverse(m.matrices["A"], W, m.tolerances)


def _build_tv_report(m) -> ResultReport:
    return tv_report(m.matrices["T"], m.matrices["V"], m.tolerances)


def _build_hat_report(m) -> ResultReport:
    W = BlockWeight(m.matrices["W11"], m.matrices["W12"], m.matrices["W22"])
    return hat_equivalence_check(m.matrices["A"], W, m.tolerances)
