"""Smoothing problems and block-weighted optimal inverses.

The classical smoothing objective ||T h||^2 + ||V h - f0||^2 reduces to the
normal equation (T*T + V*V) h = V* f0, equivalently to ordinary least
squares on the stacked operator h -> (T h, V h) with the plain direct-sum
inner product.  A block weight on F (+) H defines optimal inverses; the
stack lift A -> (A h, h) turns optimal inverses of A into weighted
inverses of the lifted operator, and the report operations certify that
the two existence questions (plus a companion equation) stay in lockstep.
Everything here is p = 2: the Hilbert-space reduction is specific to the
squared norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EquivalenceViolation, InconsistentDims, NoMinimum
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    as_matrix,
    as_vector,
    ensure_psd_weight,
    factor,
    null_basis,
    pinv,
)
from .result import ResultReport
from .shorted import CompatCertificate, is_compatible
from .spline import _check_tv_dims, _spline_equivalence, _tt_weight


@dataclass(frozen=True, eq=False)
class BlockWeight:
    """2x2 block PSD weight on F (+) H: [[w11, w12], [w12*, w22]].

    w11 acts on F, w22 on H, w12 maps H to F.  The assembled matrix must
    be PSD within tolerance.
    """

    w11: np.ndarray
    w12: np.ndarray
    w22: np.ndarray

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
        ensure_psd_weight(self.assemble(), name="assembled block weight")

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


def _gram(T, V) -> np.ndarray:
    """T*T + V*V, the left side of every smoothing normal equation."""
    return T.conj().T @ T + V.conj().T @ V


def _basis_residual_scale(gram, V) -> float:
    """max(||gram||_F, 1) max(||V||_F, 1): the report accepts a basis solve
    whose normal-equation residual is at most residual_rtol times this."""
    return float(max(np.linalg.norm(gram), 1.0) * max(np.linalg.norm(V), 1.0))


def smoothing_solve(T, V, f0, tol: Tolerances = DEFAULT_TOL) -> ResultReport:
    """Minimize ||T h||^2 + ||V h - f0||^2; minimal-norm h among minimizers.

    The report is the one the CLI renders: h as an n x 1 witness, the
    objective as ``min_value`` and ||(T*T + V*V) h - V* f0|| as the
    ``normal_equation`` residual.
    """
    T, V = _check_tv_dims(T, V)
    f0 = as_vector(f0, "f0")
    if f0.size != V.shape[0]:
        raise InconsistentDims(f"f0 has length {f0.size}, expected {V.shape[0]}")
    gram = _gram(T, V)
    rhs = V.conj().T @ f0
    h = pinv(gram, tol) @ rhs
    return ResultReport(
        exists=True,
        min_value=float(np.linalg.norm(T @ h) ** 2 + np.linalg.norm(V @ h - f0) ** 2),
        witness=h.reshape(-1, 1),
        residuals={"normal_equation": float(np.linalg.norm(gram @ h - rhs))},
    )


def operator_smoothing_min(T, V, B0, tol: Tolerances = DEFAULT_TOL) -> ResultReport:
    """Minimum of ||T X||_2^2 + ||V X - B0||_2^2 over X, with a minimizer.

    Solvability of (T*T + V*V) X = V* B0 is tested first; the minimal-norm
    solution is the returned minimizer.  The report is the one the CLI
    renders: the minimum as ``min_value`` and the minimizer as the witness,
    with ||V* B0 - (T*T + V*V) X||_F as the ``normal_equation`` residual.
    """
    T, V = _check_tv_dims(T, V)
    B0 = as_matrix(B0, "B0")
    if B0.shape[0] != V.shape[0]:
        raise InconsistentDims(f"B0 must have {V.shape[0]} rows, got {B0.shape[0]}")
    X0, R, ok = factor(_gram(T, V), tol).lstsq(V.conj().T @ B0)
    if not ok:
        raise NoMinimum("the smoothing normal equation is unsolvable under the rank decisions")
    return ResultReport(
        exists=True,
        min_value=float(np.linalg.norm(T @ X0) ** 2 + np.linalg.norm(V @ X0 - B0) ** 2),
        witness=X0,
        residuals={"normal_equation": float(np.linalg.norm(R))},
    )


def optimal_inverse(A, W: BlockWeight, tol: Tolerances = DEFAULT_TOL) -> ResultReport:
    """Block-weighted optimal inverse of A.

    G minimizes the W-seminorm of the stacked residual (A G f - f, G f)
    for every f; it exists iff
    (A* w11 A + A* w12 + w12* A + w22) X = A* w11 + w12* is solvable.
    Nonexistence is a value, not an error.  The report is the one the CLI
    renders: the ``normal_eq_solvable`` flag and, when it holds, the
    minimal-Frobenius-norm solution as the witness with its
    ``normal_equation`` residual.
    """
    A = _check_lift_dims(A, W)
    G, R, ok = factor(_lifted_gram(A, W), tol).lstsq(A.conj().T @ W.w11 + W.w12.conj().T)
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


def _lifted_gram(A, W: BlockWeight) -> np.ndarray:
    # (hat A)* W (hat A) = A* w11 A + A* w12 + w12* A + w22
    return (
        A.conj().T @ W.w11 @ A
        + A.conj().T @ W.w12
        + W.w12.conj().T @ A
        + W.w22
    )


def hat_equivalence_check(A, W: BlockWeight, tol: Tolerances = DEFAULT_TOL) -> ResultReport:
    """Certify: the lift of A has a W-inverse iff A has a W-optimal inverse
    and the companion equation (same left side, right side A* w12 + w22)
    is solvable.

    The lift's normal equation has the lifted Gram as its left side and
    (hat A)* W = [A* w11 + w12* | A* w12 + w22], the other two right sides
    side by side, as its right side.  So one factorization and two solves
    serve all three: each block is accepted by the ``Factorization.lstsq``
    rule, and the lift by that rule over both blocks at once.  When all
    three hold, the two pieces assemble into z(f, h) = z1 f + z2 h,
    verified to solve the lifted normal equation.

    The report is the one the CLI renders: it exists when all three flags
    hold, and then its witness is z = [z1 | z2] with its lifted
    normal-equation defect as the ``lifted_normal_equation`` residual.
    """
    A = _check_lift_dims(A, W)
    gram = _lifted_gram(A, W)
    lifted_gram = factor(gram, tol)
    rhs_opt = A.conj().T @ W.w11 + W.w12.conj().T
    rhs_companion = A.conj().T @ W.w12 + W.w22
    g_opt, r_opt, opt_ok = lifted_gram.lstsq(rhs_opt)
    z2, r_companion, companion_ok = lifted_gram.lstsq(rhs_companion)
    # the Frobenius norms of the lift's residual and right side
    lift_residual = np.hypot(np.linalg.norm(r_opt), np.linalg.norm(r_companion))
    lift_rhs = np.hypot(np.linalg.norm(rhs_opt), np.linalg.norm(rhs_companion))

    conditions = {
        "hat_w_inverse_exists": bool(lift_residual <= tol.residual_rtol * lift_rhs),
        "optimal_inverse_exists": opt_ok,
        "companion_eq_solvable": bool(companion_ok),
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
    z = np.hstack([g_opt, z2])
    target = hat_lift(A).conj().T @ W.assemble()
    residual = float(np.linalg.norm(gram @ z - target))
    scale = max(np.linalg.norm(gram) * np.linalg.norm(z), np.linalg.norm(target), 1.0)
    if residual > tol.residual_rtol * scale:
        raise EquivalenceViolation(
            "assembled solution fails the lifted normal equation",
            {"residual": residual, "scale": scale},
        )
    return ResultReport(
        exists=True,
        witness=z,
        residuals={"lifted_normal_equation": residual},
        conditions=conditions,
    )


def smoothing_equivalence_report(
    T, V, tol: Tolerances = DEFAULT_TOL, rng=None, samples: int = 100
) -> ResultReport:
    """Evaluate the equivalent smoothing-existence conditions.

    Flags: range inclusion R(V*) in R(T*T + V*V); pointwise solvability on
    the standard basis; existence of the (I, 0, T*T)-block optimal inverse
    of V; sampled global dominance of G = (T*T + V*V)^+ V*; compatibility
    of (T*T, N(V)).  All must agree or EquivalenceViolation is raised.

    The range inclusion, the pointwise solves, the optimal inverse, G and
    the ``rank_gram`` diagnostic all concern the Gram matrix T*T + V*V and
    share one factorization of it; each would make the same rank decision
    on its own.  The pointwise solves are one solve of the whole standard
    basis, each column tested as ``smoothing_solve`` tests its residual,
    and their columns are G.  The optimal inverse's normal equation is
    that solve of V* (its lifted Gram is T*T + V*V and its right side is
    V*), so its flag is the range inclusion's.  Dominance is sampled, and
    compatibility is decided on N(V).

    The report is the one the CLI renders for the smoothing chain: when a
    solution exists, its witness is G with the Frobenius norm of the
    basis residuals V* - (T*T + V*V) G as the ``normal_equation`` residual.
    """
    T, V = _check_tv_dims(T, V)
    compat = is_compatible(T.conj().T @ T, null_basis(V, tol), tol)
    return _smoothing_equivalence(T, V, compat, tol, rng, samples)


def tv_report(T, V, tol: Tolerances = DEFAULT_TOL, rng=None) -> ResultReport:
    """The (T,V) existence report: the smoothing and the spline conditions
    of one pair, as the CLI renders it.

    The smoothing flags carry a ``smoothing_`` prefix beside the spline
    flags, the witness, residuals and diagnostics are the smoothing
    report's, and the pair exists when both chains say so.  Both chains
    read N(V) off one factorization of V and share one certificate of
    (T*T, N(V)).  ``rng`` drives the sampled dominance check, as in
    ``smoothing_equivalence_report``.
    """
    T, V = _check_tv_dims(T, V)
    fv = factor(V, tol)
    tt_weight = _tt_weight(T, tol)
    compat = is_compatible(tt_weight, fv.null(), tol)
    smooth = _smoothing_equivalence(T, V, compat, tol, rng)
    spline = _spline_equivalence(T, fv, tt_weight, compat, tol)
    conditions = {f"smoothing_{k}": v for k, v in smooth.conditions.items()}
    conditions.update(spline.conditions)
    return ResultReport(
        exists=smooth.exists and spline.exists,
        witness=smooth.witness,
        residuals=smooth.residuals,
        conditions=conditions,
        diagnostics=smooth.diagnostics,
    )


def _smoothing_equivalence(
    T, V, compat: CompatCertificate, tol: Tolerances, rng, samples: int = 100
) -> ResultReport:
    """``smoothing_equivalence_report`` with the certificate of (T*T, N(V))
    already decided."""
    if rng is None:
        rng = np.random.default_rng(0)
    gram = _gram(T, V)
    # column i of G solves the smoothing problem for f0 = e_i, and column i
    # of R is its normal-equation residual; the solve of V* as a whole is
    # the range inclusion and the (I, 0, T*T) optimal inverse of V
    gram_f = factor(gram, tol)
    G, R, range_ok = gram_f.lstsq(V.conj().T)

    scale = _basis_residual_scale(gram, V)
    basis_residuals = [float(r) for r in np.linalg.norm(R, axis=0)]
    pointwise_ok = all(r <= tol.residual_rtol * scale for r in basis_residuals)

    dominance_ok, worst_gap = _dominance(T, V, G, rng, samples)

    conditions = {
        "range_inclusion": bool(range_ok),
        "pointwise_solvable": bool(pointwise_ok),
        "optimal_inverse_exists": bool(range_ok),
        "global_dominance": bool(dominance_ok),
        "compatible": bool(compat.compatible),
    }
    if len(set(conditions.values())) != 1:
        raise EquivalenceViolation(
            "smoothing equivalence flags disagree (rank-decision inconsistency)",
            {"conditions": conditions, "basis_residuals": basis_residuals},
        )
    exists = all(conditions.values())
    diagnostics = {
        "rank_gram": gram_f.rank,
        "max_basis_residual": max(basis_residuals) if basis_residuals else 0.0,
        "worst_dominance_gap": worst_gap,
    }
    return ResultReport(
        exists=exists,
        witness=G if exists else None,
        residuals={"normal_equation": float(np.linalg.norm(R))} if exists else {},
        conditions=conditions,
        diagnostics=diagnostics,
    )


def _dominance(T, V, G, rng, samples: int):
    """Sampled global dominance of G: for random pairs (f, h), the smoothing
    objective for f at G f exceeds the one at h by at most 1e-10 times
    max(objective at h, 1).  Returns (flag, largest gap, at least 0).

    All samples are one draw: row k holds sample k's f and h, real parts
    before imaginary ones, which is the stream a per-sample loop draws.
    """
    f_dim, n = V.shape
    draws = rng.standard_normal((samples, 2 * f_dim + 2 * n))
    F = (draws[:, :f_dim] + 1j * draws[:, f_dim : 2 * f_dim]).T
    H = (draws[:, 2 * f_dim : 2 * f_dim + n] + 1j * draws[:, 2 * f_dim + n :]).T
    GF = G @ F

    def objective(X):
        return np.linalg.norm(T @ X, axis=0) ** 2 + np.linalg.norm(V @ X - F, axis=0) ** 2

    other = objective(H)
    gap = objective(GF) - other
    return not np.any(gap > 1e-10 * np.maximum(other, 1.0)), float(np.max(gap, initial=0.0))


# Registry builders (see problems.REGISTRY): a validated manifest -> ResultReport
def _build_smoothing(m) -> ResultReport:
    return smoothing_solve(m.matrices["T"], m.matrices["V"], m.matrices["f0"], m.tolerances)


def _build_op_smoothing(m) -> ResultReport:
    return operator_smoothing_min(m.matrices["T"], m.matrices["V"], m.matrices["B0"], m.tolerances)


def _build_opt_inverse(m) -> ResultReport:
    W = BlockWeight(m.matrices["W11"], m.matrices["W12"], m.matrices["W22"])
    return optimal_inverse(m.matrices["A"], W, m.tolerances)


def _build_tv_report(m) -> ResultReport:
    return tv_report(m.matrices["T"], m.matrices["V"], m.tolerances, np.random.default_rng(m.seed))


def _build_hat_report(m) -> ResultReport:
    W = BlockWeight(m.matrices["W11"], m.matrices["W12"], m.matrices["W22"])
    return hat_equivalence_check(m.matrices["A"], W, m.tolerances)
