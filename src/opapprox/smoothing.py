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

from dataclasses import dataclass, field

import numpy as np

from .errors import EquivalenceViolation, InconsistentDims, NoMinimum
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    as_matrix,
    as_vector,
    ensure_psd_weight,
    matrix_rank,
    null_basis,
    pinv,
    range_included,
)
from .shorted import CompatCertificate, is_compatible
from .spline import _check_tv_dims
from .wls import w_inverse


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


@dataclass(frozen=True, eq=False)
class SmoothingSolution:
    """Smoothing spline with its objective and normal-equation residual."""

    h: np.ndarray
    objective: float
    normal_residual: float


@dataclass(frozen=True, eq=False)
class HatEquivalenceReport:
    """Existence flags and the assembled witness for the lift equivalence.

    ``z`` solves the lifted normal equation when all flags hold:
    z = [z1 | z2] with z1 the optimal inverse and z2 the companion-equation
    solution; ``residual`` is the lifted normal-equation defect of z.
    """

    conditions: dict
    z: np.ndarray | None = None
    residual: float | None = None
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class SmoothingEquivalenceReport:
    """Five-way agreement report for the smoothing problem."""

    exists: bool
    conditions: dict
    global_solution: np.ndarray | None
    compat: CompatCertificate
    diagnostics: dict = field(default_factory=dict)


def smoothing_solve(T, V, f0, tol: Tolerances = DEFAULT_TOL) -> SmoothingSolution:
    """Minimize ||T h||^2 + ||V h - f0||^2; minimal-norm h among minimizers."""
    T, V = _check_tv_dims(T, V)
    f0 = as_vector(f0, "f0")
    if f0.size != V.shape[0]:
        raise InconsistentDims(f"f0 has length {f0.size}, expected {V.shape[0]}")
    gram = T.conj().T @ T + V.conj().T @ V
    rhs = V.conj().T @ f0
    h = pinv(gram, tol) @ rhs
    objective = float(np.linalg.norm(T @ h) ** 2 + np.linalg.norm(V @ h - f0) ** 2)
    residual = float(np.linalg.norm(gram @ h - rhs))
    return SmoothingSolution(h=h, objective=objective, normal_residual=residual)


def operator_smoothing_min(T, V, B0, tol: Tolerances = DEFAULT_TOL):
    """Minimum of ||T X||_2^2 + ||V X - B0||_2^2 over X, with a minimizer.

    Solvability of (T*T + V*V) X = V* B0 is tested first; the minimal-norm
    solution is the returned minimizer.
    """
    T, V = _check_tv_dims(T, V)
    B0 = as_matrix(B0, "B0")
    if B0.shape[0] != V.shape[0]:
        raise InconsistentDims(f"B0 must have {V.shape[0]} rows, got {B0.shape[0]}")
    gram = T.conj().T @ T + V.conj().T @ V
    ok, X0 = range_included(V.conj().T @ B0, gram, tol)
    if not ok:
        raise NoMinimum("the smoothing normal equation is unsolvable under the rank decisions")
    value = float(np.linalg.norm(T @ X0) ** 2 + np.linalg.norm(V @ X0 - B0) ** 2)
    return value, X0


def optimal_inverse(A, W: BlockWeight, tol: Tolerances = DEFAULT_TOL) -> np.ndarray | None:
    """Block-weighted optimal inverse of A, or None.

    G minimizes the W-seminorm of the stacked residual (A G f - f, G f)
    for every f; it exists iff
    (A* w11 A + A* w12 + w12* A + w22) X = A* w11 + w12* is solvable.
    The minimal-Frobenius-norm solution is returned.
    """
    A = as_matrix(A, "A")
    if (A.shape[0], A.shape[1]) != (W.f_dim, W.h_dim):
        raise InconsistentDims(
            f"A must map H (dim {W.h_dim}) to F (dim {W.f_dim}), got shape {A.shape}"
        )
    gram = _lifted_gram(A, W)
    rhs = A.conj().T @ W.w11 + W.w12.conj().T
    ok, G = range_included(rhs, gram, tol)
    return G if ok else None


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


def hat_equivalence_check(A, W: BlockWeight, tol: Tolerances = DEFAULT_TOL) -> HatEquivalenceReport:
    """Certify: the lift of A has a W-inverse iff A has a W-optimal inverse
    and the companion equation (same left side, right side A* w12 + w22)
    is solvable.

    When all three hold, the two pieces assemble into z(f, h) = z1 f + z2 h,
    verified to solve the lifted normal equation.
    """
    A = as_matrix(A, "A")
    lifted = hat_lift(A)
    w_mat = W.assemble()

    z_lift = w_inverse(lifted, w_mat, tol)
    g_opt = optimal_inverse(A, W, tol)
    gram = _lifted_gram(A, W)
    companion_rhs = A.conj().T @ W.w12 + W.w22
    companion_ok, z2 = range_included(companion_rhs, gram, tol)

    conditions = {
        "hat_w_inverse_exists": z_lift is not None,
        "optimal_inverse_exists": g_opt is not None,
        "companion_eq_solvable": bool(companion_ok),
    }
    if conditions["hat_w_inverse_exists"] != (
        conditions["optimal_inverse_exists"] and conditions["companion_eq_solvable"]
    ):
        raise EquivalenceViolation(
            "lift equivalence flags disagree (rank-decision inconsistency)",
            {"conditions": conditions},
        )

    z = None
    residual = None
    if all(conditions.values()):
        z = np.hstack([g_opt, z2])
        target = lifted.conj().T @ w_mat
        defect = np.linalg.norm(gram @ z - target)
        scale = max(np.linalg.norm(gram) * np.linalg.norm(z), np.linalg.norm(target), 1.0)
        residual = float(defect)
        if defect > tol.residual_rtol * scale:
            raise EquivalenceViolation(
                "assembled solution fails the lifted normal equation",
                {"residual": residual, "scale": scale},
            )
    return HatEquivalenceReport(conditions=conditions, z=z, residual=residual)


def smoothing_equivalence_report(
    T, V, tol: Tolerances = DEFAULT_TOL, rng=None, samples: int = 100
) -> SmoothingEquivalenceReport:
    """Evaluate the equivalent smoothing-existence conditions independently.

    Flags: range inclusion R(V*) in R(T*T + V*V); pointwise solvability on
    the standard basis; existence of the (I, 0, T*T)-block optimal inverse
    of V; sampled global dominance of G = (T*T + V*V)^+ V*; compatibility
    of (T*T, N(V)).  All must agree or EquivalenceViolation is raised.
    """
    T, V = _check_tv_dims(T, V)
    if rng is None:
        rng = np.random.default_rng(0)
    f_dim, n = V.shape
    gram = T.conj().T @ T + V.conj().T @ V

    range_ok, _ = range_included(V.conj().T, gram, tol)

    scale = max(np.linalg.norm(gram), 1.0) * max(np.linalg.norm(V), 1.0)
    basis_residuals = []
    for i in range(f_dim):
        e = np.zeros(f_dim, dtype=complex)
        e[i] = 1.0
        basis_residuals.append(smoothing_solve(T, V, e, tol).normal_residual)
    pointwise_ok = all(r <= tol.residual_rtol * scale for r in basis_residuals)

    blocks = BlockWeight(
        w11=np.eye(f_dim, dtype=complex),
        w12=np.zeros((f_dim, n), dtype=complex),
        w22=T.conj().T @ T,
    )
    g_opt = optimal_inverse(V, blocks, tol)

    G = pinv(gram, tol) @ V.conj().T
    dominance_ok = True
    worst_gap = 0.0
    for _ in range(samples):
        f = rng.standard_normal(f_dim) + 1j * rng.standard_normal(f_dim)
        h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        gf = G @ f
        best = np.linalg.norm(T @ gf) ** 2 + np.linalg.norm(V @ gf - f) ** 2
        other = np.linalg.norm(T @ h) ** 2 + np.linalg.norm(V @ h - f) ** 2
        gap = best - other
        worst_gap = max(worst_gap, gap)
        if gap > 1e-10 * max(other, 1.0):
            dominance_ok = False

    compat = is_compatible(T.conj().T @ T, null_basis(V, tol), tol)

    conditions = {
        "range_inclusion": bool(range_ok),
        "pointwise_solvable": bool(pointwise_ok),
        "optimal_inverse_exists": g_opt is not None,
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
        "rank_gram": matrix_rank(gram, tol),
        "max_basis_residual": max(basis_residuals) if basis_residuals else 0.0,
        "worst_dominance_gap": worst_gap,
    }
    return SmoothingEquivalenceReport(
        exists=exists,
        conditions=conditions,
        global_solution=G if exists else None,
        compat=compat,
        diagnostics=diagnostics,
    )
