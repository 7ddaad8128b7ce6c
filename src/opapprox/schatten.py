"""Schatten p-norms, weighted p-seminorms, and the derivative of the p-th
norm power.

The norm index p is a runtime real parameter with p >= 1; the derivative
additionally needs p > 1 (the formula degenerates at the nuclear norm).
"""

from __future__ import annotations

import numpy as np

from .errors import InconsistentDims, UnsupportedIndex
from .linalg import (
    DEFAULT_TOL,
    PsdWeight,
    Tolerances,
    as_matrix,
    psd_sqrt,
    svd_with_rank,
)


def _check_index(p) -> float:
    p = float(p)
    if not np.isfinite(p) or p < 1.0:
        raise UnsupportedIndex(f"norm index must be a finite real >= 1, got {p!r}")
    return p


def schatten_norm(X, p) -> float:
    """(sum_k sigma_k(X)^p)^(1/p) over all singular values."""
    X = as_matrix(X, "X")
    return _norm_of_singular_values(np.linalg.svd(X, compute_uv=False), p)


def _norm_of_singular_values(s: np.ndarray, p) -> float:
    """(sum_k s_k^p)^(1/p), for singular values already at hand, computed
    as s_max (sum_k (s_k / s_max)^p)^(1/p) so that no power under- or
    overflows at a large p."""
    p = _check_index(p)
    top = float(s.max()) if s.size else 0.0
    if top == 0.0:
        return 0.0
    return top * float(np.sum((s / top) ** p) ** (1.0 / p))


def weighted_schatten_norm(Y, W, p, tol: Tolerances = DEFAULT_TOL) -> float:
    """p-Schatten norm of W^{1/2} Y, the weighted p-seminorm of Y.

    W may be a matrix or a PsdWeight, whose root is reused.
    """
    Y = as_matrix(Y, "Y")
    W = W if isinstance(W, PsdWeight) else as_matrix(W, "W")
    if W.shape[1] != Y.shape[0]:
        raise InconsistentDims(
            f"weight dimension {W.shape} does not match codomain of Y {Y.shape}"
        )
    return schatten_norm(psd_sqrt(W, tol) @ Y, p)


def frechet_gp(X, Y, p, tol: Tolerances = DEFAULT_TOL) -> float:
    """Directional derivative of ||.||_p^p at X along Y, for p > 1.

    With X = U S V* and polar factor U_r V_r* restricted to the numerical
    rank r, this is p Re tr(|X|^{p-1} V_r U_r* Y)
    = p Re sum_{i<r} s_i^{p-1} u_i* Y v_i, read off one SVD of X.
    Singular values at or below the rank cutoff contribute 0 (the
    0^{p-1} = 0 convention for p > 1).  For p = 2 this reduces to
    2 Re tr(X*Y).
    """
    p = _check_index(p)
    if p == 1.0:
        raise UnsupportedIndex("the derivative formula requires p > 1")
    X = as_matrix(X, "X")
    Y = as_matrix(Y, "Y")
    if X.shape != Y.shape:
        raise InconsistentDims(f"X and Y must share a shape, got {X.shape} and {Y.shape}")
    U, s, Vh, rank = svd_with_rank(X, tol)
    # u_i* Y v_i for i < r: the diagonal of U_r* Y V_r
    diag = np.sum(U[:, :rank].conj() * (Y @ Vh[:rank].conj().T), axis=0)
    return float(p * np.real(np.sum(s[:rank] ** (p - 1.0) * diag)))
