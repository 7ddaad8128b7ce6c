"""Schatten p-norms, weighted p-seminorms, polar decomposition, and the
derivative of the p-th norm power.

The norm index p is a runtime real parameter with p >= 1; the derivative
additionally needs p > 1 (the formula degenerates at the nuclear norm).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InconsistentDims, UnsupportedIndex
from .linalg import DEFAULT_TOL, Tolerances, as_matrix, hermitize, psd_sqrt, svd_with_rank


def _check_index(p) -> float:
    p = float(p)
    if not np.isfinite(p) or p < 1.0:
        raise UnsupportedIndex(f"norm index must be a finite real >= 1, got {p!r}")
    return p


@dataclass(frozen=True, eq=False)
class PolarPair:
    """Polar factors X = u @ abs_x.

    u is the partial isometry whose nullspace equals N(X) (so u*u is the
    orthogonal projection onto N(X)-perp); abs_x = (X*X)^{1/2}.
    """

    u: np.ndarray
    abs_x: np.ndarray


def schatten_norm(X, p) -> float:
    """(sum_k sigma_k(X)^p)^(1/p) over all singular values."""
    p = _check_index(p)
    X = as_matrix(X, "X")
    s = np.linalg.svd(X, compute_uv=False)
    if s.size == 0:
        return 0.0
    return float(np.sum(s**p) ** (1.0 / p))


def weighted_schatten_norm(Y, W, p, tol: Tolerances = DEFAULT_TOL) -> float:
    """p-Schatten norm of W^{1/2} Y, the weighted p-seminorm of Y."""
    Y = as_matrix(Y, "Y")
    W = as_matrix(W, "W")
    if W.shape[1] != Y.shape[0]:
        raise InconsistentDims(
            f"weight dimension {W.shape} does not match codomain of Y {Y.shape}"
        )
    return schatten_norm(psd_sqrt(W, tol) @ Y, p)


def polar(X, tol: Tolerances = DEFAULT_TOL) -> PolarPair:
    """Polar decomposition X = U |X| with N(U) = N(X), via SVD.

    U is restricted to the numerical-rank subspace, so singular directions
    below the rank cutoff are annihilated rather than arbitrarily rotated.
    """
    Us, s, Vh, rank = svd_with_rank(as_matrix(X, "X"), tol)
    Vh = Vh[: s.size]
    u = Us[:, :rank] @ Vh[:rank, :]
    abs_x = hermitize((Vh.conj().T * s) @ Vh)
    return PolarPair(u=u, abs_x=abs_x)


def frechet_gp(X, Y, p, tol: Tolerances = DEFAULT_TOL) -> float:
    """Directional derivative of ||.||_p^p at X along Y, for p > 1.

    Evaluates p * Re tr(|X|^{p-1} U* Y) using the polar factors of X.
    Eigenvalues of |X| at or below the rank cutoff contribute 0 (the
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
    pair = polar(X, tol)
    w, Q = np.linalg.eigh(pair.abs_x)
    lam_max = max(float(w.max()), 0.0) if w.size else 0.0
    powers = np.where(w > tol.rank_rtol * lam_max, np.clip(w, 0.0, None) ** (p - 1.0), 0.0)
    mod_power = (Q * powers) @ Q.conj().T
    return float(p * np.real(np.trace(mod_power @ pair.u.conj().T @ Y)))
