"""Shorted operators (Schur complements of positive operators to subspaces),
weighted orthogonal complements, and compatibility certificates.

A pair (W, S) of a PSD weight and a closed subspace is *compatible* when
some projection Q with range S satisfies W Q = Q* W; equivalently the
whole space is S + S^{perp_W}.  In finite dimensions every pair is
compatible, so the tests here certify numerical consistency rather than
decide a genuinely open question.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InconsistentDims
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    Tolerances,
    complement_within,
    ensure_psd_weight,
    hermitize,
    intersection,
    null_basis,
    orthogonal_complement,
    pinv,
    subspace_sum_rank,
)


@dataclass(frozen=True, eq=False)
class CompatCertificate:
    """Outcome of a compatibility test.

    When ``compatible`` holds, ``projection`` is an idempotent Q with range
    S and W Q = Q* W.  ``sum_rank`` is dim(S + S^{perp_W}); compatibility
    means it equals the ambient dimension.
    """

    compatible: bool
    s_basis: Subspace
    s_perp_w_basis: Subspace
    sum_rank: int
    projection: np.ndarray | None = None


def _check_pair(W, S: Subspace, tol: Tolerances):
    W = ensure_psd_weight(W, tol)
    if W.shape[0] != S.ambient_dim:
        raise InconsistentDims(
            f"weight dimension {W.shape[0]} does not match ambient dimension {S.ambient_dim}"
        )
    return W


def w_orthogonal_complement(W, S: Subspace, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """The W-orthogonal complement {x : <Wx, s> = 0 for all s in S}.

    Computed as the nullspace of B_S* W, which equals the preimage of
    S-perp under W.
    """
    W = _check_pair(W, S, tol)
    return null_basis(S.basis.conj().T @ W, tol)


def shorted(W, S: Subspace, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Largest PSD operator below W with range inside S-perp.

    In the orthonormal block split F = S (+) S-perp with
    W = [[a, b], [b*, c]], this is the Schur complement c - b* a^+ b,
    embedded back into the S-perp block.
    """
    W = _check_pair(W, S, tol)
    Bs = S.basis
    Bp = orthogonal_complement(S, tol).basis
    a = Bs.conj().T @ W @ Bs
    b = Bs.conj().T @ W @ Bp
    c = Bp.conj().T @ W @ Bp
    schur = hermitize(c - b.conj().T @ pinv(a, tol) @ b)
    # The difference c - b* a^+ b cancels to the noise floor of W's scale
    # when the complement is genuinely singular, so its rank decision must
    # be taken relative to W, not to the (possibly all-noise) result.
    if schur.size:
        lam_w = max(float(np.linalg.eigvalsh(W).max()), 0.0)
        eigvals, q = np.linalg.eigh(schur)
        eigvals = np.where(eigvals > tol.rank_rtol * lam_w, eigvals, 0.0)
        schur = (q * eigvals) @ q.conj().T
    return hermitize(Bp @ schur @ Bp.conj().T)


def is_compatible(W, S: Subspace, tol: Tolerances = DEFAULT_TOL) -> CompatCertificate:
    """Compatibility certificate for (W, S), with a witness projection.

    Compatible iff dim(S + S^{perp_W}) equals the ambient dimension.  The
    witness is the projection onto S along S^{perp_W} with the overlap
    S cap S^{perp_W} removed from the nullspace side; when the overlap is
    trivial this is the unique projection onto S along S^{perp_W}.  Any
    such choice satisfies W Q = Q* W; this one is fixed for determinism.
    """
    perp_w = w_orthogonal_complement(W, S, tol)  # validates W
    return _certificate(S, perp_w, subspace_sum_rank(S, perp_w, tol), tol)


def _certificate(
    S: Subspace, perp_w: Subspace, sum_rank: int, tol: Tolerances
) -> CompatCertificate:
    """The body of ``is_compatible`` for a caller that already holds
    S^{perp_W} (from ``w_orthogonal_complement``) and dim(S + S^{perp_W})."""
    n = S.ambient_dim
    if sum_rank != n:
        return CompatCertificate(False, S, perp_w, sum_rank, None)

    overlap = intersection(S, perp_w, tol)
    null_side = complement_within(perp_w, overlap, tol) if overlap.dim else perp_w
    M = np.hstack([S.basis, null_side.basis])
    if M.shape[1] != n:
        # rank decision drift between the sum test and the overlap split
        return CompatCertificate(False, S, perp_w, sum_rank, None)
    if S.dim == 0:
        Q = np.zeros((n, n), dtype=complex)
    else:
        Minv = np.linalg.solve(M, np.eye(n, dtype=complex))
        Q = S.basis @ Minv[: S.dim, :]
    return CompatCertificate(True, S, perp_w, sum_rank, Q)
