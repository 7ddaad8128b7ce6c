"""Shorted operators (Schur complements of positive operators to subspaces),
weighted orthogonal complements, and compatibility certificates.

A weight is shorted through a root: if W = R* R, then W shorted to S (the
largest PSD operator below W with range in S-perp) is R* (I - P) R on
S-perp, where P is the orthogonal projection onto R(R S) (Anderson and
Trapp, "Shorted operators II", 1975).  So no Schur complement of W is
formed, and the root of the shorted weight, (I - P) R, has the singular
values every closed-form minimum is read off.  The Schur complement
c - b* a^+ b stays the tests' independent reference
(``oracles.shorted_variational``).

A pair (W, S) of a PSD weight and a closed subspace is *compatible* when
some projection Q with range S satisfies W Q = Q* W; equivalently the
whole space is S + S^{perp_W}.  In finite dimensions every pair is
compatible, so the tests here certify numerical consistency rather than
decide a genuinely open question.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InconsistentDims
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    Tolerances,
    complement_within,
    ensure_psd_weight,
    factor,
    hermitize,
    null_basis,
    orthogonal_complement,
    psd_weight,
    range_basis,
    trivial_subspace,
)
from .result import ResultReport


@dataclass(frozen=True, eq=False)
class CompatCertificate:
    """Outcome of a compatibility test.

    When ``compatible`` holds, ``projection`` is an idempotent Q with range
    S and W Q = Q* W, and None otherwise.  ``sum_rank`` is
    dim(S + S^{perp_W}); compatibility means it equals the ambient
    dimension.  ``null_side`` is the basis of Q's nullspace; Q is formed
    from it when ``projection`` is first read, and shared by later reads.
    """

    compatible: bool
    s_basis: Subspace
    s_perp_w_basis: Subspace
    sum_rank: int
    null_side: Subspace | None = None

    @cached_property
    def projection(self) -> np.ndarray | None:
        if not self.compatible:
            return None
        S = self.s_basis
        n = S.ambient_dim
        if S.dim == 0:
            return np.zeros((n, n), dtype=complex)
        M = np.hstack([S.basis, self.null_side.basis])
        Minv = np.linalg.solve(M, np.eye(n, dtype=complex))
        return S.basis @ Minv[: S.dim, :]


def _check_ambient(W: np.ndarray, S: Subspace) -> None:
    if W.shape[0] != S.ambient_dim:
        raise InconsistentDims(
            f"weight dimension {W.shape[0]} does not match ambient dimension {S.ambient_dim}"
        )


def w_orthogonal_complement(W, S: Subspace, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """The W-orthogonal complement {x : <Wx, s> = 0 for all s in S}.

    Computed as the nullspace of B_S* W, which equals the preimage of
    S-perp under W.  W may be a matrix or a PsdWeight.
    """
    W = ensure_psd_weight(W, tol)
    _check_ambient(W, S)
    return null_basis(S.basis.conj().T @ W, tol)


def shorted(W, S: Subspace, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Largest PSD operator below W with range inside S-perp.

    In the orthonormal block split F = S (+) S-perp with
    W = [[a, b], [b*, c]], this is the Schur complement c - b* a^+ b,
    embedded back into the S-perp block.  It is computed as K* K for the
    root K that ``_shorted`` builds from W^{1/2}.  W may be a matrix or a
    PsdWeight.
    """
    weight = psd_weight(W, tol)
    _check_ambient(weight.matrix, S)
    K = _shorted(weight.sqrt, S, orthogonal_complement(S, tol), tol)
    return hermitize(K.conj().T @ K)


def _shorted(R, S: Subspace, S_perp: Subspace, tol: Tolerances) -> np.ndarray:
    """A root K of the weight R* R shorted to S, so that K* K is the shorted
    weight: (I - P) R on S-perp and zero on S, with P the projection onto
    R(R S), in the coordinates of R(R S)-perp.  ``S_perp`` is S-perp, read
    off the factorization that gave S."""
    Bp = S_perp.basis
    return factor(R @ S.basis, tol).off_range(R @ Bp) @ Bp.conj().T


def is_compatible(W, S: Subspace, tol: Tolerances = DEFAULT_TOL) -> CompatCertificate:
    """Compatibility certificate for (W, S), with a witness projection.

    Compatible iff dim(S + S^{perp_W}) equals the ambient dimension.  The
    witness is the projection onto S along S^{perp_W} with the overlap
    S cap S^{perp_W} removed from the nullspace side; when the overlap is
    trivial this is the unique projection onto S along S^{perp_W}.  Any
    such choice satisfies W Q = Q* W; this one is fixed for determinism.
    W may be a matrix or a PsdWeight.

    One SVD of [S | S^{perp_W}] decides both the sum rank and the overlap:
    (x, y) lies in its nullspace iff S x = -S^{perp_W} y, so S times the S
    block of the null basis spans S cap S^{perp_W}.  (The nullspace of
    [S | -S^{perp_W}] is diag(I, -I) times this one: the same S block.)
    """
    return _certificate(S, w_orthogonal_complement(W, S, tol), tol)


def _certificate(S: Subspace, perp_w: Subspace, tol: Tolerances) -> CompatCertificate:
    """``is_compatible`` with S^{perp_W} already computed by the caller."""
    n = S.ambient_dim
    stacked = factor(np.hstack([S.basis, perp_w.basis]), tol)
    sum_rank = stacked.rank
    if sum_rank != n:
        return CompatCertificate(False, S, perp_w, sum_rank)

    coeffs = stacked.null().basis[: S.dim, :]
    overlap = range_basis(S.basis @ coeffs, tol) if coeffs.shape[1] else trivial_subspace(n)
    null_side = complement_within(perp_w, overlap, tol) if overlap.dim else perp_w
    if S.dim + null_side.dim != n:
        # rank decision drift between the sum test and the overlap split
        return CompatCertificate(False, S, perp_w, sum_rank)
    return CompatCertificate(True, S, perp_w, sum_rank, null_side)


# Registry builders (see problems.REGISTRY): a validated manifest -> ResultReport
def _build_shorted(m) -> ResultReport:
    W = psd_weight(m.matrices["W"], m.tolerances)
    # the S file may hold any spanning set; its range defines the subspace
    S = range_basis(m.matrices["S"], m.tolerances)
    sigma = shorted(W, S, m.tolerances)
    return ResultReport(
        exists=True,
        witness=sigma,
        residuals={
            "hermitian_defect": float(np.linalg.norm(sigma - sigma.conj().T)),
            "range_defect": float(np.linalg.norm(S.projector() @ sigma)),
        },
        diagnostics={"dim_s": S.dim, "rank_w": W.rank},
    )


def _build_compat(m) -> ResultReport:
    W = m.matrices["W"]
    cert = is_compatible(W, range_basis(m.matrices["S"], m.tolerances), m.tolerances)
    residuals = {}
    if cert.projection is not None:
        Q = cert.projection
        residuals = {
            "idempotency": float(np.linalg.norm(Q @ Q - Q)),
            "commutation": float(np.linalg.norm(W @ Q - Q.conj().T @ W)),
        }
    return ResultReport(
        exists=cert.compatible,
        witness=cert.projection,
        residuals=residuals,
        conditions={"compatible": cert.compatible},
        diagnostics={
            "dim_s": cert.s_basis.dim,
            "dim_s_perp_w": cert.s_perp_w_basis.dim,
            "sum_rank": cert.sum_rank,
        },
    )
