"""Dense complex linear algebra backbone.

Everything downstream reduces to the primitives here: SVD-based rank
decisions, pseudoinverses, orthonormal subspace bases, range-inclusion
tests, and Hermitian PSD weights with their square roots.  All scalars
are complex double precision; real input is embedded.  "Closed range" is
automatic in finite dimensions, so every range/nullspace statement
becomes a rank decision governed by ``rank_rtol``.

A ``Factorization`` (built by ``factor``) holds one SVD of a matrix and its
rank decision, and answers every question about that matrix: ``pinv``,
``range``, ``null``, ``solve`` and ``lstsq`` (the range-inclusion test),
``normal`` (the least-squares solve) and ``off_range``.  ``pinv``,
``range_basis``, ``null_basis``, ``matrix_rank`` and ``range_included``
are one-shot wrappers over it.  A caller factors each operator once and
passes the value along, so the SVD count of a report does not grow with
the dimension.  Every SVD goes through ``svd_with_rank``.

Every normal equation M* M C = M* B of the library is solved on its root
M, never on the Gram M* M, whose condition number is the square of M's;
``normal_bound`` is the one rule that decides its solvability.

A ``PsdWeight`` (built by ``psd_weight``) is the same idea for a weight:
one ``eigh`` of the Hermitized matrix validates it (NotPsd) and gives
lambda_max, the rank decision and the root W^{1/2}.  ``psd_sqrt``,
``ensure_psd_weight`` and the weight-taking routines of ``shorted`` and
``schatten`` accept a PsdWeight in place of a matrix and read it instead
of validating or decomposing again.  ``ensure_psd_weight`` on a matrix
validates with ``eigvalsh`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InconsistentDims, NotPsd


@dataclass(frozen=True)
class Tolerances:
    """Numerical policy shared by all operations.

    rank_rtol
        Relative singular-value cutoff: sigma <= rank_rtol * sigma_max is
        treated as zero.  A matrix of all zeros has rank 0.
    residual_rtol
        Relative residual acceptance for equation-solvability tests.
    """

    rank_rtol: float = 1e-10
    residual_rtol: float = 1e-8

    def __post_init__(self):
        for name in ("rank_rtol", "residual_rtol"):
            value = getattr(self, name)
            if not (0.0 < value < 1.0):
                raise ValueError(f"{name} must lie strictly between 0 and 1, got {value!r}")


DEFAULT_TOL = Tolerances()


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce input to a 2-d complex128 array with finite entries.

    Scalars become 1x1 matrices, 1-d arrays become rows (numpy convention).
    A 2-d complex128 ndarray is returned as is, after the finiteness check.
    """
    if type(a) is np.ndarray and a.ndim == 2 and a.dtype == complex:
        m = a
    else:
        m = np.atleast_2d(np.asarray(a, dtype=complex))
        if m.ndim != 2:
            raise InconsistentDims(f"{name} must be at most 2-dimensional, got shape {m.shape}")
    if m.size and not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Coerce input to a 1-d complex128 array with finite entries."""
    v = np.asarray(x, dtype=complex).ravel()
    if v.size and not np.isfinite(v).all():
        raise ValueError(f"{name} contains non-finite entries")
    return v


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace held as an orthonormal-column basis.

    ``basis`` has shape (ambient_dim, dim); zero columns encode the trivial
    subspace.  Orthonormality is checked on construction.
    """

    basis: np.ndarray

    def __post_init__(self):
        b = as_matrix(self.basis, "subspace basis")
        object.__setattr__(self, "basis", b)
        n, k = b.shape
        if k > n:
            raise InconsistentDims(f"subspace basis has {k} columns in ambient dimension {n}")
        if k:
            gram = b.conj().T @ b
            if np.linalg.norm(gram - np.eye(k)) > 1e-8 * max(1.0, np.linalg.norm(gram)):
                raise ValueError("subspace basis columns are not orthonormal")

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        """Orthogonal projection onto the subspace."""
        return self.basis @ self.basis.conj().T


def trivial_subspace(ambient_dim: int) -> Subspace:
    return Subspace(np.zeros((ambient_dim, 0), dtype=complex))


def full_subspace(ambient_dim: int) -> Subspace:
    return Subspace(np.eye(ambient_dim, dtype=complex))


def svd_with_rank(M, tol: Tolerances = DEFAULT_TOL):
    """Full SVD plus the numerical rank under ``tol.rank_rtol``.

    Returns (U, s, Vh, rank) with U, Vh square (full_matrices=True).
    """
    M = as_matrix(M)
    U, s, Vh = np.linalg.svd(M, full_matrices=True)
    smax = s[0] if s.size else 0.0
    rank = int(np.count_nonzero(s > tol.rank_rtol * smax)) if smax > 0.0 else 0
    return U, s, Vh, rank


@dataclass(frozen=True, eq=False)
class Factorization:
    """One SVD of ``matrix`` with its rank decision under ``tol``.

    ``U``, ``s``, ``Vh`` and ``rank`` are the output of ``svd_with_rank``.
    Every method reuses them; none factors again, and the pseudoinverse,
    the range and the nullspace are each formed at most once.
    """

    matrix: np.ndarray
    U: np.ndarray
    s: np.ndarray
    Vh: np.ndarray
    rank: int
    tol: Tolerances

    def pinv(self) -> np.ndarray:
        """Moore-Penrose inverse, inverting only singular values above the cutoff.

        Formed on the first call and shared by later ones; do not modify it.
        """
        return self._pinv

    @cached_property
    def _pinv(self) -> np.ndarray:
        inv = np.zeros_like(self.s)
        if self.rank:
            inv[: self.rank] = 1.0 / self.s[: self.rank]
        k = self.s.size
        return (self.Vh[:k, :].conj().T * inv) @ self.U[:, :k].conj().T

    def range(self) -> Subspace:
        """Orthonormal basis of the range (column space); formed on the
        first call and shared by later ones."""
        return self._range

    @cached_property
    def _range(self) -> Subspace:
        return Subspace(self.U[:, : self.rank])

    def null(self) -> Subspace:
        """Orthonormal basis of the nullspace; dim range + dim null = cols.
        Formed on the first call and shared by later ones."""
        return self._null

    @cached_property
    def _null(self) -> Subspace:
        if self.matrix.shape[0] == 0:
            return full_subspace(self.matrix.shape[1])
        return Subspace(self.Vh[self.rank :, :].conj().T)

    def _residual(self, B):
        """(B, C, R): B as a matrix, C = M^+ B and R = B - M C."""
        B = as_matrix(B, "B")
        if self.matrix.shape[0] != B.shape[0]:
            raise InconsistentDims(
                f"codomain mismatch: A has {self.matrix.shape[0]} rows, B has {B.shape[0]}"
            )
        C = self.pinv() @ B
        return B, C, B - self.matrix @ C

    def lstsq(self, B):
        """Solve M C = B for every column of B at once.

        Returns (C, R, included): the minimal-Frobenius-norm least-squares
        factor C = M^+ B, its residual R = B - M C (column j belongs to
        column j of B), and the decision R(B) subseteq R(M), which accepts
        iff ||R||_F <= residual_rtol * ||B||_F, so B = 0 is always included.
        """
        B, C, R = self._residual(B)
        return C, R, bool(np.linalg.norm(R) <= self.tol.residual_rtol * np.linalg.norm(B))

    def solve(self, B):
        """Test R(B) subseteq R(M); when it holds, return the factor C with M C = B.

        Equivalent to the solvability of M X = B (Douglas factorization at
        matrix scale); C = M^+ B is the minimal-Frobenius-norm factor.  See
        ``lstsq`` for the acceptance rule.
        """
        C, _, included = self.lstsq(B)
        return (True, C) if included else (False, None)

    def normal(self, B):
        """Solve M* M C = M* B without forming M* M: returns (C, R, solvable),
        with C = M^+ B, its residual R = M* (B - M C) (column j belongs to
        column j of B), and ||R||_F <= ``normal_bound(M, C, B)``.

        Lemma: split M = U S V* at the rank decision into its kept part
        and its dropped part U_perp S_perp V_perp*.  The truncated solve
        leaves R = V_perp S_perp U_perp* B, so ||R||_F <= sigma_{r+1}
        ||B||_F <= rank_rtol sigma_1 ||B||_F <= (rank_rtol / residual_rtol)
        ``normal_bound(M, C, B)``.  Whenever rank_rtol <= residual_rtol,
        ``solvable`` holds for every B up to the rounding of R.
        """
        B, C, R = self._residual(B)
        R = self.matrix.conj().T @ R
        return C, R, bool(np.linalg.norm(R) <= normal_bound(self.matrix, C, B, self.tol))

    def off_range(self, Y) -> np.ndarray:
        """U_perp* Y for the orthonormal basis U_perp of R(M)-perp: the part of
        Y outside the range, with the singular values of (I - P) Y."""
        return self.U[:, self.rank :].conj().T @ Y


def factor(M, tol: Tolerances = DEFAULT_TOL) -> Factorization:
    """Factor M once; the result answers pinv, range, null and solve."""
    M = as_matrix(M)
    return Factorization(M, *svd_with_rank(M, tol), tol)


def normal_bound(M, C, B, tol: Tolerances = DEFAULT_TOL) -> float:
    """residual_rtol ||M||_F (||M||_F ||C||_F + ||B||_F): the largest residual
    M* (B - M C) of M* M C = M* B that a solvability decision accepts, for
    all columns at once or for each.  It is the scale of the residual's
    rounding error and moves with M, C and B."""
    m = np.linalg.norm(M)
    return float(tol.residual_rtol * m * (m * np.linalg.norm(C) + np.linalg.norm(B)))


def matrix_rank(M, tol: Tolerances = DEFAULT_TOL) -> int:
    return factor(M, tol).rank


def pinv(M, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose inverse, inverting only singular values above the cutoff."""
    return factor(M, tol).pinv()


def range_basis(M, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Orthonormal basis of the range (column space) of M."""
    return factor(M, tol).range()


def null_basis(M, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Orthonormal basis of the nullspace of M; dim range + dim null = cols."""
    return factor(M, tol).null()


def range_included(B, A, tol: Tolerances = DEFAULT_TOL):
    """Test R(B) subseteq R(A); when it holds, return the factor C with AC = B.

    See ``Factorization.solve`` for the acceptance rule.
    """
    return factor(as_matrix(A, "A"), tol).solve(B)


def hermitize(M) -> np.ndarray:
    M = as_matrix(M)
    return (M + M.conj().T) / 2.0


@dataclass(frozen=True, eq=False)
class PsdWeight:
    """A validated Hermitian PSD weight held as one eigendecomposition.

    ``matrix`` is the Hermitized weight and equals
    ``vectors @ diag(eigvals) @ vectors*``.  ``lam_max``, the rank
    decision and the square root are read off the decomposition, so a
    routine handed a PsdWeight neither validates nor decomposes it again.
    Decisions use ``tol``, the tolerances it was built with.
    """

    matrix: np.ndarray
    eigvals: np.ndarray
    vectors: np.ndarray
    tol: Tolerances

    @property
    def shape(self) -> tuple:
        return self.matrix.shape

    @property
    def lam_max(self) -> float:
        return max(float(self.eigvals.max()), 0.0) if self.eigvals.size else 0.0

    @property
    def rank(self) -> int:
        """Eigenvalues above rank_rtol * lambda_max; for a PSD weight these are
        the singular values above the ``svd_with_rank`` cutoff."""
        return int(np.count_nonzero(self.eigvals > self.tol.rank_rtol * self.lam_max))

    @cached_property
    def sqrt(self) -> np.ndarray:
        """Hermitian PSD root, with the eigenvalues within the rank cutoff of
        zero (either sign) clamped to zero, so its rank is the weight's."""
        kept = self.eigvals > self.tol.rank_rtol * self.lam_max
        Q = self.vectors
        return hermitize((Q * np.sqrt(np.where(kept, self.eigvals, 0.0))) @ Q.conj().T)


def _hermitian_part(W, tol: Tolerances, name: str) -> np.ndarray:
    """The Hermitized copy of a square W; NotPsd when W is visibly
    non-Hermitian, relative to its own norm."""
    W = as_matrix(W, name)
    if W.shape[0] != W.shape[1]:
        raise InconsistentDims(f"{name} must be square, got shape {W.shape}")
    dev = np.linalg.norm(W - W.conj().T)
    if dev > tol.residual_rtol * np.linalg.norm(W):
        raise NotPsd(f"{name} is not Hermitian (asymmetry {dev:.3e})")
    return hermitize(W)


def _check_spectrum(eigvals: np.ndarray, tol: Tolerances, name: str) -> None:
    """NotPsd when an eigenvalue lies below -rank_rtol * lambda_max."""
    lam_max = max(float(eigvals.max()), 0.0) if eigvals.size else 0.0
    if eigvals.size and float(eigvals.min()) < -tol.rank_rtol * lam_max:
        raise NotPsd(
            f"{name} has eigenvalue {eigvals.min():.3e} below -rank_rtol*lambda_max "
            f"= {-tol.rank_rtol * lam_max:.3e}"
        )


def psd_weight(W, tol: Tolerances = DEFAULT_TOL, name: str = "W") -> PsdWeight:
    """Validate a Hermitian PSD weight with one ``eigh``; a PsdWeight passes
    through unchanged.

    Raises NotPsd when W is visibly non-Hermitian or has an eigenvalue
    below -rank_rtol * lambda_max.
    """
    if isinstance(W, PsdWeight):
        return W
    H = _hermitian_part(W, tol, name)
    if H.size:
        eigvals, vectors = np.linalg.eigh(H)
    else:
        eigvals, vectors = np.zeros(0), H.copy()
    _check_spectrum(eigvals, tol, name)
    return PsdWeight(H, eigvals, vectors, tol)


def ensure_psd_weight(W, tol: Tolerances = DEFAULT_TOL, name: str = "W") -> np.ndarray:
    """Validate a Hermitian PSD weight and return its Hermitized copy.

    The same rule as ``psd_weight``, for callers that need the matrix
    alone: a matrix is checked on its eigenvalues only (no eigenvectors),
    and a PsdWeight is already valid.
    """
    if isinstance(W, PsdWeight):
        return W.matrix
    H = _hermitian_part(W, tol, name)
    _check_spectrum(np.linalg.eigvalsh(H) if H.size else np.zeros(0), tol, name)
    return H


def psd_sqrt(W, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Hermitian PSD square root via eigendecomposition, ``PsdWeight.sqrt``;
    NotPsd below -rank_rtol*lambda_max.  The clamp is idempotent."""
    return psd_weight(W, tol).sqrt


def complement_within(outer: Subspace, inner: Subspace, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Orthocomplement of ``inner`` inside ``outer`` (inner must sit in outer)."""
    if inner.dim == 0:
        return outer
    # coordinates of inner in the outer basis; orthonormal because inner <= outer
    C = outer.basis.conj().T @ inner.basis
    D = null_basis(C.conj().T, tol)
    return Subspace(outer.basis @ D.basis)


def orthogonal_complement(s: Subspace, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Orthocomplement of a subspace in its ambient space."""
    if s.dim == 0:
        return full_subspace(s.ambient_dim)
    return null_basis(s.basis.conj().T, tol)
