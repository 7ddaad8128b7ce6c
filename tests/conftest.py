"""Shared generators for seeded random problem instances."""

import numpy as np


def cgauss(rng, rows, cols):
    """Complex standard-gaussian matrix, unit entry variance."""
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


def random_psd(rng, n, rank=None):
    """Random PSD matrix of the given rank (full rank by default), O(1) eigenvalues."""
    r = n if rank is None else rank
    if r == 0:
        return np.zeros((n, n), dtype=complex)
    g = cgauss(rng, r, n)
    return g.conj().T @ g / r


def random_unitary(rng, n):
    q, r = np.linalg.qr(cgauss(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_subspace(rng, n, k):
    """Orthonormal basis of a random k-dimensional subspace of C^n."""
    from opapprox import Subspace, trivial_subspace

    if k == 0:
        return trivial_subspace(n)
    q, _ = np.linalg.qr(cgauss(rng, n, k))
    return Subspace(q[:, :k])


def random_rank_deficient(rng, rows, cols, rank):
    if rank == 0:
        return np.zeros((rows, cols), dtype=complex)
    return cgauss(rng, rows, rank) @ cgauss(rng, rank, cols)


def perturb_stack_solve(monkeypatch, stack_shape, rel=1e-3):
    """Make ``Factorization.normal`` on a matrix of ``stack_shape`` return its
    solution moved by ``rel`` of its Frobenius norm in a seeded random
    direction, with the residual and the solvability decision it computed
    for the exact solution."""
    from opapprox.linalg import Factorization

    normal = Factorization.normal

    def perturbed(self, B):
        C, R, solvable = normal(self, B)
        if self.matrix.shape == stack_shape:
            Z = cgauss(np.random.default_rng(0), *C.shape)
            C = C + rel * np.linalg.norm(C) / np.linalg.norm(Z) * Z
        return C, R, solvable

    monkeypatch.setattr(Factorization, "normal", perturbed)
