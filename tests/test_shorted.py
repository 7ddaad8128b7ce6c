import numpy as np

from conftest import cgauss, random_psd, random_subspace
from opapprox import (
    Subspace,
    full_subspace,
    is_compatible,
    matrix_rank,
    shorted,
    trivial_subspace,
    w_orthogonal_complement,
)
from opapprox.linalg import hermitize, orthogonal_complement, psd_weight
from opapprox.oracles import shorted_variational
from opapprox.shorted import _shorted

SPAN_E1 = Subspace(np.array([[1.0], [0.0]], dtype=complex))
W_COUPLED = np.array([[2.0, 1.0], [1.0, 1.0]], dtype=complex)


def test_w_complement_identity_weight():
    rng = np.random.default_rng(0)
    s = random_subspace(rng, 5, 2)
    got = w_orthogonal_complement(np.eye(5), s)
    assert np.allclose(got.projector(), np.eye(5) - s.projector(), atol=1e-12)


def test_w_complement_zero_weight():
    got = w_orthogonal_complement(np.zeros((3, 3)), random_subspace(np.random.default_rng(1), 3, 2))
    assert got.dim == 3


def test_w_complement_hand_instance():
    # <W x, e1> = 0 with W = [[2,1],[1,1]] forces 2 x1 + x2 = 0
    got = w_orthogonal_complement(W_COUPLED, SPAN_E1)
    v = np.array([-1.0, 2.0]) / np.sqrt(5.0)
    assert got.dim == 1
    assert np.allclose(got.projector(), np.outer(v, v), atol=1e-12)


def test_shorted_hand_instance():
    sigma = shorted(W_COUPLED, SPAN_E1)
    assert np.allclose(sigma, np.diag([0.0, 0.5]), atol=1e-13)


def test_shorted_extreme_subspaces():
    rng = np.random.default_rng(2)
    w = random_psd(rng, 4)
    assert np.allclose(shorted(w, full_subspace(4)), np.zeros((4, 4)), atol=1e-12)
    assert np.allclose(shorted(w, trivial_subspace(4)), w, atol=1e-12)


def _random_pair(rng):
    n = int(rng.integers(2, 9))
    rank = int(rng.integers(1, n + 1))
    w = random_psd(rng, n, rank=rank)
    s = random_subspace(rng, n, int(rng.integers(0, n + 1)))
    return w, s


def test_shorted_order_and_range_bounds():
    rng = np.random.default_rng(3)
    for _ in range(40):
        w, s = _random_pair(rng)
        lam_max = max(np.linalg.eigvalsh(w).max(), 0.0)
        sigma = shorted(w, s)
        assert np.linalg.eigvalsh(sigma).min() >= -1e-10 * max(lam_max, 1e-300)
        assert np.linalg.eigvalsh(w - sigma).min() >= -1e-10 * max(lam_max, 1e-300)
        assert np.linalg.norm(s.projector() @ sigma) <= 1e-10 * max(np.linalg.norm(w), 1e-300)


def test_shorted_variational_identity():
    rng = np.random.default_rng(4)
    for _ in range(15):
        w, s = _random_pair(rng)
        sigma = shorted(w, s)
        scale = max(np.linalg.norm(w), 1e-300)
        for _ in range(100):
            x = cgauss(rng, s.ambient_dim, 1).ravel()
            direct = float(np.real(x.conj() @ sigma @ x))
            oracle = shorted_variational(w, s, x)
            assert abs(direct - oracle) <= 1e-8 * scale * np.linalg.norm(x) ** 2


def test_shorted_maximality_no_psd_slack():
    # in every direction of S-perp the quadratic form already attains the
    # variational bound, so no PSD bump with range in S-perp fits under W
    rng = np.random.default_rng(5)
    for _ in range(25):
        w, s = _random_pair(rng)
        if s.dim == s.ambient_dim:
            continue
        sigma = shorted(w, s)
        perp = np.eye(s.ambient_dim) - s.projector()
        scale = max(np.linalg.norm(w), 1e-300)
        for _ in range(20):
            v = perp @ cgauss(rng, s.ambient_dim, 1).ravel()
            nv = np.linalg.norm(v)
            if nv < 1e-12:
                continue
            v = v / nv
            slack = shorted_variational(w, s, v) - float(np.real(v.conj() @ sigma @ v))
            assert slack <= 1e-8 * scale


def test_compat_identity_weight_gives_orthogonal_projection():
    rng = np.random.default_rng(6)
    s = random_subspace(rng, 6, 3)
    cert = is_compatible(np.eye(6), s)
    assert cert.compatible
    assert np.allclose(cert.projection, s.projector(), atol=1e-10)


def test_compat_hand_instance():
    cert = is_compatible(W_COUPLED, SPAN_E1)
    assert cert.compatible
    q = cert.projection
    assert np.allclose(q, np.array([[1.0, 0.5], [0.0, 0.0]]), atol=1e-12)
    assert np.allclose(W_COUPLED @ q, q.conj().T @ W_COUPLED, atol=1e-12)


def test_compat_zero_weight():
    rng = np.random.default_rng(7)
    s = random_subspace(rng, 4, 2)
    cert = is_compatible(np.zeros((4, 4)), s)
    assert cert.compatible
    assert cert.s_perp_w_basis.dim == 4
    q = cert.projection
    assert np.allclose(q @ q, q, atol=1e-12)
    assert np.allclose(q @ s.basis, s.basis, atol=1e-12)


def test_compat_random_certificates():
    rng = np.random.default_rng(8)
    for _ in range(60):
        w, s = _random_pair(rng)
        cert = is_compatible(w, s)
        assert cert.compatible
        q = cert.projection
        wnorm = max(np.linalg.norm(w), 1e-300)
        assert np.linalg.norm(q @ q - q) <= 1e-8 * max(np.linalg.norm(q), 1.0)
        assert np.linalg.norm(w @ q - q.conj().T @ w) <= 1e-8 * wnorm
        # range of the projection is exactly S
        assert np.allclose(q @ s.basis, s.basis, atol=1e-8)
        assert matrix_rank(q) == s.dim


def test_shorted_weight_is_its_own_decomposition():
    # the root K that _shorted builds from W^{1/2} factors the shorted
    # weight, K* K = shorted(W, S), so its singular values are the square
    # roots of the shorted weight's eigenvalues and its rank is its rank
    rng = np.random.default_rng(9)
    for _ in range(30):
        w, s = _random_pair(rng)
        weight = psd_weight(w)
        K = _shorted(weight.sqrt, s, orthogonal_complement(s), weight.tol)
        sigma = shorted(w, s)
        assert np.array_equal(hermitize(K.conj().T @ K), sigma)
        scale = max(np.linalg.norm(w), 1e-300)
        eig = np.sort(np.clip(np.linalg.eigvalsh(sigma), 0.0, None))[::-1][: min(K.shape)]
        sv = np.linalg.svd(K, compute_uv=False)
        assert np.linalg.norm(sv**2 - eig) <= 1e-10 * scale
        assert matrix_rank(K) == matrix_rank(sigma)
