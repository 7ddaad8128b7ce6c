import numpy as np
import pytest

from conftest import cgauss, random_psd, random_rank_deficient
from opapprox import (
    InconsistentDims,
    full_subspace,
    owls_min,
    psd_sqrt,
    range_basis,
    shorted,
    w_inverse,
    weighted_schatten_norm,
    wls_existence_report,
    wlss_solve,
)
from opapprox.oracles import quadratic_min_over_affine, sampled_dominance

A_RANK1 = np.array([[1.0], [1.0]])
W_21 = np.diag([2.0, 1.0])
X_10 = np.array([1.0, 0.0])


def _wnorm_sq(W, r):
    return float(np.real(r.conj() @ W @ r))


def test_wlss_scalar_instance_against_oracle():
    expected_value, expected_u = quadratic_min_over_affine(W_21, A_RANK1, X_10, full_subspace(1))
    u = wlss_solve(A_RANK1, W_21, X_10)
    assert u[0] == pytest.approx(expected_u[0], rel=1e-12)
    assert u[0] == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert _wnorm_sq(W_21, A_RANK1 @ u - X_10) == pytest.approx(expected_value, rel=1e-12)


def test_wlss_identity_weight_orthonormal_columns():
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(cgauss(rng, 5, 3))
    x = cgauss(rng, 5, 1).ravel()
    u = wlss_solve(q, np.eye(5), x)
    assert np.allclose(u, q.conj().T @ x, atol=1e-12)


def test_wlss_zero_weight_gives_zero():
    rng = np.random.default_rng(1)
    a = cgauss(rng, 3, 2)
    u = wlss_solve(a, np.zeros((3, 3)), cgauss(rng, 3, 1).ravel())
    assert np.allclose(u, 0.0)


def test_wlss_dimension_check():
    with pytest.raises(InconsistentDims):
        wlss_solve(A_RANK1, np.eye(3), X_10)


def test_w_inverse_examples():
    g = w_inverse(np.array([[1.0], [0.0]]), np.diag([1.0, 4.0]))
    assert np.allclose(g, np.array([[1.0, 0.0]]), atol=1e-12)

    rng = np.random.default_rng(2)
    w = random_psd(rng, 3)
    a = np.eye(3)
    g = w_inverse(a, w)
    assert g is not None
    assert np.allclose(w @ g, w, atol=1e-10)  # normal equation with A = I

    g = w_inverse(np.array([[0.0], [1.0]]), np.diag([1.0, 0.0]))
    assert np.allclose(g, np.zeros((1, 2)))


def test_owls_min_hand_instance_against_oracle():
    a = np.array([[1.0], [0.0]])
    w = np.diag([1.0, 4.0])
    # columnwise exact minima of the squared weighted residual against I
    oracle_sq = sum(
        quadratic_min_over_affine(w, a, np.eye(2)[:, j], full_subspace(1))[0] for j in range(2)
    )
    rep = owls_min(a, w, 2)
    value, x0 = rep.min_value, rep.witness
    assert value == pytest.approx(np.sqrt(oracle_sq), rel=1e-12)
    assert value == pytest.approx(2.0, rel=1e-12)
    assert weighted_schatten_norm(a @ x0 - np.eye(2), w, 2) == pytest.approx(value, rel=1e-10)


def test_owls_min_invertible_and_degenerate():
    rng = np.random.default_rng(3)
    a = cgauss(rng, 4, 4) + 2 * np.eye(4)
    value = owls_min(a, random_psd(rng, 4), 2).min_value
    assert value == pytest.approx(0.0, abs=1e-10)
    value = owls_min(cgauss(rng, 3, 2), np.zeros((3, 3)), 3).min_value
    assert value == pytest.approx(0.0, abs=1e-12)


def _random_wls_instance(rng, allow_singular=True):
    f = int(rng.integers(2, 9))
    h = int(rng.integers(1, f + 1))
    a = cgauss(rng, f, h)
    if allow_singular and rng.uniform() < 0.4:
        a = random_rank_deficient(rng, f, h, int(rng.integers(0, h + 1)))
    rank_w = int(rng.integers(1, f + 1)) if allow_singular else f
    w = random_psd(rng, f, rank=rank_w)
    return a, w


def test_normal_equation_residual_on_random_instances():
    rng = np.random.default_rng(4)
    for _ in range(200):
        a, w = _random_wls_instance(rng)
        x = cgauss(rng, a.shape[0], 1).ravel()
        u = wlss_solve(a, w, x)
        residual = np.linalg.norm(a.conj().T @ w @ (a @ u - x))
        scale = np.linalg.norm(a) * np.linalg.norm(w) * np.linalg.norm(x)
        assert residual <= 1e-8 * max(scale, 1e-300)


def test_solution_dominates_sampled_competitors():
    rng = np.random.default_rng(5)
    for _ in range(30):
        a, w = _random_wls_instance(rng)
        x = cgauss(rng, a.shape[0], 1).ravel()
        u = wlss_solve(a, w, x)
        candidate = _wnorm_sq(w, a @ u - x)
        scale = max(candidate, np.linalg.norm(w) * (1 + np.linalg.norm(x)) ** 2)

        def objective(g, a=a, w=w, x=x):
            z = cgauss(g, a.shape[1], 1).ravel() * g.uniform(0.0, 3.0)
            return _wnorm_sq(w, a @ z - x)

        assert sampled_dominance(objective, candidate, rng, 100, slack_scale=scale)
        # the exact minimum over the whole domain agrees with the candidate value
        oracle_value, _ = quadratic_min_over_affine(w, a, x, full_subspace(a.shape[1]))
        assert candidate == pytest.approx(oracle_value, abs=1e-9 * scale)


def test_minimum_value_identity_on_random_instances():
    rng = np.random.default_rng(6)
    for _ in range(40):
        a, w = _random_wls_instance(rng)
        for p in (1, 2, 3):
            rep = owls_min(a, w, p)
            value, x0 = rep.min_value, rep.witness
            root = psd_sqrt(shorted(w, range_basis(a)))
            closed_form = float(np.sum(np.linalg.svd(root, compute_uv=False) ** p) ** (1.0 / p))
            achieved = weighted_schatten_norm(a @ x0 - np.eye(a.shape[0]), w, p)
            floor = 1e-12 * max(np.linalg.norm(w), 1.0)
            assert abs(value - closed_form) <= 1e-8 * max(value, closed_form) + floor
            assert abs(achieved - value) <= 1e-8 * max(value, achieved) + floor


def test_operator_order_minimality():
    rng = np.random.default_rng(7)
    for _ in range(25):
        a, w = _random_wls_instance(rng)
        x0 = owls_min(a, w, 2).witness
        eye = np.eye(a.shape[0])
        base = (a @ x0 - eye).conj().T @ w @ (a @ x0 - eye)
        wnorm = max(np.linalg.norm(w), 1e-300)
        for _ in range(10):
            y = cgauss(rng, a.shape[1], a.shape[0])
            other = (a @ y - eye).conj().T @ w @ (a @ y - eye)
            gap = np.linalg.eigvalsh((other - base + (other - base).conj().T) / 2).min()
            assert gap >= -1e-8 * wnorm


def test_existence_report_hand_instances():
    report = wls_existence_report(np.array([[1.0], [0.0]]), np.diag([1.0, 4.0]))
    assert report.exists
    assert all(report.conditions.values())
    assert report.conditions["compatible"]

    report = wls_existence_report(np.zeros((3, 2)), np.eye(3))
    assert report.exists
    assert np.allclose(report.witness, np.zeros((2, 3)))

    rng = np.random.default_rng(8)
    a = cgauss(rng, 4, 3)
    w = random_psd(rng, 4)
    report = wls_existence_report(a, w)
    assert report.exists
    expected = np.linalg.pinv(a.conj().T @ w @ a) @ (a.conj().T @ w)
    assert np.allclose(report.witness, expected, atol=1e-8)


def test_existence_flags_agree_on_random_instances():
    rng = np.random.default_rng(9)
    for _ in range(100):
        a, w = _random_wls_instance(rng)
        report = wls_existence_report(a, w)
        assert len(set(report.conditions.values())) == 1
        assert report.exists
        residual = np.linalg.norm(
            a.conj().T @ w @ (a @ report.witness - np.eye(a.shape[0]))
        )
        assert residual <= 1e-8 * max(np.linalg.norm(a) * np.linalg.norm(w), 1e-300)


def test_existence_report_with_norm_index():
    rng = np.random.default_rng(10)
    a, w = _random_wls_instance(rng, allow_singular=False)
    report = wls_existence_report(a, w, p=2)
    assert report.min_value is not None
    value = owls_min(a, w, 2).min_value
    assert report.min_value == pytest.approx(value, rel=1e-12)
