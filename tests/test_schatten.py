import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cgauss, random_unitary
from opapprox import (
    UnsupportedIndex,
    frechet_gp,
    schatten_norm,
    weighted_schatten_norm,
)


def test_schatten_norm_examples():
    x = np.diag([3.0, 4.0])
    assert schatten_norm(x, 2) == pytest.approx(5.0, rel=1e-14)
    assert schatten_norm(np.eye(7), 1) == pytest.approx(7.0, rel=1e-14)


@pytest.mark.parametrize("c", [1e-200, 1e-12, 1e12, 1e200])
@pytest.mark.parametrize("p", [1.5, 30.0, 60.0])
def test_schatten_norm_neither_under_nor_overflows(c, p):
    # sigma^p leaves the double range for these c, the scaled sum does not
    x = c * np.diag([1.0, 2.0, 2.0])
    expected = 2.0 * c * (0.5**p + 2.0) ** (1.0 / p)
    assert schatten_norm(x, p) == pytest.approx(expected, rel=1e-14)


def test_schatten_norm_of_zero_is_zero():
    assert schatten_norm(np.zeros((3, 2)), 60) == 0.0
    assert schatten_norm(np.zeros((0, 2)), 60) == 0.0


def test_schatten_norm_p3_against_eigen_oracle():
    # singular values from the 2x2 eigenproblem of X*X, solved by the quadratic formula
    x = np.array([[1.0, 1.0], [0.0, 1.0]])
    tr, det = 3.0, 1.0  # X*X = [[1,1],[1,2]]
    lam1 = (tr + np.sqrt(tr**2 - 4 * det)) / 2
    lam2 = (tr - np.sqrt(tr**2 - 4 * det)) / 2
    expected = (lam1**1.5 + lam2**1.5) ** (1.0 / 3.0)
    assert schatten_norm(x, 3) == pytest.approx(expected, rel=1e-13)


def test_weighted_schatten_norm_examples():
    rng = np.random.default_rng(0)
    y = cgauss(rng, 3, 4)
    for p in (1, 2, 3):
        assert weighted_schatten_norm(y, np.eye(3), p) == pytest.approx(
            schatten_norm(y, p), rel=1e-12
        )
    assert weighted_schatten_norm(np.eye(2), np.diag([1.0, 4.0]), 2) == pytest.approx(
        np.sqrt(5.0), rel=1e-13
    )
    # weight annihilating the range of Y
    y = np.array([[0.0, 0.0], [1.0, 1.0]])
    w = np.diag([1.0, 0.0])
    for p in (1, 2, 3):
        assert weighted_schatten_norm(y, w, p) == pytest.approx(0.0, abs=1e-13)


def test_frechet_p2_plugin_value():
    assert frechet_gp(np.diag([1.0, 2.0]), np.eye(2), 2) == pytest.approx(6.0, rel=1e-13)


def test_frechet_zero_direction():
    rng = np.random.default_rng(3)
    x = cgauss(rng, 4, 4)
    assert frechet_gp(x, np.zeros((4, 4)), 3) == pytest.approx(0.0, abs=1e-14)


def test_frechet_rejects_p_one():
    with pytest.raises(UnsupportedIndex):
        frechet_gp(np.eye(2), np.eye(2), 1)
    with pytest.raises(UnsupportedIndex):
        schatten_norm(np.eye(2), 0.5)


def test_frechet_reads_one_svd(monkeypatch):
    calls = {"svd": 0, "eigh": 0}
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    rng = np.random.default_rng(8)
    frechet_gp(cgauss(rng, 5, 4), cgauss(rng, 5, 4), 3.0)
    assert calls == {"svd": 1, "eigh": 0}


def _fd_derivative(x, y, p, step=1e-5):
    up = schatten_norm(x + step * y, p) ** p
    dn = schatten_norm(x - step * y, p) ** p
    return (up - dn) / (2 * step)


def test_frechet_matches_finite_differences():
    rng = np.random.default_rng(4)
    for p in (2.0, 3.0, 4.0):
        for _ in range(12):
            n = int(rng.integers(2, 7))
            x = cgauss(rng, n, n)
            y = cgauss(rng, n, n)
            analytic = frechet_gp(x, y, p)
            fd = _fd_derivative(x, y, p)
            assert abs(analytic - fd) <= 1e-5 * max(abs(analytic), abs(fd), 1e-6)


def test_norm_monotone_under_contraction():
    # T = C S with a contraction C gives T*T <= S*S, so the norms are ordered
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        s = cgauss(rng, n, n)
        g = cgauss(rng, n, n)
        c = g / max(np.linalg.norm(g, 2), 1e-12) * rng.uniform(0.0, 1.0)
        t = c @ s
        for p in (1, 2, 3, 4):
            assert schatten_norm(t, p) <= schatten_norm(s, p) + 1e-10


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31 - 1), p=st.sampled_from([1.0, 2.0, 3.0]))
def test_unitary_invariance(seed, p):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 8)), int(rng.integers(1, 8))
    x = cgauss(rng, n, m)
    u = random_unitary(rng, n)
    v = random_unitary(rng, m)
    assert abs(schatten_norm(u @ x @ v, p) - schatten_norm(x, p)) <= 1e-10 * max(
        schatten_norm(x, p), 1.0
    )


def test_triangle_inequality_sampled():
    rng = np.random.default_rng(6)
    for _ in range(100):
        n, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        a = cgauss(rng, n, m)
        b = cgauss(rng, n, m)
        for p in (1, 2, 3):
            assert schatten_norm(a + b, p) <= schatten_norm(a, p) + schatten_norm(b, p) + 1e-10
