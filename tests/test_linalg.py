import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cgauss, random_psd, random_rank_deficient, random_unitary
from opapprox import (
    InconsistentDims,
    NotPsd,
    Subspace,
    Tolerances,
    matrix_rank,
    null_basis,
    pinv,
    psd_sqrt,
    range_basis,
    range_included,
    trivial_subspace,
)
from opapprox.linalg import ensure_psd_weight, factor, normal_bound, psd_weight


def test_tolerances_reject_out_of_range():
    for bad in (0.0, 1.0, -1e-3, 2.0):
        with pytest.raises(ValueError):
            Tolerances(rank_rtol=bad)
        with pytest.raises(ValueError):
            Tolerances(residual_rtol=bad)


def test_subspace_requires_orthonormal_columns():
    with pytest.raises(ValueError):
        Subspace(np.array([[1.0, 1.0], [0.0, 1.0]]))
    s = Subspace(np.eye(3)[:, :2])
    assert s.dim == 2 and s.ambient_dim == 3


def test_pinv_diagonal():
    assert np.allclose(pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))


def test_pinv_column():
    got = pinv(np.array([[1.0], [1.0]]))
    assert np.allclose(got, np.array([[0.5, 0.5]]))


def test_pinv_rank_cutoff():
    rng = np.random.default_rng(3)
    u, v = random_unitary(rng, 2), random_unitary(rng, 2)
    m = u @ np.diag([1.0, 1e-14]) @ v
    # the tiny singular value is below the cutoff and must not be inverted
    assert matrix_rank(pinv(m)) == 1
    assert np.linalg.norm(pinv(m)) < 2.0


def test_penrose_identities_on_random_instances():
    rng = np.random.default_rng(2024)
    for k in range(200):
        rows = int(rng.integers(1, 31))
        cols = int(rng.integers(1, 31))
        if k % 3 == 0:
            rank = int(rng.integers(0, min(rows, cols) + 1))
            m = random_rank_deficient(rng, rows, cols, rank)
        else:
            m = cgauss(rng, rows, cols)
        mp = pinv(m)
        nm, nmp = np.linalg.norm(m), np.linalg.norm(mp)
        assert np.linalg.norm(m @ mp @ m - m) <= 1e-10 * max(nm, 1e-300)
        assert np.linalg.norm(mp @ m @ mp - mp) <= 1e-10 * max(nmp, 1e-300)
        proj1 = m @ mp
        proj2 = mp @ m
        assert np.linalg.norm(proj1 - proj1.conj().T) <= 1e-10 * max(np.linalg.norm(proj1), 1.0)
        assert np.linalg.norm(proj2 - proj2.conj().T) <= 1e-10 * max(np.linalg.norm(proj2), 1.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**31 - 1),
    rows=st.integers(1, 12),
    cols=st.integers(1, 12),
)
def test_rank_additivity(seed, rows, cols):
    rng = np.random.default_rng(seed)
    rank = int(rng.integers(0, min(rows, cols) + 1))
    m = random_rank_deficient(rng, rows, cols, rank)
    assert range_basis(m).dim + null_basis(m).dim == cols


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**31 - 1),
    rows=st.integers(1, 12),
    cols=st.integers(1, 12),
    scale_exp=st.floats(-12.0, 12.0),
    rank_exp=st.floats(-14.0, -2.0),
    residual_exp=st.floats(-14.0, -2.0),
)
def test_normal_residual_obeys_the_tolerance_lemma(
    seed, rows, cols, scale_exp, rank_exp, residual_exp
):
    # the lemma of Factorization.normal, up to the rounding of R, about
    # max(rows, cols) eps ||M||_F (||M||_F ||C||_F + ||B||_F); M is graded
    # with singular values 10^U(-14, 0) at a scale of 10^U(-12, 12)
    rng = np.random.default_rng(seed)
    k = min(rows, cols)
    s = 10.0 ** rng.uniform(-14.0, 0.0, k) * 10.0**scale_exp
    m = (random_unitary(rng, rows)[:, :k] * s) @ random_unitary(rng, cols)[:, :k].conj().T
    b = cgauss(rng, rows, int(rng.integers(1, 5)))
    tol = Tolerances(rank_rtol=10.0**rank_exp, residual_rtol=10.0**residual_exp)
    c, r, _ = factor(m, tol).normal(b)
    bound = normal_bound(m, c, b, tol)
    rounding = max(rows, cols) * np.finfo(float).eps * bound / tol.residual_rtol
    assert np.linalg.norm(r) <= tol.rank_rtol / tol.residual_rtol * bound + rounding


def test_range_null_examples():
    r = range_basis(np.diag([1.0, 0.0]))
    n = null_basis(np.diag([1.0, 0.0]))
    assert np.allclose(r.projector(), np.diag([1.0, 0.0]))
    assert np.allclose(n.projector(), np.diag([0.0, 1.0]))

    z = np.zeros((2, 2))
    assert range_basis(z).dim == 0
    assert null_basis(z).dim == 2

    m = np.ones((2, 2))
    e = np.ones(2) / np.sqrt(2)
    assert np.allclose(range_basis(m).projector(), np.outer(e, e))
    f = np.array([1.0, -1.0]) / np.sqrt(2)
    assert np.allclose(null_basis(m).projector(), np.outer(f, f))


def test_range_included_examples():
    a = np.diag([1.0, 0.0])
    ok, c = range_included(np.array([[1.0], [0.0]]), a)
    assert ok and np.allclose(a @ c, np.array([[1.0], [0.0]]))
    ok, c = range_included(np.array([[0.0], [1.0]]), a)
    assert not ok and c is None

    rng = np.random.default_rng(5)
    b = cgauss(rng, 4, 3)
    ok, c = range_included(b, b)
    assert ok and np.allclose(b @ c, b, atol=1e-12)


def test_range_included_matches_rank_test():
    rng = np.random.default_rng(11)
    for _ in range(60):
        rows = int(rng.integers(1, 10))
        a = random_rank_deficient(rng, rows, int(rng.integers(1, 8)), int(rng.integers(0, rows + 1)))
        if rng.uniform() < 0.5:
            b = a @ cgauss(rng, a.shape[1], int(rng.integers(1, 6)))  # contained by construction
        else:
            b = cgauss(rng, rows, int(rng.integers(1, 6)))
        included, _ = range_included(b, a)
        assert included == (matrix_rank(np.hstack([a, b])) == matrix_rank(a))


def test_range_included_is_relative_below_unit_scale():
    # R([1e-10, 0]^T) is not inside R([0, 1]^T) at any scale
    ok, c = range_included(np.array([[1e-10], [0.0]]), np.array([[0.0], [1.0]]))
    assert not ok and c is None
    for scale in (1e-12, 1e-6, 1.0, 1e6):
        a = scale * np.diag([1.0, 0.0])
        assert range_included(scale * np.array([[1.0], [0.0]]), a)[0]
        assert not range_included(scale * np.array([[0.0], [1.0]]), a)[0]
    # B = 0 lies in every range, the zero operator's included
    ok, c = range_included(np.zeros((2, 1)), np.zeros((2, 3)))
    assert ok and c.shape == (3, 1) and not np.any(c)


def test_matrix_rank_takes_one_values_only_svd(monkeypatch):
    """matrix_rank decides factor's rank rule on singular values computed
    without U and Vh.  Those differ from the full SVD's in the last bits,
    so the matrices have a gap of at least 10x at every cutoff tried."""
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    rng = np.random.default_rng(41)
    for rows, cols, rank in ((12, 9, 4), (9, 12, 9), (16, 16, 1), (7, 5, 0), (0, 4, 0), (4, 0, 0)):
        k = min(rows, cols)
        # graded over eight decades down to 1e-8 above the gap, over three
        # decades down from 1e-13 below it, and zero for a rank of zero
        s = np.zeros(k)
        s[:rank] = 10.0 ** -np.linspace(0.0, 8.0, rank)
        s[rank:k] = 1e-13 * 10.0 ** -np.linspace(0.0, 3.0, k - rank) if rank else 0.0
        u = random_unitary(rng, rows)[:, :k] if rows else np.zeros((0, k))
        v = random_unitary(rng, cols)[:, :k] if cols else np.zeros((0, k))
        m = (u * s) @ v.conj().T
        for tol in (Tolerances(), Tolerances(rank_rtol=1e-12), Tolerances(rank_rtol=1e-9)):
            calls.clear()
            assert matrix_rank(m, tol) == rank
            assert calls == [False]
            assert matrix_rank(m, tol) == factor(m, tol).rank


def test_factorization_answers_match_the_one_shot_wrappers():
    rng = np.random.default_rng(29)
    for rows, cols, rank in ((5, 3, 3), (4, 6, 2), (6, 6, 0), (0, 3, 0), (3, 0, 0)):
        m = random_rank_deficient(rng, rows, cols, rank)
        f = factor(m)
        assert f.rank == matrix_rank(m)
        assert np.array_equal(f.pinv(), pinv(m))
        assert np.array_equal(f.range().basis, range_basis(m).basis)
        assert np.array_equal(f.null().basis, null_basis(m).basis)
        assert f.range().dim + f.null().dim == cols
        b = m @ cgauss(rng, cols, 2)
        ok, c = f.solve(b)
        assert ok and np.array_equal(c, range_included(b, m)[1])
        c_all, r, included = f.lstsq(b)
        assert included and np.array_equal(c_all, c) and np.array_equal(r, b - m @ c)
        assert f.pinv() is f.pinv()
    # a matrix with no rows has the whole domain as its nullspace
    assert np.array_equal(factor(np.zeros((0, 3))).null().basis, np.eye(3))


def test_factorization_solve_rejects_codomain_mismatch():
    with pytest.raises(InconsistentDims):
        factor(np.eye(2)).solve(np.eye(3))


def test_range_included_shape_mismatch():
    with pytest.raises(InconsistentDims):
        range_included(np.eye(3), np.eye(2))


def test_psd_sqrt_examples():
    assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))
    assert np.allclose(psd_sqrt(np.zeros((3, 3))), np.zeros((3, 3)))
    w = np.array([[2.0, 1.0], [1.0, 1.0]])
    root = psd_sqrt(w)
    assert np.allclose(root, root.conj().T)
    assert np.max(np.abs(root @ root - w)) < 1e-12


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(NotPsd):
        psd_sqrt(np.diag([1.0, -1.0]))
    with pytest.raises(NotPsd):
        psd_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))  # not Hermitian


def test_psd_sqrt_clamp_idempotent():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        w = random_psd(rng, n, rank=int(rng.integers(0, n + 1)))
        r = psd_sqrt(w)
        again = psd_sqrt(r @ r)
        assert np.linalg.norm(again - r) <= 1e-8 * max(np.linalg.norm(r), 1.0)


@pytest.mark.parametrize("deficient", [False, True], ids=["full_rank", "rank_deficient"])
def test_psd_weight_answers_match_the_one_shot_routines(deficient):
    rng = np.random.default_rng([18, int(deficient)])
    for _ in range(10):
        n = int(rng.integers(1, 9))
        w = random_psd(rng, n, rank=int(rng.integers(0, n)) if deficient else None)
        weight = psd_weight(w)
        assert psd_weight(weight) is weight
        assert np.array_equal(weight.matrix, ensure_psd_weight(w))
        assert ensure_psd_weight(weight) is weight.matrix
        assert weight.rank == matrix_rank(w)
        assert weight.lam_max == pytest.approx(np.linalg.norm(w, 2), rel=1e-12, abs=1e-300)
        assert np.array_equal(weight.sqrt, psd_sqrt(w))
        assert psd_sqrt(weight) is weight.sqrt


@pytest.mark.parametrize("check", [ensure_psd_weight, psd_weight, psd_sqrt])
@pytest.mark.parametrize("c", [1e-12, 1e12])
def test_psd_validation_accepts_hermitian_weights_at_any_scale(check, c):
    rng = np.random.default_rng(19)
    w = random_psd(rng, 5, rank=3)
    w = (w + w.conj().T) / 2  # exactly Hermitian, and so is c * w
    check(c * w)


@pytest.mark.parametrize("check", [ensure_psd_weight, psd_weight, psd_sqrt])
def test_hermitian_check_is_relative_below_unit_scale(check):
    # a 1e-3 relative asymmetry is visible at every scale, not only above 1
    rng = np.random.default_rng(20)
    c = 1e-12
    w = random_psd(rng, 5)
    skew = cgauss(rng, 5, 5)
    w_bad = c * (w + 1e-3 * np.linalg.norm(w) * skew / np.linalg.norm(skew))
    with pytest.raises(NotPsd, match="not Hermitian"):
        check(w_bad)


def test_trivial_subspace_projector():
    t = trivial_subspace(3)
    assert t.dim == 0
    assert np.allclose(t.projector(), np.zeros((3, 3)))
