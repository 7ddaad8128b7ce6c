"""Each existence report factors each distinct operator a constant number
of times, and its batched basis solves agree with the public
single-vector solvers."""

import sys

import numpy as np
import pytest

import opapprox.linalg
from conftest import cgauss, random_psd, random_rank_deficient
from opapprox import (
    BlockWeight,
    DEFAULT_TOL,
    global_spline_solution,
    hat_equivalence_check,
    is_abstract_spline,
    is_compatible,
    smoothing_equivalence_report,
    smoothing_solve,
    spline_equivalence_report,
    spline_solve,
    wls_existence_report,
    wlss_solve,
)
from opapprox.linalg import factor, range_basis
from opapprox.spline import _spline_columns

RTOL = DEFAULT_TOL.residual_rtol


def _instances(n, deficient, seed=0):
    """A, W (codomain n), T, V (domain n) and a block weight for A."""
    rng = np.random.default_rng([n, int(deficient), seed])
    h = n // 2
    if deficient:
        A = random_rank_deficient(rng, n, h, h // 2)
        W = random_psd(rng, n, rank=n - 2)
        V = random_rank_deficient(rng, h, n, h // 2)
        T = random_rank_deficient(rng, n, n, n - 2)
    else:
        A, W = cgauss(rng, n, h), random_psd(rng, n)
        T, V = cgauss(rng, n, n), cgauss(rng, h, n)
    blocks = BlockWeight(w11=random_psd(rng, n), w12=np.zeros((n, h)), w22=random_psd(rng, h))
    return A, W, T, V, blocks


@pytest.fixture
def svd_calls(monkeypatch):
    """Count svd_with_rank calls, through every opapprox alias of it."""
    original = opapprox.linalg.svd_with_rank
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("opapprox") and getattr(module, "svd_with_rank", None) is original:
            monkeypatch.setattr(module, "svd_with_rank", counted)
    return calls


REPORTS = {
    "wls": lambda A, W, T, V, blocks: wls_existence_report(A, W),
    "wls_p": lambda A, W, T, V, blocks: wls_existence_report(A, W, p=1.5),
    "smoothing": lambda A, W, T, V, blocks: smoothing_equivalence_report(T, V, samples=5),
    "spline": lambda A, W, T, V, blocks: spline_equivalence_report(T, V),
    "hat": lambda A, W, T, V, blocks: hat_equivalence_check(A, blocks),
}


@pytest.mark.parametrize("deficient", [False, True], ids=["full_rank", "rank_deficient"])
@pytest.mark.parametrize("report", sorted(REPORTS))
def test_factorization_count_does_not_grow_with_n(svd_calls, report, deficient):
    counts = []
    for n in (8, 32):
        args = _instances(n, deficient)
        svd_calls[0] = 0
        REPORTS[report](*args)
        counts.append(svd_calls[0])
    assert counts[0] == counts[1], counts
    assert counts[0] > 0


def _rel(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


@pytest.mark.parametrize("deficient", [False, True], ids=["full_rank", "rank_deficient"])
@pytest.mark.parametrize("seed", range(3))
def test_wls_report_columns_match_wlss_solve(deficient, seed):
    A, W, *_ = _instances(12, deficient, seed)
    rep = wls_existence_report(A, W)
    eye = np.eye(A.shape[0], dtype=complex)
    scale = np.linalg.norm(A) * np.linalg.norm(W)
    residuals = []
    for i in range(A.shape[0]):
        u = wlss_solve(A, W, eye[:, i])
        # column i of the weighted inverse is the solve for e_i
        assert _rel(rep.w_inverse[:, i], u) <= 1e-12
        residuals.append(np.linalg.norm(A.conj().T @ W @ (A @ u - eye[:, i])))
    assert rep.conditions["wlss_for_all_x"] == all(r <= RTOL * scale for r in residuals)


@pytest.mark.parametrize("deficient", [False, True], ids=["full_rank", "rank_deficient"])
@pytest.mark.parametrize("seed", range(3))
def test_wls_report_certificate_is_is_compatible(deficient, seed):
    A, W, *_ = _instances(12, deficient, seed)
    got = wls_existence_report(A, W).compat
    want = is_compatible(W, range_basis(A))
    assert got.compatible == want.compatible
    assert got.sum_rank == want.sum_rank
    assert np.array_equal(got.s_basis.basis, want.s_basis.basis)
    assert np.array_equal(got.s_perp_w_basis.basis, want.s_perp_w_basis.basis)
    if want.projection is None:
        assert got.projection is None
    else:
        assert np.array_equal(got.projection, want.projection)


@pytest.mark.parametrize("deficient", [False, True], ids=["full_rank", "rank_deficient"])
@pytest.mark.parametrize("seed", range(3))
def test_smoothing_report_columns_match_smoothing_solve(deficient, seed):
    _, _, T, V, _ = _instances(12, deficient, seed)
    rep = smoothing_equivalence_report(T, V, samples=5)
    gram = T.conj().T @ T + V.conj().T @ V
    scale = max(np.linalg.norm(gram), 1.0) * max(np.linalg.norm(V), 1.0)
    eye = np.eye(V.shape[0], dtype=complex)
    sols = [smoothing_solve(T, V, eye[:, i]) for i in range(V.shape[0])]
    for i, sol in enumerate(sols):
        assert _rel(rep.global_solution[:, i], sol.h) <= 1e-12
    assert rep.conditions["pointwise_solvable"] == all(
        s.normal_residual <= RTOL * scale for s in sols
    )


@pytest.mark.parametrize("deficient", [False, True], ids=["full_rank", "rank_deficient"])
@pytest.mark.parametrize("seed", range(3))
def test_spline_report_columns_match_single_vector_checks(deficient, seed):
    _, _, T, V, _ = _instances(12, deficient, seed)
    rep = spline_equivalence_report(T, V)
    n = V.shape[1]
    eye = np.eye(n, dtype=complex)

    fv = factor(V)
    anchors, _ = _spline_columns(T, fv, V, fv.lstsq(V), DEFAULT_TOL)
    sols = [spline_solve(T, V, V @ eye[:, i]) for i in range(n)]
    for i, sol in enumerate(sols):
        assert _rel(anchors[:, i], sol.h) <= 1e-12
    scale = max(np.linalg.norm(T) ** 2, 1.0)
    assert rep.conditions["spline_pointwise_nonempty"] == all(
        s.normal_residual <= RTOL * scale for s in sols
    )

    G = global_spline_solution(T, V)
    assert rep.conditions["spline_global_columns"] == all(
        is_abstract_spline(T, V, eye[:, i], G[:, i]) for i in range(n)
    )
