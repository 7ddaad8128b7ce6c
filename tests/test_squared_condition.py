"""Well-posed full-rank problems whose normal equations square the
condition number.

A = U diag(geomspace(1, 1/c, n)) V* with random unitaries U, V and
c = 4e4 has full rank, so every (A, I) and (A, A[:n/2]) existence question
has the answer yes.  A Gram of such a problem has condition number c^2:
even a backward-stable solve of it leaves a relative residual near
eps c^2 = 3.5e-7, above residual_rtol = 1e-8.  The reports decide every
normal equation on a root (W^{1/2} A, or the stack [T; V]), whose
condition number is c, so they accept these problems.

The operator spline problem is also posed with cond(T N(V)) = c up to
1e8: it returns the value of the QR projection on T N(V), and a refusal
fails the test.
"""

import numpy as np
import pytest

from conftest import cgauss, random_unitary
from opapprox import operator_spline_min, tv_report, wls_existence_report

COND = 4e4


def _graded(n):
    rng = np.random.default_rng(n)
    s = np.geomspace(1.0, 1.0 / COND, n)
    return random_unitary(rng, n) @ np.diag(s) @ random_unitary(rng, n).conj().T


@pytest.mark.parametrize("n", [8, 32])
def test_wls_report_accepts_a_graded_full_rank_operator(n):
    assert wls_existence_report(_graded(n), np.eye(n)).exists


@pytest.mark.parametrize("n", [8, 32])
def test_tv_report_accepts_a_graded_full_rank_pair(n):
    A = _graded(n)
    assert tv_report(A, A[: n // 2]).exists


def _ill_conditioned_spline(c, n):
    """T, V and the operator spline minimum for B0 = V, with cond(T N) = c
    for an orthonormal basis N of N(V).  The reference value is
    ||(I - Q_t Q_t*) T V^+ V||_F, with Q_t an orthonormal basis of R(T N)."""
    rng = np.random.default_rng(n)
    h = n // 2
    V = cgauss(rng, h, n)
    Vh = np.linalg.svd(V)[2]
    R, N = Vh[:h].conj().T, Vh[h:].conj().T
    Q = random_unitary(rng, n)[:, : n - h]
    graded = Q @ np.diag(np.geomspace(1.0, 1.0 / c, n - h)) @ N.conj().T
    T = graded + cgauss(rng, n, n) @ R @ R.conj().T
    Qt = np.linalg.qr(T @ N)[0]
    reference = np.linalg.norm((np.eye(n) - Qt @ Qt.conj().T) @ T @ np.linalg.pinv(V) @ V)
    return T, V, reference


@pytest.mark.parametrize("c", [1e6, 1e8])
def test_op_spline_value_is_right(c):
    T, V, reference = _ill_conditioned_spline(c, 8)
    value = operator_spline_min(T, V, V, 2).min_value
    assert abs(value - reference) <= 1e-6 * reference, (value, reference)
