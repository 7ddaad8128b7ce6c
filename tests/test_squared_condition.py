"""Well-posed full-rank problems whose normal equations square the
condition number.

A = U diag(geomspace(1, 1/c, n)) V* with random unitaries U, V and
c = 4e4 has full rank, so every (A, I) and (A, A[:n/2]) existence question
has the answer yes.  The reports decide some conditions on a formed Gram,
whose condition number is c^2: even a backward-stable solve of it leaves a
relative residual near eps c^2 = 3.5e-7, above residual_rtol = 1e-8, while
the conditions tested against a looser scale still hold.  The flags then
disagree and the report raises EquivalenceViolation.  The xfail tests pin
that defect (ROADMAP, "Stop squaring the condition number") and start to
pass, failing the strict xfail, once no decision is taken on a formed Gram.
"""

import numpy as np
import pytest

from conftest import random_unitary
from opapprox import EquivalenceViolation, tv_report, wls_existence_report

COND = 4e4

squares_the_condition = pytest.mark.xfail(
    strict=True,
    raises=EquivalenceViolation,
    reason="the normal equation is decided on a Gram with condition number COND**2",
)


def _graded(n):
    rng = np.random.default_rng(n)
    s = np.geomspace(1.0, 1.0 / COND, n)
    return random_unitary(rng, n) @ np.diag(s) @ random_unitary(rng, n).conj().T


@squares_the_condition
@pytest.mark.parametrize("n", [8, 32])
def test_wls_report_accepts_a_graded_full_rank_operator(n):
    assert wls_existence_report(_graded(n), np.eye(n)).exists


@squares_the_condition
@pytest.mark.parametrize("n", [8, 32])
def test_tv_report_accepts_a_graded_full_rank_pair(n):
    A = _graded(n)
    assert tv_report(A, A[: n // 2]).exists

