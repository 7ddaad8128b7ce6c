import numpy as np
import pytest

from conftest import cgauss, random_rank_deficient
from opapprox import (
    NotInRange,
    global_spline_solution,
    is_abstract_spline,
    is_compatible,
    null_basis,
    operator_spline_min,
    pinv,
    smoothing_equivalence_report,
    spline_equivalence_report,
    spline_solve,
    tv_report,
)
from opapprox.oracles import quadratic_min_over_affine, sampled_dominance

T_SHEAR = np.array([[1.0, 1.0], [0.0, 1.0]])
V_ROW = np.array([[1.0, 0.0]])


def test_spline_identity_penalty_gives_minimal_norm_interpolant():
    rng = np.random.default_rng(0)
    v = cgauss(rng, 2, 4)
    f0 = v @ cgauss(rng, 4, 1).ravel()
    sol = spline_solve(np.eye(4), v, f0)
    assert np.allclose(sol.witness[:, 0], pinv(v) @ f0, atol=1e-10)


def test_spline_hand_instance_against_oracle():
    # one free parameter t: minimize (1+t)^2 + t^2 along the interpolation line
    n = null_basis(V_ROW)
    h0 = pinv(V_ROW) @ np.array([1.0])
    oracle_value, z = quadratic_min_over_affine(np.eye(2), T_SHEAR, -T_SHEAR @ h0, n)
    sol = spline_solve(T_SHEAR, V_ROW, [1.0])
    assert np.allclose(sol.witness[:, 0], h0 + z, atol=1e-12)
    assert np.allclose(sol.witness[:, 0], np.array([1.0, -0.5]), atol=1e-12)
    assert sol.min_value == pytest.approx(np.sqrt(oracle_value), rel=1e-12)
    assert sol.min_value == pytest.approx(np.sqrt(0.5), rel=1e-12)


def test_spline_zero_target():
    sol = spline_solve(T_SHEAR, V_ROW, [0.0])
    assert np.allclose(sol.witness[:, 0], 0.0)
    assert sol.min_value == pytest.approx(0.0, abs=1e-14)


def test_spline_rejects_unreachable_target():
    v = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(NotInRange):
        spline_solve(np.eye(2), v, np.array([0.0, 1.0]))


# V's rank is decided as 1 relative to sigma_1(V) = 2^(1/2); its second
# column (0, 1e-11) lies off the kept range by about 7e-12
V_GRADED = np.array([[1.0, 0, 0, 0, 0, 0], [1.0, 1e-11, 0, 0, 0, 0]])


@pytest.mark.parametrize(
    "report", [spline_equivalence_report, tv_report, smoothing_equivalence_report]
)
def test_anchor_small_beside_the_others_certifies(report):
    # every anchor V e_i is judged against ||V||_F, the scale of V's rank
    # decision, not against its own norm
    result = report(np.eye(6), V_GRADED)
    assert result.exists
    assert set(result.conditions.values()) == {True}


def test_single_anchor_is_judged_against_its_own_norm():
    # the same column as a lone f0 is outside R(V) at its own scale
    with pytest.raises(NotInRange):
        spline_solve(np.eye(6), V_GRADED, V_GRADED[:, 1])


def test_is_abstract_spline_classification():
    sol = spline_solve(T_SHEAR, V_ROW, [1.0])
    h0 = pinv(V_ROW) @ np.array([1.0])
    assert is_abstract_spline(T_SHEAR, V_ROW, h0, sol.witness[:, 0])
    # moving inside the nullspace breaks optimality when T is injective
    bad = sol.witness[:, 0] + null_basis(V_ROW).basis[:, 0]
    assert not is_abstract_spline(T_SHEAR, V_ROW, h0, bad)
    # leaving the affine set breaks membership
    assert not is_abstract_spline(T_SHEAR, V_ROW, h0, sol.witness[:, 0] + np.array([1.0, 0.0]))


def test_operator_spline_hand_instance():
    rep = operator_spline_min(T_SHEAR, V_ROW, V_ROW, 2)
    value, x0 = rep.min_value, rep.witness
    assert value == pytest.approx(np.sqrt(0.5), rel=1e-12)
    assert np.allclose(V_ROW @ x0, V_ROW, atol=1e-12)


def test_operator_spline_degenerate_cases():
    rng = np.random.default_rng(1)
    v = cgauss(rng, 2, 3)
    rep = operator_spline_min(cgauss(rng, 2, 3), v, np.zeros((2, 3)), 2)
    value, x0 = rep.min_value, rep.witness
    assert value == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(v @ x0, 0.0, atol=1e-10)
    value = operator_spline_min(np.zeros((2, 3)), v, v, 3).min_value
    assert value == pytest.approx(0.0, abs=1e-12)


def test_operator_spline_rejects_bad_target_range():
    v = np.array([[1.0, 0.0], [0.0, 0.0]])
    b0 = np.eye(2)
    with pytest.raises(NotInRange):
        operator_spline_min(np.eye(2), v, b0, 2)


def test_global_solution_identity_penalty():
    rng = np.random.default_rng(2)
    v = cgauss(rng, 2, 4)
    g = global_spline_solution(np.eye(4), v)
    n = null_basis(v).basis
    expected = np.eye(4) - n @ n.conj().T
    assert np.allclose(g, expected, atol=1e-10)


def test_global_solution_injective_constraint():
    rng = np.random.default_rng(3)
    v = cgauss(rng, 3, 3) + 2 * np.eye(3)
    g = global_spline_solution(cgauss(rng, 2, 3), v)
    assert np.allclose(g, np.eye(3), atol=1e-8)


def _random_spline_instance(rng):
    n = int(rng.integers(2, 8))
    e = int(rng.integers(1, 7))
    f = int(rng.integers(1, n))
    t = cgauss(rng, e, n)
    if rng.uniform() < 0.3:
        t = random_rank_deficient(rng, e, n, int(rng.integers(0, min(e, n) + 1)))
    v = cgauss(rng, f, n)
    if rng.uniform() < 0.3:
        v = random_rank_deficient(rng, f, n, int(rng.integers(1, min(f, n) + 1)))
    return t, v


def test_interpolation_and_optimality_on_random_instances():
    rng = np.random.default_rng(4)
    for _ in range(60):
        t, v = _random_spline_instance(rng)
        f0 = v @ cgauss(rng, v.shape[1], 1).ravel()
        sol = spline_solve(t, v, f0)
        assert np.linalg.norm(v @ sol.witness[:, 0] - f0) <= 1e-8 * max(np.linalg.norm(f0), 1e-300)

        null_v = null_basis(v)
        n = null_v.basis
        if n.shape[1] == 0:
            continue
        candidate = sol.min_value**2
        scale = max(candidate, np.linalg.norm(t) ** 2 * (1 + np.linalg.norm(sol.witness[:, 0])) ** 2)

        def objective(g, t=t, h=sol.witness[:, 0], n=n):
            z = n @ (cgauss(g, n.shape[1], 1).ravel() * g.uniform(0.0, 2.0))
            return float(np.linalg.norm(t @ (h + z)) ** 2)

        assert sampled_dominance(objective, candidate, rng, 100, slack_scale=scale)
        # the exact minimum over h + N(V) agrees with the candidate value
        oracle_value, _ = quadratic_min_over_affine(
            np.eye(t.shape[0]), t, -t @ sol.witness[:, 0], null_v
        )
        assert candidate == pytest.approx(oracle_value, abs=1e-9 * scale)


def test_operator_value_identity_on_random_instances():
    rng = np.random.default_rng(5)
    for _ in range(40):
        t, v = _random_spline_instance(rng)
        b0 = v @ cgauss(rng, v.shape[1], v.shape[1])
        for p in (1, 2, 3):
            rep = operator_spline_min(t, v, b0, p)
            value, x0 = rep.min_value, rep.witness
            achieved = float(np.sum(np.linalg.svd(t @ x0, compute_uv=False) ** p) ** (1 / p))
            floor = 1e-12 * np.linalg.norm(t) * (1.0 + np.linalg.norm(x0))
            assert abs(value - achieved) <= 1e-8 * max(value, achieved) + floor
            assert np.linalg.norm(v @ x0 - b0) <= 1e-8 * max(np.linalg.norm(b0), 1e-300)


def test_equivalence_chain_on_random_instances():
    rng = np.random.default_rng(6)
    for _ in range(40):
        t, v = _random_spline_instance(rng)
        n = v.shape[1]
        # operator problem solvable for the full-range target
        x0 = operator_spline_min(t, v, v, 2).witness
        # a bounded global solution exists and its columns are splines
        g = global_spline_solution(t, v)
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            assert is_abstract_spline(t, v, e, g @ e)
        # the penalty weight and the constraint nullspace are compatible
        assert is_compatible(t.conj().T @ t, null_basis(v)).compatible
        # the pointwise problem is solvable from every anchor
        for i in range(min(n, 3)):
            e = np.zeros(n)
            e[i] = 1.0
            sol = spline_solve(t, v, v @ e)
            assert sol.residuals["normal_equation"] <= 1e-8 * max(np.linalg.norm(t) ** 2, 1.0)


def test_spline_equivalence_report_flags_agree_on_random_instances():
    rng = np.random.default_rng(8)
    for _ in range(30):
        t, v = _random_spline_instance(rng)
        report = spline_equivalence_report(t, v)
        assert len(report.conditions) == 4
        assert set(report.conditions.values()) == {True}
        assert report.exists


def test_operator_solution_columns_match_pointwise_solver():
    rng = np.random.default_rng(7)
    for _ in range(20):
        t, v = _random_spline_instance(rng)
        b0 = v @ cgauss(rng, v.shape[1], v.shape[1])
        x0 = operator_spline_min(t, v, b0, 2).witness
        anchor = pinv(v) @ b0
        for i in range(v.shape[1]):
            col = x0[:, i]
            sol = spline_solve(t, v, b0[:, i])
            assert np.linalg.norm(t @ col) == pytest.approx(sol.min_value, abs=1e-8)
            assert is_abstract_spline(t, v, anchor[:, i], col)
