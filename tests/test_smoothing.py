import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cgauss, perturb_stack_solve, random_psd, random_rank_deficient
from opapprox import (
    BlockWeight,
    EquivalenceViolation,
    NotPsd,
    frechet_gp,
    hat_equivalence_check,
    hat_lift,
    matrix_rank,
    operator_smoothing_min,
    optimal_inverse,
    pinv,
    smoothing_equivalence_report,
    smoothing_solve,
    tv_report,
    wlss_solve,
)
from opapprox.oracles import quadratic_min_over_affine, sampled_dominance
from opapprox.linalg import factor, full_subspace
from opapprox.smoothing import _data, _dominance


def test_smoothing_scalar_instances():
    sol = smoothing_solve([[1.0]], [[1.0]], [1.0])
    assert sol.witness[0, 0] == pytest.approx(0.5, rel=1e-13)
    assert sol.min_value == pytest.approx(0.5, rel=1e-13)

    sol = smoothing_solve([[1.0]], [[2.0]], [1.0])
    assert sol.witness[0, 0] == pytest.approx(0.4, rel=1e-13)
    assert sol.min_value == pytest.approx(0.2, rel=1e-13)

    sol = smoothing_solve([[1.0]], [[2.0]], [0.0])
    assert sol.witness[0, 0] == pytest.approx(0.0, abs=1e-14)
    assert sol.min_value == pytest.approx(0.0, abs=1e-14)


def test_smoothing_matches_stacked_least_squares():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        e = int(rng.integers(1, 6))
        f = int(rng.integers(1, 6))
        t = cgauss(rng, e, n)
        v = cgauss(rng, f, n)
        f0 = cgauss(rng, f, 1).ravel()
        stacked = np.vstack([t, v])
        target = np.concatenate([np.zeros(e, dtype=complex), f0])
        via_stack = wlss_solve(stacked, np.eye(e + f), target)
        sol = smoothing_solve(t, v, f0)
        assert np.linalg.norm(sol.witness[:, 0] - via_stack) <= 1e-8 * max(np.linalg.norm(via_stack), 1e-300)


def test_operator_smoothing_scalar_instance():
    rep = operator_smoothing_min([[1.0]], [[2.0]], [[1.0]])
    value, x0 = rep.min_value, rep.witness
    assert value == pytest.approx(0.2, rel=1e-13)
    assert x0[0, 0] == pytest.approx(0.4, rel=1e-13)


def test_operator_smoothing_degenerate_cases():
    rng = np.random.default_rng(1)
    t = cgauss(rng, 3, 4)
    v = cgauss(rng, 2, 4)
    rep = operator_smoothing_min(t, v, np.zeros((2, 4)))
    value, x0 = rep.min_value, rep.witness
    assert value == pytest.approx(0.0, abs=1e-14)
    assert np.allclose(x0, 0.0)

    v = cgauss(rng, 3, 3) + 2 * np.eye(3)
    b0 = cgauss(rng, 3, 3)
    rep = operator_smoothing_min(np.zeros((2, 3)), v, b0)
    value, x0 = rep.min_value, rep.witness
    assert value == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(x0, np.linalg.solve(v, b0), atol=1e-9)


def test_optimal_inverse_scalar_tikhonov():
    w = BlockWeight(np.eye(1), np.zeros((1, 1)), np.eye(1))
    for a in (1.0, 2.0, -0.5):
        g = optimal_inverse(np.array([[a]]), w).witness
        assert g[0, 0] == pytest.approx(a / (a**2 + 1), rel=1e-13)


def test_optimal_inverse_embedding_instance():
    # per-coordinate objective (h - f1)^2 + f2^2 + h^2 has vertex h = f1 / 2
    a = np.array([[1.0], [0.0]])
    w = BlockWeight(np.eye(2), np.zeros((2, 1)), np.eye(1))
    g = optimal_inverse(a, w).witness
    assert np.allclose(g, np.array([[0.5, 0.0]]), atol=1e-13)


def test_optimal_inverse_exists_for_definite_lower_block():
    rng = np.random.default_rng(2)
    for _ in range(20):
        f, h = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        a = cgauss(rng, f, h)
        w22 = random_psd(rng, h) + 0.5 * np.eye(h)
        w = BlockWeight(random_psd(rng, f), np.zeros((f, h)), w22)
        assert optimal_inverse(a, w).exists


def test_block_weight_must_be_psd():
    with pytest.raises(NotPsd):
        BlockWeight(np.eye(1), np.array([[2.0]]), np.eye(1))


def test_optimal_inverse_dominates_sampled_competitors():
    rng = np.random.default_rng(11)
    for _ in range(10):
        f, h = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        a = cgauss(rng, f, h)
        w_full = random_psd(rng, f + h)
        w = BlockWeight(w_full[:f, :f], w_full[:f, f:], w_full[f:, f:])
        g = optimal_inverse(a, w).witness
        assert g is not None

        def stacked_cost(fvec, hvec, a=a, w_full=w_full):
            r = np.concatenate([a @ hvec - fvec, hvec])
            return float(np.real(r.conj() @ w_full @ r))

        for _ in range(100):
            fvec = cgauss(rng, f, 1).ravel()
            hvec = cgauss(rng, h, 1).ravel()
            best = stacked_cost(fvec, g @ fvec)
            other = stacked_cost(fvec, hvec)
            assert best <= other + 1e-10 * max(other, 1.0)


def test_hat_lift_examples():
    assert np.allclose(hat_lift([[2.0]]), np.array([[2.0], [1.0]]))
    lifted = hat_lift(np.zeros((2, 3)))
    assert np.allclose(lifted, np.vstack([np.zeros((2, 3)), np.eye(3)]))
    rng = np.random.default_rng(3)
    a = cgauss(rng, 3, 4)
    lifted = hat_lift(a)
    assert np.allclose(
        lifted.conj().T @ lifted, a.conj().T @ a + np.eye(4), atol=1e-12
    )


def test_hat_equivalence_scalar_instance():
    w = BlockWeight(np.eye(1), np.zeros((1, 1)), np.eye(1))
    report = hat_equivalence_check(np.array([[1.0]]), w)
    assert all(report.conditions.values())
    assert np.allclose(report.witness, np.array([[0.5, 0.5]]), atol=1e-13)
    assert report.residuals["lifted_normal_equation"] <= 1e-12


def test_hat_equivalence_degenerate_lower_blocks():
    rng = np.random.default_rng(4)
    a = cgauss(rng, 3, 2)
    w = BlockWeight(np.eye(3), np.zeros((3, 2)), np.zeros((2, 2)))
    report = hat_equivalence_check(a, w)
    assert all(report.conditions.values())


def test_hat_equivalence_diag_blocks_and_range_chain():
    rng = np.random.default_rng(5)
    for _ in range(30):
        f, h = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        a = cgauss(rng, f, h)
        if rng.uniform() < 0.4:
            a = random_rank_deficient(rng, f, h, int(rng.integers(0, min(f, h) + 1)))
        w_small = random_psd(rng, h, rank=int(rng.integers(0, h + 1)))
        report = hat_equivalence_check(a, BlockWeight(np.eye(f), np.zeros((f, h)), w_small))
        assert len(set(report.conditions.values())) == 1
        # the gram of the lift splits over the two ranges as a rank identity
        gram = a.conj().T @ a + w_small
        assert matrix_rank(gram) == matrix_rank(np.hstack([a.conj().T @ a, w_small]))


def test_hat_equivalence_random_block_weights():
    rng = np.random.default_rng(6)
    for _ in range(30):
        f, h = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        a = cgauss(rng, f, h)
        w_full = random_psd(rng, f + h, rank=int(rng.integers(1, f + h + 1)))
        w = BlockWeight(w_full[:f, :f], w_full[:f, f:], w_full[f:, f:])
        report = hat_equivalence_check(a, w)
        assert len(set(report.conditions.values())) == 1
        if report.witness is not None:
            lifted = hat_lift(a)
            gram = lifted.conj().T @ w_full @ lifted
            target = lifted.conj().T @ w_full
            scale = max(np.linalg.norm(gram) * np.linalg.norm(report.witness), 1.0)
            assert np.linalg.norm(gram @ report.witness - target) <= 1e-8 * scale


def test_smoothing_report_identity_instance():
    report = smoothing_equivalence_report(np.eye(2), np.eye(2))
    assert report.exists
    assert np.allclose(report.witness, 0.5 * np.eye(2), atol=1e-12)


def test_smoothing_report_pure_least_squares():
    rng = np.random.default_rng(7)
    v = cgauss(rng, 3, 4)
    report = smoothing_equivalence_report(np.zeros((2, 4)), v)
    assert report.exists
    assert np.allclose(report.witness, pinv(v), atol=1e-9)


def test_smoothing_report_random_instances():
    rng = np.random.default_rng(8)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        t = cgauss(rng, int(rng.integers(1, 6)), n)
        v = cgauss(rng, int(rng.integers(1, 6)), n)
        if rng.uniform() < 0.3:
            t = random_rank_deficient(rng, t.shape[0], n, int(rng.integers(0, min(t.shape) + 1)))
        report = smoothing_equivalence_report(t, v)
        assert len(set(report.conditions.values())) == 1
        assert report.exists
        gram = t.conj().T @ t + v.conj().T @ v
        assert np.allclose(report.witness, pinv(gram) @ v.conj().T, atol=1e-9)


def test_global_solution_dominance_via_oracle():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        t = cgauss(rng, int(rng.integers(1, 5)), n)
        v = cgauss(rng, int(rng.integers(1, 5)), n)
        g = pinv(t.conj().T @ t + v.conj().T @ v) @ v.conj().T
        f = cgauss(rng, v.shape[0], 1).ravel()
        gf = g @ f
        candidate = float(np.linalg.norm(t @ gf) ** 2 + np.linalg.norm(v @ gf - f) ** 2)
        scale = max(candidate, (np.linalg.norm(t) + np.linalg.norm(v)) ** 2 * (1 + np.linalg.norm(f)) ** 2)

        def objective(gen, t=t, v=v, f=f, n=n):
            h = cgauss(gen, n, 1).ravel() * gen.uniform(0.0, 2.0)
            return float(np.linalg.norm(t @ h) ** 2 + np.linalg.norm(v @ h - f) ** 2)

        assert sampled_dominance(objective, candidate, rng, 100, slack_scale=scale)
        # the exact minimizer over the whole space agrees with the candidate value
        stacked = np.vstack([t, v])
        target = np.concatenate([np.zeros(t.shape[0], dtype=complex), f])
        oracle_value, _ = quadratic_min_over_affine(
            np.eye(stacked.shape[0]), stacked, target, full_subspace(n)
        )
        assert candidate == pytest.approx(oracle_value, abs=1e-9 * max(1.0, oracle_value))


def test_stationarity_of_operator_smoothing_minimizer():
    rng = np.random.default_rng(10)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        t = cgauss(rng, int(rng.integers(1, 5)), n)
        v = cgauss(rng, int(rng.integers(1, 5)), n)
        b0 = cgauss(rng, v.shape[0], n)
        x0 = operator_smoothing_min(t, v, b0).witness
        scale = (np.linalg.norm(t) ** 2 + np.linalg.norm(v) ** 2) * max(
            np.linalg.norm(x0), 1.0
        ) + np.linalg.norm(v) * np.linalg.norm(b0)
        for _ in range(20):
            y = cgauss(rng, n, n)
            derivative = frechet_gp(t @ x0, t @ y, 2) + frechet_gp(v @ x0 - b0, v @ y, 2)
            assert abs(derivative) <= 1e-8 * scale * max(np.linalg.norm(y), 1.0)


def _seeded_pair(seed, max_dim):
    """A seeded (T, V) with V of at least one row; T is rank-deficient for
    odd seeds."""
    rng = np.random.default_rng([21, seed])
    n = int(rng.integers(2, max_dim + 1))
    f_dim = int(rng.integers(1, n + 1))
    T = random_rank_deficient(rng, n, n, n - 1) if seed % 2 else cgauss(rng, n, n)
    return T, cgauss(rng, f_dim, n)


def _stack_solution(T, V):
    """The factorization of [T; V], the data E = [0; I] and G = [T; V]^+ E."""
    stack = factor(np.vstack([T, V]))
    E = _data(T, np.eye(V.shape[0], dtype=complex))
    return stack, E, stack.normal(E)[0]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31 - 1))
def test_dominance_accepts_the_solution_and_refuses_a_perturbed_one(seed):
    T, V = _seeded_pair(seed, 12)
    stack, E, G = _stack_solution(T, V)
    ok, gap = _dominance(T, V, G, stack, E)
    assert ok, gap
    dG = cgauss(np.random.default_rng(seed), *G.shape)
    ok, gap = _dominance(T, V, G + 1e-3 * np.linalg.norm(G) / np.linalg.norm(dG) * dG, stack, E)
    assert not ok and gap > 0.0


@pytest.mark.parametrize("perturbed", [False, True], ids=["optimal", "perturbed"])
@pytest.mark.parametrize("seed", range(4))
def test_exact_dominance_agrees_with_the_sampled_oracle(seed, perturbed):
    T, V = _seeded_pair(seed, 8)
    n, f_dim = T.shape[1], V.shape[0]
    stack, E, G = _stack_solution(T, V)
    if perturbed:
        # a visibly wrong G, which random competitors h beat
        G = G + 0.5 * cgauss(np.random.default_rng(seed), n, f_dim)
    gen = np.random.default_rng(seed)
    sampled = []
    for _ in range(5):
        f = cgauss(gen, f_dim, 1).ravel()
        gf = G @ f
        candidate = float(np.linalg.norm(T @ gf) ** 2 + np.linalg.norm(V @ gf - f) ** 2)

        def objective(g, f=f):
            h = cgauss(g, n, 1).ravel()
            return float(np.linalg.norm(T @ h) ** 2 + np.linalg.norm(V @ h - f) ** 2)

        sampled.append(sampled_dominance(objective, candidate, gen, 100, max(candidate, 1.0)))
    assert _dominance(T, V, G, stack, E)[0] == all(sampled) == (not perturbed)


def test_dominance_refuses_the_zero_operator():
    T, V = _seeded_pair(3, 6)
    stack, E, G = _stack_solution(T, V)
    ok, gap = _dominance(T, V, np.zeros_like(G), stack, E)
    # J(f, 0) = ||f||^2 against a minimum below it: the gap is O(1)
    assert not ok and gap > 0.1


def test_dominance_without_rows_of_v():
    T, V = np.eye(3), np.zeros((0, 3))
    rep = smoothing_equivalence_report(T, V)
    assert rep.exists
    assert rep.diagnostics["worst_dominance_gap"] == 0.0


@pytest.mark.parametrize("seed", [0, 1])
def test_a_perturbed_solution_is_refused(monkeypatch, seed):
    T, V = _seeded_pair(seed, 8)
    assert smoothing_equivalence_report(T, V).exists
    # the residual stays the exact solve's, so the other flags still hold;
    # only the dominance form sees the error in G
    perturb_stack_solve(monkeypatch, (T.shape[0] + V.shape[0], T.shape[1]))
    with pytest.raises(EquivalenceViolation) as err:
        smoothing_equivalence_report(T, V)
    assert err.value.diagnostics["conditions"]["global_dominance"] is False
    with pytest.raises(EquivalenceViolation):
        tv_report(T, V)
