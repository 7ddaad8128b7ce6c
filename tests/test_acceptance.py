"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All expected values are recomputed by the oracles module or frozen from
hand derivations before being asserted against solver or CLI output.
"""

import json

import numpy as np

from conftest import cgauss, random_psd, random_rank_deficient, random_subspace
from opapprox import (
    Subspace,
    frechet_gp,
    full_subspace,
    is_abstract_spline,
    is_compatible,
    null_basis,
    owls_min,
    operator_spline_min,
    pinv,
    psd_sqrt,
    range_basis,
    schatten_norm,
    shorted,
    smoothing_equivalence_report,
    spline_solve,
    weighted_schatten_norm,
    wls_existence_report,
    global_spline_solution,
    hat_equivalence_check,
    hat_lift,
    BlockWeight,
)
from opapprox.cli import main
from opapprox.manifest import matrix_from_json, read_matrix, write_matrix
from opapprox.oracles import quadratic_min_over_affine, sampled_dominance, shorted_variational


def _verdict(label, ok):
    print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, label


def _random_operator_weight(rng, allow_singular=True):
    f = int(rng.integers(2, 9))
    h = int(rng.integers(1, f + 1))
    a = cgauss(rng, f, h)
    if allow_singular and rng.uniform() < 0.4:
        a = random_rank_deficient(rng, f, h, int(rng.integers(0, h + 1)))
    rank_w = int(rng.integers(1, f + 1)) if allow_singular else f
    return a, random_psd(rng, f, rank=rank_w)


def test_criterion_1_minimum_value_identity():
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(200):
        a, w = _random_operator_weight(rng)
        p = float(rng.integers(1, 4))
        rep = owls_min(a, w, p)
        value, x0 = rep.min_value, rep.witness
        closed = schatten_norm(psd_sqrt(shorted(w, range_basis(a))), p)
        achieved = weighted_schatten_norm(a @ x0 - np.eye(a.shape[0]), w, p)
        top = max(value, closed, achieved)
        if top > 1e-6:
            ok &= abs(value - closed) <= 1e-8 * top
            ok &= abs(achieved - value) <= 1e-8 * top
        else:
            ok &= top <= 1e-10 * max(np.linalg.norm(w), 1.0)
    _verdict("C1 minimum-value identity", ok)


def test_criterion_2_shorted_variational_identity():
    rng = np.random.default_rng(102)
    ok = True
    for _ in range(20):
        n = int(rng.integers(2, 9))
        w = random_psd(rng, n, rank=int(rng.integers(1, n + 1)))
        s = random_subspace(rng, n, int(rng.integers(0, n + 1)))
        sigma = shorted(w, s)
        lam_max = max(np.linalg.eigvalsh(w).max(), 1e-300)
        eig_sigma = np.linalg.eigvalsh(sigma)
        eig_gap = np.linalg.eigvalsh(w - sigma)
        ok &= eig_sigma.min() >= -1e-10 * lam_max
        ok &= eig_gap.min() >= -1e-10 * lam_max
        for _ in range(100):
            x = cgauss(rng, n, 1).ravel()
            direct = float(np.real(x.conj() @ sigma @ x))
            oracle = shorted_variational(w, s, x)
            ok &= abs(direct - oracle) <= 1e-8 * np.linalg.norm(w) * np.linalg.norm(x) ** 2
    _verdict("C2 shorted variational identity", ok)


def test_criterion_3_wls_equivalence_chain():
    rng = np.random.default_rng(103)
    ok = True
    for _ in range(200):
        a, w = _random_operator_weight(rng)
        report = wls_existence_report(a, w)
        ok &= len(set(report.conditions.values())) == 1
        ok &= report.exists
    _verdict("C3 weighted least squares equivalence chain", ok)


def _random_pair_tv(rng):
    n = int(rng.integers(2, 8))
    t = cgauss(rng, int(rng.integers(1, 7)), n)
    if rng.uniform() < 0.3:
        t = random_rank_deficient(rng, t.shape[0], n, int(rng.integers(0, min(t.shape) + 1)))
    v = cgauss(rng, int(rng.integers(1, 7)), n)
    if rng.uniform() < 0.3:
        v = random_rank_deficient(rng, v.shape[0], n, int(rng.integers(1, min(v.shape) + 1)))
    return t, v


def test_criterion_4_spline_and_smoothing_chains():
    rng = np.random.default_rng(104)
    ok = True
    for _ in range(50):
        t, v = _random_pair_tv(rng)
        n = v.shape[1]

        smooth = smoothing_equivalence_report(t, v)
        ok &= len(set(smooth.conditions.values())) == 1 and smooth.exists
        gram = t.conj().T @ t + v.conj().T @ v
        ok &= np.allclose(smooth.witness, pinv(gram) @ v.conj().T, atol=1e-9)

        x0 = operator_spline_min(t, v, v, 2).witness
        g = global_spline_solution(t, v)
        cols_ok = all(
            is_abstract_spline(t, v, np.eye(n)[:, i], g[:, i]) for i in range(n)
        )
        compat_ok = is_compatible(t.conj().T @ t, null_basis(v)).compatible
        ok &= cols_ok and compat_ok
    _verdict("C4 spline and smoothing equivalence chains", ok)


def test_criterion_5_spline_optimality():
    rng = np.random.default_rng(105)
    ok = True
    for _ in range(40):
        t, v = _random_pair_tv(rng)
        n = v.shape[1]
        f0 = v @ cgauss(rng, n, 1).ravel()
        sol = spline_solve(t, v, f0)
        ok &= np.linalg.norm(v @ sol.witness[:, 0] - f0) <= 1e-8 * max(np.linalg.norm(f0), 1e-300)

        null_v = null_basis(v)
        nv = null_v.basis
        if nv.shape[1]:
            candidate = sol.min_value**2
            scale = max(candidate, np.linalg.norm(t) ** 2 * (1 + np.linalg.norm(sol.witness[:, 0])) ** 2)

            def objective(g, t=t, h=sol.witness[:, 0], nv=nv):
                z = nv @ (cgauss(g, nv.shape[1], 1).ravel() * g.uniform(0.0, 2.0))
                return float(np.linalg.norm(t @ (h + z)) ** 2)

            ok &= sampled_dominance(objective, candidate, rng, 100, slack_scale=scale)
            # the exact minimum over h + N(V) agrees with the candidate value
            oracle_value, _ = quadratic_min_over_affine(
                np.eye(t.shape[0]), t, -t @ sol.witness[:, 0], null_v
            )
            ok &= abs(candidate - oracle_value) <= 1e-9 * scale

        b0 = v @ cgauss(rng, n, n)
        p = float(rng.integers(1, 4))
        rep = operator_spline_min(t, v, b0, p)
        value, x0 = rep.min_value, rep.witness
        closed = schatten_norm(psd_sqrt(shorted(t.conj().T @ t, null_basis(v))) @ (pinv(v) @ b0), p)
        top = max(value, closed)
        if top > 1e-6:
            ok &= abs(value - closed) <= 1e-8 * top
        anchor = pinv(v) @ b0
        ok &= all(is_abstract_spline(t, v, anchor[:, i], x0[:, i]) for i in range(n))
    _verdict("C5 spline optimality and value identity", ok)


def test_criterion_6_frechet_derivative():
    ok = True
    for p in (2.0, 3.0, 4.0):
        rng = np.random.default_rng(600 + int(p))
        for _ in range(50):
            n = int(rng.integers(2, 9))
            x = cgauss(rng, n, n)
            y = cgauss(rng, n, n)
            analytic = frechet_gp(x, y, p)
            step = 1e-5
            fd = (
                schatten_norm(x + step * y, p) ** p - schatten_norm(x - step * y, p) ** p
            ) / (2 * step)
            ok &= abs(analytic - fd) <= 1e-5 * max(abs(analytic), abs(fd))
    _verdict("C6 norm-power derivative matches finite differences", ok)


def test_criterion_7_lift_assembly():
    rng = np.random.default_rng(107)
    ok = True
    for _ in range(50):
        f, h = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        a = cgauss(rng, f, h)
        if rng.uniform() < 0.3:
            a = random_rank_deficient(rng, f, h, int(rng.integers(0, min(f, h) + 1)))
        if rng.uniform() < 0.5:
            w_full = random_psd(rng, f + h, rank=int(rng.integers(1, f + h + 1)))
            w = BlockWeight(w_full[:f, :f], w_full[:f, f:], w_full[f:, f:])
        else:
            w = BlockWeight(
                np.eye(f),
                np.zeros((f, h)),
                random_psd(rng, h, rank=int(rng.integers(0, h + 1))),
            )
        report = hat_equivalence_check(a, w)
        flags = report.conditions
        ok &= flags["hat_w_inverse_exists"] == (
            flags["optimal_inverse_exists"] and flags["companion_eq_solvable"]
        )
        if report.witness is not None:
            lifted = hat_lift(a)
            w_mat = w.assemble()
            gram = lifted.conj().T @ w_mat @ lifted
            target = lifted.conj().T @ w_mat
            scale = max(np.linalg.norm(gram) * np.linalg.norm(report.witness), np.linalg.norm(target), 1.0)
            ok &= np.linalg.norm(gram @ report.witness - target) <= 1e-8 * scale
    _verdict("C7 lift equivalence and assembled solution", ok)


def _write_instance(tmp_path, name, spec, matrices):
    for role, m in matrices.items():
        write_matrix(str(tmp_path / f"{name}_{role}.mtx"), np.atleast_2d(np.asarray(m, dtype=complex)))
        spec[role] = f"{name}_{role}.mtx"
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(spec))
    return str(path)


def _cli_report(tmp_path, name, spec, matrices):
    path = _write_instance(tmp_path, name, spec, matrices)
    out = tmp_path / f"{name}.report.json"
    code = main([path, "--out", str(out)])
    assert code == 0, f"{name} exited {code}"
    return json.loads(out.read_text())


def test_criterion_8_hand_derived_instances_via_cli(tmp_path):
    ok = True

    # weighted least squares: minimizer of 3z^2 - 4z + 2
    a = np.array([[1.0], [1.0]])
    w = np.diag([2.0, 1.0])
    x = np.array([1.0, 0.0])
    _, u_oracle = quadratic_min_over_affine(w, a, x, full_subspace(1))
    payload = _cli_report(
        tmp_path, "wls", {"problem": "wls"}, {"A": a, "W": w, "x": x.reshape(-1, 1)}
    )
    u_cli = matrix_from_json(payload["witness"])[0, 0]
    ok &= abs(u_oracle[0] - 2.0 / 3.0) <= 1e-12
    ok &= abs(u_cli - u_oracle[0]) <= 1e-10

    # shorted operator, reconstructed from the variational oracle by polarization
    w2 = np.array([[2.0, 1.0], [1.0, 1.0]])
    s_span = np.array([[1.0], [0.0]])
    s = Subspace(s_span.astype(complex))
    q = lambda vec: shorted_variational(w2, s, vec)
    e1, e2 = np.eye(2)
    sig_oracle = np.zeros((2, 2), dtype=complex)
    sig_oracle[0, 0] = q(e1)
    sig_oracle[1, 1] = q(e2)
    re12 = (q(e1 + e2) - q(e1) - q(e2)) / 2.0
    im12 = (q(e1 + 1j * e2) - q(e1) - q(e2)) / 2.0
    sig_oracle[0, 1] = re12 + 1j * im12
    sig_oracle[1, 0] = np.conj(sig_oracle[0, 1])
    payload = _cli_report(tmp_path, "short", {"problem": "shorted"}, {"W": w2, "S": s_span})
    sig_cli = matrix_from_json(payload["witness"])
    ok &= np.max(np.abs(sig_oracle - np.diag([0.0, 0.5]))) <= 1e-12
    ok &= np.max(np.abs(sig_cli - sig_oracle)) <= 1e-10

    # operator weighted least squares: columnwise oracle sum, value 2
    a3 = np.array([[1.0], [0.0]])
    w3 = np.diag([1.0, 4.0])
    oracle_sq = sum(
        quadratic_min_over_affine(w3, a3, np.eye(2)[:, j], full_subspace(1))[0]
        for j in range(2)
    )
    payload = _cli_report(
        tmp_path, "owls", {"problem": "owls", "p": 2}, {"A": a3, "W": w3}
    )
    ok &= abs(np.sqrt(oracle_sq) - 2.0) <= 1e-12
    ok &= abs(payload["min_value"] - np.sqrt(oracle_sq)) <= 1e-10

    # spline: one free parameter, h = (1, -1/2), value sqrt(1/2)
    t4 = np.array([[1.0, 1.0], [0.0, 1.0]])
    v4 = np.array([[1.0, 0.0]])
    h0 = pinv(v4) @ np.array([1.0])
    nb = null_basis(v4)
    val4, z4 = quadratic_min_over_affine(np.eye(2), t4, -t4 @ h0, nb)
    h_oracle = h0 + z4
    payload = _cli_report(
        tmp_path, "spline", {"problem": "spline"}, {"T": t4, "V": v4, "f0": [[1.0]]}
    )
    h_cli = matrix_from_json(payload["witness"]).ravel()
    ok &= np.max(np.abs(h_oracle - np.array([1.0, -0.5]))) <= 1e-12
    ok &= np.max(np.abs(h_cli - h_oracle)) <= 1e-10
    ok &= abs(payload["min_value"] - np.sqrt(0.5)) <= 1e-10

    # smoothing: stacked quadratic, h = 2/5 with objective 1/5
    stacked = np.array([[1.0], [2.0]])
    target = np.array([0.0, 1.0])
    val5, h5 = quadratic_min_over_affine(np.eye(2), stacked, target, full_subspace(1))
    payload = _cli_report(
        tmp_path,
        "smooth",
        {"problem": "smoothing"},
        {"T": [[1.0]], "V": [[2.0]], "f0": [[1.0]]},
    )
    ok &= abs(h5[0] - 0.4) <= 1e-12 and abs(val5 - 0.2) <= 1e-12
    ok &= abs(matrix_from_json(payload["witness"])[0, 0] - h5[0]) <= 1e-10
    ok &= abs(payload["min_value"] - val5) <= 1e-10

    # scalar regularized inverse: minimizer of (h - f)^2 + h^2 is f/2
    lift = np.array([[1.0], [1.0]])
    val6, h6 = quadratic_min_over_affine(np.eye(2), lift, np.array([1.0, 0.0]), full_subspace(1))
    payload = _cli_report(
        tmp_path,
        "optinv",
        {"problem": "opt-inverse"},
        {"A": [[1.0]], "W11": [[1.0]], "W12": [[0.0]], "W22": [[1.0]]},
    )
    ok &= abs(h6[0] - 0.5) <= 1e-12
    ok &= abs(matrix_from_json(payload["witness"])[0, 0] - h6[0]) <= 1e-10

    _verdict("C8 hand-derived instances end-to-end via CLI", ok)


def test_criterion_9_cli_determinism_and_roundtrip(tmp_path):
    ok = True
    rng = np.random.default_rng(109)
    t = cgauss(rng, 3, 5)
    v = cgauss(rng, 2, 5)
    path = _write_instance(
        tmp_path, "det", {"problem": "report", "seed": 11}, {"T": t, "V": v}
    )
    out1, out2 = tmp_path / "det1.json", tmp_path / "det2.json"
    assert main([path, "--out", str(out1)]) == 0
    assert main([path, "--out", str(out2)]) == 0
    ok &= out1.read_bytes() == out2.read_bytes()

    # inline witnesses round-trip exactly through the 17-digit serialization
    payload = json.loads(out1.read_text())
    g_cli = matrix_from_json(payload["witness"])
    gram = t.conj().T @ t + v.conj().T @ v
    g_direct = pinv(gram) @ v.conj().T
    ok &= np.max(np.abs(g_cli - g_direct)) <= 1e-12

    # matrix-market round trip is exact for emitted witnesses
    for m in (g_direct, cgauss(rng, 7, 4), rng.standard_normal((5, 1))):
        p = str(tmp_path / "rt.mtx")
        write_matrix(p, np.atleast_2d(m))
        ok &= np.array_equal(read_matrix(p), np.atleast_2d(np.asarray(m, dtype=complex)))
    _verdict("C9 CLI determinism and exact file round-trip", ok)
