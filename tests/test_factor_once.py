"""Each existence report, and each registry row run through the CLI,
factors each distinct operator a constant number of times, never passes
the same matrix to two SVDs, and decomposes each distinct weight once, and
the batched basis solves of a report agree with the public single-vector
solvers.  A factorization builds its range and nullspace once, and a
compatibility certificate solves for its projection only when it is read."""

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
    operator_smoothing_min,
    operator_spline_min,
    optimal_inverse,
    owls_min,
    smoothing_equivalence_report,
    smoothing_solve,
    spline_equivalence_report,
    spline_solve,
    tv_report,
    wls_existence_report,
    wlss_solve,
)
from opapprox.cli import execute
from opapprox.errors import InconsistentDims
from opapprox.linalg import as_matrix, factor, normal_bound, psd_sqrt, range_basis
from opapprox.manifest import ProblemManifest
from opapprox.problems import REGISTRY
from opapprox.shorted import _certificate
from opapprox.spline import _spline_columns


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


def _count_calls(monkeypatch, owner, name, calls, record=None):
    """Count calls of ``owner.name`` in ``calls[0]``, through every opapprox
    alias of it; ``record`` also collects each call's first argument."""
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        if record is not None:
            record.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    for modname, module in list(sys.modules.items()):
        if modname.startswith("opapprox") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def svd_calls(monkeypatch):
    """Count svd_with_rank calls, through every opapprox alias of it."""
    return _count_calls(monkeypatch, opapprox.linalg, "svd_with_rank", [0])


@pytest.fixture
def eig_calls(monkeypatch):
    """Count Hermitian eigendecompositions, numpy's eigh and eigvalsh
    together, through every alias of them."""
    calls = [0]
    _count_calls(monkeypatch, np.linalg, "eigh", calls)
    _count_calls(monkeypatch, np.linalg, "eigvalsh", calls)
    return calls


REPORTS = {
    "wls": lambda A, W, T, V, blocks: wls_existence_report(A, W),
    "wls_p": lambda A, W, T, V, blocks: wls_existence_report(A, W, p=1.5),
    "smoothing": lambda A, W, T, V, blocks: smoothing_equivalence_report(T, V),
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


# every report, and the two operator minima that short a weight
CALLS = {
    **REPORTS,
    "tv_report": lambda A, W, T, V, blocks: tv_report(T, V),
    "owls": lambda A, W, T, V, blocks: owls_min(A, W, 1.5),
    "op_spline": lambda A, W, T, V, blocks: operator_spline_min(T, V, V @ T, 1.5),
}

# the distinct weights each call decomposes, one eigendecomposition each;
# T*T is never formed, and a shorted weight is read through a root.  The
# smoothing chain adds one eigvalsh that decomposes no weight: the largest
# eigenvalue of its m x m dominance form
WEIGHTS = {
    "wls": 1,  # W, whose root W^{1/2} A is factored
    "wls_p": 1,  # W; W shorted to R(A) is read off the factorization of W^{1/2} A
    "owls": 1,  # the same
    "smoothing": 1,  # the dominance form; the stack [T; V] is factored, not T*T + V*V
    "spline": 0,  # T*T shorted to N(V) is read off the factorization of T N
    "op_spline": 0,  # the same
    "tv_report": 1,  # the smoothing chain's dominance form; T*T shorted as in spline
    "hat": 0,  # the block weight is decomposed when it is built
}


@pytest.mark.parametrize("deficient", [False, True], ids=["full_rank", "rank_deficient"])
@pytest.mark.parametrize("report", sorted(WEIGHTS))
def test_one_eigendecomposition_per_distinct_weight(eig_calls, report, deficient):
    for n in (8, 32):
        args = _instances(n, deficient)
        eig_calls[0] = 0
        CALLS[report](*args)
        assert eig_calls[0] == WEIGHTS[report], n


# numpy SVDs per call.  The compatibility certificate of (W, S) takes two:
# the W-orthogonal complement and the stacked bases (two more when S meets
# S^{perp_W}, which none of these instances does).  A subspace complement
# is read off the factorization that gave the subspace, never re-derived.
SVDS = {
    "wls": 4,  # W^{1/2} A, A, and the certificate of (W, R(A))
    "wls_p": 6,  # those and the two p-norms: the projected root and the achieved norm
    "owls": 4,  # W^{1/2} A, A, the two p-norms
    "smoothing": 4,  # V, the certificate of (T*T, N(V)), the stack [T; V]
    "spline": 6,  # V, the certificate, T N and the two p-norms
    "op_spline": 4,  # V, T N, the two p-norms
    "tv_report": 7,  # the spline report's six and the stack [T; V]
    "hat": 1,  # the lifted root, for the optimal inverse, companion and lift
}


@pytest.mark.parametrize("deficient", [False, True], ids=["full_rank", "rank_deficient"])
@pytest.mark.parametrize("report", sorted(SVDS))
def test_svds_per_call(monkeypatch, report, deficient):
    calls = _count_calls(monkeypatch, np.linalg, "svd", [0])
    for n in (8, 32):
        args = _instances(n, deficient)
        calls[0] = 0
        CALLS[report](*args)
        assert calls[0] == SVDS[report], n


@pytest.mark.parametrize("deficient", [False, True], ids=["full_rank", "rank_deficient"])
@pytest.mark.parametrize("report", sorted(CALLS))
def test_no_matrix_is_decomposed_twice(monkeypatch, report, deficient):
    inputs = []
    _count_calls(monkeypatch, np.linalg, "svd", [0], record=inputs)
    for n in (8, 32):
        args = _instances(n, deficient)
        inputs.clear()
        CALLS[report](*args)
        for i, later in enumerate(inputs):
            for earlier in inputs[:i]:
                assert not (
                    later.shape == earlier.shape
                    and np.linalg.norm(later - earlier) <= 1e-12 * np.linalg.norm(earlier)
                ), (n, i, later.shape)


def _overlapping_pair(n, overlap):
    """A weight W and a subspace S; S meets N(W), hence S^{perp_W}, in
    ``overlap`` dimensions."""
    rng = np.random.default_rng([n, overlap])
    W = random_psd(rng, n, rank=n - 2)
    null_w = np.linalg.eigh(W)[1][:, :overlap]  # eigenvalues ascend: N(W) comes first
    S = range_basis(np.hstack([null_w, cgauss(rng, n, n // 4)]))
    return W, S


@pytest.mark.parametrize("overlap", [0, 2])
def test_is_compatible_makes_one_svd_of_the_stacked_bases(monkeypatch, overlap):
    inputs = []
    calls = _count_calls(monkeypatch, opapprox.linalg, "svd_with_rank", [0], record=inputs)
    for n in (8, 32):
        W, S = _overlapping_pair(n, overlap)
        inputs.clear()
        calls[0] = 0
        cert = is_compatible(W, S)
        assert cert.compatible
        P = cert.s_perp_w_basis.basis
        assert cert.sum_rank == n
        stacked = [m for m in inputs if np.array_equal(m, np.hstack([S.basis, P]))]
        assert len(stacked) == 1
        # the overlap is read off the same SVD, not off [S | -P]
        assert not any(np.array_equal(m, np.hstack([S.basis, -P])) for m in inputs)
        # W(S)-perp, the stacked bases, and with an overlap its basis and
        # its complement inside S^{perp_W}
        assert calls[0] == (2 if overlap == 0 else 4)
        if overlap:
            q = cert.projection
            assert np.linalg.norm(q @ q - q) <= 1e-8 * np.linalg.norm(q)


@pytest.mark.parametrize("deficient", [False, True], ids=["full_rank", "rank_deficient"])
def test_tv_report_decides_compatibility_once(monkeypatch, deficient):
    # the module: the package attribute opapprox.shorted is the function
    calls = _count_calls(monkeypatch, sys.modules["opapprox.shorted"], "_certificate", [0])
    for n in (8, 32):
        matrices = _role_matrices(n, deficient)
        calls[0] = 0
        _execute(ROWS["report:T,V"], matrices)
        assert calls[0] == 1, n


@pytest.mark.parametrize("deficient", [False, True], ids=["full_rank", "rank_deficient"])
@pytest.mark.parametrize("row", ["report:A,W", "report:T,V"])
def test_report_rows_form_no_projection(monkeypatch, row, deficient):
    # the rows read the certificate's verdict and sum rank, never its witness
    calls = _count_calls(monkeypatch, np.linalg, "solve", [0])
    for n in (8, 32):
        _execute(ROWS[row], _role_matrices(n, deficient))
        assert calls[0] == 0, n


@pytest.mark.parametrize("deficient", [False, True], ids=["full_rank", "rank_deficient"])
def test_compat_row_forms_its_projection_once(monkeypatch, deficient):
    calls = _count_calls(monkeypatch, np.linalg, "solve", [0])
    matrices = _role_matrices(16, deficient)
    report = _execute(ROWS["compat:W,S"], matrices)
    assert calls[0] == 1
    # the projection onto S along the null side, as an eager certificate formed it
    cert = is_compatible(matrices["W"], range_basis(matrices["S"]))
    S, null_side = cert.s_basis.basis, cert.null_side.basis
    n = S.shape[0]
    eager = S @ np.linalg.solve(np.hstack([S, null_side]), np.eye(n, dtype=complex))[: S.shape[1]]
    assert report.witness.tobytes() == eager.tobytes()
    assert cert.projection is cert.projection


def test_incompatible_certificate_has_no_projection():
    cert = _certificate(range_basis(np.eye(4)[:, :2]), range_basis(np.eye(4)[:, :1]), DEFAULT_TOL)
    assert not cert.compatible and cert.projection is None


@pytest.mark.parametrize("deficient", [False, True], ids=["full_rank", "rank_deficient"])
def test_range_and_null_are_built_once(monkeypatch, deficient):
    A = _instances(8, deficient)[0]
    f = factor(A)
    calls = _count_calls(monkeypatch, opapprox.linalg, "Subspace", [0])
    assert f.range() is f.range()
    assert f.null() is f.null()
    assert calls[0] == 2
    assert f.range().dim + f.null().dim == A.shape[1]


def test_as_matrix_returns_a_finite_complex_matrix_as_is():
    a = cgauss(np.random.default_rng(0), 3, 2)
    assert as_matrix(a) is a
    view = a.T  # a view is not copied either
    assert as_matrix(view) is view
    for bad in (np.nan, np.inf):
        b = a.copy()
        b[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            as_matrix(b)
    with pytest.raises(InconsistentDims):
        as_matrix(np.zeros((2, 2, 2), dtype=complex))
    # other input is converted as before
    real = np.arange(6.0).reshape(2, 3)
    assert as_matrix(real).dtype == complex and np.array_equal(as_matrix(real), real)
    assert np.array_equal(as_matrix([[1, 2], [3, 4]]), np.array([[1, 2], [3, 4]], dtype=complex))
    assert as_matrix([1.0, 2.0]).shape == (1, 2) and as_matrix(3.0).shape == (1, 1)
    with pytest.raises(ValueError, match="non-finite"):
        as_matrix([[1.0, np.inf]])


def _role_matrices(n, deficient):
    """A matrix for every registry role; f0 and B0 lie in R(V), so the
    spline rows solve."""
    A, W, T, V, blocks = _instances(n, deficient)
    rng = np.random.default_rng([n, int(deficient), 1])
    return {
        "A": A, "W": W, "x": cgauss(rng, n, 1),
        "T": T, "V": V, "f0": V @ cgauss(rng, n, 1), "B0": V @ cgauss(rng, n, n),
        "W11": blocks.w11, "W12": blocks.w12, "W22": blocks.w22,
        "S": cgauss(rng, n, n // 4),
    }


def _execute(row, matrices, p=None):
    manifest = ProblemManifest(
        problem=row.kind,
        matrices={role: matrices[role] for role in row.roles},
        p=1.5 if row.needs_p else p,
        tolerances=DEFAULT_TOL,
        seed=0,
    )
    return execute(manifest)


ROWS = {f"{row.kind}:{','.join(row.roles)}": row for row in REGISTRY}


@pytest.mark.parametrize("deficient", [False, True], ids=["full_rank", "rank_deficient"])
@pytest.mark.parametrize("row", sorted(ROWS))
def test_registry_row_factorization_count_does_not_grow_with_n(svd_calls, row, deficient):
    counts = []
    for n in (8, 32):
        matrices = _role_matrices(n, deficient)
        svd_calls[0] = 0
        _execute(ROWS[row], matrices)
        counts.append(svd_calls[0])
    assert counts[0] == counts[1], counts
    assert counts[0] > 0


# numpy SVDs per manifest with p = 1.5, those of the library call the row
# runs: the closed-form minimum is the p-norm of the root (I - P) W^{1/2}
# of W shorted to R(A), with P read off the factorization of W^{1/2} A, so
# the shorted weight itself is never formed or decomposed
SVDS_WITH_P = {"owls:A,W": SVDS["owls"], "report:A,W": SVDS["wls_p"]}


@pytest.mark.parametrize("deficient", [False, True], ids=["full_rank", "rank_deficient"])
@pytest.mark.parametrize("row", sorted(SVDS_WITH_P))
def test_owls_value_takes_no_svd_of_the_shorted_root(monkeypatch, row, deficient):
    calls = _count_calls(monkeypatch, np.linalg, "svd", [0])
    for n in (8, 32):
        matrices = _role_matrices(n, deficient)
        calls[0] = 0
        report = _execute(ROWS[row], matrices, p=1.5)
        assert report.min_value is not None
        assert calls[0] == SVDS_WITH_P[row], n


SOLVERS = {
    "owls": lambda m: owls_min(m["A"], m["W"], 1.5),
    "spline": lambda m: spline_solve(m["T"], m["V"], m["f0"]),
    "op-spline": lambda m: operator_spline_min(m["T"], m["V"], m["B0"], 1.5),
    "op-smoothing": lambda m: operator_smoothing_min(m["T"], m["V"], m["B0"]),
    "opt-inverse": lambda m: optimal_inverse(m["A"], BlockWeight(m["W11"], m["W12"], m["W22"])),
}


@pytest.mark.parametrize("deficient", [False, True], ids=["full_rank", "rank_deficient"])
@pytest.mark.parametrize("kind", sorted(SOLVERS))
def test_registry_row_factors_nothing_beyond_its_solver(svd_calls, kind, deficient):
    # the rank and nullity diagnostics are read off the solver's factorizations
    matrices = _role_matrices(16, deficient)
    row = next(row for row in REGISTRY if row.kind == kind)
    svd_calls[0] = 0
    assert _execute(row, matrices).exists
    through_registry = svd_calls[0]
    svd_calls[0] = 0
    SOLVERS[kind](matrices)
    assert through_registry == svd_calls[0]


def _rel(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


@pytest.mark.parametrize("deficient", [False, True], ids=["full_rank", "rank_deficient"])
@pytest.mark.parametrize("seed", range(3))
def test_wls_report_columns_match_wlss_solve(deficient, seed):
    A, W, *_ = _instances(12, deficient, seed)
    rep = wls_existence_report(A, W)
    eye = np.eye(A.shape[0], dtype=complex)
    # each column is judged by the rule of the whole solve on the root W^{1/2} A
    root = psd_sqrt(W)
    bound = normal_bound(root @ A, rep.witness, root)
    residuals = []
    for i in range(A.shape[0]):
        u = wlss_solve(A, W, eye[:, i])
        # column i of the weighted inverse is the solve for e_i
        assert _rel(rep.witness[:, i], u) <= 1e-12
        residuals.append(np.linalg.norm(A.conj().T @ W @ (A @ u - eye[:, i])))
    assert rep.conditions["wlss_for_all_x"] == all(r <= bound for r in residuals)


@pytest.mark.parametrize("deficient", [False, True], ids=["full_rank", "rank_deficient"])
@pytest.mark.parametrize("seed", range(3))
def test_wls_report_certificate_is_is_compatible(deficient, seed):
    A, W, *_ = _instances(12, deficient, seed)
    got = wls_existence_report(A, W)
    want = is_compatible(W, range_basis(A))
    assert got.conditions["compatible"] == want.compatible
    assert got.diagnostics["sum_rank"] == want.sum_rank


@pytest.mark.parametrize("deficient", [False, True], ids=["full_rank", "rank_deficient"])
@pytest.mark.parametrize("seed", range(3))
def test_smoothing_report_columns_match_smoothing_solve(deficient, seed):
    _, _, T, V, _ = _instances(12, deficient, seed)
    rep = smoothing_equivalence_report(T, V)
    eye = np.eye(V.shape[0], dtype=complex)
    # the root of T*T + V*V is the stack [T; V], and the basis is [0; I]
    basis = np.vstack([np.zeros((T.shape[0], V.shape[0])), eye])
    bound = normal_bound(np.vstack([T, V]), rep.witness, basis)
    sols = [smoothing_solve(T, V, eye[:, i]) for i in range(V.shape[0])]
    for i, sol in enumerate(sols):
        assert _rel(rep.witness[:, i], sol.witness[:, 0]) <= 1e-12
    assert rep.conditions["pointwise_solvable"] == all(
        s.residuals["normal_equation"] <= bound for s in sols
    )


@pytest.mark.parametrize("deficient", [False, True], ids=["full_rank", "rank_deficient"])
@pytest.mark.parametrize("seed", range(3))
def test_spline_report_columns_match_single_vector_checks(deficient, seed):
    _, _, T, V, _ = _instances(12, deficient, seed)
    rep = spline_equivalence_report(T, V)
    n = V.shape[1]
    eye = np.eye(n, dtype=complex)

    fv = factor(V)
    H0 = fv.lstsq(V)[0]
    anchors = _spline_columns(T, fv, H0, DEFAULT_TOL)[0]
    sols = [spline_solve(T, V, V @ eye[:, i]) for i in range(n)]
    for i, sol in enumerate(sols):
        assert _rel(anchors[:, i], sol.witness[:, 0]) <= 1e-12
    # the correction N C of the anchors is the least-squares solve on T N
    N = fv.null().basis
    bound = normal_bound(T @ N, N.conj().T @ (anchors - H0), T @ H0)
    assert rep.conditions["spline_pointwise_nonempty"] == all(
        s.residuals["normal_equation"] <= bound for s in sols
    )

    G = global_spline_solution(T, V)
    assert rep.conditions["spline_global_columns"] == all(
        is_abstract_spline(T, V, eye[:, i], G[:, i]) for i in range(n)
    )
