import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import cgauss
from opapprox import DimensionError, ParseError
from opapprox.cli import execute, main
from opapprox.manifest import (
    ResultReport,
    canonical_json,
    matrix_from_json,
    parse_manifest,
    read_matrix,
    render_report,
    write_matrix,
)


def _write_manifest(tmp_path, name, spec, matrices):
    for role, m in matrices.items():
        write_matrix(str(tmp_path / f"{role}.mtx"), np.atleast_2d(np.asarray(m, dtype=complex)))
        spec[role] = f"{role}.mtx"
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


def _col(v):
    return np.asarray(v, dtype=complex).reshape(-1, 1)


def _wls_manifest(tmp_path):
    return _write_manifest(
        tmp_path,
        "wls.json",
        {"problem": "wls", "seed": 1},
        {"A": [[1.0], [1.0]], "W": np.diag([2.0, 1.0]), "x": _col([1.0, 0.0])},
    )


def test_parse_manifest_roundtrip(tmp_path):
    manifest = parse_manifest(_wls_manifest(tmp_path))
    assert manifest.problem == "wls"
    assert manifest.seed == 1
    assert set(manifest.matrices) == {"A", "W", "x"}


def test_parse_rejects_unknown_field(tmp_path):
    path = _write_manifest(
        tmp_path,
        "bad.json",
        {"problem": "wls", "typo_field": 1},
        {"A": [[1.0], [1.0]], "W": np.eye(2), "x": _col([1.0, 0.0])},
    )
    with pytest.raises(ParseError):
        parse_manifest(path)


def test_parse_rejects_bad_p(tmp_path):
    path = _write_manifest(
        tmp_path,
        "bad_p.json",
        {"problem": "owls", "p": 0.5},
        {"A": [[1.0], [1.0]], "W": np.eye(2)},
    )
    with pytest.raises(ParseError):
        parse_manifest(path)


def test_parse_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        parse_manifest(str(path))


def test_missing_role_is_dimension_error(tmp_path):
    path = _write_manifest(
        tmp_path,
        "missing.json",
        {"problem": "wls"},
        {"A": [[1.0], [1.0]], "x": _col([1.0, 0.0])},
    )
    with pytest.raises(DimensionError):
        parse_manifest(path)


def test_missing_p_is_dimension_error(tmp_path):
    path = _write_manifest(
        tmp_path,
        "nop.json",
        {"problem": "owls"},
        {"A": [[1.0], [1.0]], "W": np.eye(2)},
    )
    with pytest.raises(DimensionError):
        parse_manifest(path)


def test_execute_wls_reproduces_hand_value(tmp_path):
    report = execute(parse_manifest(_wls_manifest(tmp_path)))
    assert report.exists
    assert abs(report.witness[0, 0] - 2.0 / 3.0) < 1e-12
    assert report.residuals["normal_equation"] < 1e-12


def test_cli_exit_codes_for_parse_and_dims(tmp_path):
    bad = tmp_path / "x.json"
    bad.write_text("{bad")
    assert main([str(bad)]) == 64

    missing = _write_manifest(
        tmp_path, "m.json", {"problem": "wls"}, {"A": [[1.0], [1.0]], "x": _col([1.0, 0.0])}
    )
    assert main([missing]) == 65

    shape_clash = _write_manifest(
        tmp_path,
        "clash.json",
        {"problem": "wls"},
        {"A": [[1.0], [1.0]], "W": np.eye(3), "x": _col([1.0, 0.0])},
    )
    assert main([shape_clash]) == 65

    assert main([]) == 64  # neither manifest nor --batch
    assert main(["--batch", str(tmp_path / "empty_dir")]) == 64


def test_cli_solves_and_writes_report(tmp_path, capsys):
    path = _wls_manifest(tmp_path)
    out = tmp_path / "report.json"
    assert main([path, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["problem"] == "wls"
    witness = matrix_from_json(payload["witness"])
    assert abs(witness[0, 0] - 2.0 / 3.0) < 1e-12


def test_cli_nonexistence_exit_code(tmp_path):
    # harsh rank cutoff discards the weak direction, strict residual rejects it
    path = _write_manifest(
        tmp_path,
        "none.json",
        {"problem": "w-inverse"},
        {"A": np.diag([1.0, 1e-7]), "W": np.eye(2)},
    )
    out = tmp_path / "none.report.json"
    code = main([path, "--tol-rank", "1e-5", "--tol-res", "1e-9", "--out", str(out)])
    assert code == 2
    payload = json.loads(out.read_text())
    assert payload["exists"] is False


def test_wls_min_value_uses_manifest_tolerances(tmp_path):
    # rank_rtol 1e-5 drops the 1e-7 weight, so x's only component is unweighted
    path = _write_manifest(
        tmp_path,
        "wls_tol.json",
        {"problem": "wls", "tolerances": {"rank_rtol": 1e-5}},
        {"A": [[1.0], [0.0]], "W": np.diag([1.0, 1e-7]), "x": _col([0.0, 1.0])},
    )
    out = tmp_path / "wls_tol.report.json"
    assert main([path, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["min_value"] == 0.0


def test_cli_equivalence_violation_exit_code(tmp_path):
    # same weak-direction setup, but the rank test of the range sum still
    # succeeds, so the independently evaluated conditions disagree
    path = _write_manifest(
        tmp_path,
        "viol.json",
        {"problem": "report"},
        {"A": np.diag([1.0, 1e-7]), "W": np.eye(2)},
    )
    code = main([path, "--tol-rank", "1e-5", "--tol-res", "1e-9"])
    assert code == 3


def test_cli_determinism_byte_identical(tmp_path):
    path = _write_manifest(
        tmp_path,
        "det.json",
        {"problem": "report", "seed": 7},
        {"T": cgauss(np.random.default_rng(0), 3, 4), "V": cgauss(np.random.default_rng(1), 2, 4)},
    )
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main([path, "--out", str(out1)]) == 0
    assert main([path, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_seed_changes_nothing_deterministic(tmp_path):
    # different seed, same deterministic problem: solution identical
    path = _wls_manifest(tmp_path)
    out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
    assert main([path, "--seed", "1", "--out", str(out1)]) == 0
    assert main([path, "--seed", "2", "--out", str(out2)]) == 0
    p1, p2 = json.loads(out1.read_text()), json.loads(out2.read_text())
    assert p1["witness"] == p2["witness"]


@pytest.mark.parametrize(
    "problem,matrices,extra",
    [
        ("w-inverse", {"A": [[1.0], [0.0]], "W": np.diag([1.0, 4.0])}, {}),
        ("owls", {"A": [[1.0], [0.0]], "W": np.diag([1.0, 4.0])}, {"p": 2}),
        ("spline", {"T": [[1.0, 1.0], [0.0, 1.0]], "V": [[1.0, 0.0]], "f0": [[1.0]]}, {}),
        (
            "op-spline",
            {"T": [[1.0, 1.0], [0.0, 1.0]], "V": [[1.0, 0.0]], "B0": [[1.0, 0.0]]},
            {"p": 2},
        ),
        ("smoothing", {"T": [[1.0]], "V": [[2.0]], "f0": [[1.0]]}, {}),
        ("op-smoothing", {"T": [[1.0]], "V": [[2.0]], "B0": [[1.0]]}, {}),
        (
            "opt-inverse",
            {"A": [[1.0]], "W11": [[1.0]], "W12": [[0.0]], "W22": [[1.0]]},
            {},
        ),
        ("shorted", {"W": [[2.0, 1.0], [1.0, 1.0]], "S": [[1.0], [0.0]]}, {}),
        ("compat", {"W": [[2.0, 1.0], [1.0, 1.0]], "S": [[1.0], [0.0]]}, {}),
        (
            "report",
            {"A": [[1.0]], "W11": [[1.0]], "W12": [[0.0]], "W22": [[1.0]]},
            {},
        ),
        ("wls", {"A": [[1.0], [1.0]], "W": np.diag([2.0, 1.0]), "x": [[1.0], [0.0]]}, {}),
        ("report", {"A": [[1.0], [0.0]], "W": np.diag([1.0, 4.0])}, {"p": 2}),
        ("report", {"T": [[1.0, 1.0], [0.0, 1.0]], "V": [[1.0, 0.0]]}, {}),
    ],
)
def test_cli_every_problem_solves(tmp_path, problem, matrices, extra):
    spec = {"problem": problem, **extra}
    path = _write_manifest(tmp_path, f"{problem}.json", spec, matrices)
    out = tmp_path / f"{problem}.report.json"
    assert main([path, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["exists"] is True


def test_report_residuals_recompute_from_witness(tmp_path):
    path = _wls_manifest(tmp_path)
    out = tmp_path / "rb.json"
    assert main([path, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    u = matrix_from_json(payload["witness"]).ravel()
    a = read_matrix(str(tmp_path / "A.mtx"))
    w = read_matrix(str(tmp_path / "W.mtx"))
    x = read_matrix(str(tmp_path / "x.mtx")).ravel()
    recomputed = float(np.linalg.norm(a.conj().T @ w @ (a @ u - x)))
    assert abs(recomputed - payload["residuals"]["normal_equation"]) <= 1e-12


def test_shorted_report_matches_hand_matrix(tmp_path):
    path = _write_manifest(
        tmp_path,
        "short.json",
        {"problem": "shorted"},
        {"W": [[2.0, 1.0], [1.0, 1.0]], "S": [[1.0], [0.0]]},
    )
    out = tmp_path / "short.report.json"
    assert main([path, "--out", str(out)]) == 0
    sigma = matrix_from_json(json.loads(out.read_text())["witness"])
    assert np.allclose(sigma, np.diag([0.0, 0.5]), atol=1e-12)


def test_compat_identity_weight_projection_via_cli(tmp_path):
    s_span = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]) / np.array([np.sqrt(2), 1.0])
    path = _write_manifest(
        tmp_path,
        "compat_id.json",
        {"problem": "compat"},
        {"W": np.eye(3), "S": s_span},
    )
    out = tmp_path / "compat_id.report.json"
    assert main([path, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    q = matrix_from_json(payload["witness"])
    basis, _ = np.linalg.qr(s_span.astype(complex))
    expected = basis[:, :2] @ basis[:, :2].conj().T
    assert np.allclose(q, expected, atol=1e-10)


def test_matrix_market_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(5)
    for shape in [(3, 3), (5, 1), (2, 7)]:
        m = cgauss(rng, *shape)
        p = str(tmp_path / "m.mtx")
        write_matrix(p, m)
        assert np.array_equal(read_matrix(p), m)
    r = rng.standard_normal((4, 2))
    p = str(tmp_path / "r.mtx")
    write_matrix(p, r)
    assert np.array_equal(read_matrix(p), r.astype(complex))


def test_sparse_coordinate_files_are_accepted(tmp_path):
    import scipy.io
    import scipy.sparse

    dense = np.diag([2.0, 0.0, 1.0 / 3.0])
    p = str(tmp_path / "sp.mtx")
    scipy.io.mmwrite(p, scipy.sparse.coo_matrix(dense), precision=17)
    assert np.array_equal(read_matrix(p), dense.astype(complex))


def test_non_psd_weight_is_dimension_error(tmp_path):
    path = _write_manifest(
        tmp_path,
        "npsd.json",
        {"problem": "shorted"},
        {"W": np.diag([1.0, -1.0]), "S": [[1.0], [0.0]]},
    )
    assert main([path]) == 65


def test_large_witness_goes_to_sidecar(tmp_path):
    big = np.eye(120, dtype=complex)
    report = ResultReport(problem="shorted", exists=True, witness=big)
    base = str(tmp_path / "big")
    text = render_report(report, base)
    payload = json.loads(text)
    assert payload["witness"] == {"path": "big.witness.mtx"}
    assert np.array_equal(read_matrix(base + ".witness.mtx"), big)


def test_canonical_json_is_sorted_and_seventeen_digits():
    text = canonical_json({"b": 2.0 / 3.0, "a": 1})
    assert text.index('"a"') < text.index('"b"')
    assert "0.66666666666666663" in text
    assert json.loads(text)["b"] == 2.0 / 3.0


def test_batch_mode_runs_all_manifests(tmp_path, capsys):
    batch = tmp_path / "jobs"
    batch.mkdir()
    _write_manifest(batch, "a_first.json", {"problem": "wls"},
                    {"A": [[1.0], [1.0]], "W": np.diag([2.0, 1.0]), "x": _col([1.0, 0.0])})
    _write_manifest(batch, "b_second.json", {"problem": "smoothing"},
                    {"T": [[1.0]], "V": [[2.0]], "f0": [[1.0]]})
    outdir = tmp_path / "reports"
    assert main(["--batch", str(batch), "--out", str(outdir)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["a_first: exit 0", "b_second: exit 0"]
    assert sorted(os.listdir(outdir)) == ["a_first.report.json", "b_second.report.json"]


def test_console_entry_point_runs(tmp_path):
    path = _wls_manifest(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "opapprox.cli", path],
        capture_output=True,
        text=True,
        env={**os.environ, "OPAPPROX_LOG": "error"},
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["problem"] == "wls"


def test_batch_continues_past_numerical_failure(tmp_path, capsys):
    batch = tmp_path / "jobs"
    batch.mkdir()
    # A* W A overflows to infinity inside the solver
    _write_manifest(batch, "a_big.json", {"problem": "wls"},
                    {"A": [[1e200], [1.0]], "W": np.eye(2), "x": _col([1.0, 0.0])})
    _write_manifest(batch, "b_ok.json", {"problem": "smoothing"},
                    {"T": [[1.0]], "V": [[2.0]], "f0": [[1.0]]})
    outdir = tmp_path / "reports"
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert main(["--batch", str(batch), "--out", str(outdir)]) == 70
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["a_big: exit 70", "b_ok: exit 0"]
    payload = json.loads((outdir / "a_big.report.json").read_text())
    assert payload["error"] == "numerical_failure"
    assert payload["diagnostics"] == {"exception": "ValueError"}


def test_infinite_value_is_numerical_failure(tmp_path, capsys):
    # ||x||_W overflows to infinity, which a JSON report cannot hold
    path = _write_manifest(tmp_path, "inf.json", {"problem": "wls"},
                           {"A": [[1.0], [0.0]], "W": np.eye(2), "x": _col([0.0, 1e200])})
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert main([path]) == 70
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "numerical_failure"
    assert payload["message"] == "reports cannot contain non-finite values"
    assert payload["diagnostics"] == {"exception": "ValueError"}
