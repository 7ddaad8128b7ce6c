import json
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

from conftest import cgauss
from opapprox import DimensionError, ParseError, manifest
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


def _violation_args(tmp_path):
    # same weak-direction setup, but the rank test of the range sum still
    # succeeds, so the independently evaluated conditions disagree
    path = _write_manifest(
        tmp_path,
        "viol.json",
        {"problem": "report"},
        {"A": np.diag([1.0, 1e-7]), "W": np.eye(2)},
    )
    return [path, "--tol-rank", "1e-5", "--tol-res", "1e-9"]


def test_cli_equivalence_violation_exit_code(tmp_path):
    assert main(_violation_args(tmp_path)) == 3


def test_tv_report_certifies_an_anchor_small_beside_the_others(tmp_path):
    # V's rank is decided as 1; its second column (0, 1e-11) lies off the
    # kept range by about 7e-12, which is small beside ||V||_F
    v = np.zeros((2, 6))
    v[:, 0] = 1.0
    v[1, 1] = 1e-11
    path = _write_manifest(tmp_path, "graded.json", {"problem": "report"}, {"T": np.eye(6), "V": v})
    out = tmp_path / "graded.report.json"
    assert main([path, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["exists"] is True
    assert set(payload["conditions"].values()) == {True}


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


def test_tv_report_reads_the_seed_only_into_its_diagnostic(tmp_path):
    # the (T,V) report is a function of T, V and the tolerances: two
    # manifests that differ only in seed differ only in the seed diagnostic
    matrices = {"T": cgauss(np.random.default_rng(0), 3, 4),
                "V": cgauss(np.random.default_rng(1), 2, 4)}
    texts = []
    for seed in (1, 2):
        path = _write_manifest(tmp_path, f"s{seed}.json", {"problem": "report", "seed": seed}, matrices)
        out = tmp_path / f"s{seed}.report.json"
        assert main([path, "--out", str(out)]) == 0
        texts.append(out.read_bytes())
    assert texts[0].count(b'"seed":1') == 1
    assert texts[0].replace(b'"seed":1', b'"seed":2') == texts[1]


def test_negative_seed_is_parse_error(tmp_path):
    matrices = {"T": cgauss(np.random.default_rng(0), 3, 4),
                "V": cgauss(np.random.default_rng(1), 2, 4)}
    bad = _write_manifest(tmp_path, "bad.json", {"problem": "report", "seed": -1}, matrices)
    with pytest.raises(ParseError):
        parse_manifest(bad)
    assert main([bad]) == 64
    good = _write_manifest(tmp_path, "good.json", {"problem": "report"}, matrices)
    # the manifest seed overrides nothing, so the CLI takes no --seed
    assert main([good, "--seed", "5"]) == 64


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
    # every kind that takes a weight W; A* W A = 0 here, so a solve that
    # ran before W was validated would report nonexistence (exit 2)
    a, w = [[1.0], [1.0]], np.diag([1.0, -1.0])
    cases = [
        ("wls", {"A": a, "W": w, "x": _col([1.0, 0.0])}, {}),
        ("w-inverse", {"A": a, "W": w}, {}),
        ("owls", {"A": a, "W": w}, {"p": 2}),
        ("report", {"A": a, "W": w}, {}),
        ("shorted", {"W": w, "S": [[1.0], [0.0]]}, {}),
        ("compat", {"W": w, "S": [[1.0], [0.0]]}, {}),
    ]
    for problem, matrices, extra in cases:
        path = _write_manifest(tmp_path, "npsd.json", {"problem": problem, **extra}, matrices)
        assert main([path]) == 65, problem


def _stderr_lines(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "opapprox.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "OPAPPROX_LOG": "error"},
    )
    return proc.returncode, proc.stderr.splitlines()


def test_each_failure_writes_one_stderr_line(tmp_path):
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"problem": "nope"}))
    code, lines = _stderr_lines(str(unknown))
    assert code == 64
    assert len(lines) == 1 and lines[0].startswith("opapprox: parse error: "), lines

    missing = _write_manifest(
        tmp_path, "missing.json", {"problem": "wls"}, {"A": [[1.0], [1.0]], "x": _col([1.0, 0.0])}
    )
    code, lines = _stderr_lines(missing)
    assert code == 65
    assert len(lines) == 1 and lines[0].startswith("opapprox: dimension error: "), lines


MALFORMED_MANIFESTS = {
    "not_utf8": b'{"problem": "wls\xff"}',
    "digit_limit": b'{"problem": "owls", "p": ' + b"1" * 5001 + b"}",
    "p_past_double": json.dumps({"problem": "owls", "p": 10**400}).encode(),
    "tolerance_past_double": json.dumps({"problem": "wls", "tolerances": {"rank_rtol": 10**400}}).encode(),
    "nested_past_recursion_limit": b"[" * 100000 + b"]" * 100000,
}


@pytest.mark.parametrize("name", sorted(MALFORMED_MANIFESTS))
def test_malformed_manifest_is_one_parse_error_line(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_bytes(MALFORMED_MANIFESTS[name])
    code, lines = _stderr_lines(str(path))
    assert code == 64
    assert len(lines) == 1 and lines[0].startswith("opapprox: parse error: "), lines


def test_large_witness_goes_to_sidecar(tmp_path):
    big = np.eye(120, dtype=complex)
    report = ResultReport(problem="shorted", exists=True, witness=big)
    base = str(tmp_path / "big")
    text = render_report(report, base)
    payload = json.loads(text)
    assert payload["witness"] == {"path": "big.witness.mtx"}
    assert np.array_equal(read_matrix(base + ".witness.mtx"), big)


def _w_inverse_manifest(tmp_path, a):
    """A w-inverse manifest with W = I, whose witness is the rows x cols
    weighted inverse of the cols x rows A."""
    return _write_manifest(tmp_path, "winv.json", {"problem": "w-inverse"}, {"A": a, "W": np.eye(a.shape[0])})


def test_largest_inline_witness_renders_as_the_per_element_rule(tmp_path):
    # 100 x 100 is the largest witness kept inline; it takes _render_large
    a = cgauss(np.random.default_rng(23), 100, 100)
    path = _w_inverse_manifest(tmp_path, a)
    witness = execute(parse_manifest(path)).witness
    out = tmp_path / "winv.report.json"
    with mock.patch.object(manifest, "_render_large", wraps=manifest._render_large) as spy:
        assert main([path, "--out", str(out)]) == 0
    assert spy.call_count == 1
    rows = ",".join(
        "[" + ",".join(f"[{format(z.real, '.17g')},{format(z.imag, '.17g')}]" for z in row) + "]"
        for row in witness
    )
    text = out.read_text()
    assert f'"witness":{{"cols":100,"data":[{rows}],"rows":100}}' in text
    assert not list(tmp_path.glob("*.witness.mtx"))


def test_witness_one_past_the_inline_limit_goes_to_a_bit_identical_sidecar(tmp_path):
    a = cgauss(np.random.default_rng(29), 1, 101)
    path = _w_inverse_manifest(tmp_path, a)
    witness = execute(parse_manifest(path)).witness
    assert witness.shape == (101, 1)
    out = tmp_path / "winv.report.json"
    assert main([path, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["witness"] == {"path": "winv.report.witness.mtx"}
    back = read_matrix(str(tmp_path / "winv.report.witness.mtx"))
    assert back.shape == witness.shape and back.tobytes() == witness.tobytes()


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
    # the solution u = 1e600 overflows to infinity inside the solver
    _write_manifest(batch, "a_big.json", {"problem": "wls"},
                    {"A": [[1e-300], [0.0]], "W": np.eye(2), "x": _col([1e300, 0.0])})
    _write_manifest(batch, "b_ok.json", {"problem": "smoothing"},
                    {"T": [[1.0]], "V": [[2.0]], "f0": [[1.0]]})
    outdir = tmp_path / "reports"
    assert main(["--batch", str(batch), "--out", str(outdir)]) == 70
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["a_big: exit 70", "b_ok: exit 0"]
    payload = json.loads((outdir / "a_big.report.json").read_text())
    assert payload["error"] == "numerical_failure"
    assert payload["diagnostics"] == {"exception": "FloatingPointError"}


def test_batch_continues_past_huge_declared_size(tmp_path, capsys):
    # sizes no 64-bit process can hold densely: 2^30 x 2^29 doubles are 4 EiB
    # (MemoryError), and 2^32 x 2^32 overflows numpy's size (ValueError)
    batch = tmp_path / "jobs"
    batch.mkdir()
    for name, rows, cols in (("a_huge", 2**30, 2**29), ("b_too_big", 2**32, 2**32)):
        (batch / f"{name}.mtx").write_text(
            f"%%MatrixMarket matrix coordinate real general\n{rows} {cols} 1\n1 1 1.0\n"
        )
        spec = {"problem": "shorted", "W": f"{name}.mtx", "S": f"{name}.mtx"}
        (batch / f"{name}.json").write_text(json.dumps(spec))
    _write_manifest(batch, "c_ok.json", {"problem": "smoothing"},
                    {"T": [[1.0]], "V": [[2.0]], "f0": [[1.0]]})
    assert main(["--batch", str(batch), "--out", str(tmp_path / "reports")]) == 64
    out, err = capsys.readouterr()
    assert out.splitlines() == ["a_huge: exit 64", "b_too_big: exit 64", "c_ok: exit 0"]
    lines = err.splitlines()
    assert len(lines) == 2, lines
    assert all(line.startswith("opapprox: parse error: cannot read matrix file") for line in lines)


def _overflow_manifest(tmp_path):
    # ||x||_W overflows to infinity, which a JSON report cannot hold
    return _write_manifest(tmp_path, "inf.json", {"problem": "wls"},
                           {"A": [[1.0], [0.0]], "W": np.eye(2), "x": _col([0.0, 1e200])})


def test_infinite_value_is_numerical_failure(tmp_path, capsys):
    assert main([_overflow_manifest(tmp_path)]) == 70
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "numerical_failure"
    assert payload["message"].startswith("overflow encountered in ")
    assert payload["diagnostics"] == {"exception": "FloatingPointError"}


def test_unwritable_out_writes_one_stderr_line(tmp_path):
    (tmp_path / "taken").mkdir()
    # a missing directory, and a directory where the report should go
    for out in (tmp_path / "no" / "r.json", tmp_path / "taken"):
        code, lines = _stderr_lines(_wls_manifest(tmp_path), "--out", str(out))
        assert code == 64
        assert len(lines) == 1 and lines[0].startswith("opapprox: cannot write output: "), lines


def test_batch_out_on_a_file_writes_one_stderr_line(tmp_path):
    _wls_manifest(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("")
    code, lines = _stderr_lines("--batch", str(tmp_path), "--out", str(taken))
    assert code == 64
    assert len(lines) == 1 and lines[0].startswith("opapprox: cannot write output: "), lines


def test_numerical_failure_writes_one_stderr_line(tmp_path):
    # the overflow is the exit-70 line, not a numpy warning and its source line
    code, lines = _stderr_lines(_overflow_manifest(tmp_path))
    assert code == 70
    assert len(lines) == 1 and lines[0].startswith("opapprox: numerical failure: overflow"), lines


def test_rewrite_over_longer_and_shorter_reports_gives_fresh_bytes(tmp_path):
    path = _wls_manifest(tmp_path)
    fresh = tmp_path / "fresh.json"
    assert main([path, "--out", str(fresh)]) == 0
    expected = fresh.read_bytes()
    for old in (expected + b" " * 5000, b"x" * 10000, expected[:10], b""):
        out = tmp_path / "old.json"
        out.write_bytes(old)
        assert main([path, "--out", str(out)]) == 0
        assert out.read_bytes() == expected


@pytest.mark.parametrize("code", [3, 70])
def test_error_payload_over_a_longer_report_is_the_payload(tmp_path, code):
    args = _violation_args(tmp_path) if code == 3 else [_overflow_manifest(tmp_path)]
    fresh = tmp_path / "fresh.json"
    assert main([*args, "--out", str(fresh)]) == code
    out = tmp_path / "old.json"
    out.write_bytes(b"x" * 10000)
    assert main([*args, "--out", str(out)]) == code
    assert out.read_bytes() == fresh.read_bytes()
    assert "error" in json.loads(out.read_text())


def test_out_to_dev_null_exits_0(tmp_path):
    # /dev/null has no length: cutting it would fail with EINVAL
    assert main([_wls_manifest(tmp_path), "--out", os.devnull]) == 0


def _check_fifo_and_dev_stdout(tmp_path, path):
    """The report of ``path`` arrives whole through ``--out /dev/stdout``
    and through a FIFO, as it does on stdout."""
    expected = subprocess.run(
        [sys.executable, "-m", "opapprox.cli", path], capture_output=True, check=True
    ).stdout
    # /dev/stdout is the pipe to this process
    proc = subprocess.run(
        [sys.executable, "-m", "opapprox.cli", path, "--out", "/dev/stdout"], capture_output=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected
    fifo, copy = tmp_path / "fifo", tmp_path / "fifo.copy"
    os.mkfifo(fifo)
    # the reader copies to a file, so it drains the FIFO whatever its size
    with open(copy, "wb") as sink:
        reader = subprocess.Popen(["cat", str(fifo)], stdout=sink)
    try:
        assert main([path, "--out", str(fifo)]) == 0
        assert reader.wait(timeout=60) == 0
    finally:
        reader.kill()
        reader.wait()
    assert copy.read_bytes() == expected
    return expected


def test_out_to_a_fifo_and_dev_stdout_exit_0(tmp_path):
    _check_fifo_and_dev_stdout(tmp_path, _wls_manifest(tmp_path))


def test_report_larger_than_a_pipe_buffer_arrives_whole(tmp_path):
    # a 100 x 100 witness is the largest rendered inline, about 450 KB:
    # more than a pipe holds, so the write waits for the reader to drain it
    W = cgauss(np.random.default_rng(0), 100, 100)
    path = _write_manifest(
        tmp_path, "big.json", {"problem": "shorted"},
        {"W": W @ W.conj().T, "S": cgauss(np.random.default_rng(1), 100, 3)},
    )
    expected = _check_fifo_and_dev_stdout(tmp_path, path)
    assert len(expected) > 400_000
    assert json.loads(expected)["witness"]["rows"] == 100


def test_read_only_out_writes_one_stderr_line(tmp_path):
    out = tmp_path / "r.json"
    out.write_text("old")
    out.chmod(0o444)
    if os.access(out, os.W_OK):
        pytest.skip("this user writes through a read-only mode (root)")
    code, lines = _stderr_lines(_wls_manifest(tmp_path), "--out", str(out))
    assert code == 64
    assert len(lines) == 1 and lines[0].startswith("opapprox: cannot write output: "), lines
    assert out.read_text() == "old"


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_new_report_gets_the_mode_open_gives(tmp_path, umask):
    path = _wls_manifest(tmp_path)
    out = tmp_path / "new.json"
    old = os.umask(umask)
    try:
        assert main([path, "--out", str(out)]) == 0
    finally:
        os.umask(old)
    assert out.stat().st_mode & 0o777 == 0o666 & ~umask
