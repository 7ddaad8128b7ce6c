"""The CLI's fixed cost per manifest: Matrix Market files are read and
written on the calling thread, the argument parser is built once per
process, and files with no entries neither crash nor hang the CLI."""

import argparse
import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.io
from scipy.io import _fast_matrix_market

import opapprox.cli
from opapprox import DEFAULT_TOL, ParseError
from opapprox.cli import main
from opapprox.manifest import read_matrix, write_matrix
from test_cli import _wls_manifest  # a wls manifest with seed 1


def _cli(args, timeout=60):
    """Run the CLI in a child process: a crash or a hang fails the test
    instead of taking pytest down with it."""
    proc = subprocess.run(
        [sys.executable, "-m", "opapprox.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env={**os.environ, "OPAPPROX_LOG": "error"},
    )
    return proc.returncode, proc.stdout.splitlines(), proc.stderr.splitlines()


def _write_wls(directory, name, a_text):
    """A wls manifest whose A file holds ``a_text``; W = I_2 and x = e_1."""
    (directory / f"{name}.A.mtx").write_text(a_text)
    write_matrix(str(directory / f"{name}.W.mtx"), np.eye(2))
    write_matrix(str(directory / f"{name}.x.mtx"), np.array([[1.0], [0.0]]))
    spec = {"problem": "wls", "A": f"{name}.A.mtx", "W": f"{name}.W.mtx", "x": f"{name}.x.mtx"}
    path = directory / f"{name}.json"
    path.write_text(json.dumps(spec))
    return str(path)


GOOD_A = "%%MatrixMarket matrix array real general\n2 1\n1\n1\n"


@pytest.mark.parametrize("size_line", ["0 2", "0 0"])
def test_zero_row_matrix_file_is_a_dimension_error(tmp_path, size_line):
    # a one-thread-per-CPU read of a file with no rows died of SIGFPE (exit 136)
    empty_a = f"%%MatrixMarket matrix array real general\n{size_line}\n"
    path = _write_wls(tmp_path, "empty", empty_a)
    code, _, stderr = _cli([path])
    assert code == 65
    assert len(stderr) == 1 and stderr[0].startswith("opapprox: dimension error:"), stderr

    batch = tmp_path / "jobs"
    batch.mkdir()
    _write_wls(batch, "a_empty", empty_a)
    _write_wls(batch, "b_good", GOOD_A)
    code, stdout, _ = _cli(["--batch", str(batch)])
    assert stdout == ["a_empty: exit 65", "b_good: exit 0"]
    assert code == 65


ROUND_TRIP = """
import sys
import numpy as np
from opapprox.manifest import read_matrix, write_matrix
for shape in [(0, 101), (101, 0), (0, 0)]:
    for dtype in (float, complex):
        path = sys.argv[1] + "/m.mtx"
        write_matrix(path, np.zeros(shape, dtype=dtype))
        m = read_matrix(path)
        assert m.shape == shape and m.dtype == complex, (shape, m.shape, m.dtype)
"""


def test_matrices_without_entries_round_trip(tmp_path):
    # scipy's writer never returns on a matrix with zero rows
    proc = subprocess.run(
        [sys.executable, "-c", ROUND_TRIP, str(tmp_path)], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("m", [np.eye(2), np.zeros((0, 3))], ids=["entries", "no_entries"])
def test_written_file_name_does_not_depend_on_the_entries(tmp_path, m):
    # scipy's writer appends .mtx to a path without it; the writer of a
    # matrix with no entries follows the same rule
    write_matrix(str(tmp_path / "m.txt"), m)
    assert os.listdir(tmp_path) == ["m.txt.mtx"]
    assert np.array_equal(read_matrix(str(tmp_path / "m.txt.mtx")), m)


def test_empty_witness_sidecar_is_written(tmp_path):
    # A is 101-by-0, so the weighted inverse is 0-by-101 and goes to a sidecar
    write_matrix(str(tmp_path / "A.mtx"), np.zeros((101, 0)))
    write_matrix(str(tmp_path / "W.mtx"), np.eye(101))
    path = tmp_path / "w_inverse.json"
    path.write_text(json.dumps({"problem": "w-inverse", "A": "A.mtx", "W": "W.mtx"}))
    out = tmp_path / "w_inverse.report.json"
    code, _, stderr = _cli([str(path), "--out", str(out)])
    assert code == 0, stderr
    assert json.loads(out.read_text())["witness"] == {"path": "w_inverse.report.witness.mtx"}
    assert read_matrix(str(tmp_path / "w_inverse.report.witness.mtx")).shape == (0, 101)


def test_reader_and_writer_run_on_one_thread(tmp_path, monkeypatch):
    seen = []

    def spy(name):
        original = getattr(scipy.io, name)

        def call(*args, **kwargs):
            seen.append((name, _fast_matrix_market.PARALLELISM))
            return original(*args, **kwargs)

        monkeypatch.setattr(scipy.io, name, call)

    spy("mmread")
    spy("mmwrite")
    monkeypatch.setattr(_fast_matrix_market, "PARALLELISM", 3)  # the caller's own setting
    path = str(tmp_path / "m.mtx")
    write_matrix(path, np.eye(2))
    assert np.array_equal(read_matrix(path), np.eye(2))
    bad = tmp_path / "bad.mtx"
    bad.write_text("not a Matrix Market file\n")
    with pytest.raises(ParseError):
        read_matrix(str(bad))
    assert seen == [("mmwrite", 1), ("mmread", 1), ("mmread", 1)]
    assert _fast_matrix_market.PARALLELISM == 3


def _entry(value, field):
    if field == "real":
        return repr(float(value.real))
    return f"{float(value.real)!r} {float(value.imag)!r}"


def _storage_file(dense, fmt, field, symmetry):
    """Matrix Market text holding only the lower triangle of ``dense``
    (strictly lower for skew-symmetric storage), in column-major order."""
    n = dense.shape[0]
    first = 1 if symmetry == "skew-symmetric" else 0
    stored = [(i, j) for j in range(n) for i in range(j + first, n)]
    lines = [f"%%MatrixMarket matrix {fmt} {field} {symmetry}"]
    if fmt == "coordinate":
        lines.append(f"{n} {n} {len(stored)}")
        lines += [f"{i + 1} {j + 1} {_entry(dense[i, j], field)}" for i, j in stored]
    else:
        lines.append(f"{n} {n}")
        lines += [_entry(dense[i, j], field) for i, j in stored]
    return "\n".join(lines) + "\n"


STORAGE = [
    (fmt, field, symmetry)
    for fmt in ("coordinate", "array")
    for field, symmetries in (
        ("real", ("symmetric", "skew-symmetric")),
        ("complex", ("symmetric", "skew-symmetric", "hermitian")),
    )
    for symmetry in symmetries
]


@pytest.mark.parametrize("fmt,field,symmetry", STORAGE)
def test_symmetric_storage_reads_as_its_dense_expansion(tmp_path, fmt, field, symmetry):
    rng = np.random.default_rng(len(fmt) + len(field) + len(symmetry))
    B = rng.standard_normal((4, 4))
    if field == "complex":
        B = B + 1j * rng.standard_normal((4, 4))
    dense = {
        "symmetric": B + B.T,
        "skew-symmetric": B - B.T,
        "hermitian": B + B.conj().T,
    }[symmetry]
    path = tmp_path / "m.mtx"
    path.write_text(_storage_file(dense, fmt, field, symmetry))
    assert np.array_equal(read_matrix(str(path)), dense.astype(complex))


def test_main_calls_share_no_arguments(tmp_path, monkeypatch):
    executed = []
    original = opapprox.cli.execute

    def spy(manifest):
        executed.append(manifest)
        return original(manifest)

    monkeypatch.setattr(opapprox.cli, "execute", spy)
    path = _wls_manifest(tmp_path)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert main([path, "--tol-rank", "1e-6", "--tol-res", "1e-9", "--out", str(first)]) == 0
    assert main([path, "--out", str(second)]) == 0
    assert [(m.tolerances.rank_rtol, m.tolerances.residual_rtol) for m in executed] == [
        (1e-6, 1e-9),
        (DEFAULT_TOL.rank_rtol, DEFAULT_TOL.residual_rtol),
    ]


def test_second_main_call_builds_no_parser(tmp_path, monkeypatch):
    path = _wls_manifest(tmp_path)
    out = str(tmp_path / "report.json")
    assert main([path, "--out", out]) == 0
    calls = [0]
    original = argparse.ArgumentParser.add_argument

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
    assert main([path, "--out", out]) == 0
    assert calls[0] == 0


def test_usage_error_after_a_successful_call_exits_64(tmp_path, capsys):
    path = _wls_manifest(tmp_path)
    out = str(tmp_path / "report.json")
    assert main([path, "--out", out]) == 0
    assert main([path, "--tol-rank", "five"]) == 64
    assert main([]) == 64
    assert main([path, "--out", out]) == 0
    assert capsys.readouterr().err.count("opapprox: ") == 2
