"""The CLI's fixed cost per manifest: small dense files are parsed
in-process to the array scipy's reader returns, other Matrix Market files
are read and written by scipy on the calling thread, the argument parser is
built once per process, and files with no entries neither crash nor hang
the CLI."""

import argparse
import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.io
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import _fast_matrix_market

import opapprox.cli
import opapprox.manifest
from opapprox import DEFAULT_TOL, ParseError
from opapprox.cli import main
from opapprox.manifest import SMALL_FILE_NUMBERS, _mmread, _read_small, read_matrix, write_matrix
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
    general = np.array([[1.0, 2.0], [3.0, 4.0]])  # scipy writes np.eye(2) as symmetric
    write_matrix(path, general)
    assert np.array_equal(read_matrix(path), general)  # small and general: no mmread
    assert seen == [("mmwrite", 1)]
    # one number above the cutoff goes to scipy
    above = tmp_path / "above.mtx"
    above.write_text(
        f"%%MatrixMarket matrix array real general\n{SMALL_FILE_NUMBERS + 1} 1\n"
        + "1\n" * (SMALL_FILE_NUMBERS + 1)
    )
    assert np.array_equal(read_matrix(str(above)), np.ones((SMALL_FILE_NUMBERS + 1, 1)))
    bad = tmp_path / "bad.mtx"
    bad.write_text("not a Matrix Market file\n")
    with pytest.raises(ParseError):
        read_matrix(str(bad))
    assert seen == [("mmwrite", 1), ("mmread", 1), ("mmread", 1)]
    assert _fast_matrix_market.PARALLELISM == 3


def _same_array(a, b):
    """Bit-identical entries (signs of zero included), shape, dtype and layout."""
    return (
        a.shape == b.shape
        and a.dtype == b.dtype == complex
        and a.flags.c_contiguous == b.flags.c_contiguous
        and a.tobytes() == b.tobytes()
    )


# zeros of both signs, the smallest and largest subnormals, the smallest
# normal and the largest finite value, then any finite double
EDGE_DOUBLES = [0.0, -0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
                1.7976931348623157e308]
DOUBLES = st.one_of(
    st.sampled_from(EDGE_DOUBLES + [-x for x in EDGE_DOUBLES]),
    st.floats(allow_nan=False, allow_infinity=False),
)
# %.17g as scipy's writer, repr, and an exponent such as E+05
FORMATS = st.sampled_from(["%.17g", "%r", "%.16E"])


@st.composite
def small_files(draw):
    """Text of a dense general file the in-process parser accepts."""
    field = draw(st.sampled_from(["real", "complex"]))
    per_entry = 1 if field == "real" else 2
    rows = draw(st.integers(0, SMALL_FILE_NUMBERS // per_entry))
    cols = draw(st.integers(0, SMALL_FILE_NUMBERS // (per_entry * max(rows, 1))))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    comments = draw(st.lists(st.sampled_from(["%", "% a comment", "%%not 1 2"]), max_size=2))
    entries = [
        " ".join(draw(FORMATS) % draw(DOUBLES) for _ in range(per_entry))
        for _ in range(rows * cols)
    ]
    header = f"%%MatrixMarket matrix array {field} general"
    return newline.join([header, *comments, f"{rows} {cols}", *entries, ""])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=small_files())
def test_small_file_parser_matches_scipy(tmp_path_factory, text):
    path = str(tmp_path_factory.getbasetemp() / "small.mtx")
    with open(path, "w", newline="") as fh:
        fh.write(text)
    small = _read_small(path)
    assert small is not None
    assert _same_array(small, _mmread(path))


REAL = "%%MatrixMarket matrix array real general\n"
COMPLEX = "%%MatrixMarket matrix array complex general\n"
# each file either parses in-process or is declined, and scipy decides
MATRIX_FILES = {
    "plus_sign": REAL + "2 1\n+1\n2\n",
    "underscore": REAL + "2 1\n1_0\n2\n",
    "d_exponent": REAL + "2 1\n1d5\n2\n",
    "hexadecimal": REAL + "2 1\n0x10\n2\n",
    "inf": REAL + "2 1\ninf\n2\n",
    "nan": REAL + "2 1\nnan\n2\n",
    "overflow": REAL + "2 1\n1e400\n2\n",
    "negative_zeros": REAL + "2 1\n-0\n-1e-400\n",
    "missing_entry": REAL + "2 1\n1\n",
    "extra_entry": REAL + "2 1\n1\n2\n3\n",
    "two_values_on_a_real_line": REAL + "2 1\n1 5\n2 6\n",
    "one_value_on_a_complex_line": COMPLEX + "2 1\n1\n2\n",
    "symmetric": "%%MatrixMarket matrix array real symmetric\n2 2\n1\n2\n3\n",
    "hermitian": "%%MatrixMarket matrix array complex hermitian\n2 2\n1 0\n2 1\n3 0\n",
    "skew_symmetric": "%%MatrixMarket matrix array real skew-symmetric\n2 2\n2\n",
    "integer": "%%MatrixMarket matrix array integer general\n2 1\n1\n2\n",
    "pattern": "%%MatrixMarket matrix coordinate pattern general\n2 1 1\n1 1\n",
    "zero_rows": REAL + "0 2\n",
}
PARSED_IN_PROCESS = {"overflow", "negative_zeros", "zero_rows"}


def _read_outcome(path):
    try:
        return read_matrix(path)
    except ParseError as exc:
        return str(exc)


@pytest.mark.parametrize("name", sorted(MATRIX_FILES))
def test_both_readers_agree_on_unusual_files(tmp_path, monkeypatch, capsys, name):
    path = _write_wls(tmp_path, "job", MATRIX_FILES[name])
    a_path = str(tmp_path / "job.A.mtx")
    assert (_read_small(a_path) is not None) == (name in PARSED_IN_PROCESS)

    def outcomes():
        code = main([path])
        out, err = capsys.readouterr()
        return _read_outcome(a_path), code, out, err.splitlines()

    matrix, code, out, err = outcomes()
    monkeypatch.setattr(opapprox.manifest, "SMALL_FILE_NUMBERS", -1)  # scipy reads every file
    scipy_matrix, scipy_code, scipy_out, scipy_err = outcomes()
    if isinstance(matrix, str):
        assert matrix == scipy_matrix
    else:
        assert _same_array(matrix, scipy_matrix)
    assert (code, out, err) == (scipy_code, scipy_out, scipy_err)
    assert len(err) <= 1


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
