"""Problem manifests, matrix file IO, and deterministic report rendering.

Manifests are strict JSON objects: a ``problem`` tag, matrix file paths
keyed by role, and optional ``p``, ``tolerances``, ``seed``.  Unknown
fields are rejected rather than ignored; silent typos in numeric
experiments are costly.  Matrix files use the Matrix Market exchange
format (dense array or sparse coordinate, real or complex); vectors are
n-by-1 matrices.

A file is read by one of two body parsers, chosen by its header and its
declared size.  A dense general file (``array real general`` or ``array
complex general``) holding at most ``SMALL_FILE_NUMBERS`` numbers (rows
times cols, twice that for a complex field) is parsed here with Python's
``float``.  Every other file goes to ``scipy.io.mmread``: coordinate files,
symmetric, skew-symmetric or hermitian storage, integer and pattern
fields, larger files, and any file whose layout or tokens the small-file
parser does not accept.  The reason is scipy's fixed cost: its reader
starts a worker pool on every call, 0.09-0.16 ms even on one thread,
which is most of the cost of a small file, while parsing with ``float``
costs less up to about 150 numbers and more beyond (a 128x128 complex
file takes 10x longer).  The small-file parser
accepts only tokens that both parsers read to the same double, and it
returns the array scipy's path returns (C-ordered complex128, -0 read as
+0), so a report does not depend on which parser read its inputs.

scipy's reader and writer run on the calling thread: with one thread per
CPU, scipy nearly doubled the cost of reading a small file and crashed the
process (SIGFPE) on a file with zero rows.

Reports serialize with sorted keys and every float printed with 17
significant digits, so identical inputs produce byte-identical output and
all values round-trip exactly.  A witness matrix is rendered by one ``%``
format over all its parts, since per-float Python calls dominated the cost
of rendering a report.
"""

from __future__ import annotations

import json
import math
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy.io
import scipy.sparse
from scipy.io import _fast_matrix_market

from .errors import ParseError
from .linalg import Tolerances
from .problems import PROBLEMS, ROLES, lookup
from .result import ResultReport

MANIFEST_KEYS = set(ROLES) | {"problem", "p", "tolerances", "seed"}

# witnesses larger than this are written to sibling .mtx files
MAX_INLINE_DIM = 100

# dense general files with at most this many numbers are parsed in-process:
# the largest tiny instance (8x8 complex), at or below the crossover with
# scipy's one-thread reader, measured at 130-160 numbers
SMALL_FILE_NUMBERS = 128

_HEADER = re.compile(rb"%%MatrixMarket matrix array (real|complex) general\r?\n")
_SIZE = re.compile(rb"[ \t]*(\d{1,9})[ \t]+(\d{1,9})[ \t]*\r?\n")
# The body is checked on its skeleton, each number character mapped to "x"
# and "+" to "p": one entry per line (two for a complex field) and a "+"
# only inside an entry.  float() then checks each entry's grammar, so an
# entry is accepted only as -?(\d+(\.\d*)?|\.\d+)([eE][-+]?\d+)?, which
# both parsers read to the same double.  They disagree on "+1", "1_0",
# "1d5", "0x10", "inf" and "nan", which the skeleton keeps out.
_SKELETON = bytes.maketrans(b"0123456789.eE-+", b"xxxxxxxxxxxxxxp")
_BODY = {
    b"real": re.compile(rb"(?:x+(?:px+)?\r?\n)*"),
    b"complex": re.compile(rb"(?:x+(?:px+)? x+(?:px+)?\r?\n)*"),
}


@dataclass(frozen=True)
class ProblemManifest:
    problem: str
    matrices: dict
    p: float | None
    tolerances: Tolerances
    seed: int


@contextmanager
def _one_thread():
    """Run scipy's Matrix Market reader and writer on one thread, restoring
    the caller's setting afterwards (0, scipy's default, is one per CPU).
    The setting is a scipy module global, so two threads must not read
    files through here at once."""
    saved = _fast_matrix_market.PARALLELISM
    _fast_matrix_market.PARALLELISM = 1
    try:
        yield
    finally:
        _fast_matrix_market.PARALLELISM = saved


def _read_small(path: str) -> np.ndarray | None:
    """A small dense general file as a C-ordered complex matrix, or None
    when the file is not one or holds anything this parser does not accept;
    scipy's reader then decides, errors included."""
    if path.endswith((".gz", ".bz2")):  # scipy decompresses these
        return None
    try:
        fh = open(path, "rb")
    except (OSError, ValueError):
        return None
    with fh:
        header = _HEADER.fullmatch(fh.readline())
        if header is None:
            return None
        line = fh.readline()
        while line.startswith(b"%"):
            line = fh.readline()
        size = _SIZE.fullmatch(line)
        if size is None:
            return None
        field, rows, cols = header[1], int(size[1]), int(size[2])
        count = rows * cols * (1 if field == b"real" else 2)
        if count > SMALL_FILE_NUMBERS:
            return None
        body = fh.read()
    if _BODY[field].fullmatch(body.translate(_SKELETON)) is None:
        return None
    tokens = body.decode("ascii").split()
    if len(tokens) != count:
        return None
    try:
        values = np.fromiter(map(float, tokens), dtype=float, count=count)
    except ValueError:
        return None
    values += 0.0  # -0 to +0, as scipy reads it
    if field == b"complex":
        values = values.view(complex)
    # column-major in the file; scipy's layout, since BLAS rounds by layout
    return np.ascontiguousarray(values.reshape(cols, rows).T, dtype=complex)


def _mmread(path: str) -> np.ndarray:
    """Any Matrix Market file as a complex matrix, by scipy's reader."""
    with _one_thread():
        m = scipy.io.mmread(path)
    if scipy.sparse.issparse(m):
        m = m.toarray()
    return np.asarray(m, dtype=complex)


def read_matrix(path: str) -> np.ndarray:
    """Read a Matrix Market file as a dense complex matrix.  A declared size
    too large to hold (MemoryError, or ValueError past numpy's limit) is a
    ParseError like any other unreadable file."""
    try:
        m = _read_small(os.fspath(path))
        if m is None:
            m = _mmread(path)
    except (OSError, ValueError, MemoryError) as exc:
        raise ParseError(f"cannot read matrix file {path!r}: {exc}") from exc
    if m.ndim != 2:
        raise ParseError(f"matrix file {path!r} is not two-dimensional")
    if m.size and not np.isfinite(m).all():
        raise ParseError(f"matrix file {path!r} contains non-finite entries")
    return m


def write_matrix(path: str, m: np.ndarray) -> None:
    """Write a dense matrix in Matrix Market array format, exactly round-trippable.

    Like scipy's writer, it appends ``.mtx`` to a path that does not end
    in it.  A matrix with no entries is written as the header scipy writes
    for it, because scipy's writer never returns on a matrix with zero rows.
    """
    m = np.asarray(m)
    if m.size == 0:
        rows, cols = m.shape
        field = "complex" if np.iscomplexobj(m) else "real"
        path = os.fspath(path)
        if not path.endswith(".mtx"):
            path += ".mtx"
        with open(path, "w", encoding="ascii") as fh:
            fh.write(f"%%MatrixMarket matrix array {field} general\n%\n{rows} {cols}\n")
        return
    with _one_thread():
        scipy.io.mmwrite(path, m, precision=17)


def _number(value, name: str) -> float:
    """A JSON number as a float; an integer past the largest double is a
    ParseError, not an OverflowError."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ParseError(f"{name} must be a number")
    try:
        return float(value)
    except OverflowError as exc:
        raise ParseError(f"{name} is too large for a double") from exc


def _parse_tolerances(raw) -> Tolerances:
    if not isinstance(raw, dict):
        raise ParseError("tolerances must be an object")
    unknown = set(raw) - {"rank_rtol", "residual_rtol"}
    if unknown:
        raise ParseError(f"unknown tolerance fields: {sorted(unknown)}")
    kwargs = {key: _number(value, f"tolerance {key}") for key, value in raw.items()}
    try:
        return Tolerances(**kwargs)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def parse_manifest(path: str) -> ProblemManifest:
    """Load and validate a manifest, including all referenced matrices.

    Malformed structure is a ParseError (exit 64); missing roles or
    inconsistent shapes are a DimensionError (exit 65).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read manifest {path!r}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # also a file that is not UTF-8, an integer past Python's digit
        # limit, and arrays or objects nested past the recursion limit
        raise ParseError(f"manifest {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError("manifest must be a JSON object")

    unknown = set(raw) - MANIFEST_KEYS
    if unknown:
        raise ParseError(f"unknown manifest fields: {sorted(unknown)}")

    problem = raw.get("problem")
    if problem not in PROBLEMS:
        raise ParseError(f"problem must be one of {PROBLEMS}, got {problem!r}")

    p = raw.get("p")
    if p is not None:
        p = _number(p, "p")
        if not np.isfinite(p) or p < 1.0:
            raise ParseError(f"p must be a finite real >= 1, got {p}")

    tol = _parse_tolerances(raw.get("tolerances", {}))

    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ParseError("seed must be a non-negative integer")

    base = os.path.dirname(os.path.abspath(path))
    matrices = {}
    for role in ROLES:
        if role not in raw:
            continue
        ref = raw[role]
        if not isinstance(ref, str):
            raise ParseError(f"role {role} must be a file path string")
        matrices[role] = read_matrix(os.path.join(base, ref))

    manifest = ProblemManifest(problem=problem, matrices=matrices, p=p, tolerances=tol, seed=seed)
    lookup(manifest)  # role set and p must fit a registry row
    return manifest


_NON_FINITE = "reports cannot contain non-finite values"

# the encoder json.dumps applies to a str under its defaults (ensure_ascii)
_encode_str = json.encoder.encode_basestring_ascii


def _format_float(value: float) -> str:
    if not math.isfinite(value):  # NaN or an overflow to infinity
        raise ValueError(_NON_FINITE)
    # ".17g" may produce bare integers; keep them valid JSON numbers as-is
    return "%.17g" % value


def _render_matrix(m: np.ndarray) -> str:
    """A 2-d array as ``[[[re,im],...],...]`` in one formatting call.

    The same ``%.17g`` as ``_format_float``, applied by one ``%`` to every
    real and imaginary part at once instead of one Python call per float.
    """
    if m.ndim != 2:
        raise TypeError(f"cannot serialize a {m.ndim}-d array")
    if not np.isfinite(m).all():
        raise ValueError(_NON_FINITE)
    rows, cols = m.shape
    row = "[" + ",".join(["[%.17g,%.17g]"] * cols) + "]"
    template = "[" + ",".join([row] * rows) + "]"
    parts = np.ascontiguousarray(m, dtype=complex).view(np.float64).ravel().tolist()
    return template % tuple(parts)


def _render(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(_encode_str(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_format_float(float(obj)))
    elif isinstance(obj, np.ndarray):
        out.append(_render_matrix(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(",")
            out.append(_encode_str(str(key)))
            out.append(":")
            _render(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _render(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits.

    A 2-d ``np.ndarray`` renders as its rows of ``[re, im]`` pairs; any
    non-finite float is a ValueError, never a bare ``inf`` or ``nan``.
    """
    out: list = []
    _render(obj, out)
    out.append("\n")
    return "".join(out)


def matrix_from_json(obj) -> np.ndarray:
    data = obj["data"]
    m = np.array([[complex(re, im) for re, im in row] for row in data], dtype=complex)
    return m.reshape(obj["rows"], obj["cols"])


def render_report(report: ResultReport, sidecar_base: str | None = None) -> str:
    """Serialize a report; oversized witnesses go to a sibling .mtx file."""
    witness = None
    if report.witness is not None:
        w = np.atleast_2d(np.asarray(report.witness, dtype=complex))
        if max(w.shape) > MAX_INLINE_DIM and sidecar_base:
            if not np.isfinite(w).all():
                raise ValueError(_NON_FINITE)
            sidecar = sidecar_base + ".witness.mtx"
            write_matrix(sidecar, w)
            witness = {"path": os.path.basename(sidecar)}
        else:
            witness = {"rows": w.shape[0], "cols": w.shape[1], "data": w}
    payload = {
        "problem": report.problem,
        "exists": report.exists,
        "min_value": report.min_value,
        "witness": witness,
        "residuals": report.residuals,
        "conditions": report.conditions,
        "diagnostics": report.diagnostics,
    }
    return canonical_json(payload)
