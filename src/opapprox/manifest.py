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
all values round-trip exactly.  A witness matrix renders by one of two
bodies that print the same bytes.  Up to ``TEMPLATE_MAX_ENTRIES`` entries,
one ``%`` format applies ``%.17g`` to all its parts, since per-float Python
calls dominated the cost of rendering a report.  A larger matrix goes
through ``_render_large``, which computes every part's digits over whole
arrays with numpy: at 17 digits CPython's ``%`` leaves its floating-point
fast path for bignum arithmetic (about 430 ns per number, against about
130 ns here).  The digits are exact: the integer part and fraction of
|x| * 10**(16 - X) are formed from a double-double power of ten with an
error below about 2**-40, and a part whose fraction lies within 1e-6 of
one half (exact ties included), or with |x| outside [1e-280, 1e280] other
than 0, is printed by ``%`` itself.  Its tables (under 0.2 MB) are built
on its first call, in about 2.5 ms.
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

# witnesses with at most this many entries render by one "%" template, a
# larger one by _render_large: its fixed cost of about 80 us per call
# makes it the faster one from 100-120 entries on (measured on 8-16 column
# matrices; the largest tiny-batch witness has 96)
TEMPLATE_MAX_ENTRIES = 112

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
    """A 2-d array as ``[[[re,im],...],...]``, each part as ``%.17g`` prints it.

    Up to ``TEMPLATE_MAX_ENTRIES`` entries, one ``%`` applies that format to
    every real and imaginary part at once; a larger matrix goes through
    ``_render_large``, which writes the same bytes.
    """
    if m.ndim != 2:
        raise TypeError(f"cannot serialize a {m.ndim}-d array")
    if not np.isfinite(m).all():
        raise ValueError(_NON_FINITE)
    rows, cols = m.shape
    parts = np.ascontiguousarray(m, dtype=complex).view(np.float64).ravel()
    if rows * cols > TEMPLATE_MAX_ENTRIES:
        return _render_large(parts, rows, cols)
    row = "[" + ",".join(["[%.17g,%.17g]"] * cols) + "]"
    template = "[" + ",".join([row] * rows) + "]"
    return template % tuple(parts.tolist())


# ``_render_large`` gives each real or imaginary part a row of seven
# little-endian 8-byte words, 56 bytes:
#   word 0     the punctuation before the part: "[[[", ",[[", ",[" or none
#   word 1     the sign, "0.000" (fixed notation below 1), the first digit
#              and a point slot
#   words 2-5  the other 16 digits, each followed by a point slot
#   word 6     the exponent "e+dd" or "e+ddd", then the punctuation after
#              the part: ",", "]", "]]" or "]]]"
# A mask, looked up by the notation, the number of digits left after
# stripping trailing zeros and the sign, zeroes every byte that "%.17g"
# would not print; deleting the zero bytes leaves the text.
_WORD = np.dtype("<u8")
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for a 53-bit mantissa
_MIN_ABS, _MAX_ABS = 1e-280, 1e280  # |x| outside goes to "%": no scaling overflows
_POW_MIN, _POW_MAX = -270, 300  # 10**k for the k = 16 - X that range needs
_EXP_MAX = 300  # decimal exponents X the tables cover, both signs
_GUARD = 1e-6  # a fraction this close to one half is decided by "%"
_BLOCK_PARTS = 4096  # parts per block, so that temporaries stay in cache


def _word(text: bytes) -> int:
    return int.from_bytes(text.ljust(8, b"\0"), "little")


_BEFORE_ENTRY, _BEFORE_ROW, _BEFORE_FIRST = (_word(b"\0\0\0\0" + p) for p in (b",[", b",[[", b"[[["))
_AFTER_RE, _AFTER_IM, _AFTER_ROW, _AFTER_LAST = (_word(b"\0" * 5 + s) for s in (b",", b"]", b"]]", b"]]]"))


def _pow10(k: int) -> tuple:
    """10**k as a double-double (hi, lo): hi correctly rounded, lo the
    correctly rounded remainder, both from exact integer arithmetic."""
    if k >= 0:
        num, den = 10**k, 1
    else:
        num, den = 1, 10**-k
    hi = num / den
    p, q = hi.as_integer_ratio()
    return hi, (num * q - p * den) / (den * q)


class _DigitTables:
    """The lookup tables of ``_render_large``, built on its first call."""

    def __init__(self):
        pow10 = [_pow10(k) for k in range(_POW_MIN, _POW_MAX + 1)]
        self.hi = np.array([hi for hi, _ in pow10])
        self.lo = np.array([lo for _, lo in pow10])
        c = _SPLIT * self.hi
        self.hi_head = c - (c - self.hi)
        self.hi_tail = self.hi - self.hi_head
        # four digits, each followed by a point slot, per value 0..9999
        i = np.arange(10000)
        chunk = np.full((10000, 8), ord("."), dtype=np.uint8)
        chunk[:, 0::2] = i[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
        self.chunk = chunk.view(_WORD).ravel()
        self.chunk_zeros = sum(i % 10**j == 0 for j in range(1, 5)).astype(np.int8)
        self.first = np.array([_word(b"-0.000%d." % d) for d in range(10)], dtype=_WORD)
        exps = range(-_EXP_MAX, _EXP_MAX + 1)
        self.exponent = np.array([_word(b"e%+03d" % x) for x in exps], dtype=_WORD)
        # notation class per exponent: 0..20 fixed with X = class - 4, 21
        # and 22 scientific with two or three exponent digits
        notation = [x + 4 if -4 <= x < 17 else 21 if abs(x) < 100 else 22 for x in exps]
        self.mask_base = np.array(notation, dtype=np.int16) * 36
        self.masks = self._masks()

    @staticmethod
    def _masks() -> np.ndarray:
        """Masks of words 1-6 by (notation, digits kept, sign): row
        36 * notation + 2 * ndig + negative, one array per word."""
        cls = np.arange(23)[:, None, None, None]
        ndig = np.arange(18)[None, :, None, None]
        neg = np.arange(2)[None, None, :, None] == 1
        j = np.arange(48)[None, None, None, :]  # byte 8 + j of the row
        X = cls - 4
        fixed = cls <= 20
        sci = ~fixed
        digit = (j >= 6) & (j < 40) & (j % 2 == 0)
        point = (j >= 7) & (j < 40) & (j % 2 == 1)
        i = (j - 6) // 2  # the digit of a digit byte, the digit before a point
        keep = (
            ((j == 0) & neg)
            | (fixed & (X < 0) & (j >= 1) & (j < 2 - X))  # "0." and the zeros
            | (digit & ((i < ndig) | (fixed & (i <= X))))
            | (point & sci & (i == 0) & (ndig > 1))
            | (point & fixed & (i == X) & (ndig - 1 > X))
            | (sci & (j >= 40) & (j < 44 + (cls == 22)))  # "e", sign, digits
        )
        keep = np.ascontiguousarray(np.broadcast_to(keep, (23, 18, 2, 48)))
        words = (keep.astype(np.uint8) * 255).view(_WORD).reshape(-1, 6)
        return np.ascontiguousarray(words.T)


_digit_tables = None


def _scaled(a, k, tables):
    """Integer part and fraction of a * 10**k, k indexing the tables: a*hi
    exactly as p + err (Dekker's product; numpy has no fused multiply-add)
    plus a*lo.  p is an integer when the product is at least 2**53; the
    absolute error stays below about 2**-40 for a product below 2**57."""
    hi = tables.hi.take(k)
    p = a * hi
    c = a * _SPLIT
    a_head = c - (c - a)
    a_tail = a - a_head
    h_head = tables.hi_head.take(k)
    h_tail = tables.hi_tail.take(k)
    err = a_head * h_head
    err -= p
    a_head *= h_tail
    err += a_head
    h_head *= a_tail
    err += h_head
    a_tail *= h_tail
    err += a_tail
    lo = tables.lo.take(k)
    lo *= a
    err += lo
    whole = np.floor(err)
    err -= whole
    integer = p.astype(np.int64)
    integer += whole.astype(np.int64)
    return integer, err


def _round17(x, tables):
    """The 17 correctly rounded significant digits (an int64, 0 for a zero)
    and the decimal exponent X of each part, and the indices of the parts
    that only "%" decides."""
    a = np.abs(x)
    special = a < _MIN_ABS
    special |= a > _MAX_ABS
    special = np.flatnonzero(special) if special.any() else None
    if special is not None:  # zeros, and parts for "%"; printed as 0 here
        a[special] = 1.0
    # X = floor(log10 a), corrected below, so that the integer part of
    # a * 10**(16 - X) has 17 digits
    X = np.log10(a)
    np.floor(X, out=X)
    X = X.astype(np.int32)
    integer, frac = _scaled(a, (16 - _POW_MIN) - X, tables)
    fallback = []
    off = (integer < 10**16) | (integer >= 10**17)
    if off.any():
        off = np.flatnonzero(off)
        X[off] += np.where(integer[off] < 10**16, -1, 1)
        integer[off], frac[off] = _scaled(a[off], (16 - _POW_MIN) - X[off], tables)
        fallback = np.flatnonzero((integer < 10**16) | (integer >= 10**17)).tolist()
    # round to nearest; a fraction within _GUARD of one half, exact ties
    # included, is left to "%"
    frac -= 0.5
    integer += frac > 0
    np.abs(frac, out=frac)
    near_tie = frac <= _GUARD
    if near_tie.any():
        fallback += np.flatnonzero(near_tie).tolist()
    carry = integer == 10**17
    if carry.any():
        integer[carry] = 10**16
        X[carry] += 1
    if special is not None:
        integer[special] = 0
        X[special] = 0
        fallback += special[x[special] != 0].tolist()
    return integer, X, fallback


def _render_block(x, tables, before, after) -> np.ndarray:
    """The 7 x n words of the parts x (see the layout above)."""
    w = np.empty((7, x.size), dtype=_WORD)
    digits, X, fallback = _round17(x, tables)
    # the first digit, then four chunks of four
    high = digits // 10**8
    digits -= high * 10**8
    low = digits.astype(np.int32)
    high = high.astype(np.int32)
    first = high // 10**8
    high -= first * 10**8
    c1 = high // 10**4
    high -= c1 * 10**4
    c3 = low // 10**4
    low -= c3 * 10**4
    chunks = (c1, high, c3, low)
    tables.first.take(first, out=w[1])
    for word, chunk in enumerate(chunks, start=2):
        tables.chunk.take(chunk, out=w[word])
    X += _EXP_MAX
    tables.exponent.take(X, out=w[6])

    # trailing zeros of the 16 digits after the first; 16 when all are zero
    zeros = tables.chunk_zeros.take(low)
    run = low == 0
    for chunk in (c3, high, c1):
        zeros += run * tables.chunk_zeros.take(chunk)
        run &= chunk == 0
    pattern = tables.mask_base.take(X)
    pattern += 34  # 2 * 17 digits
    pattern -= 2 * zeros
    pattern += np.signbit(x)
    for word in range(6):
        w[word + 1] &= tables.masks[word].take(pattern)
    w[6] |= after
    w[0] = before
    if fallback:
        _format_parts(w, x, fallback, after)
    return w


def _format_parts(w, x, indices, after) -> None:
    """Write the parts x[indices] into their words as "%.17g" prints them."""
    for i in indices:
        text = ("%.17g" % float(x[i])).encode("ascii")
        w[1:7, i] = np.frombuffer(text.ljust(48, b"\0"), dtype=_WORD)
        w[6, i] |= after[i]


def _render_large(parts: np.ndarray, rows: int, cols: int) -> str:
    """``_render_matrix`` of a rows x cols matrix from its C-ordered real and
    imaginary parts, computed over whole arrays.

    The digits are exact.  Each part's 17 correctly rounded significant
    digits come from the integer part and fraction of |x| * 10**(16 - X),
    with 10**k a double-double from exact integer arithmetic, so the
    fraction is off by less than about 2**-40.  A part whose fraction lies
    within ``_GUARD`` of one half, and a part with |x| outside
    [``_MIN_ABS``, ``_MAX_ABS``] other than 0, is printed by ``"%.17g"``.
    """
    global _digit_tables
    if _digit_tables is None:
        _digit_tables = _DigitTables()
    block_rows = min(rows, max(1, _BLOCK_PARTS // (2 * cols)))
    before = np.zeros((block_rows, cols, 2), dtype=_WORD)
    before[:, :, 0] = _BEFORE_ENTRY
    before[:, 0, 0] = _BEFORE_ROW
    after = np.empty((block_rows, cols, 2), dtype=_WORD)
    after[:, :, 0] = _AFTER_RE
    after[:, :, 1] = _AFTER_IM
    after[:, -1, 1] = _AFTER_ROW
    before, after = before.ravel(), after.ravel()
    text = []
    for r0 in range(0, rows, block_rows):
        r1 = min(rows, r0 + block_rows)
        x = parts[2 * cols * r0 : 2 * cols * r1]
        b, e = before[: x.size], after[: x.size]
        if r0 == 0 or r1 == rows:
            b, e = b.copy(), e.copy()
            if r0 == 0:
                b[0] = _BEFORE_FIRST
            if r1 == rows:
                e[-1] = _AFTER_LAST
        w = _render_block(x, _digit_tables, b, e)
        text.append(w.T.tobytes().translate(None, b"\0"))
    return b"".join(text).decode("ascii")


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
