"""Problem manifests, matrix file IO, and deterministic report rendering.

Manifests are strict JSON objects: a ``problem`` tag, matrix file paths
keyed by role, and optional ``p``, ``tolerances``, ``seed``.  Unknown
fields are rejected rather than ignored; silent typos in numeric
experiments are costly.  Matrix files use the Matrix Market exchange
format (dense array or sparse coordinate, real or complex); vectors are
n-by-1 matrices.

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
from dataclasses import dataclass

import numpy as np
import scipy.io
import scipy.sparse

from .errors import ParseError
from .linalg import Tolerances
from .problems import PROBLEMS, ROLES, ResultReport, lookup

MANIFEST_KEYS = set(ROLES) | {"problem", "p", "tolerances", "seed"}

# witnesses larger than this are written to sibling .mtx files
MAX_INLINE_DIM = 100


@dataclass(frozen=True)
class ProblemManifest:
    problem: str
    matrices: dict
    p: float | None
    tolerances: Tolerances
    seed: int
    source: str = "<memory>"


def read_matrix(path: str) -> np.ndarray:
    """Read a Matrix Market file as a dense complex matrix."""
    try:
        m = scipy.io.mmread(path)
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot read matrix file {path!r}: {exc}") from exc
    if scipy.sparse.issparse(m):
        m = m.toarray()
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ParseError(f"matrix file {path!r} is not two-dimensional")
    if m.size and not np.all(np.isfinite(m)):
        raise ParseError(f"matrix file {path!r} contains non-finite entries")
    return m


def write_matrix(path: str, m: np.ndarray) -> None:
    """Write a dense matrix in Matrix Market array format, exactly round-trippable."""
    scipy.io.mmwrite(path, np.asarray(m), precision=17)


def _parse_tolerances(raw) -> Tolerances:
    if not isinstance(raw, dict):
        raise ParseError("tolerances must be an object")
    unknown = set(raw) - {"rank_rtol", "residual_rtol"}
    if unknown:
        raise ParseError(f"unknown tolerance fields: {sorted(unknown)}")
    kwargs = {}
    for key, value in raw.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ParseError(f"tolerance {key} must be a number")
        kwargs[key] = float(value)
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
    except json.JSONDecodeError as exc:
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
        if not isinstance(p, (int, float)) or isinstance(p, bool):
            raise ParseError("p must be a number")
        p = float(p)
        if not np.isfinite(p) or p < 1.0:
            raise ParseError(f"p must be a finite real >= 1, got {p}")

    tol = _parse_tolerances(raw.get("tolerances", {}))

    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ParseError("seed must be an integer")

    base = os.path.dirname(os.path.abspath(path))
    matrices = {}
    for role in ROLES:
        if role not in raw:
            continue
        ref = raw[role]
        if not isinstance(ref, str):
            raise ParseError(f"role {role} must be a file path string")
        matrices[role] = read_matrix(os.path.join(base, ref))

    manifest = ProblemManifest(
        problem=problem, matrices=matrices, p=p, tolerances=tol, seed=seed, source=path
    )
    lookup(manifest)  # role set and p must fit a registry row
    return manifest


_NON_FINITE = "reports cannot contain non-finite values"


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
        out.append(json.dumps(obj))
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
            out.append(json.dumps(str(key)))
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
