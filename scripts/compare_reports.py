#!/usr/bin/env python3
"""Compare two ``opapprox --batch`` output trees, report by report.

    python scripts/compare_reports.py DIR_A DIR_B [--inputs DIR]

Every file in one tree needs a counterpart at the same relative path in the
other.  Pairs are compared by type:

* ``*.json`` (reports and error payloads): the same keys; identical
  booleans, ints, strings and nulls; floats within ``RTOL`` (1e-12)
  relative; an inline witness (an object with ``rows``, ``cols`` and
  ``data``) within ``RTOL`` in Frobenius norm, relative to the larger of
  the two.
* ``*.mtx`` witness sidecars: the same shape, within ``RTOL`` in Frobenius
  norm.
* anything else (captured exit lines, stderr): byte-identical.

Round-off residual diagnostics (``diagnostics.max_basis_residual``) are
exempt from the relative rule.  Each of the two values must instead stay
within the bound the report tests it against, the library's
``linalg.normal_bound`` of the report's root (W^{1/2} A, or the stack
[T; V]), its right side and its solution.  The matrices and
``residual_rtol`` come from the report's manifest: ``DIR/<relative
path>/<stem>.json`` under ``--inputs``, or the manifest beside the report
when the tree was written without ``--out``.  Identical exempt values need
no manifest.  Trees written with ``--tol-res`` or ``--tol-rank`` overrides
are checked against the manifest's own tolerances, which the reports do
not record.

Prints one line per violation.  Exit status: 0 when the trees agree, 1 on
any violation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from opapprox.linalg import normal_bound, pinv, psd_sqrt
from opapprox.manifest import matrix_from_json, parse_manifest, read_matrix

RTOL = 1e-12
EXEMPT = {("diagnostics", "max_basis_residual")}
REPORT_SUFFIX = ".report.json"


def _relative_files(root: str) -> set:
    found = set()
    for dirpath, _, names in os.walk(root):
        for name in names:
            found.add(os.path.relpath(os.path.join(dirpath, name), root))
    return found


def _matrix_close(a: np.ndarray, b: np.ndarray) -> bool:
    if a.shape != b.shape:
        return False
    return np.linalg.norm(a - b) <= RTOL * max(np.linalg.norm(a), np.linalg.norm(b))


def _is_matrix(obj) -> bool:
    return isinstance(obj, dict) and set(obj) == {"rows", "cols", "data"}


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _compare(a, b, path: tuple, exempt_out: list, errors: list) -> None:
    where = ".".join(map(str, path)) or "<root>"
    if _is_matrix(a) and _is_matrix(b):
        if not _matrix_close(matrix_from_json(a), matrix_from_json(b)):
            errors.append(f"{where}: matrices differ beyond rtol {RTOL:g}")
        return
    if (isinstance(a, float) or isinstance(b, float)) and _is_number(a) and _is_number(b):
        # a float that renders as an integer (0.0 is written as 0) reads back as an int
        if path in EXEMPT:
            if a != b:
                exempt_out.append((where, float(a), float(b)))
        elif not abs(a - b) <= RTOL * max(abs(a), abs(b)):
            errors.append(f"{where}: {a!r} vs {b!r}")
    elif type(a) is not type(b):
        errors.append(f"{where}: type {type(a).__name__} vs {type(b).__name__}")
    elif isinstance(a, dict):
        if set(a) != set(b):
            errors.append(f"{where}: keys differ: {sorted(set(a) ^ set(b))}")
        for key in sorted(set(a) & set(b)):
            _compare(a[key], b[key], path + (key,), exempt_out, errors)
    elif isinstance(a, list):
        if len(a) != len(b):
            errors.append(f"{where}: lengths {len(a)} vs {len(b)}")
        for i, (x, y) in enumerate(zip(a, b)):
            _compare(x, y, path + (i,), exempt_out, errors)
    elif a != b:
        errors.append(f"{where}: {a!r} vs {b!r}")


def residual_bound(manifest_path: str) -> float:
    """The ``normal_bound`` that the library tests ``max_basis_residual`` against."""
    m = parse_manifest(manifest_path)
    mats, tol = m.matrices, m.tolerances
    if "W" in mats:
        B = psd_sqrt(mats["W"], tol)
        M = B @ mats["A"]
    else:
        T, V = mats["T"], mats["V"]
        M = np.vstack([T, V])
        B = np.vstack([np.zeros((T.shape[0], V.shape[0])), np.eye(V.shape[0])])
    return normal_bound(M, pinv(M, tol) @ B, B, tol)


def _manifest_for(rel: str, dir_a: str, inputs: str | None) -> str | None:
    stem_rel = rel[: -len(REPORT_SUFFIX)] + ".json"
    path = os.path.join(inputs if inputs else dir_a, stem_rel)
    return path if os.path.isfile(path) else None


def compare_file(rel: str, dir_a: str, dir_b: str, inputs: str | None) -> list:
    pa, pb = os.path.join(dir_a, rel), os.path.join(dir_b, rel)
    errors: list = []
    if rel.endswith(".json"):
        with open(pa, encoding="utf-8") as fa, open(pb, encoding="utf-8") as fb:
            a, b = json.load(fa), json.load(fb)
        exempt: list = []
        _compare(a, b, (), exempt, errors)
        if exempt:
            manifest = _manifest_for(rel, dir_a, inputs) if rel.endswith(REPORT_SUFFIX) else None
            if manifest is None:
                errors.append("exempt residuals differ and no manifest gives their scale")
            else:
                bound = residual_bound(manifest)
                for where, x, y in exempt:
                    if not (math.isfinite(x) and math.isfinite(y) and max(x, y) <= bound):
                        errors.append(f"{where}: {x!r} vs {y!r} exceeds residual bound {bound!r}")
    elif rel.endswith(".mtx"):
        if not _matrix_close(read_matrix(pa), read_matrix(pb)):
            errors.append(f"matrices differ beyond rtol {RTOL:g}")
    else:
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            if fa.read() != fb.read():
                errors.append("contents differ")
    return [f"{rel}: {e}" for e in errors]


def compare_trees(dir_a: str, dir_b: str, inputs: str | None = None) -> list:
    """Every violation between the two trees, one message each."""
    files_a, files_b = _relative_files(dir_a), _relative_files(dir_b)
    errors = [f"{rel}: only in {dir_a}" for rel in sorted(files_a - files_b)]
    errors += [f"{rel}: only in {dir_b}" for rel in sorted(files_b - files_a)]
    for rel in sorted(files_a & files_b):
        errors += compare_file(rel, dir_a, dir_b, inputs)
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dir_a")
    parser.add_argument("dir_b")
    parser.add_argument("--inputs", help="root of the manifests, laid out like the trees")
    args = parser.parse_args(argv)
    errors = compare_trees(args.dir_a, args.dir_b, args.inputs)
    for line in errors:
        print(line)
    n = len(_relative_files(args.dir_a))
    print(f"{n} files compared, {len(errors)} violations", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
