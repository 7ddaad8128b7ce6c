"""Correctness check behind the benchmark's ``failed`` count.

Each report is checked by tolerance, never against golden bytes, so a
change that moves values in the last digits still passes:

* the exit code and ``exists`` flag match how the instance was built, and
  every condition flag in the report agrees with ``exists``;
* every residual is finite and within ``residual_rtol`` times a scale
  built from the operand and witness norms;
* ``min_value`` (and, for ``shorted``, the witness at probe vectors) agrees
  with ``opapprox.oracles``, and hand-derived instances match their exact
  answers;
* a witness spilled to a sidecar ``.mtx`` file reads back with a sane
  shape and finite entries.

The sidecar reader here is the benchmark's own, so the check does not rely
on the program's Matrix Market code.
"""

from __future__ import annotations

import json
import os

import numpy as np

RESIDUAL_RTOL = 1e-8  # the manifests use the program's default tolerances
EXACT_RTOL = 1e-9


class CheckFailed(Exception):
    pass


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def read_mtx(path: str) -> np.ndarray:
    """Dense complex matrix from a Matrix Market file (array or coordinate;
    real, integer or complex; general, symmetric, skew-symmetric or hermitian)."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        lines = [ln for ln in fh if ln.strip() and not ln.startswith("%")]
    _require(len(header) == 5 and header[0] == "%%MatrixMarket", f"{path}: bad header")
    layout, field_, symmetry = (h.lower() for h in header[2:])
    dims = [int(v) for v in lines[0].split()]
    rows, cols = dims[0], dims[1]
    width = 2 if field_ == "complex" else 1

    def value(parts):
        return complex(float(parts[0]), float(parts[1])) if width == 2 else complex(float(parts[0]))

    m = np.zeros((rows, cols), dtype=complex)
    entries = [ln.split() for ln in lines[1:]]
    if layout == "coordinate":
        for parts in entries:
            m[int(parts[0]) - 1, int(parts[1]) - 1] = value(parts[2:])
    else:
        # column-major; symmetric storage lists only the lower triangle
        positions = [
            (i, j) for j in range(cols) for i in range(rows)
            if symmetry == "general" or i > j or (i == j and symmetry != "skew-symmetric")
        ]
        _require(len(positions) == len(entries), f"{path}: expected {len(positions)} entries")
        for (i, j), parts in zip(positions, entries):
            m[i, j] = value(parts)
    if symmetry != "general":
        lower = np.tril(m, -1)
        mirror = {"symmetric": lower.T, "skew-symmetric": -lower.T, "hermitian": lower.conj().T}
        m = m + mirror[symmetry]
    return m


def _witness(report: dict, report_dir: str):
    w = report.get("witness")
    if w is None:
        return None
    if "path" in w:
        path = os.path.join(report_dir, w["path"])
        _require(os.path.isfile(path), f"sidecar {w['path']} missing")
        return read_mtx(path)
    data = np.array(w["data"], dtype=float).reshape(w["rows"], w["cols"], 2)
    return data[..., 0] + 1j * data[..., 1]


def _fro(m) -> float:
    return float(np.linalg.norm(m))


def _orthonormal_range(S) -> np.ndarray:
    U, s, _ = np.linalg.svd(S)
    rank = int(np.count_nonzero(s > 1e-10 * s[0])) if s.size and s[0] > 0 else 0
    return U[:, :rank]


def _check_oracle(case, report, witness, rng):
    from opapprox import oracles
    from opapprox.linalg import Subspace, full_subspace

    m = case.matrices
    if case.oracle == "shorted":  # x* sigma x equals the variational infimum at probe vectors
        W, basis = m["W"], Subspace(_orthonormal_range(m["S"]))
        for _ in range(3):
            x = rng.standard_normal(W.shape[0]) + 1j * rng.standard_normal(W.shape[0])
            form = float(np.real(x.conj() @ witness @ x))
            want = oracles.shorted_variational(W, basis, x)
            _require(
                abs(form - want) <= RESIDUAL_RTOL * _fro(W) * _fro(x) ** 2,
                f"shorted quadratic form {form!r} != variational {want!r}",
            )
        return
    # the oracles give squared minima, as does the smoothing report's objective
    got = report["min_value"] if case.oracle == "smoothing" else report["min_value"] ** 2
    if case.oracle == "wls":
        A, W, x = m["A"], m["W"], m["x"].ravel()
        expected, _ = oracles.quadratic_min_over_affine(W, A, x, full_subspace(A.shape[1]))
        scale = _fro(W) * (_fro(A) * _fro(witness) + _fro(x)) ** 2
    elif case.oracle == "spline":
        T, V, f0 = m["T"], m["V"], m["f0"].ravel()
        h0 = np.linalg.lstsq(V, f0, rcond=None)[0]
        _, s, Vh = np.linalg.svd(V)
        rank = int(np.count_nonzero(s > 1e-10 * s[0]))
        null = Subspace(Vh[rank:, :].conj().T)
        expected, _ = oracles.quadratic_min_over_affine(np.eye(T.shape[0]), T, -(T @ h0), null)
        scale = (_fro(T) * max(_fro(witness), _fro(h0))) ** 2
    elif case.oracle == "smoothing":
        T, V, f0 = m["T"], m["V"], m["f0"].ravel()
        stacked = np.vstack([T, V])
        target = np.concatenate([np.zeros(T.shape[0], dtype=complex), f0])
        expected, _ = oracles.quadratic_min_over_affine(
            np.eye(stacked.shape[0]), stacked, target, full_subspace(T.shape[1])
        )
        scale = (_fro(stacked) * _fro(witness) + _fro(f0)) ** 2
    _require(
        abs(got - expected) <= RESIDUAL_RTOL * max(scale, 1e-300),
        f"squared minimum {got!r} != oracle {expected!r}",
    )


def check_report(case, text: str, report_dir: str, exit_code: int) -> None:
    """Raise CheckFailed unless ``text`` (one report) is correct for ``case``."""
    _require(exit_code == case.exit_code, f"exit code {exit_code}, expected {case.exit_code}")
    report = json.loads(text)
    _require(report.get("exists") is case.exists, f"exists={report.get('exists')!r}")
    for name, flag in report.get("conditions", {}).items():
        _require(flag is case.exists, f"condition {name}={flag!r} disagrees with exists")
    witness = _witness(report, report_dir)
    if not case.exists:
        _require(witness is None, "a nonexistent solution has a witness")
        return
    if witness is not None:
        _require(witness.ndim == 2 and np.all(np.isfinite(witness)), "witness is not finite")

    operand = sum(_fro(m) for m in case.matrices.values())
    scale = (1.0 + operand) ** 3 * (1.0 + (_fro(witness) if witness is not None else 0.0))
    for name, res in report.get("residuals", {}).items():
        _require(np.isfinite(res) and res <= RESIDUAL_RTOL * scale, f"residual {name}={res!r}")

    for key, want in case.exact.items():
        got = report["min_value"] if key == "min_value" else witness
        _require(got is not None and np.shape(got) == np.shape(want), f"{key} missing or misshapen")
        err = np.max(np.abs(np.asarray(got) - want))
        _require(err <= EXACT_RTOL * max(np.max(np.abs(want)), 1.0), f"{key} off by {err!r}")

    if case.oracle is not None:
        rng = np.random.default_rng(sum(case.id.encode()))
        _check_oracle(case, report, witness, rng)
