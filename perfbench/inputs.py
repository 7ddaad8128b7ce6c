"""Seeded manifest generator for the three benchmark workloads.

The random distributions are the ones the test suite uses (complex
gaussian, random PSD, rank-deficient products), kept here as a copy on
purpose: an edit to the tests must not silently change the benchmark's
inputs.  The seed draws only matrix entries and scale factors.  Sizes,
ranks, kinds and the expected outcome of every manifest are fixed per
workload, so timings are comparable across seeds and the expected exit
code of each manifest is known from how it was built.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("report-ladder", "solve-mix", "tiny-batch")

# the seed used while developing; HELD_OUT_SEED is kept for confirming a
# claimed gain on inputs nobody tuned against
DEFAULT_SEED = 1
HELD_OUT_SEED = 20260917

LADDER = (8, 12, 16, 24, 32, 48, 64, 96, 128)
SOLVE_SIZES = (32, 64, 100, 128)
TINY_SIZES = (2, 3, 4, 5, 6, 7, 8)


def cgauss(rng, rows, cols):
    """Complex standard-gaussian matrix, unit entry variance."""
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


def random_psd(rng, n, rank=None):
    """Random PSD matrix of the given rank (full rank by default), O(1) eigenvalues."""
    r = n if rank is None else rank
    if r == 0:
        return np.zeros((n, n), dtype=complex)
    g = cgauss(rng, r, n)
    return g.conj().T @ g / r


def random_rank_deficient(rng, rows, cols, rank):
    if rank == 0:
        return np.zeros((rows, cols), dtype=complex)
    return cgauss(rng, rows, rank) @ cgauss(rng, rank, cols)


@dataclass
class Case:
    """One manifest and what a correct run of it must produce.

    ``exact`` holds hand-derived values (``min_value`` and/or ``witness``);
    ``oracle`` names an independent check in verify.py.
    """

    id: str
    problem: str
    matrices: dict
    p: float | None = None
    seed: int = 0
    exit_code: int = 0
    exact: dict = field(default_factory=dict)
    oracle: str | None = None

    @property
    def exists(self) -> bool:
        return self.exit_code == 0


def _block(w, f):
    return {"W11": w[:f, :f], "W12": w[:f, f:], "W22": w[f:, f:]}


def _aw(rng, n, deficient):
    k = 3 * n // 4
    A = random_rank_deficient(rng, n, k, k - 2) if deficient else cgauss(rng, n, k)
    W = random_psd(rng, n, n - 2 if deficient else None)
    return A, W


def _tv(rng, n, deficient):
    f = n // 2
    V = random_rank_deficient(rng, f, n, f - 2) if deficient else cgauss(rng, f, n)
    return cgauss(rng, n, n), V


def report_ladder(rng) -> list[Case]:
    cases = []
    for i, n in enumerate(LADDER):
        deficient = i % 2 == 1
        A, W = _aw(rng, n, deficient)
        cases.append(Case(f"aw-{n:03d}", "report", {"A": A, "W": W}, p=(1.0, 2.0, 3.0)[i % 3]))
        T, V = _tv(rng, n, deficient)
        cases.append(Case(f"tv-{n:03d}", "report", {"T": T, "V": V}, seed=int(rng.integers(2**31))))
        f = n // 2
        A = random_rank_deficient(rng, f, n, f - 2) if deficient else cgauss(rng, f, n)
        blocks = _block(random_psd(rng, f + n), f)
        cases.append(Case(f"block-{n:03d}", "report", {"A": A, **blocks}))
    return cases


def _random_case(rng, kind, n, tag, deficient) -> Case:
    """A random instance of one single-solve kind at size n; it always exists."""
    f = max(n // 2, 1)
    cid = f"{kind}-{tag}"
    if kind in ("wls", "w-inverse", "owls"):
        A, W = _aw(rng, n, deficient) if n >= 4 else (cgauss(rng, n, n), random_psd(rng, n))
        mats = {"A": A, "W": W}
        if kind == "wls":
            mats["x"] = cgauss(rng, n, 1)
            return Case(cid, kind, mats, oracle="wls")
        return Case(cid, kind, mats, p=(1.0, 2.0, 3.0, 2.5)[n % 4] if kind == "owls" else None)
    if kind in ("spline", "op-spline", "smoothing", "op-smoothing"):
        T, V = _tv(rng, n, deficient) if n >= 6 else (cgauss(rng, n, n), cgauss(rng, f, n))
        mats = {"T": T, "V": V}
        if kind == "spline":
            mats["f0"] = V @ cgauss(rng, n, 1)
            return Case(cid, kind, mats, oracle="spline")
        if kind == "op-spline":
            mats["B0"] = V @ cgauss(rng, n, n)
            return Case(cid, kind, mats, p=(1.0, 2.0, 3.0, 2.5)[n % 4])
        if kind == "smoothing":
            mats["f0"] = cgauss(rng, f, 1)
            return Case(cid, kind, mats, oracle="smoothing")
        mats["B0"] = cgauss(rng, f, f)
        return Case(cid, kind, mats)
    if kind == "opt-inverse":
        A = cgauss(rng, f, n)
        return Case(cid, kind, {"A": A, **_block(random_psd(rng, f + n), f)})
    # shorted and compat: S may hold any spanning set, here a rank-deficient one
    k = max(n // 4, 2)
    W = random_psd(rng, n, n - 2 if deficient and n >= 4 else None)
    S = random_rank_deficient(rng, n, k, k - 1)
    return Case(cid, kind, {"W": W, "S": S}, oracle="shorted" if kind == "shorted" else None)


SINGLE_KINDS = (
    "wls", "w-inverse", "owls", "spline", "op-spline",
    "smoothing", "op-smoothing", "opt-inverse", "shorted", "compat",
)


def _outside_range(rng, kind, n, tag) -> Case:
    """spline with f0 outside R(V), or op-spline with R(B0) outside R(V): exit 2."""
    f = n // 2
    T, V = cgauss(rng, n, n), random_rank_deficient(rng, f, n, f - 2)
    if kind == "spline":
        return Case(f"spline-{tag}-outside", kind,
                    {"T": T, "V": V, "f0": cgauss(rng, f, 1)}, exit_code=2)
    return Case(f"op-spline-{tag}-outside", kind,
                {"T": T, "V": V, "B0": cgauss(rng, f, n)}, p=2.0, exit_code=2)


def solve_mix(rng) -> list[Case]:
    cases = []
    for i, n in enumerate(SOLVE_SIZES):
        for kind in SINGLE_KINDS:
            cases.append(_random_case(rng, kind, n, f"{n:03d}", deficient=i % 2 == 1))
    for n in (64, 100, 128):
        cases.append(_outside_range(rng, "spline", n, f"{n:03d}"))
    for n in (64, 128):
        cases.append(_outside_range(rng, "op-spline", n, f"{n:03d}"))
    return cases


def _exact_cases(c: float, tag: str) -> list[Case]:
    """Hand-derived instances (the demo set, scaled by c) with their exact answers."""
    t = 2.0 * c
    rows = lambda *r: np.array(r, dtype=complex)  # noqa: E731
    tt = c * rows([1.0, 1.0], [0.0, 1.0])
    return [
        # minimize 2c(u-1)^2 + c u^2: u = 2/3, value sqrt(2c/3)
        Case(f"x-wls-{tag}", "wls",
             {"A": rows([1.0], [1.0]), "W": np.diag([2 * c, c]), "x": rows([1.0], [0.0])},
             exact={"min_value": np.sqrt(2 * c / 3), "witness": rows([2 / 3])}),
        Case(f"x-w-inverse-{tag}", "w-inverse",
             {"A": rows([1.0], [1.0]), "W": np.diag([2 * c, c])},
             exact={"witness": rows([2 / 3, 1 / 3])}),
        # W^(1/2)(AX - I) at its minimum is diag(0, -2 sqrt c): rank one, any p
        Case(f"x-owls-{tag}", "owls",
             {"A": rows([1.0], [0.0]), "W": np.diag([c, 4 * c])}, p=3.0,
             exact={"min_value": 2 * np.sqrt(c), "witness": rows([1.0, 0.0])}),
        # h = (1, z), ||T h||^2 = c^2((1+z)^2 + z^2): z = -1/2
        Case(f"x-spline-{tag}", "spline",
             {"T": tt, "V": rows([1.0, 0.0]), "f0": rows([1.0])},
             exact={"min_value": c / np.sqrt(2), "witness": rows([1.0], [-0.5])}),
        Case(f"x-op-spline-{tag}", "op-spline",
             {"T": tt, "V": rows([1.0, 0.0]), "B0": rows([1.0, 0.0])}, p=2.0,
             exact={"min_value": c / np.sqrt(2), "witness": rows([1.0, 0.0], [-0.5, 0.0])}),
        # t^2 h^2 + (2h - 1)^2: h = 2/(t^2+4), value t^2/(t^2+4)
        Case(f"x-smoothing-{tag}", "smoothing",
             {"T": rows([t]), "V": rows([2.0]), "f0": rows([1.0])},
             exact={"min_value": t * t / (t * t + 4), "witness": rows([2 / (t * t + 4)])}),
        Case(f"x-op-smoothing-{tag}", "op-smoothing",
             {"T": rows([t]), "V": rows([2.0]), "B0": rows([1.0])},
             exact={"min_value": t * t / (t * t + 4), "witness": rows([2 / (t * t + 4)])}),
        Case(f"x-opt-inverse-{tag}", "opt-inverse",
             {"A": rows([1.0]), "W11": rows([c]), "W12": rows([0.0]), "W22": rows([c])},
             exact={"witness": rows([0.5])}),
        # Schur complement of the (1,1) block: c - c^2/(2c) = c/2
        Case(f"x-shorted-{tag}", "shorted",
             {"W": c * rows([2.0, 1.0], [1.0, 1.0]), "S": rows([1.0], [0.0])},
             exact={"witness": rows([0.0, 0.0], [0.0, c / 2])}),
        Case(f"x-compat-{tag}", "compat",
             {"W": c * np.eye(2, dtype=complex), "S": rows([1.0], [0.0])},
             exact={"witness": rows([1.0, 0.0], [0.0, 0.0])}),
        # the weighted inverse G = (2/3, 1/3) leaves a rank-one residual of norm 2 sqrt(c/3)
        Case(f"x-report-aw-{tag}", "report",
             {"A": rows([1.0], [1.0]), "W": np.diag([2 * c, c])}, p=2.0,
             exact={"min_value": 2 * np.sqrt(c / 3), "witness": rows([2 / 3, 1 / 3])}),
        Case(f"x-report-tv-{tag}", "report",
             {"T": c * rows([1.0, 0.5, 0.0], [0.0, 1.0, 2.0]), "V": rows([1.0, 1.0, 1.0])}, seed=7),
        Case(f"x-report-block-{tag}", "report",
             {"A": rows([1.0]), "W11": rows([c]), "W12": rows([0.0]), "W22": rows([c])},
             exact={"witness": rows([0.5, 0.5])}),
        Case(f"x-spline-outside-{tag}", "spline",
             {"T": c * np.eye(2, dtype=complex), "V": rows([1.0, 0.0], [0.0, 0.0]),
              "f0": rows([0.0], [1.0])},
             exit_code=2),
        Case(f"x-op-spline-outside-{tag}", "op-spline",
             {"T": c * np.eye(2, dtype=complex), "V": rows([1.0, 0.0], [0.0, 0.0]),
              "B0": rows([0.0, 0.0], [0.0, 1.0])}, p=2.0, exit_code=2),
    ]


def tiny_batch(rng) -> list[Case]:
    cases = []
    for j in range(4):
        cases.extend(_exact_cases(float(rng.uniform(0.5, 2.0)), str(j)))
    for j in range(3):
        for n in TINY_SIZES:
            tag = f"{n}-{j}"
            deficient = j == 1
            for kind in SINGLE_KINDS:
                cases.append(_random_case(rng, kind, n, tag, deficient))
            A, W = (cgauss(rng, n, n), random_psd(rng, n))
            cases.append(Case(f"report-aw-{tag}", "report", {"A": A, "W": W}, p=2.0))
            T, V = cgauss(rng, n, n), cgauss(rng, max(n // 2, 1), n)
            cases.append(Case(f"report-tv-{tag}", "report", {"T": T, "V": V}, seed=j))
            f = max(n // 2, 1)
            cases.append(Case(f"report-block-{tag}", "report",
                              {"A": cgauss(rng, f, n), **_block(random_psd(rng, f + n), f)}))
    return cases


_BUILDERS = {"report-ladder": report_ladder, "solve-mix": solve_mix, "tiny-batch": tiny_batch}


def build(workload: str, seed: int) -> list[Case]:
    """Every case of a workload; the same seed gives the same cases."""
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    return _BUILDERS[workload](rng)


def _format_entry(z: complex, field_: str) -> str:
    if field_ == "real":
        return format(z.real, ".17g")
    return f"{z.real:.17g} {z.imag:.17g}"


def write_mtx(path: str, m: np.ndarray) -> None:
    """Matrix Market array format, column-major, 17 significant digits.

    Real-valued matrices are written with the ``real`` field, so the
    program's reader sees both fields.
    """
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    field_ = "real" if not np.any(m.imag) else "complex"
    lines = [f"%%MatrixMarket matrix array {field_} general", f"{m.shape[0]} {m.shape[1]}"]
    lines.extend(_format_entry(z, field_) for z in m.T.ravel())
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def write_manifest(case: Case, directory: str) -> str:
    """Write one case's matrices and manifest; return the manifest path."""
    spec = {"problem": case.problem, "seed": case.seed}
    if case.p is not None:
        spec["p"] = case.p
    for role, m in case.matrices.items():
        name = f"{case.id}.{role}.mtx"
        write_mtx(os.path.join(directory, name), m)
        spec[role] = name
    path = os.path.join(directory, f"{case.id}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh, sort_keys=True)
    return path
