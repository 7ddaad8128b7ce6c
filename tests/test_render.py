"""Witness matrices render in one formatting call, byte for byte as the
per-element rule: each entry a ``[re, im]`` pair at 17 significant digits."""

import numpy as np
import pytest

from conftest import cgauss
from opapprox.manifest import ResultReport, canonical_json, render_report


def _reference(m) -> str:
    """The per-element rule: one ``format`` call per real and imaginary part."""
    m = np.asarray(m, dtype=complex)
    rows = [
        "[" + ",".join(f"[{format(v.real, '.17g')},{format(v.imag, '.17g')}]" for v in row) + "]"
        for row in m
    ]
    return "[" + ",".join(rows) + "]\n"


EDGE = np.array(
    [[-0.0, 1.0, -2.0], [5e-324, 2.2250738585072014e-308, 1e308], [-1e308, 1e16, 0.1]]
)

CASES = {
    "complex": cgauss(np.random.default_rng(0), 7, 5),
    "complex_scaled": cgauss(np.random.default_rng(1), 4, 4) * 1e-200,
    "real_dtype": np.random.default_rng(2).standard_normal((3, 6)),
    "edge_real": EDGE,
    "edge_complex": EDGE + 1j * EDGE[::-1],
    "1x1": np.array([[3.0 - 0.0j]]),
    "nx1": cgauss(np.random.default_rng(3), 5, 1),
    "nx0": np.zeros((4, 0), dtype=complex),
    "0xn": np.zeros((0, 4), dtype=complex),
    "transposed_view": cgauss(np.random.default_rng(4), 6, 3).T,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_matrix_render_matches_per_element_rule(name):
    m = CASES[name]
    assert canonical_json(m) == _reference(m)


def test_transposed_view_is_not_contiguous():
    assert not CASES["transposed_view"].flags.c_contiguous


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
def test_non_finite_matrix_entry_raises(bad):
    m = np.eye(3, dtype=complex)
    m[1, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        canonical_json({"witness": {"data": m}})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_scalar_raises(bad):
    with pytest.raises(ValueError, match="non-finite"):
        canonical_json({"min_value": bad})


def test_non_finite_sidecar_witness_raises(tmp_path):
    big = np.eye(120, dtype=complex)
    big[3, 4] = np.inf
    report = ResultReport(problem="shorted", exists=True, witness=big)
    with pytest.raises(ValueError, match="non-finite"):
        render_report(report, str(tmp_path / "big"))
    assert not list(tmp_path.iterdir())
