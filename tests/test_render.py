"""Witness matrices render byte for byte as the per-element rule: each
entry a ``[re, im]`` pair at 17 significant digits.  Both bodies of the
renderer are held to it, the ``%`` template of a small matrix and the
vectorized ``_render_large`` of a larger one.  Keys and strings render
byte for byte as ``json.dumps`` renders them."""

import json
import math
import os
import struct
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cgauss
from opapprox import manifest
from opapprox.manifest import ResultReport, canonical_json, render_report


def _reference(m) -> str:
    """The per-element rule: one ``format`` call per real and imaginary part."""
    m = np.asarray(m, dtype=complex)
    rows = [
        "[" + ",".join(f"[{format(v.real, '.17g')},{format(v.imag, '.17g')}]" for v in row) + "]"
        for row in m
    ]
    return "[" + ",".join(rows) + "]\n"


SRC = os.path.dirname(os.path.dirname(manifest.__file__))
PATHS = {"template": 2**62, "large": 0}  # TEMPLATE_MAX_ENTRIES forcing each body


def _render_via(path, m) -> str:
    """canonical_json of m through one body, under errstate(all="raise")
    (a matrix with no entries always takes the template)."""
    with mock.patch.object(manifest, "TEMPLATE_MAX_ENTRIES", PATHS[path]):
        with np.errstate(all="raise"):
            return canonical_json(m)


def _assert_same(text, expected, label=""):
    """text == expected, reporting the first difference in context rather
    than a diff, which for a large matrix takes minutes."""
    if text != expected:
        i = next((i for i, (a, b) in enumerate(zip(text, expected)) if a != b), min(len(text), len(expected)))
        pytest.fail(f"{label} differs at {i}: {text[i - 40 : i + 40]!r} != {expected[i - 40 : i + 40]!r}")


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


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("name", sorted(CASES))
def test_each_body_renders_as_the_per_element_rule(name, path):
    m = CASES[name]
    _assert_same(_render_via(path, m), _reference(m))


def _bits_to_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(0, 2**64 - 1).map(_bits_to_float).filter(math.isfinite),
    st.builds(lambda m, e: m * 10.0**e, st.floats(-10.0, 10.0), st.integers(-320, 300)),
)


@st.composite
def matrices(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    parts = draw(st.lists(FINITE, min_size=2 * rows * cols, max_size=2 * rows * cols))
    return np.array(parts).view(complex).reshape(rows, cols)


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_any_finite_matrix_renders_as_the_per_element_rule(m):
    expected = _reference(m)
    for path in PATHS:
        _assert_same(_render_via(path, m), expected, path)


# each named value, the text "%.17g" gives it, and why it is here
EDGE_VALUES = [
    (0.0, "0"),
    (-0.0, "-0"),
    (5e-324, "4.9406564584124654e-324"),  # the smallest subnormal
    (2.2250738585072014e-308, "2.2250738585072014e-308"),  # the smallest normal
    (1.7976931348623157e308, "1.7976931348623157e+308"),  # the largest double
    (0.1, "0.10000000000000001"),
    (0.30000000000000004, "0.30000000000000004"),
    (1e-5, "1.0000000000000001e-05"),  # the last exponent below fixed notation
    (1e-4, "0.0001"),  # the first fixed one
    (1e16, "10000000000000000"),  # the last fixed one
    (1e17, "1e+17"),  # the first exponent above fixed notation
    (99999999999999999.0, "1e+17"),  # a 17-digit literal that reads as 1e17
    (1e22, "1e+22"),  # the largest exact power of ten
    (1e23, "9.9999999999999992e+22"),
    (1e-14, "1e-14"),  # the double just below 1e-14: its digits carry to 10**17
    (1e98, "1e+98"),  # the same, above
    (2251799813685247.75, "2251799813685247.8"),  # an exact tie, to even
    (1125899906842624.25, "1125899906842624.2"),  # an exact tie, to even
    (123456789012345678.0, "1.2345678901234568e+17"),  # exact large integer
    (1e-281, "1e-281"),  # below the scaled range
    (1e281, "1e+281"),  # above it
    (-1.5e300, "-1.5000000000000001e+300"),
    (1.0, "1"),
    (-2.5, "-2.5"),
    (123.456, "123.456"),
]


def test_edge_values_are_what_they_claim():
    for value, text in EDGE_VALUES:
        assert "%.17g" % value == text, value


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("value, text", EDGE_VALUES, ids=[text for _, text in EDGE_VALUES])
def test_edge_value_renders_as_the_per_element_rule(value, text, path):
    # as a real and an imaginary part, both signs, in a matrix that also
    # holds an ordinary entry
    m = np.array([[complex(value, -value), 1.5 + 0.25j], [complex(-value, value), complex(0.0, value)]])
    _assert_same(_render_via(path, m), _reference(m))
    assert f"[{text}," in _render_via(path, m)


EDGE_MATRIX = np.array([value for value, _ in EDGE_VALUES] * 2).view(complex)
SHAPES = {
    "1_row": EDGE_MATRIX.reshape(1, -1),
    "1_column": EDGE_MATRIX.reshape(-1, 1),
    "1x1": EDGE_MATRIX[:1].reshape(1, 1),
    "0x3": np.zeros((0, 3), dtype=complex),
    "3x0": np.zeros((3, 0), dtype=complex),
    "0x0": np.zeros((0, 0), dtype=complex),
}


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("name", sorted(SHAPES))
def test_shapes_render_as_the_per_element_rule(name, path):
    m = SHAPES[name]
    _assert_same(_render_via(path, m), _reference(m))


def _graded(rng, rows, cols, decades):
    parts = rng.standard_normal((rows, 2 * cols)) * 10.0 ** rng.integers(-decades, decades + 1, (rows, 2 * cols))
    return parts.view(complex)


@pytest.mark.parametrize("shape", [(40, 60), (3000, 1), (1, 2500)], ids=str)
def test_several_blocks_render_as_the_per_element_rule(shape):
    # more parts than one block of _render_large holds
    m = _graded(np.random.default_rng(shape[0]), *shape, decades=30)
    _assert_same(_render_via("large", m), _reference(m))


def test_matrices_at_the_cutoff_take_the_documented_body():
    n = manifest.TEMPLATE_MAX_ENTRIES
    rng = np.random.default_rng(11)
    spied = mock.patch.object(manifest, "_render_large", wraps=manifest._render_large)
    for shape, large in (((1, n), False), ((n, 1), False), ((n - 1, 1), False), ((n + 1, 1), True), ((1, n + 1), True)):
        m = _graded(rng, *shape, decades=5)
        with spied as spy, np.errstate(all="raise"):
            _assert_same(canonical_json(m), _reference(m), str(shape))
        assert spy.called == large, shape


def test_transposed_view_is_not_contiguous():
    assert not CASES["transposed_view"].flags.c_contiguous


def test_digit_tables_build_lazily_and_raise_nothing():
    # importing the CLI builds no table; building them trips no FP trap
    code = "import opapprox.cli, opapprox.manifest as m; assert m._digit_tables is None"
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": SRC})
    with np.errstate(all="raise"):
        tables = manifest._DigitTables()
    assert np.isfinite(tables.hi).all() and np.isfinite(tables.lo).all()


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


STRINGS = {
    "plain": "exists",
    "quotes": 'say "no"',
    "backslash": "C:\\path\\to\\file",
    "control": "tab\there\nnew line\r\x00\x01\x1f\x7f",
    "non_ascii": "Schatten p-Norm, Größe σ_max ≤ λ, 𝔽",
    "line_separator": "a\u2028b\u2029c",
    "lone_surrogate": "x\ud800y",
    "empty": "",
}


@pytest.mark.parametrize("name", sorted(STRINGS))
def test_strings_render_as_json_dumps(name):
    text = STRINGS[name]
    obj = {text: text, "list": [text, text], "nested": {text: None}}
    # json.dumps under its defaults: ASCII only, every other code point escaped
    expected = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    assert canonical_json(obj) == expected
    assert canonical_json(text) == json.dumps(text) + "\n"
