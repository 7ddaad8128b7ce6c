"""The benchmark's per-layer names exist in the program.

``perfbench/run.py`` leaves out, without an error, a span whose public
function is no longer wrapped and an ``import.*`` key whose module
``import opapprox.cli`` no longer loads.  These tests only read
``perfbench/``: they check that every span it names is a public function
or validated class of its module, and that the modules it times the
import of are loaded by the CLI.
"""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import opapprox.cli  # noqa: F401  (loads every layer module)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _span_metrics():
    """SPAN_METRICS of perfbench/run.py, read without running that script
    (importing it sets the BLAS thread count of this process)."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SPAN_METRICS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no SPAN_METRICS")


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_span_is_wrapped():
    wrapped = {name for name, *_ in _spans_module().Tracer().targets()}
    missing = [name for name, _ in _span_metrics() if name not in wrapped]
    assert not missing


def test_cli_import_loads_the_timed_modules():
    root = PERFBENCH.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )}
    code = "import sys, opapprox.cli; print(sorted({'numpy', 'scipy.io'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['numpy', 'scipy.io']"
