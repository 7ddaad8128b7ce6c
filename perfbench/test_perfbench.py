"""Self-tests of the benchmark's own machinery.

    python3 -m pytest -q perfbench
"""

import importlib
import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402
import verify  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402


def _opapprox_bindings():
    """Identity of every attribute of every opapprox module and traced class hook."""
    for modname in LAYERS.values():
        importlib.import_module(modname)
    snapshot = {}
    for modname, module in sys.modules.items():
        if modname == "opapprox" or modname.startswith("opapprox."):
            for attr, obj in vars(module).items():
                snapshot[(modname, attr)] = id(obj)
                if isinstance(obj, type) and "__post_init__" in vars(obj):
                    snapshot[(modname, attr, "__post_init__")] = id(vars(obj)["__post_init__"])
    return snapshot


def test_install_wraps_internal_calls_and_uninstall_restores_everything():
    import opapprox.cli
    import opapprox.linalg
    import opapprox.wls

    before = _opapprox_bindings()
    original_pinv = opapprox.linalg.pinv
    tracer = Tracer()
    tracer.install()
    try:
        # wls imported pinv by name; that binding must be wrapped as well
        assert opapprox.wls.pinv is opapprox.linalg.pinv is not original_pinv
        assert opapprox.cli.psd_sqrt is not None
        A = np.eye(3, dtype=complex)
        opapprox.wls.wlss_solve(A, A, np.ones(3))
    finally:
        tracer.uninstall()
    assert _opapprox_bindings() == before
    assert opapprox.linalg.pinv is original_pinv
    assert tracer.stats["wls.wlss_solve"]["calls"] == 1
    assert tracer.stats["linalg.pinv"]["calls"] == 1
    assert tracer.stats["linalg.svd_with_rank"]["calls"] == 1
    assert tracer.stats["linalg.svd_with_rank"]["unique_inputs"] == 1


def _fake_module(name, **functions):
    module = types.ModuleType(name)
    for fname, fn in functions.items():
        fn.__module__ = name
        setattr(module, fname, fn)
    return module


def test_self_time_subtracts_wrapped_children(monkeypatch):
    ticks = iter([0.0, 1.0, 4.0, 5.0, 5.5, 10.0])

    def inner():
        return 1

    def outer():
        return module.inner() + module.inner()

    module = _fake_module("fake_layer", inner=inner, outer=outer)
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    tracer = Tracer(layers={"fake": "fake_layer"}, clock=lambda: next(ticks))
    tracer.install()
    try:
        tracer.begin_manifest("m1")
        assert module.outer() == 2
    finally:
        tracer.uninstall()
    outer_stats, inner_stats = tracer.stats["fake.outer"], tracer.stats["fake.inner"]
    assert inner_stats["calls"] == 2 and inner_stats["s"] == 3.5 and inner_stats["self_s"] == 3.5
    assert outer_stats["calls"] == 1 and outer_stats["s"] == 10.0 and outer_stats["self_s"] == 6.5
    names = [s[0] for s in tracer.spans]
    assert names == ["fake.outer", "fake.inner", "fake.inner"]
    assert [s[3] for s in tracer.spans] == [None, 0, 0]
    assert {s[4] for s in tracer.spans} == {"m1"}


def test_recursive_span_counts_inclusive_time_once(monkeypatch):
    ticks = iter([0.0, 1.0, 3.0, 4.0])

    def rec(depth):
        return rec_module.rec(depth - 1) if depth else 0

    rec_module = _fake_module("fake_rec", rec=rec)
    monkeypatch.setitem(sys.modules, "fake_rec", rec_module)
    tracer = Tracer(layers={"fake": "fake_rec"}, clock=lambda: next(ticks))
    tracer.install()
    try:
        rec_module.rec(1)
    finally:
        tracer.uninstall()
    stats = tracer.stats["fake.rec"]
    assert stats["calls"] == 2 and stats["s"] == 4.0 and stats["self_s"] == 4.0


def test_same_seed_same_manifests(tmp_path):
    def files(seed, sub):
        directory = tmp_path / sub
        directory.mkdir()
        for case in inputs.build("solve-mix", seed):
            inputs.write_manifest(case, str(directory))
        return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}

    first, again, other = files(7, "a"), files(7, "b"), files(8, "c")
    assert first == again
    assert first.keys() == other.keys() and first != other


def test_removed_function_gives_absent_metric_not_a_crash():
    stats = {"linalg.svd_with_rank": {"calls": 4.0, "self_s": 1.0, "flops_est": 4e9,
                                      "unique_inputs": 1.0}}
    result = {
        "traced": [{"codes": [0, 2], "wall": 2.0}, {"codes": [0, 2], "wall": 2.0}],
        "untraced": [{"codes": [0, 2], "wall": 1.6}],
        "wrapped": ["linalg.svd_with_rank", "wls.owls_min"],
        "stats": stats,
    }
    metrics = run.per_layer_metrics(result, {}, 0.0)
    assert "linalg.pinv.calls" not in metrics
    assert metrics["linalg.svd_with_rank.calls"] == 2.0
    assert metrics["linalg.svd_with_rank.unique_frac"] == 0.25
    assert metrics["linalg.svd_with_rank.gflop_est"] == 2.0
    assert metrics["wls.owls_min.s"] == 0.0  # present in the program, never called
    assert metrics["cli.exit_2.count"] == 1.0
    assert metrics["trace.overhead.frac"] == pytest.approx(0.25)


def test_importtime_parsing():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | site",
        "import time:      2500 |     114000 |       numpy",
        "import time:       600 |     280000 |     scipy.io",
        "import time:      7000 |     400000 | opapprox.cli",
    ])
    assert run.parse_importtime(text) == {
        "import.numpy.s": 0.114, "import.scipy_io.s": 0.28, "import.opapprox_cli.s": 0.4,
    }


def test_mtx_reader_round_trips_writer_and_expands_hermitian_storage(tmp_path):
    m = inputs.cgauss(np.random.default_rng(3), 4, 3)
    path = tmp_path / "m.mtx"
    inputs.write_mtx(str(path), m)
    assert np.array_equal(verify.read_mtx(str(path)), m)
    path.write_text("%%MatrixMarket matrix array complex hermitian\n2 2\n1 0\n2 3\n4 0\n")
    assert np.array_equal(verify.read_mtx(str(path)), np.array([[1, 2 - 3j], [2 + 3j, 4]]))


def test_check_rejects_a_wrong_exact_answer(tmp_path):
    case = next(c for c in inputs.build("tiny-batch", 1) if c.id == "x-smoothing-0")
    good = {"problem": "smoothing", "exists": True, "min_value": case.exact["min_value"],
            "witness": {"rows": 1, "cols": 1, "data": [[[case.exact["witness"][0, 0].real, 0.0]]]},
            "residuals": {"normal_equation": 0.0}, "conditions": {}, "diagnostics": {}}
    verify.check_report(case, json.dumps(good), str(tmp_path), 0)
    with pytest.raises(verify.CheckFailed):
        verify.check_report(case, json.dumps({**good, "min_value": 0.5}), str(tmp_path), 0)
    with pytest.raises(verify.CheckFailed):
        verify.check_report(case, json.dumps(good), str(tmp_path), 2)


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    spec_path = HERE.parent / "BENCHMARK.json"
    if not spec_path.exists():
        pytest.skip("BENCHMARK.json sits beside this directory only in a full checkout")
    spec = json.loads(spec_path.read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
