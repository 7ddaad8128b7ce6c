import importlib.util
import json
from pathlib import Path

import numpy as np

from opapprox.cli import main
from opapprox.manifest import write_matrix

_SPEC = importlib.util.spec_from_file_location(
    "compare_reports", Path(__file__).resolve().parents[1] / "scripts" / "compare_reports.py"
)
compare_reports = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_reports)


def _tree(root: Path):
    """Run two report manifests through ``opapprox --batch``; return (inputs, outputs)."""
    inputs, out = root / "in", root / "out"
    inputs.mkdir()
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 2))
    write_matrix(str(inputs / "A.mtx"), a)
    write_matrix(str(inputs / "W.mtx"), np.eye(4))
    (inputs / "aw.json").write_text(json.dumps({"problem": "report", "A": "A.mtx", "W": "W.mtx"}))
    write_matrix(str(inputs / "T.mtx"), rng.standard_normal((3, 3)))
    write_matrix(str(inputs / "V.mtx"), rng.standard_normal((2, 3)))
    (inputs / "tv.json").write_text(json.dumps({"problem": "report", "T": "T.mtx", "V": "V.mtx"}))
    assert main(["--batch", str(inputs), "--out", str(out)]) == 0
    return inputs, out


def _edit(path: Path, edit) -> None:
    report = json.loads(path.read_text())
    edit(report)
    path.write_text(json.dumps(report))


def test_compare_reports_accepts_identical_and_flags_each_violation(tmp_path):
    inputs, out_a = _tree(tmp_path)
    out_b = tmp_path / "b"
    out_b.mkdir()
    for f in out_a.iterdir():
        (out_b / f.name).write_bytes(f.read_bytes())
    assert compare_reports.compare_trees(str(out_a), str(out_b)) == []

    def nudge(factor):
        def edit(r):
            r["witness"]["data"][0][0][0] *= factor
            r["diagnostics"]["max_basis_residual"] = 2e-15
        return edit

    # round-off movement: a 1e-14 relative witness change and a new exempt residual
    _edit(out_b / "aw.report.json", nudge(1 + 1e-14))
    assert compare_reports.compare_trees(str(out_a), str(out_b), str(inputs)) == []
    # without the manifests the exempt residual has no scale
    assert len(compare_reports.compare_trees(str(out_a), str(out_b))) == 1

    _edit(out_b / "aw.report.json", nudge(1 + 1e-6))
    _edit(out_b / "tv.report.json", lambda r: r["conditions"].update(spline_compatible=False))
    _edit(out_b / "tv.report.json", lambda r: r["diagnostics"].update(max_basis_residual=1.0))
    errors = compare_reports.compare_trees(str(out_a), str(out_b), str(inputs))
    assert any("aw.report.json: witness" in e for e in errors)
    assert any("conditions.spline_compatible" in e for e in errors)
    assert any("max_basis_residual" in e and "exceeds" in e for e in errors)

    (out_b / "extra.txt").write_text("")
    assert any("only in" in e for e in compare_reports.compare_trees(str(out_a), str(out_b)))
