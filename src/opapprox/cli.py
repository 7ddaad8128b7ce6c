"""Batch front door: read a problem manifest, dispatch it through the
problem registry, and emit a machine-readable report.

Exit codes: 0 solved, 2 well-posed nonexistence, 3 equivalence violation,
64 parse error, 65 dimension error, 70 numerical failure (a ValueError or
LinAlgError while solving or rendering).  Exit codes 3 and 70 write a JSON
error payload in place of the report.  Logging verbosity comes from the
OPAPPROX_LOG environment variable (error, info, or debug).
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import logging
import os
import sys

import numpy as np

from .errors import (
    DimensionError,
    EquivalenceViolation,
    InconsistentDims,
    NoMinimum,
    NotInRange,
    NotPsd,
    ParseError,
)
# psd_sqrt is unused here but stays importable: perfbench/test_perfbench.py
# checks that the tracer rebinds opapprox.cli.psd_sqrt
from .linalg import Tolerances, psd_sqrt  # noqa: F401
from .manifest import ProblemManifest, canonical_json, parse_manifest, render_report
from .problems import ResultReport, lookup

log = logging.getLogger("opapprox")

EXIT_SOLVED = 0
EXIT_NONEXISTENT = 2
EXIT_EQUIVALENCE = 3
EXIT_PARSE = 64
EXIT_DIMENSION = 65
EXIT_NUMERICAL = 70  # sysexits EX_SOFTWARE


def execute(manifest: ProblemManifest) -> ResultReport:
    """Run a validated manifest; nonexistence is a report, not an exception."""
    try:
        report = lookup(manifest).handler(manifest)
    except (NotInRange, NoMinimum) as exc:
        log.info("nonexistence for %s: %s", manifest.problem, exc)
        report = ResultReport(exists=False, diagnostics={"reason": str(exc)})
    except (InconsistentDims, NotPsd) as exc:
        raise DimensionError(str(exc)) from exc
    return dataclasses.replace(
        report,
        problem=manifest.problem,
        diagnostics={**report.diagnostics, "seed": manifest.seed},
    )


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors, which collides with the
    # nonexistence exit code; route usage errors to the parse-error code
    def error(self, message):
        raise ParseError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="opapprox",
        description="Solve one manifest (or a directory of manifests) and emit a JSON report.",
    )
    parser.add_argument("manifest", nargs="?", help="path to a manifest JSON file")
    parser.add_argument("--tol-rank", type=float, help="override rank_rtol")
    parser.add_argument("--tol-res", type=float, help="override residual_rtol")
    parser.add_argument("--seed", type=int, help="override the manifest seed")
    parser.add_argument("--batch", metavar="DIR", help="run every *.json manifest in DIR")
    parser.add_argument("--out", metavar="PATH", help="report file (single) or directory (batch)")
    return parser


def _apply_overrides(manifest: ProblemManifest, args) -> ProblemManifest:
    tol = manifest.tolerances
    if args.tol_rank is not None or args.tol_res is not None:
        try:
            tol = Tolerances(
                rank_rtol=args.tol_rank if args.tol_rank is not None else tol.rank_rtol,
                residual_rtol=args.tol_res if args.tol_res is not None else tol.residual_rtol,
            )
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
    seed = args.seed if args.seed is not None else manifest.seed
    return dataclasses.replace(manifest, tolerances=tol, seed=seed)


def _configure_logging() -> None:
    level = os.environ.get("OPAPPROX_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=levels.get(level, logging.ERROR), stream=sys.stderr)
    if level not in levels:
        log.error("unknown OPAPPROX_LOG value %r; using error", level)


def _sidecar_base(out_path: str | None, manifest_path: str) -> str:
    target = out_path if out_path else manifest_path
    root, _ = os.path.splitext(target)
    return root


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fail(error: str, exc: Exception, diagnostics: dict, out_path: str | None) -> None:
    """Emit the JSON error payload of exit codes 3 and 70."""
    _emit(canonical_json({"error": error, "message": str(exc), "diagnostics": diagnostics}), out_path)
    print(f"opapprox: {error.replace('_', ' ')}: {exc}", file=sys.stderr)


def _run_single(manifest_path: str, args, out_path: str | None) -> int:
    try:
        manifest = parse_manifest(manifest_path)
        manifest = _apply_overrides(manifest, args)
        report = execute(manifest)
        text = render_report(report, _sidecar_base(out_path, manifest_path))
    except ParseError as exc:
        log.error("parse error: %s", exc)
        print(f"opapprox: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DimensionError as exc:
        log.error("dimension error: %s", exc)
        print(f"opapprox: dimension error: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except EquivalenceViolation as exc:
        _fail("equivalence_violation", exc, exc.diagnostics, out_path)
        return EXIT_EQUIVALENCE
    except (ValueError, np.linalg.LinAlgError) as exc:
        log.error("numerical failure: %s", exc)
        _fail("numerical_failure", exc, {"exception": type(exc).__name__}, out_path)
        return EXIT_NUMERICAL
    _emit(text, out_path)
    return EXIT_SOLVED if report.exists else EXIT_NONEXISTENT


def main(argv=None) -> int:
    parser = _build_parser()
    _configure_logging()
    try:
        args = parser.parse_args(argv)
        if bool(args.batch) == bool(args.manifest):
            raise ParseError("provide exactly one of a manifest path or --batch DIR")
    except ParseError as exc:
        print(f"opapprox: {exc}", file=sys.stderr)
        return EXIT_PARSE

    if args.batch:
        manifests = sorted(glob.glob(os.path.join(args.batch, "*.json")))
        if not manifests:
            print(f"opapprox: no manifests in {args.batch!r}", file=sys.stderr)
            return EXIT_PARSE
        worst = EXIT_SOLVED
        for path in manifests:
            stem = os.path.splitext(os.path.basename(path))[0]
            if args.out:
                os.makedirs(args.out, exist_ok=True)
                out_path = os.path.join(args.out, stem + ".report.json")
            else:
                out_path = os.path.splitext(path)[0] + ".report.json"
            code = _run_single(path, args, out_path)
            print(f"{stem}: exit {code}")
            worst = max(worst, code)
        return worst

    return _run_single(args.manifest, args, args.out)


if __name__ == "__main__":
    sys.exit(main())
