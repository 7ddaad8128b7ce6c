#!/usr/bin/env python3
"""opapprox benchmark: seeded manifests through the public CLI path.

    python3 perfbench/run.py --workload report-ladder --seed 1 --seconds 25 --trace 0

One client in one child process calls ``opapprox.cli.main([manifest,
"--out", path])`` in a closed loop, single-threaded BLAS.  With
``--trace 0`` the last line of output is a JSON object with the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics from a traced
run.  ``--workload all`` runs every workload in turn.  README.md in this
directory documents the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# set before numpy loads here, and inherited by every child
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

import inputs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

DEADLINE_S = 170.0  # a run must exit within 180 s
# set-up is timed in two halves, before and after the workload, so that one
# slow stretch of a shared machine weighs less on the median
SETUP_SPAWNS = 5
IMPORTTIME_SPAWNS = 3

# manifest_tail_s is read in the middle of the samples of the k-th slowest
# manifest of the mix.  Every pass holds each manifest once, so for two or
# more passes such a percentile falls inside one manifest's samples and not
# on the boundary between two, where run-to-run noise would decide which
# manifest it reports.  These k leave at least ten samples beyond the
# percentile at the pass counts the workloads reach (11-14, 40-45 and 42-56
# of them); tail() moves to a larger k in a run with fewer passes.  The mixes
# have odd sizes for the same reason: the median then falls inside one
# manifest too.
TAIL_RANK = {"report-ladder": 4, "solve-mix": 3, "tiny-batch": 4}

END_TO_END = {
    "setup_s": "s",
    "manifests_per_s": "1/s",
    "manifest_p50_s": "s",
    "manifest_tail_s": "s",
    "peak_rss_mb": "MB",
}

STAT_UNITS = {"calls": "count", "s": "s", "self_s": "s", "bytes": "B",
              "gflop_est": "GFLOP", "unique_frac": "frac"}

# (span name, stats) timed from outside the program, per pass of the mix
SPAN_METRICS = (
    ("linalg.svd_with_rank", ("calls", "self_s", "gflop_est", "unique_frac")),
    ("wls.wlss_solve", ("calls",)),
    ("smoothing.smoothing_solve", ("calls",)),
    ("spline.spline_solve", ("calls",)),
    ("spline.is_abstract_spline", ("calls",)),
    ("wls.wls_existence_report", ("s", "self_s")),
    ("smoothing.smoothing_equivalence_report", ("s", "self_s")),
    ("linalg.pinv", ("calls",)),
    ("linalg.range_included", ("calls",)),
    ("linalg.range_basis", ("calls",)),
    ("linalg.null_basis", ("calls",)),
    ("linalg.matrix_rank", ("calls",)),
    ("shorted.shorted", ("calls", "self_s")),
    ("shorted.is_compatible", ("calls", "self_s")),
    ("linalg.psd_sqrt", ("calls", "self_s")),
    ("schatten.schatten_norm", ("calls", "self_s")),
    ("wls.owls_min", ("s", "self_s")),
    ("spline.operator_spline_min", ("s", "self_s")),
    ("manifest.render_report", ("s", "self_s")),
    ("manifest.write_matrix", ("calls", "s", "bytes")),
    ("cli.execute", ("self_s",)),
    ("manifest.read_matrix", ("calls", "s", "bytes")),
    ("manifest.parse_manifest", ("self_s",)),
    ("linalg.Subspace", ("calls", "self_s")),
    ("linalg.ensure_psd_weight", ("calls", "self_s")),
)

OTHER_PER_LAYER = {
    "import.opapprox_cli.s": "s",
    "import.scipy_io.s": "s",
    "import.numpy.s": "s",
    "cli.exit_2.count": "count",
    "cli.exit_3.count": "count",
    "check.manifests.failed_frac": "frac",
    "trace.overhead.frac": "frac",
}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in output order."""
    units = {f"{name}.{stat}": STAT_UNITS[stat] for name, stats in SPAN_METRICS for stat in stats}
    units.update(OTHER_PER_LAYER)
    return units


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def tail(samples, mix_size: int, rank: int):
    """(percentile, value) in the middle of the rank-th slowest manifest's
    samples, moved down the ranks while fewer than ten samples lie beyond it."""
    while True:
        q = 100.0 * (1.0 - (rank - 0.5) / mix_size)
        if len(samples) * (100.0 - q) / 100.0 >= 10 or rank >= mix_size // 2:
            return q, percentile(samples, q)
        rank += 1


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OPAPPROX_LOG"] = "error"
    return env


def setup_seconds(env, spawns: int) -> list:
    """Wall times of fresh interpreters from spawn to a ready ``opapprox.cli``."""
    cmd = [sys.executable, "-c", "import opapprox.cli"]
    times = []
    for _ in range(spawns):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return times


def parse_importtime(text: str) -> dict:
    """Cumulative import seconds of opapprox.cli, scipy.io and numpy."""
    found = {}
    for line in text.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            cumulative = int(parts[1]) / 1e6
        except ValueError:  # the header line
            continue
        name = parts[2].strip()
        top_level = parts[2].startswith(" ") and not parts[2].startswith("  ")
        if top_level and name.split(".")[0] == "opapprox":
            found["import.opapprox_cli.s"] = found.get("import.opapprox_cli.s", 0.0) + cumulative
        elif name in ("scipy.io", "numpy"):
            found[f"import.{name.replace('.', '_')}.s"] = cumulative
    return found


def import_seconds(env) -> dict:
    runs = []
    for _ in range(IMPORTTIME_SPAWNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import opapprox.cli"],
                              env=env, cwd=ROOT, check=True, timeout=60,
                              capture_output=True, text=True)
        runs.append(parse_importtime(proc.stderr))
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def run_worker(cfg: dict, work: Path, env, budget: float) -> dict:
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(cfg_path)],
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=budget)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(Path(cfg["result"]).read_text())


def check_cases(cases, manifests, result) -> dict:
    """Reason per manifest id whose warm-up report fails the correctness check."""
    import verify

    problems = {}
    for case, m in zip(cases, manifests):
        try:
            text = Path(m["warm_out"]).read_text()
            verify.check_report(case, text, str(Path(m["warm_out"]).parent),
                                result["warm_codes"][case.id])
        except (verify.CheckFailed, OSError, ValueError, KeyError, TypeError) as exc:
            problems[case.id] = f"{type(exc).__name__}: {exc}"
    return problems


def run_one(workload: str, seed: int, seconds: float, trace: bool):
    started = time.perf_counter()
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    for sub in ("manifests", "warm", "timed"):
        (work / sub).mkdir(parents=True)
    cases = inputs.build(workload, seed)
    manifests = [
        {
            "id": case.id,
            "path": inputs.write_manifest(case, str(work / "manifests")),
            "warm_out": str(work / "warm" / f"{case.id}.report.json"),
            "timed_out": str(work / "timed" / f"{case.id}.report.json"),
        }
        for case in cases
    ]
    env = child_env()
    # the first spawn writes bytecode caches and is not timed
    setup = [] if trace else setup_seconds(env, 1 + SETUP_SPAWNS)[1:]
    imports = import_seconds(env) if trace else {}
    cfg = {"manifests": manifests, "seconds": seconds, "trace": trace,
           "result": str(work / "result.json"), "spans": str(work / "spans.jsonl")}
    result = run_worker(cfg, work, env, DEADLINE_S - (time.perf_counter() - started))
    if not trace:
        setup += setup_seconds(env, SETUP_SPAWNS)

    # a manifest whose warm-up report is wrong fails on every run; otherwise a
    # run fails when its report differs from the warm-up report (C9)
    problems = check_cases(cases, manifests, result)
    measured = result["traced"] if trace else result["timed"]
    runs_per_manifest = 1 + len(measured) + len(result.get("untraced", []))
    attempted = len(cases) * runs_per_manifest
    failed = runs_per_manifest * len(problems)
    for mid, count in result["mismatches"].items():
        if mid not in problems:
            failed += count
            problems[mid] = f"{count} run(s) differ from the warm-up report"
    summary = {"workload": workload, "seed": seed, "manifests_per_pass": len(cases),
               "passes": len(measured), "attempted": attempted, "failed": failed,
               "failed_frac": failed / attempted, "env": result["env"], "problems": problems}

    if trace:
        metrics = per_layer_metrics(result, imports, failed / attempted)
        summary["svd_calls_per_manifest"] = result["svd_calls_per_manifest"]
    else:
        samples = [t for p in measured for t in p["latencies"]]
        q, tail_value = tail(samples, len(cases), TAIL_RANK[workload])
        metrics = {
            "setup_s": statistics.median(setup),
            "manifests_per_s": len(cases) / statistics.median(p["wall"] for p in measured),
            "manifest_p50_s": percentile(samples, 50.0),
            "manifest_tail_s": tail_value,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        summary["tail"] = {"percentile": q, "samples": len(samples),
                           "beyond": sum(1 for t in samples if t > tail_value)}
    units = per_layer_units() if trace else END_TO_END
    return summary, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def per_layer_metrics(result, imports, failed_frac) -> dict:
    passes = len(result["traced"])
    wrapped = set(result["wrapped"])
    stats = result["stats"]
    out = {}
    for name, wanted in SPAN_METRICS:
        if name not in wrapped:  # renamed or removed: the metric is absent
            continue
        s = stats.get(name, {})
        calls = s.get("calls", 0.0)
        for stat in wanted:
            if stat == "unique_frac":
                out[f"{name}.{stat}"] = s.get("unique_inputs", 0.0) / calls if calls else 0.0
            elif stat == "gflop_est":
                out[f"{name}.{stat}"] = s.get("flops_est", 0.0) / passes / 1e9
            else:
                out[f"{name}.{stat}"] = s.get(stat, 0.0) / passes
    out.update(imports)
    for code in (2, 3):
        hits = sum(c == code for p in result["traced"] for c in p["codes"])
        out[f"cli.exit_{code}.count"] = hits / passes
    out["check.manifests.failed_frac"] = failed_frac

    def pass_time(runs):
        return statistics.mean(p["wall"] for p in runs)

    out["trace.overhead.frac"] = pass_time(result["traced"]) / pass_time(result["untraced"]) - 1.0
    return out


def report(summary, metrics) -> None:
    env = summary["env"]
    print(f"workload {summary['workload']}  seed {summary['seed']}  "
          f"{summary['manifests_per_pass']} manifests/pass x {summary['passes']} passes")
    print("environment " + json.dumps(env, sort_keys=True))
    if env.get("blas_threads") != 1:
        print(f"WARNING: BLAS runs {env.get('blas_threads')} threads, not 1")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:>16.6g} {m['unit']}")
    if "tail" in summary:
        t = summary["tail"]
        print(f"  manifest_tail_s is p{t['percentile']:.4g} of {t['samples']} samples "
              f"({t['beyond']} beyond it)")
        print(f"  {'failed_frac':48s} {summary['failed_frac']:>16.6g} frac "
              f"({summary['failed']} of {summary['attempted']} runs)")
    if "svd_calls_per_manifest" in summary:
        per = summary["svd_calls_per_manifest"]
        tv = {mid: c for mid, c in sorted(per.items()) if mid.startswith("tv-")}
        if tv:
            print("  svd_with_rank calls per T,V report: "
                  + ", ".join(f"{mid}: {c}" for mid, c in tv.items()))
    for mid, why in sorted(summary["problems"].items())[:20]:
        print(f"  FAILED {mid}: {why}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*inputs.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "opapprox" / "cli.py").is_file():
        print(f"opapprox sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the correctness check uses opapprox.oracles

    workloads = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        summary, metrics = run_one(workload, args.seed, args.seconds, bool(args.trace))
        report(summary, metrics)
        combined["correct"] &= summary["failed"] == 0
        combined["attempted"] += summary["attempted"]
        combined["failed"] += summary["failed"]
        prefix = f"{workload}." if args.workload == "all" else ""
        combined["metrics"].update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
