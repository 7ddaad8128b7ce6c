"""The workload's child process: one client driving manifests through
``opapprox.cli.main`` in a closed loop.

Run by run.py as ``python worker.py CONFIG.json``; the parent sets
OPENBLAS_NUM_THREADS=1 and PYTHONPATH before this interpreter starts.  The
config lists the manifests in pass order, the measuring time and whether
to trace.  The worker

1. runs one warm-up pass, whose reports the parent checks for correctness;
2. runs whole passes over the manifests while the next pass is expected to
   fit into the measuring time (at least one), timing each manifest and
   comparing every report byte for byte with its warm-up report;
3. with tracing on, alternates untraced and traced passes, so the two can
   be compared.

It writes its results as JSON to the path named in the config.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import sys
import time


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_runtime():
    """(config string, thread count) of every OpenBLAS this process has loaded."""
    found = []
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    except OSError:
        return found
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                found.append((config().decode(errors="replace"), int(threads())))
                break
    return found


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    runtime = _openblas_runtime()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_runtime": [cfg for cfg, _ in runtime],
        "blas_threads": max((t for _, t in runtime), default=None),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class Loop:
    def __init__(self, cfg, cli):
        self.manifests = cfg["manifests"]
        self.cli = cli
        self.warm = {}  # manifest id -> (exit code, report bytes)
        self.mismatches = {}  # manifest id -> timed runs whose output differed

    def _run(self, m, out):
        start = time.perf_counter()
        code = self.cli.main([m["path"], "--out", out])
        elapsed = time.perf_counter() - start
        with open(out, "rb") as fh:
            return code, fh.read(), elapsed

    def warm_up(self):
        for m in self.manifests:
            code, text, _ = self._run(m, m["warm_out"])
            self.warm[m["id"]] = (code, text)
        return {mid: code for mid, (code, _) in self.warm.items()}

    def timed_pass(self, tracer=None):
        latencies, codes = [], []
        start = time.perf_counter()
        for m in self.manifests:
            if tracer is not None:
                tracer.begin_manifest(m["id"])
            code, text, elapsed = self._run(m, m["timed_out"])
            latencies.append(elapsed)
            codes.append(code)
            if (code, text) != self.warm[m["id"]]:
                self.mismatches[m["id"]] = self.mismatches.get(m["id"], 0) + 1
        return {"latencies": latencies, "codes": codes, "wall": time.perf_counter() - start}

    def passes(self, seconds):
        """Whole passes while the next one is expected to end within ``seconds``."""
        out = []
        start = time.perf_counter()
        while True:
            out.append(self.timed_pass())
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(out) > seconds:
                return out

    def paired_passes(self, seconds, tracer):
        """Untraced and traced passes in turn, so that a machine slowing down
        or speeding up during the run biases neither side."""
        untraced, traced = [], []
        start = time.perf_counter()
        while True:
            untraced.append(self.timed_pass())
            tracer.install()
            try:
                traced.append(self.timed_pass(tracer))
            finally:
                tracer.uninstall()
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(traced) > seconds:
                return untraced, traced


def main(config_path: str) -> None:
    with open(config_path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    env = environment()
    import opapprox.cli

    loop = Loop(cfg, opapprox.cli)
    warm_codes = loop.warm_up()
    result = {"env": env, "warm_codes": warm_codes}
    if cfg["trace"]:
        from spans import Tracer

        tracer = Tracer()
        result["untraced"], result["traced"] = loop.paired_passes(cfg["seconds"], tracer)
        result["stats"] = {name: dict(s) for name, s in tracer.stats.items()}
        result["wrapped"] = sorted({name for name, *_ in tracer.targets()})
        result["svd_calls_per_manifest"] = _svd_calls_per_manifest(tracer, len(result["traced"]))
        tracer.write_spans(cfg["spans"])
    else:
        result["timed"] = loop.passes(cfg["seconds"])
    result["mismatches"] = loop.mismatches
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(cfg["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def _svd_calls_per_manifest(tracer, passes):
    counts = {}
    for name, _, _, _, mid in tracer.spans:
        if name == "linalg.svd_with_rank":
            counts[mid] = counts.get(mid, 0) + 1
    return {mid: c // passes for mid, c in counts.items()}


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: worker.py CONFIG.json")
    main(sys.argv[1])
