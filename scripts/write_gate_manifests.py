#!/usr/bin/env python3
"""Write the manifests of the equivalence gate, one subdirectory each:
every manifest ``perfbench/inputs.py`` builds for its three workloads at
the development seed and the held-out seed (``<workload>-<seed>/``), and
the demo manifests of ``make_demo_problems.py`` (``demo/``).

Example, comparing two revisions (run the loop at each of them, into
out-a/ and out-b/):
    python scripts/write_gate_manifests.py gate/
    mkdir -p out-a
    for d in gate/*/; do
        b=$(basename "$d")
        opapprox --batch "$d" --out "out-a/$b" > "out-a/$b.exit" 2> "out-a/$b.stderr"
    done
    python scripts/compare_reports.py out-a/ out-b/ --inputs gate/

The benchmark's generator is imported, never edited, so the gate runs the
benchmark's inputs exactly.
"""

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
from make_demo_problems import write_demos  # noqa: E402
from perfbench.inputs import (  # noqa: E402
    DEFAULT_SEED,
    HELD_OUT_SEED,
    WORKLOADS,
    build,
    write_manifest,
)


def write_gate(outdir: str) -> dict:
    """Write every gate manifest under ``outdir``; return {subdirectory: count}."""
    counts = {}
    for workload in WORKLOADS:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            sub = f"{workload}-{seed}"
            directory = os.path.join(outdir, sub)
            os.makedirs(directory, exist_ok=True)
            cases = build(workload, seed)
            for case in cases:
                write_manifest(case, directory)
            counts[sub] = len(cases)
    counts["demo"] = len(write_demos(os.path.join(outdir, "demo")))
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("outdir")
    args = parser.parse_args(argv)
    counts = write_gate(args.outdir)
    for sub, count in counts.items():
        print(f"{sub}: {count} manifests")
    print(f"{sum(counts.values())} manifests in {len(counts)} directories")
    return 0


if __name__ == "__main__":
    sys.exit(main())
