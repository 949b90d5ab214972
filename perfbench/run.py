"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. grat is imported from ./src, single-threaded.
The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1. Scratch files go under
./.bench_build/perfbench and are removed, except the traced run's spans.
"""

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train-copy", "generate-greedy", "generate-beam8", "property-eval")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "grat" / "__init__.py").is_file():
        print(f"perfbench: no grat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # single-threaded BLAS, set before numpy loads; no evaluation thread pool
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("GRAT_THREADS", None)
    # one CPU for the whole run, inherited by the speed probe's process: on a
    # virtual machine each CPU loses time to other tenants on its own, so the
    # probe must measure the CPU the requests run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(ROOT / "src"))
    from perfbench.harness import run

    out = ROOT / ".bench_build" / "perfbench"
    work = out / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work,
                     out / f"spans-{args.workload}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
