"""Run one benchmark workload and print its result.

Usage, from the root of a pairq checkout:

    python3 perfbench/run.py --workload bench-sqdist --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
line before it, prefixed ``detail:``, records the machine and environment,
sample counts and the per-method quality numbers.

With ``--trace 1`` the pass runs with pairq's public functions wrapped
by a span recorder, and reports the recorder's measured cost as tracing
overhead.

The run is one thread on one CPU: it sets the BLAS thread variables below
before numpy loads and pins itself to the last CPU it may use. On a shared
2-core machine a second BLAS thread, or a move between CPUs, competes with
whatever else runs there, and timings spread wider between identical runs.

Exits 1 when a check fails (after printing the result) and 2 when the
checkout holds no pairq sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile

# Set before numpy is first imported, which reads them once.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = os.getcwd()
# The CPUs this process may use when it starts, and the one it pins to.
NPROC = len(os.sched_getaffinity(0))
CPU = max(os.sched_getaffinity(0))
SOURCES = os.path.join(ROOT, "src")


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "cpu_count": os.cpu_count(),
        "pinned_cpu": CPU,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SOURCES, "pairq", "__init__.py")):
        print(f"error: no pairq sources under {SOURCES}", file=sys.stderr)
        return 2
    os.sched_setaffinity(0, {CPU})
    sys.path[:0] = [SOURCES, ROOT]
    from perfbench import layers, workloads
    from perfbench.spans import Tracer

    import pairq

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}, "
                     f"expected one of {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    load_start = os.getloadavg()
    workdir = tempfile.mkdtemp(prefix="perfbench-", dir=ROOT)
    try:
        if args.trace:
            tracer = Tracer()
            tracer.install(pairq, layers.TARGETS)
            try:
                out = workloads.run_workload(w, args.seed, args.seconds, workdir,
                                             tracer=tracer)
            finally:
                tracer.uninstall()
            metrics = layers.layer_metrics(tracer, out.work_s)
            units = {k: unit for k, (unit, _) in layers.PER_LAYER.items()}
        else:
            out = workloads.run_workload(w, args.seed, args.seconds, workdir)
            metrics = workloads.end_to_end_metrics(out)
            units = {k: unit for k, (unit, _) in workloads.END_TO_END.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [c for c in out.checks if not c[1]]
    detail = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "timings": workloads.ungated_timings(out),
        "quality": out.quality,
        "grid": out.grid,
        "checks": out.checks,
    }
    print("detail: " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": not failed,
        "attempted": out.attempted,
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
