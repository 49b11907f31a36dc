"""One benchmark process: set-up probe, measured workload, or BLAS reference.

``run.py`` starts this file in a fresh interpreter whose ``PYTHONPATH`` is
the checkout's ``src``; it prints one JSON object as its last stdout line.

    worker.py setup   --workload W --seed N --scale S
    worker.py run     --workload W --seed N --scale S --seconds T --trace 0|1 --workdir D
    worker.py blasref --seed N --scale S --workdir D
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np

import spans
import workloads

BLASREF_TIMED_PASSES = 2


def environment() -> dict:
    import aent

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "aent": aent.__version__,
        "aent_path": os.path.dirname(aent.__file__),
    }


def one_pass(workload, cfg, workdir, seed, tracer=None):
    """Build (untimed), run (timed, traced if given), check (untimed)."""
    inputs = workload.build(cfg, workdir, seed)
    cpu0 = time.process_time()
    start = time.perf_counter()
    if tracer is None:
        outcomes = workload.run(cfg, inputs)
    else:
        with tracer:
            outcomes = workload.run(cfg, inputs)
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0
    return wall, cpu, workload.check(cfg, inputs, outcomes)


def measure(name, seed, scale, seconds, traced, workdir) -> dict:
    """An ungraded warm-up pass, then timed passes until ``seconds`` of timed work."""
    workload, cfg = workloads.WORKLOADS[name], workloads.SCALES[scale][name]
    one_pass(workload, workloads.warmup_config(cfg), workdir, workloads.pass_seed(seed, 0))
    tracer = spans.Tracer() if traced else None
    walls, cpus, graded = [], [], []
    while not walls or sum(walls) < seconds:
        wall, cpu, checked = one_pass(
            workload, cfg, workdir, workloads.pass_seed(seed, len(walls) + 1), tracer
        )
        walls.append(wall)
        cpus.append(cpu)
        graded += checked
    result = {
        "walls": walls,
        "cpus": cpus,
        "graded": graded,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if tracer is not None:
        result["layers"] = tracer.layers()
        result["counters"] = tracer.counters
        result["paths"] = [[" > ".join(path), *stats] for path, stats in sorted(tracer.paths.items())]
        result["wrapped_calls"] = tracer.wrapped_calls
        result["per_call_overhead_s"] = spans.per_call_overhead()
    return result


def blas_reference(seed, scale, workdir) -> dict:
    """Median wall of untraced ``page`` passes at this process's BLAS setting."""
    workload, cfg = workloads.WORKLOADS["page"], workloads.SCALES[scale]["page"]
    walls = [
        one_pass(workload, cfg, workdir, workloads.pass_seed(seed, index))[0]
        for index in range(BLASREF_TIMED_PASSES + 1)
    ]
    return {"wall": statistics.median(walls[1:])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run", "blasref"))
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), default="page")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", default=None)
    args = parser.parse_args(argv)

    import aent  # noqa: F401  (set-up time starts with this import)

    if args.mode == "setup":
        workload = workloads.WORKLOADS[args.workload]
        cfg = workloads.SCALES[args.scale][args.workload]
        scratch = tempfile.mkdtemp(prefix="setup-", dir=args.workdir)
        try:
            workload.build(cfg, scratch, workloads.pass_seed(args.seed, 0))
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        result = {}
    elif args.mode == "blasref":
        result = blas_reference(args.seed, args.scale, args.workdir)
    else:
        result = measure(args.workload, args.seed, args.scale, args.seconds, bool(args.trace), args.workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
