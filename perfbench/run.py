"""Benchmark of the aent paths users wait on: Page sweeps, the attention
log-T fit and the file-driven CLI.

    python3 perfbench/run.py --workload page|cardy|cli --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is imported from the
checkout's ``src`` in fresh worker processes (see ``worker.py``).  The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``.  The full record of the run (environment,
every pass, every graded operation and, when traced, every call path)
goes to ``.perfbench/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
# A run must end within 180 s; stop children well before that.
DEADLINE_S = 170.0
# Fresh interpreters timed for setup_s; the median is reported.
SETUP_SAMPLES = 7

# name -> (unit, per-pass value from the worker's traced result)
PER_LAYER = {
    "mps.decompose.s": ("s", lambda r: _layer(r, "mps.decompose", "s")),
    "mps.decompose.calls": ("count", lambda r: _layer(r, "mps.decompose", "calls")),
    "mps.decompose.cuts": ("count", lambda r: _counter(r, "mps.decompose.cuts")),
    "mps.cut_spectrum.s": ("s", lambda r: _layer(r, "mps.cut_spectrum", "s")),
    "tensorize.s": ("s", lambda r: _layer(r, "tensorize", "s")),
    "tensorize.calls": ("count", lambda r: _layer(r, "tensorize", "calls")),
    "entropy.profile.self_s": ("s", lambda r: _layer(r, "entropy.profile", "self_s")),
    "entropy.profile.calls": ("count", lambda r: _layer(r, "entropy.profile", "calls")),
    "attention.orthonormal_context.s": ("s", lambda r: _layer(r, "attention.orthonormal_context", "s")),
    "attention.attention_matrix.s": ("s", lambda r: _layer(r, "attention.attention_matrix", "s")),
    "attention.scene_build.s": ("s", lambda r: _layer(r, "attention.scene_build", "s")),
    "attention.mask_ablation.self_s": ("s", lambda r: _layer(r, "attention.mask_ablation", "self_s")),
    "attention.calls": ("count", lambda r: _module_sum(r, "attention", "calls")),
    "rmt.cardy_fit.s": ("s", lambda r: _layer(r, "rmt.cardy_fit", "s")),
    "rmt.sample_gaussian_matrix.s": ("s", lambda r: _layer(r, "rmt.sample_gaussian_matrix", "s")),
    "rmt.ks_distance.s": ("s", lambda r: _layer(r, "rmt.ks_distance", "s")),
    "rmt.marchenko_pastur.s": ("s", lambda r: _layer(r, "rmt.marchenko_pastur", "s")),
    "rmt.estimate_sigma2.s": ("s", lambda r: _layer(r, "rmt.estimate_sigma2", "s")),
    "adapters.valley_check.self_s": ("s", lambda r: _layer(r, "adapters.valley_check", "self_s")),
    "matrixfile.read_matrix.s": ("s", lambda r: _layer(r, "matrixfile.read_matrix", "s")),
    "matrixfile.read_matrix.bytes": ("bytes", lambda r: _counter(r, "matrixfile.read_matrix.bytes")),
    "cli.main.self_s": ("s", lambda r: _layer(r, "cli.main", "self_s")),
    "cli.bytes_out": ("bytes", lambda r: _counter(r, "cli.bytes_out")),
    "experiments.self_s": ("s", lambda r: _module_sum(r, "experiments", "self_s")),
    "process.cpu_s": ("s", lambda r: sum(r["cpus"]) / len(r["walls"])),
    "process.cpu_per_wall": ("ratio", lambda r: sum(r["cpus"]) / sum(r["walls"])),
    "trace.pass_s": ("s", lambda r: sum(r["walls"]) / len(r["walls"])),
    "trace.overhead_s": ("s", lambda r: r["wrapped_calls"] * r["per_call_overhead_s"] / len(r["walls"])),
    "error_rate": ("ratio", lambda r: _failed(r["graded"]) / len(r["graded"])),
}


def _layer(result, name, key):
    return result["layers"].get(name, {}).get(key, 0) / len(result["walls"])


def _module_sum(result, module, key):
    total = sum(v[key] for k, v in result["layers"].items() if k.startswith(module + "."))
    return total / len(result["walls"])


def _counter(result, name):
    return result["counters"].get(name, 0) / len(result["walls"])


def _failed(graded) -> int:
    return sum(status != workloads.OK for _, status, _ in graded)


class Children:
    """Runs worker processes against one deadline for the whole run."""

    def __init__(self, env, workdir):
        self.env = env
        self.workdir = workdir
        self.deadline = time.monotonic() + DEADLINE_S

    def run(self, mode, *args, env=None) -> tuple[dict, float]:
        """(parsed last stdout line, wall seconds) of one worker process."""
        cmd = [sys.executable, str(WORKER), mode, "--workdir", str(self.workdir), *map(str, args)]
        start = time.perf_counter()
        proc = subprocess.run(
            cmd,
            env=env or self.env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(self.deadline - time.monotonic(), 1.0),
        )
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"worker {mode} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def blas_threads(nproc: int) -> int:
    """OPENBLAS_NUM_THREADS if set and sane, capped at nproc; else nproc."""
    try:
        requested = int(os.environ.get("OPENBLAS_NUM_THREADS", nproc))
    except ValueError:
        requested = nproc
    return max(1, min(requested, nproc))


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def measure(args, children: Children, threads: int) -> tuple[dict, dict]:
    """(final JSON object, full record) of one benchmark run."""
    common = ["--seed", args.seed, "--scale", args.scale]
    result, _ = children.run(
        "run", "--workload", args.workload, "--seconds", args.seconds, "--trace", args.trace, *common
    )
    graded = result["graded"]
    record = {"worker": result}
    if args.trace:
        metrics = {name: {"value": fn(result), "unit": unit} for name, (unit, fn) in PER_LAYER.items()}
        walls = {}
        for n in sorted({1, threads}, reverse=True):
            env = dict(children.env, OPENBLAS_NUM_THREADS=str(n))
            walls[n] = children.run("blasref", *common, env=env)[0]["wall"]
        metrics["blas.thread_speedup"] = {"value": walls[1] / walls[threads], "unit": "ratio"}
        record["blasref_walls"] = walls
    else:
        setups = [
            children.run("setup", "--workload", args.workload, *common)[1] for _ in range(SETUP_SAMPLES)
        ]
        metrics = {
            "wall_s": {"value": statistics.median(result["walls"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "success_rate": {"value": 1.0 - _failed(graded) / len(graded), "unit": "ratio"},
        }
        record["setup_walls"] = setups
    final = {
        "correct": not any(status in (workloads.WRONG, workloads.BAD_EXIT) for _, status, _ in graded),
        "attempted": len(graded),
        "failed": _failed(graded),
        "metrics": metrics,
    }
    return final, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="timed work per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full", help="tiny: self-test shapes")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "aent" / "__init__.py").is_file():
        print(f"perfbench: no aent package under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    threads = blas_threads(nproc)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=str(threads))
    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        final, record = measure(args, Children(env, workdir), threads)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"perfbench: {args.workload} failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env_record = {
        "nproc": nproc,
        "blas_threads": threads,
        "platform": platform.platform(),
        "commit": git_commit(),
        **record["worker"].pop("env"),
    }
    record.update(args=vars(args), env=env_record, result=final)
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    walls = record["worker"]["walls"]
    print(f"# env {json.dumps(env_record, sort_keys=True)}")
    print(
        f"# {args.workload}: {len(walls)} timed passes, median {statistics.median(walls):.4f} s; "
        f"{final['failed']}/{final['attempted']} operations failed"
    )
    failures = Counter(
        (status, name, detail.splitlines()[0] if detail else "")
        for name, status, detail in record["worker"]["graded"]
        if status != workloads.OK
    )
    for (status, name, detail), count in failures.items():
        print(f"#   {count} x {status}: {name}: {detail}")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
