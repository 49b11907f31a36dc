"""Self-test of the benchmark at tiny scale.

    python3 -m pytest perfbench

Not part of the package's test suite (``testpaths`` is ``tests``).
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _final_line(args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )
    return proc, proc.stdout.strip().splitlines()


@pytest.mark.parametrize(
    "workload,trace",
    [("page", 0), ("cardy", 0), ("cli", 0), ("page", 1), ("cardy", 1), ("cli", 1)],
)
def test_tiny_run_emits_every_named_metric_with_its_unit(workload, trace):
    proc, lines = _final_line(
        ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    )
    assert proc.returncode == 0, proc.stderr
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["attempted"] >= 1 and 0 <= final["failed"] <= final["attempted"]
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in final["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], (int, float)) for m in final["metrics"].values())


def test_corrupted_output_counts_toward_error_rate(tmp_path, monkeypatch):
    page = workloads.WORKLOADS["page"]

    def corrupt_run(cfg, inputs):
        outcomes = page.run(cfg, inputs)
        for _, report in outcomes:
            report.tables["cuts"][-2]["mean_entropy"] += 1.0
        return outcomes

    monkeypatch.setitem(workloads.WORKLOADS, "page", replace(page, run=corrupt_run))
    result = worker.measure("page", 5, "tiny", 0.0, True, tmp_path)
    _, error_rate = run.PER_LAYER["error_rate"]
    assert error_rate(result) == 1.0
    assert all(status == workloads.WRONG for _, status, _ in result["graded"])


def test_corrupted_cli_csv_is_caught(tmp_path):
    cfg = workloads.SCALES["tiny"]["cli"]
    cli = workloads.WORKLOADS["cli"]
    inputs = cli.build(cfg, tmp_path, 7)
    outcomes = cli.run(cfg, inputs)
    name, _, _, argv = inputs["ops"][0]
    out = Path(argv[argv.index("--out") + 1])
    lines = out.read_text().splitlines()
    header = lines[2].split(",")
    for i, line in enumerate(lines[3:], start=3):
        fields = line.split(",")
        fields[header.index("entropy")] = str(float(fields[header.index("entropy")]) + 1e-6)
        lines[i] = ",".join(fields)
    out.write_text("\n".join(lines) + "\n")
    graded = dict((n, status) for n, status, _ in cli.check(cfg, inputs, outcomes))
    assert graded[name] == workloads.WRONG


def _bindings() -> dict:
    """Every attribute of every aent module and traced class, by identity."""
    snapshot = {}
    for module in spans.aent_modules():
        for attr, value in vars(module).items():
            snapshot[(module.__name__, attr)] = value
    for (module, cls, _), _ in spans.METHOD_SPANS.items():
        owner = getattr(importlib.import_module(f"aent.{module}"), cls)
        for attr, value in vars(owner).items():
            snapshot[(owner.__qualname__, attr)] = value
    return snapshot


def test_traced_run_restores_every_binding(tmp_path):
    before = _bindings()
    tracer = spans.Tracer()
    with tracer:
        during = _bindings()
    wrapped = [key for key in before if during[key] is not before[key]]
    assert ("aent.entropy", "tensorize") in wrapped
    assert ("aent.cli", "read_matrix") in wrapped
    assert ("AttentionScene", "build") in wrapped

    result = worker.measure("cli", 5, "tiny", 0.0, True, tmp_path)
    assert result["layers"]["mps.decompose"]["calls"] > 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_self_time_excludes_traced_children():
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda: sum(range(20000)), "inner")
    outer = tracer.wrap(lambda: [inner() for _ in range(3)], "outer")
    outer()
    layers = tracer.layers()
    assert layers["inner"]["calls"] == 3 and layers["outer"]["calls"] == 1
    assert layers["outer"]["self_s"] == pytest.approx(layers["outer"]["s"] - layers["inner"]["s"])


def test_fails_without_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "page", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
