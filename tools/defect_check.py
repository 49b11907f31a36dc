"""Measure the acceptance criteria's power against known one-line defects.

    python3 tools/defect_check.py

For a defect-free baseline and then for each defect in ``DEFECTS``, the
script copies the checkout's ``src/`` to a temporary directory, applies
the defect there as an exact string replacement (its anchor must occur
exactly once in its file), and runs ``tests/test_acceptance.py`` in a
fresh interpreter with ``PYTHONPATH`` set to the copy.  It prints every
``[criterion NN]`` line that reads FAIL, and every acceptance test that
failed without printing a verdict.  A criterion that passes with a defect
applied is a gate that cannot see it.

The baseline must read all PASS, and each defect must fail at least one
criterion: the script exits 1 where the baseline fails or a defect is
not caught, and its last line names the defects that no criterion
caught.  The acceptance suite (16 criteria) takes about 10 s on 2 cores
and runs once for the baseline and once per defect, so a full run takes
about 100 s.  The working tree is never written.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file under src/aent, anchor, replacement)
DEFECTS = [
    (
        "rmt.cardy_fit: charge = sigma2",
        "rmt.py",
        "charge = sigma2 / (1.0 + sigma2)",
        "charge = sigma2",
    ),
    (
        "entropy._shannon returns 0.99 S (profiles, the valley and the collapse entropies)",
        "entropy.py",
        "return np.where(s > 0.0, s, 0.0)",
        "return 0.99 * np.where(s > 0.0, s, 0.0)",
    ),
    (
        "rmt._bulk subtracts 1/T^2 instead of 1/T (estimate_sigma2 and the cardy fit)",
        "rmt.py",
        "b -= 1.0 / b.shape[0]",
        "b -= 1.0 / b.shape[0] ** 2",
    ),
    (
        "mps.SIGMA_FLOOR = 1e-3",
        "mps.py",
        "SIGMA_FLOOR = 1e-12",
        "SIGMA_FLOOR = 1e-3",
    ),
    (
        "the attention draw takes Q at qk_std 0.8",
        "attention.py",
        "q = _qk_rows(rng, t, t, qk_std)",
        "q = _qk_rows(rng, t, t, 0.8)",
    ),
    (
        "valley_check reads the row cuts from B alone",
        "adapters.py",
        'c = b @ np.linalg.qr(a.transpose(0, 2, 1), mode="r").transpose(0, 2, 1)',
        "c = b",
    ),
    (
        "mp_compare scales the spectrum by d_max",
        "experiments.py",
        "scaled = np.sort(d_min * eigs / eigs.sum())",
        "scaled = np.sort(d_max * eigs / eigs.sum())",
    ),
    (
        "a traced Gram is summed from both triangles of its parent",
        "mps.py",
        "            out += gram[first + r0 * step : first + r1 * step : step, first + r0 * step : first + after * step : step]",
        "            out += gram[first + r0 * step : first + r1 * step : step, first + r0 * step : first + after * step : step]"
        " if s == 0 else gram[first + r0 * step : first + after * step : step, first + r0 * step : first + r1 * step : step].T",
    ),
    (
        "decompose drops the last core's scale",
        "mps.py",
        "cores.append(_scaled_back(carried, exponent).reshape(chi, dims[-1], 1))",
        "cores.append(carried.reshape(chi, dims[-1], 1))",
    ),
]

_VERDICT = re.compile(r"\[criterion (\d\d)\] (PASS|FAIL) .*")
_FAILED_TEST = re.compile(r"^FAILED tests/test_acceptance\.py::test_(\d\d)", re.MULTILINE)


def _patched_source(dest: Path, defect) -> None:
    """Copy ``src/`` to ``dest`` with ``defect`` (or nothing, for None) applied."""
    shutil.copytree(ROOT / "src", dest, ignore=shutil.ignore_patterns("__pycache__"))
    if defect is None:
        return
    name, file, anchor, replacement = defect
    path = dest / "aent" / file
    text = path.read_text()
    if text.count(anchor) != 1:
        raise SystemExit(f"defect {name!r}: anchor {anchor!r} occurs {text.count(anchor)} times in src/aent/{file}")
    path.write_text(text.replace(anchor, replacement))


def _run_acceptance(src: Path) -> tuple[int, list[re.Match], list[str]]:
    """(pytest's exit code, the verdict lines, numbers of the tests that failed without one)."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-s", "-rf", "-p", "no:cacheprovider", "tests/test_acceptance.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=900,
    )
    # not anchored at the line start: pytest -q prints each test's "." before its output
    verdicts = list(_VERDICT.finditer(done.stdout))
    silent = sorted(set(_FAILED_TEST.findall(done.stdout)) - {m.group(1) for m in verdicts})
    return done.returncode, verdicts, silent


def main() -> int:
    for defect in DEFECTS:  # every anchor is checked before the first run
        with tempfile.TemporaryDirectory() as tmp:
            _patched_source(Path(tmp) / "src", defect)
    baseline_ok, uncaught = True, []
    for defect in [None, *DEFECTS]:
        with tempfile.TemporaryDirectory() as tmp:
            src = Path(tmp) / "src"
            _patched_source(src, defect)
            code, verdicts, silent = _run_acceptance(src)
        fails = [m for m in verdicts if m.group(2) == "FAIL"]
        caught = sorted({m.group(1) for m in fails} | set(silent))
        name = "baseline (no defect)" if defect is None else defect[0]
        print(f"{name}: pytest exit {code}, {len(verdicts)} verdicts, failing criteria: {', '.join(caught) or 'none'}")
        for m in fails:
            print(f"    {m.group(0)}")
        for number in silent:
            print(f"    [criterion {number}] failed without a verdict line")
        if defect is None:
            baseline_ok = code == 0 and bool(verdicts)
        elif not caught:
            uncaught.append(name)
    print(f"uncaught defects ({len(uncaught)} of {len(DEFECTS)}): {'; '.join(uncaught) or 'none'}")
    return 0 if baseline_ok and not uncaught else 1


if __name__ == "__main__":
    sys.exit(main())
