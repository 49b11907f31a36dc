"""One sha256 line per pinned CLI run and per demo, to compare two source trees.

    PYTHONPATH=<tree>/src python3 tools/output_digest.py > <tree>.digest

Run it once per tree and ``diff`` the two files: identical lines mean
identical outputs below the timestamp line.  The argv list is fixed: the
``PINNED_OUTPUTS`` commands of ``tests/test_cli.py`` (with ``--json`` where
the subcommand takes it) on that file's inputs, plus five refusals.  Each
runs in a fresh interpreter, in a temporary directory with relative file
names, and its line hashes four things: the exit code, the CSV below its
``# generated`` line, the JSON report without ``wall_clock_seconds`` and
stderr.  Each demo's line hashes its exit code and stdout.  The package is
the one ``PYTHONPATH`` names; the argv list, the inputs and the demos are
this checkout's.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from test_cli import PINNED_OUTPUTS, _write_pinned_inputs  # noqa: E402

import aent  # noqa: E402
from aent.cli import SUBCOMMANDS  # noqa: E402
from aent.matrixfile import write_matrix  # noqa: E402

#: Every child imports the package this process imported, also where ``PYTHONPATH`` was relative.
ENV = dict(os.environ, PYTHONPATH=str(Path(aent.__file__).resolve().parent.parent))

#: Runs that must be refused: a NaN file, an all-zero file, a negative seed, base 1, and a 1-wide update.
REFUSALS = (
    "profile nan.aent",
    "profile zero.aent",
    "page-bench --size 16 --seed -1",
    "profile f8.aent --base 1",
    "valley --dout 1 --din 16 --rank 1",
)
_MAIN = "import sys; from aent.cli import main; sys.exit(main(sys.argv[1:]))"


def _digest(*parts: str) -> str:
    return hashlib.sha256("\0".join(parts).encode()).hexdigest()


def _cli_line(command: str) -> str:
    """The digest of one CLI run in the current directory, then its argv."""
    argv = command.split() + ["--out", "out.csv"]
    if SUBCOMMANDS[argv[0]][2]:
        argv += ["--json", "out.json"]
    for name in ("out.csv", "out.json"):
        Path(name).unlink(missing_ok=True)
    done = subprocess.run([sys.executable, "-c", _MAIN, *argv], env=ENV, capture_output=True, text=True, timeout=600)
    csv = Path("out.csv").read_text().split("\n", 1)[1] if Path("out.csv").exists() else ""
    report = json.loads(Path("out.json").read_text()) if Path("out.json").exists() else None
    if report is not None:
        report.pop("wall_clock_seconds")
    return f"{_digest(str(done.returncode), csv, json.dumps(report, sort_keys=True), done.stderr)}  {command}"


def _demo_line(demo: Path) -> str:
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=600)
    return f"{_digest(str(done.returncode), done.stdout)}  demos/{demo.name}"


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        _write_pinned_inputs()
        write_matrix("nan.aent", np.full((8, 8), np.nan))
        write_matrix("zero.aent", np.zeros((8, 8)))
        for command in [*PINNED_OUTPUTS, *REFUSALS]:
            print(_cli_line(command), flush=True)
        os.chdir(ROOT)
    for demo in sorted((ROOT / "demos").glob("*.py")):
        print(_demo_line(demo), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
