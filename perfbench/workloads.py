"""The three benchmark workloads: inputs, one timed pass, and its checks.

Each workload is a ``Workload`` of three functions:

* ``build(cfg, workdir, seed)`` makes the inputs of one pass from its seed
  (untimed);
* ``run(cfg, inputs)`` is the timed pass.  It returns one outcome per
  operation: the operation's result, or the exception it raised;
* ``check(cfg, inputs, outcomes)`` grades every operation (untimed) as one
  of the status strings below.

The library receives only a seed or the generated files, and every call
into it goes through the module attribute a user would call
(``aent.experiments.page_bench``, ``aent.cli.main``), so the tracer sees it.
``aent`` is imported inside the functions: ``run.py`` imports this module
in a process that does not have the package on its path.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

OK = "ok"
RAISED = "raised"  # the operation raised instead of returning
BAD_EXIT = "bad_exit"  # an exit code the CLI does not document for the case
WRONG = "wrong"  # the operation returned, but its output misses its check

PAGE_TOL_BITS = 0.1
CARDY_REL_SLOPE_TOL = 0.15
CARDY_S1_TOL = 0.05
CARDY_P1_TOL = 0.05
CARDY_RENYI2_TOL = 0.1
PROFILE_TOL_BITS = 1e-9
CHI_MAX = 32
MP_KS_TOL = 0.05
ATTN_S1_TOL = 0.05
BAD_INPUT_EXITS = (2, 3, 4, 5)
# Relative singular-value floor of aent.mps (SIGMA_FLOOR), restated so the
# reference entropy does not depend on the package under test.
SIGMA_FLOOR = 1e-12

SCALES = {
    "full": {
        # page: the untruncated half of acceptance criterion 01, two
        # matrices per pass so work across seeds can run in parallel.
        "page": {"size": 1024, "seeds": 2},
        # cardy: criterion 04 without T=2048.  Five draws per T put the
        # slope check's false-failure rate near 4e-4 per pass (from the
        # spread of the entropy at each T); with one draw it failed on 2
        # of 32 passes.  The warm-up pass stops at T=512 to save time.
        "cardy": {
            "t_grid": (64, 128, 256, 512, 1024),
            "seeds": 5,
            "d_mult": 16,
            "warmup": {"t_grid": (64, 128, 256, 512), "seeds": 1},
        },
        "cli": {
            "files": ((1000, 720, "f8"), (1536, 1024, "f4"), (729, 625, "f8"), (2048, 384, "f8")),
            "bad_shape": (64, 48),
            "valley": ["--seeds", "40"],
            "attn": ["--T", "256", "--heads", "2", "--rope"],
        },
    },
    # Seconds-long shapes for the benchmark's own self-test.
    "tiny": {
        "page": {"size": 64, "seeds": 2},
        "cardy": {"t_grid": (16, 32, 64, 128), "seeds": 1, "d_mult": 2, "warmup": {}},
        "cli": {
            "files": ((12, 10, "f8"), (24, 18, "f4")),
            "bad_shape": (6, 4),
            "valley": ["--dout", "16", "--din", "16", "--rank", "1,2", "--seeds", "2"],
            "attn": ["--T", "16", "--heads", "2", "--rope"],
        },
    },
}


def warmup_config(cfg: dict) -> dict:
    """The workload's config with its warm-up overrides applied."""
    return {**cfg, **cfg.get("warmup", {})}


def pass_seed(seed: int, index: int) -> int:
    """Seed of pass ``index``; 100 apart so per-seed offsets never collide."""
    return seed * 1_000_000 + index * 100


def prime_factor_count(n: int) -> int:
    count, p = 0, 2
    while p * p <= n:
        while n % p == 0:
            count, n = count + 1, n // p
        p += 1
    return count + (n > 1)


def entropy_bits(sigmas: np.ndarray) -> float:
    """Von Neumann entropy in bits of a Schmidt spectrum."""
    kept = sigmas[sigmas > SIGMA_FLOOR * sigmas.max()]
    p = kept**2 / np.dot(kept, kept)
    return float(-(p * np.log2(p)).sum())


def page_bits(d_lo: int, d_hi: int) -> float:
    return max((math.log(d_lo) - d_lo / (2.0 * d_hi)) / math.log(2.0), 0.0)


@dataclass(frozen=True)
class Workload:
    build: Callable
    run: Callable
    check: Callable


def _call(fn, *args, **kwargs):
    """fn's result, or the exception it raised (counted as a failed op)."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # every failure is graded, none may stop the pass
        return exc


def _grade(outcome, test: Callable[[object], bool]) -> tuple[str, str]:
    if isinstance(outcome, Exception):
        return RAISED, f"{type(outcome).__name__}: {outcome}"
    try:
        return (OK, "") if test(outcome) else (WRONG, "check missed")
    except (AttributeError, KeyError, IndexError, ValueError, TypeError, OSError) as exc:
        return WRONG, f"unreadable output: {type(exc).__name__}: {exc}"


def _seed_only(cfg, workdir, seed):
    return {"seed": seed}


def _graded_by(test):
    """A check grading each returned report with ``test(cfg, report)``."""

    def check(cfg, inputs, outcomes):
        return [(name, *_grade(report, lambda r: test(cfg, r))) for name, report in outcomes]

    return check


# ---------------------------------------------------------------------------
# page: Page-curve sweeps of 1024 x 1024 Gaussians


def _page_run(cfg, inputs):
    import aent.experiments

    report = _call(
        aent.experiments.page_bench, cfg["size"], chi_max=None, seeds=cfg["seeds"], seed=inputs["seed"]
    )
    return [("page_bench", report)]


def _page_ok(cfg, report) -> bool:
    rows = report.tables["cuts"]
    if len(rows) != 2 * prime_factor_count(cfg["size"]) - 1:
        return False
    for row in rows:
        d_lo, d_hi = sorted((row["d_left"], row["d_right"]))
        if d_lo >= 4 and not abs(row["mean_entropy"] - page_bits(d_lo, d_hi)) <= PAGE_TOL_BITS:
            return False
    return True


# ---------------------------------------------------------------------------
# cardy: the attention entropy log-T fit


def _cardy_run(cfg, inputs):
    import aent.experiments

    report = _call(
        aent.experiments.cardy_experiment,
        t_grid=cfg["t_grid"],
        seeds=cfg["seeds"],
        d_mult=cfg["d_mult"],
        seed=inputs["seed"],
    )
    return [("cardy_experiment", report)]


def _cardy_ok(cfg, report) -> bool:
    fit = report.tables["fit"][0]
    return (
        fit["relative_slope_deviation"] <= CARDY_REL_SLOPE_TOL
        and abs(fit["s1_largest_t"] - 1.0) <= CARDY_S1_TOL
        and abs(fit["p1_largest_t"] - 1.0 / (1.0 + fit["sigma2"])) <= CARDY_P1_TOL
        and abs(fit["renyi2_largest_t"] - fit["renyi2_predicted"]) <= CARDY_RENYI2_TOL
    )


# ---------------------------------------------------------------------------
# cli: aent.cli.main in-process on .aent files


def _aent_header(dims: tuple[int, ...]) -> bytes:
    """A float64 .aent header (see aent.matrixfile) for ``dims``."""
    return struct.pack("<4sHHH", b"AENT", 1, 1, len(dims)) + struct.pack(f"<{len(dims)}Q", *dims)


def _cli_build(cfg, workdir, seed):
    import aent.matrixfile

    root = Path(workdir) / f"pass-{seed}"
    root.mkdir(parents=True)
    rng = np.random.default_rng(seed)
    ops, matrices = [], {}

    def add(name, kind, *argv, stem=None):
        argv = [*argv, "--out", str(root / f"{len(ops)}.csv")]
        if kind in JSON_KINDS:
            argv += ["--json", str(root / f"{len(ops)}.json")]
        ops.append((name, kind, stem, argv))

    for rows, cols, dtype in cfg["files"]:
        matrix = rng.standard_normal((rows, cols))
        if dtype == "f4":
            matrix = matrix.astype(np.float32)
        stem = f"{rows}x{cols}-{dtype}"
        path = str(root / f"{stem}.aent")
        aent.matrixfile.write_matrix(path, matrix)
        matrices[stem] = matrix.astype(np.float64)
        add(f"profile {stem}", "profile", "profile", path, stem=stem)
        add(f"profile --chi-max {CHI_MAX} {stem}", "chi", "profile", path, "--chi-max", str(CHI_MAX), stem=stem)
        add(f"mp-compare {stem}", "mp", "mp-compare", path, stem=stem)
    add("valley", "valley", "valley", *cfg["valley"], "--seed", str(seed))
    add("attn", "attn", "attn", *cfg["attn"], "--seed", str(seed))

    rows, cols = cfg["bad_shape"]
    for kind, value in (("nan", np.nan), ("inf", np.inf)):
        matrix = rng.standard_normal((rows, cols))
        matrix[rng.integers(rows), rng.integers(cols)] = value
        aent.matrixfile.write_matrix(root / f"{kind}.aent", matrix)
    aent.matrixfile.write_matrix(root / "zero.aent", np.zeros((rows, cols)))
    # 2^32 x 2^32 dims whose element count wraps to 0 in 64 bits, no payload.
    (root / "huge-dims.aent").write_bytes(_aent_header((1 << 32, 1 << 32)))
    (root / "truncated.aent").write_bytes(_aent_header((rows, cols))[:6])
    for kind in ("nan", "inf", "huge-dims", "truncated", "zero"):
        add(f"profile {kind}", "bad", "profile", str(root / f"{kind}.aent"))
    return {"root": root, "ops": ops, "matrices": matrices}


def _cli_run(cfg, inputs):
    import aent.cli

    outcomes = []
    sink = io.StringIO()
    for name, _, _, argv in inputs["ops"]:
        with contextlib.redirect_stderr(sink):
            outcomes.append((name, _call(aent.cli.main, argv)))
    return outcomes


def _csv_rows(argv) -> list[dict]:
    with open(argv[argv.index("--out") + 1]) as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _json_table(argv, table: str) -> list[dict]:
    with open(argv[argv.index("--json") + 1]) as fh:
        return json.load(fh)["tables"][table]


def _profile_ok(argv, matrix) -> bool:
    d_out, d_in = matrix.shape
    cut = [r for r in _csv_rows(argv) if int(r["d_left"]) == d_out and int(r["d_right"]) == d_in]
    reference = entropy_bits(np.linalg.svd(matrix, compute_uv=False))
    return len(cut) == 1 and abs(float(cut[0]["entropy"]) - reference) <= PROFILE_TOL_BITS


def _chi_ok(argv, matrix) -> bool:
    rows = _csv_rows(argv)
    cuts = prime_factor_count(matrix.shape[0]) + prime_factor_count(matrix.shape[1]) - 1
    return len(rows) == cuts and all(
        int(r["chi"]) <= CHI_MAX and float(r["entropy"]) <= math.log2(CHI_MAX) + 1e-9 for r in rows
    )


def _mp_ok(argv, matrix) -> bool:
    return _json_table(argv, "summary")[0]["ks_distance"] <= MP_KS_TOL


def _valley_ok(argv, matrix) -> bool:
    return all(r["pass_rate"] == 1.0 for r in _json_table(argv, "summary"))


def _attn_ok(argv, matrix) -> bool:
    heads = _json_table(argv, "heads")
    expected = int(argv[argv.index("--heads") + 1])
    return len(heads) == expected and all(abs(r["s1"] - 1.0) <= ATTN_S1_TOL for r in heads)


# op kind -> test of a zero-exit operation's output
CLI_CHECKS = {"profile": _profile_ok, "chi": _chi_ok, "mp": _mp_ok, "valley": _valley_ok, "attn": _attn_ok}
JSON_KINDS = ("mp", "valley", "attn")


def _cli_check(cfg, inputs, outcomes):
    graded = []
    for (name, kind, stem, argv), (_, code) in zip(inputs["ops"], outcomes):
        if isinstance(code, Exception):
            graded.append((name, *_grade(code, bool)))
        elif kind == "bad":
            status = OK if code in BAD_INPUT_EXITS else (WRONG if code == 0 else BAD_EXIT)
            graded.append((name, status, "" if status == OK else f"exit {code}"))
        elif code != 0:
            graded.append((name, BAD_EXIT, f"exit {code}"))
        else:
            matrix = inputs["matrices"].get(stem)
            graded.append((name, *_grade(code, lambda _: CLI_CHECKS[kind](argv, matrix))))
    shutil.rmtree(inputs["root"], ignore_errors=True)
    return graded


WORKLOADS = {
    "page": Workload(_seed_only, _page_run, _graded_by(_page_ok)),
    "cardy": Workload(_seed_only, _cardy_run, _graded_by(_cardy_ok)),
    "cli": Workload(_cli_build, _cli_run, _cli_check),
}
