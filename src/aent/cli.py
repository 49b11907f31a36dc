"""Command-line experiment driver with CSV and JSON report emission.

Every subcommand writes CSV whose first line is a timestamp comment
(the only line allowed to differ between identical runs), followed by a
config-echo comment and the data tables.  Floats print with 12
significant digits so golden-file comparison is stable.  Exit codes:
0 success, 2 invalid argument, 3 I/O error, 4 file-format error,
5 degenerate input (including a LAPACK routine that does not converge).

The subcommands are built from one table, ``SUBCOMMANDS``.  A flag the
user leaves out is not passed on at all, so the default in the signature
of the function that runs the subcommand applies.
"""

from __future__ import annotations

import argparse
import sys
from datetime import datetime, timezone
from pathlib import Path

from numpy.linalg import LinAlgError

from . import experiments
from .adapters import _SPEC_FIELDS, AdapterSpec
from .entropy import profile
from .errors import DegenerateInputError, FormatError, InvalidArgumentError
from .experiments import ExperimentReport, _echoed, _profile_rows
from .matrixfile import read_matrix
from .rmt import sample_gaussian_matrix
from .version import __version__

EXIT_OK = 0
EXIT_INVALID_ARGUMENT = 2
EXIT_IO_ERROR = 3
EXIT_FORMAT_ERROR = 4
EXIT_DEGENERATE_INPUT = 5


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, (list, tuple)):
        return ",".join(_fmt(v) for v in value)
    return str(value)


def _report_lines(report: ExperimentReport) -> list[str]:
    config = dict(report.config)
    config["tool_version"] = report.tool_version
    echo = " ".join(f"{k}={_fmt(config[k])}" for k in sorted(config))
    lines = [
        f"# generated {datetime.now(timezone.utc).isoformat(timespec='seconds')}",
        f"# config {report.name} {echo}",
    ]
    multi = len(report.tables) > 1
    for table_name, rows in report.tables.items():
        if multi:
            lines.append(f"# table {table_name}")
        if not rows:
            continue
        columns = list(rows[0])
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_fmt(row[col]) for col in columns))
    return lines


def _emit(report: ExperimentReport, out: str, json_path: str | None) -> None:
    text = "\n".join(_report_lines(report)) + "\n"
    if out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)
    if json_path:
        Path(json_path).write_text(report.to_json() + "\n")


def _power_of_two(minimum: int):
    def check(value: int, what: str) -> int:
        if value < minimum or value & (value - 1):
            raise InvalidArgumentError(f"{what} must be a power of two >= {minimum}, got {value}")
        return value

    return check


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise InvalidArgumentError(f"could not parse {what}: {text!r}") from exc
    if not values:
        raise InvalidArgumentError(f"{what} is empty")
    return values


def _int_tuple(text: str, what: str) -> tuple[int, ...]:
    return tuple(_parse_int_list(text, what))


def _power_of_two_grid(text: str, what: str) -> tuple[int, ...]:
    return tuple(_power_of_two(2)(t, f"{what} entry") for t in _parse_int_list(text, what))


def _parse_adapter_spec(text: str) -> AdapterSpec:
    kind, _, rest = text.partition(":")
    kind = kind.strip().lower()
    if kind == "mps":
        kind = "mps_adapt"
    fields = _parse_int_list(rest, f"adapter spec {text!r}")
    names = _SPEC_FIELDS.get(kind)
    if names is None or len(names) != len(fields):
        raise InvalidArgumentError(
            f"adapter spec {text!r} not understood; use full:DOUT,DIN or "
            "lora:DOUT,DIN,R or mps:DOUT,DIN,R,D1,D2,CHI"
        )
    return AdapterSpec(kind=kind, **dict(zip(names, fields)))


def _adapter_specs(texts: list[str], what: str) -> list[AdapterSpec]:
    return [_parse_adapter_spec(text) for text in texts]


# ---------------------------------------------------------------------------
# Runners of the subcommands that are not a single experiment call


@_echoed
def _profile_file(input: str, chi_max: int | None = None, base: float = 2.0) -> ExperimentReport:
    prof = profile(read_matrix(input), chi_max=chi_max, base=base)
    return ExperimentReport(name="profile", tables={"cuts": _profile_rows(prof)})


def _mp_compare(
    input: str | None = None, gaussian: str | None = None, seed: int | None = None, cut: int | None = None,
    bins: int = 64,
) -> ExperimentReport:
    if (input is None) == (gaussian is None):
        raise InvalidArgumentError("give exactly one of an input file or --gaussian")
    if input is not None:
        if seed is not None:
            raise InvalidArgumentError("--seed applies only with --gaussian")
        matrix = read_matrix(input)
        source = f"file:{input}"
    else:
        dims = _parse_int_list(gaussian.replace("x", ","), "--gaussian")
        if len(dims) != 2:
            raise InvalidArgumentError("--gaussian wants ROWSxCOLS")
        seed = 0 if seed is None else seed
        matrix = sample_gaussian_matrix(dims[0], dims[1], [seed, dims[0], dims[1]])
        source = f"gaussian:{dims[0]}x{dims[1]}:seed={seed}"
    return experiments.mp_compare(matrix, cut=cut, bins=bins, source=source)


# ---------------------------------------------------------------------------
# The subcommand table

_INT = {"type": int}
_FLOAT = {"type": float}
_SEEDS = ("--seeds", "seeds", _INT, None)
_SEED = ("--seed", "seed", _INT, None)
_BASE = ("--base", "base", _FLOAT, None)
_CHI_MAX = ("--chi-max", "chi_max", _INT, None)
_QK_STD = ("--qk-std", "qk_std", _FLOAT, None)
_SPEC_HELP = "full:DOUT,DIN | lora:DOUT,DIN,R | mps:DOUT,DIN,R,D1,D2,CHI (repeatable)"

#: name -> (help, runner, takes --json, flags).  A runner is a private
#: function here or the name of an ``aent.experiments`` function, looked up
#: per call so that rebinding it (as the benchmark's tracer does) is seen.
#: A flag is (CLI flag, runner keyword, argparse options, check); checks run
#: after parsing, so a bad value makes ``main`` return 2, not raise SystemExit.
SUBCOMMANDS = {
    "profile": ("entanglement profile of a matrix file", _profile_file, False, (
        ("input", "input", {"help": "matrix file path"}, None),
        _CHI_MAX, _BASE,
    )),
    "page-bench": ("Gaussian profile vs the Page curve", "page_bench", True, (
        ("--size", "size", {"type": int, "required": True}, _power_of_two(4)),
        _CHI_MAX, _SEEDS, _SEED, _BASE,
    )),
    "cardy": ("attention entropy log-scaling fit", "cardy_experiment", True, (
        ("--T-grid", "t_grid", {}, _power_of_two_grid),
        _SEEDS,
        ("--d-mult", "d_mult", {"type": int, "help": "no effect on the draw; must be >= 1"}, None),
        _QK_STD, _SEED,
    )),
    "valley": ("low-rank update entanglement valley", "valley_experiment", True, (
        ("--dout", "d_out", _INT, _power_of_two(2)),
        ("--din", "d_in", _INT, _power_of_two(2)),
        ("--rank", "ranks", {}, _int_tuple),
        _SEEDS, _SEED, _BASE,
    )),
    "mp-compare": ("cut spectrum vs the Marchenko-Pastur law", _mp_compare, True, (
        ("input", "input", {"nargs": "?", "help": "matrix file path"}, None),
        ("--gaussian", "gaussian", {"help": "ROWSxCOLS synthetic input"}, None),
        ("--cut", "cut", _INT, None),
        ("--bins", "bins", _INT, None),
        _SEED,
    )),
    "attn": ("attention scene profiles and mask ablation", "attn_experiment", True, (
        ("--T", "t", {"type": int, "required": True}, _power_of_two(2)),
        _SEEDS,
        ("--heads", "heads", _INT, None),
        ("--causal", "causal", {"action": "store_true"}, None),
        ("--rope", "rope", {"action": "store_true"}, None),
        ("--rope-theta", "rope_theta", _FLOAT, None),
        _QK_STD, _CHI_MAX, _SEED,
    )),
    "adapters-count": ("adapter parameter-count table", "adapter_count_rows", True, (
        ("--spec", "specs", {"action": "append", "help": _SPEC_HELP}, _adapter_specs),
    )),
}


def _run(command: str, options: dict) -> int:
    _, runner, _, flags = SUBCOMMANDS[command]
    if isinstance(runner, str):
        runner = getattr(experiments, runner)
    out = options.pop("out")
    json_path = options.pop("json", None)
    for flag, keyword, _, check in flags:
        if check is not None and keyword in options:
            options[keyword] = check(options[keyword], flag)
    _emit(runner(**options), out, json_path)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aent",
        description="Entanglement profiles of matrices and their random-matrix baselines.",
    )
    parser.add_argument("--version", action="version", version=f"aent {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, takes_json, flags) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        for flag, keyword, options, _ in flags:
            if flag.startswith("-"):
                options = {"dest": keyword, **options}
            p.add_argument(flag, **options)
        p.add_argument("--out", default="-", help="output CSV path, - for stdout")
        if takes_json:
            p.add_argument("--json", default=None, help="also write a JSON report here")
    return parser


def main(argv=None) -> int:
    options = vars(build_parser().parse_args(argv))
    try:
        return _run(options.pop("command"), options)
    except (DegenerateInputError, LinAlgError) as exc:
        print(f"aent: degenerate input: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE_INPUT
    except FormatError as exc:
        print(f"aent: format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT_ERROR
    except InvalidArgumentError as exc:
        print(f"aent: invalid argument: {exc}", file=sys.stderr)
        return EXIT_INVALID_ARGUMENT
    except OSError as exc:
        print(f"aent: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR


if __name__ == "__main__":
    sys.exit(main())
