"""Command-line experiment driver with CSV and JSON report emission.

Every subcommand writes CSV whose first line is a timestamp comment
(the only line allowed to differ between identical runs), followed by a
config-echo comment and the data tables.  Floats print with 12
significant digits so golden-file comparison is stable.  Exit codes:
0 success, 2 invalid argument, 3 I/O error, 4 file-format error,
5 degenerate input.
"""

from __future__ import annotations

import argparse
import sys
from datetime import datetime, timezone
from pathlib import Path

from .adapters import AdapterSpec
from .attention import DEFAULT_QK_STD
from .entropy import profile
from .errors import (
    DegenerateInputError,
    FormatError,
    InvalidArgumentError,
)
from .experiments import (
    REFERENCE_ADAPTER_SPECS,
    ExperimentReport,
    _profile_rows,
    adapter_count_rows,
    attn_experiment,
    cardy_experiment,
    mp_compare,
    page_bench,
    valley_experiment,
)
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


def _require_power_of_two(value: int, what: str, minimum: int = 1) -> int:
    if value < minimum or value & (value - 1):
        raise InvalidArgumentError(
            f"{what} must be a power of two >= {minimum}, got {value}"
        )
    return value


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise InvalidArgumentError(f"could not parse {what}: {text!r}") from exc
    if not values:
        raise InvalidArgumentError(f"{what} is empty")
    return values


def _parse_adapter_spec(text: str) -> AdapterSpec:
    kind, _, rest = text.partition(":")
    kind = kind.strip().lower()
    if kind == "mps":
        kind = "mps_adapt"
    fields = _parse_int_list(rest, f"adapter spec {text!r}")
    if kind == "full" and len(fields) == 2:
        return AdapterSpec(kind="full", d_out=fields[0], d_in=fields[1])
    if kind == "lora" and len(fields) == 3:
        return AdapterSpec(kind="lora", d_out=fields[0], d_in=fields[1], r=fields[2])
    if kind == "mps_adapt" and len(fields) == 6:
        return AdapterSpec(
            kind="mps_adapt",
            d_out=fields[0],
            d_in=fields[1],
            r=fields[2],
            d1=fields[3],
            d2=fields[4],
            chi=fields[5],
        )
    raise InvalidArgumentError(
        f"adapter spec {text!r} not understood; use full:DOUT,DIN or "
        "lora:DOUT,DIN,R or mps:DOUT,DIN,R,D1,D2,CHI"
    )


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_profile(args) -> int:
    matrix = read_matrix(args.input)
    prof = profile(matrix, chi_max=args.chi_max, base=args.base)
    report = ExperimentReport(
        name="profile",
        config={
            "input": args.input,
            "chi_max": args.chi_max,
            "base": args.base,
        },
        tables={"cuts": _profile_rows(prof)},
    )
    _emit(report, args.out, None)
    return EXIT_OK


def _cmd_page_bench(args) -> int:
    _require_power_of_two(args.size, "--size", minimum=4)
    report = page_bench(
        args.size,
        chi_max=args.chi_max,
        seeds=args.seeds,
        base=args.base,
        seed=args.seed,
    )
    _emit(report, args.out, args.json)
    return EXIT_OK


def _cmd_cardy(args) -> int:
    grid = _parse_int_list(args.t_grid, "--T-grid")
    for t in grid:
        _require_power_of_two(t, "--T-grid entry", minimum=2)
    report = cardy_experiment(
        t_grid=tuple(grid),
        seeds=args.seeds,
        d_mult=args.d_mult,
        qk_std=args.qk_std,
        seed=args.seed,
    )
    _emit(report, args.out, args.json)
    return EXIT_OK


def _cmd_valley(args) -> int:
    _require_power_of_two(args.dout, "--dout", minimum=2)
    _require_power_of_two(args.din, "--din", minimum=2)
    ranks = _parse_int_list(args.rank, "--rank")
    report = valley_experiment(
        d_out=args.dout,
        d_in=args.din,
        ranks=tuple(ranks),
        seeds=args.seeds,
        base=args.base,
        seed=args.seed,
    )
    _emit(report, args.out, args.json)
    return EXIT_OK


def _cmd_mp_compare(args) -> int:
    if (args.input is None) == (args.gaussian is None):
        raise InvalidArgumentError("give exactly one of an input file or --gaussian")
    if args.input is not None:
        matrix = read_matrix(args.input)
        source = f"file:{args.input}"
    else:
        dims = _parse_int_list(args.gaussian.replace("x", ","), "--gaussian")
        if len(dims) != 2:
            raise InvalidArgumentError("--gaussian wants ROWSxCOLS")
        matrix = sample_gaussian_matrix(dims[0], dims[1], [args.seed, dims[0], dims[1]])
        source = f"gaussian:{dims[0]}x{dims[1]}:seed={args.seed}"
    report = mp_compare(matrix, cut=args.cut, bins=args.bins, source=source)
    _emit(report, args.out, args.json)
    return EXIT_OK


def _cmd_attn(args) -> int:
    _require_power_of_two(args.t, "--T", minimum=2)
    report = attn_experiment(
        args.t,
        heads=args.heads,
        seeds=args.seeds,
        causal=args.causal,
        rope=args.rope,
        rope_theta=args.rope_theta,
        qk_std=args.qk_std,
        chi_max=args.chi_max,
        seed=args.seed,
    )
    _emit(report, args.out, args.json)
    return EXIT_OK


def _cmd_adapters_count(args) -> int:
    if args.spec:
        specs = [_parse_adapter_spec(text) for text in args.spec]
    else:
        specs = list(REFERENCE_ADAPTER_SPECS)
    report = adapter_count_rows(specs)
    _emit(report, args.out, args.json)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aent",
        description="Entanglement profiles of matrices and their random-matrix baselines.",
    )
    parser.add_argument("--version", action="version", version=f"aent {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, json_flag=True):
        p.add_argument("--out", default="-", help="output CSV path, - for stdout")
        if json_flag:
            p.add_argument("--json", default=None, help="also write a JSON report here")

    p = sub.add_parser("profile", help="entanglement profile of a matrix file")
    p.add_argument("input", help="matrix file path")
    p.add_argument("--chi-max", type=int, default=None)
    p.add_argument("--base", type=float, default=2.0)
    common(p, json_flag=False)
    p.set_defaults(handler=_cmd_profile)

    p = sub.add_parser("page-bench", help="Gaussian profile vs the Page curve")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--chi-max", type=int, default=None)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--base", type=float, default=2.0)
    common(p)
    p.set_defaults(handler=_cmd_page_bench)

    p = sub.add_parser("cardy", help="attention entropy log-scaling fit")
    p.add_argument("--T-grid", dest="t_grid", default="64,128,256,512,1024,2048")
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--d-mult", dest="d_mult", type=int, default=16, help="no effect on the draw; must be >= 1")
    p.add_argument("--qk-std", dest="qk_std", type=float, default=DEFAULT_QK_STD)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(handler=_cmd_cardy)

    p = sub.add_parser("valley", help="low-rank update entanglement valley")
    p.add_argument("--dout", type=int, default=64)
    p.add_argument("--din", type=int, default=64)
    p.add_argument("--rank", default="1,2,4,8,16,32")
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--base", type=float, default=2.0)
    common(p)
    p.set_defaults(handler=_cmd_valley)

    p = sub.add_parser("mp-compare", help="cut spectrum vs the Marchenko-Pastur law")
    p.add_argument("input", nargs="?", default=None, help="matrix file path")
    p.add_argument("--gaussian", default=None, help="ROWSxCOLS synthetic input")
    p.add_argument("--cut", type=int, default=None)
    p.add_argument("--bins", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(handler=_cmd_mp_compare)

    p = sub.add_parser("attn", help="attention scene profiles and mask ablation")
    p.add_argument("--T", dest="t", type=int, required=True)
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--heads", type=int, default=4)
    p.add_argument("--causal", action="store_true")
    p.add_argument("--rope", action="store_true")
    p.add_argument("--rope-theta", dest="rope_theta", type=float, default=10000.0)
    p.add_argument("--qk-std", dest="qk_std", type=float, default=DEFAULT_QK_STD)
    p.add_argument("--chi-max", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(handler=_cmd_attn)

    p = sub.add_parser("adapters-count", help="adapter parameter-count table")
    p.add_argument(
        "--spec",
        action="append",
        default=None,
        help="full:DOUT,DIN | lora:DOUT,DIN,R | mps:DOUT,DIN,R,D1,D2,CHI (repeatable)",
    )
    common(p)
    p.set_defaults(handler=_cmd_adapters_count)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except DegenerateInputError as exc:
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
