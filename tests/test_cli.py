import inspect
import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import aent.attention
import aent.experiments
from aent import MarchenkoPastur, ks_distance, write_matrix
from aent.cli import SUBCOMMANDS, build_parser, main

PROFILE_HEADER = "cut,d_left,d_right,chi,entropy,renyi2,normalized"
ADAPTERS_COUNT_HEADER = "kind,d_out,d_in,r,d1,d2,chi,params,ratio_vs_full"


def run_to_file(tmp_path, argv, name="out.csv"):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    lines = out.read_text().splitlines() if out.exists() else []
    return code, lines


class TestProfileCommand:
    def test_identity_profile_exact_csv(self, tmp_path):
        src = tmp_path / "eye.aent"
        write_matrix(src, np.eye(4))
        code, lines = run_to_file(tmp_path, ["profile", str(src)])
        assert code == 0
        assert lines[0].startswith("# generated ")
        assert lines[1].startswith("# config profile ")
        assert "tool_version=0.1.0" in lines[1]
        assert lines[2:] == [
            PROFILE_HEADER,
            "1,2,8,2,1,1,1",
            "2,4,4,4,2,2,1",
            "3,8,2,2,1,1,1",
        ]

    def test_stdout_default(self, tmp_path, capsys):
        src = tmp_path / "eye.aent"
        write_matrix(src, np.eye(2))
        assert main(["profile", str(src)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[2] == PROFILE_HEADER
        assert out[3] == "1,2,2,2,1,1,1"

    @pytest.mark.parametrize("cap", [[], ["--chi-max", "8"]], ids=["uncapped", "capped"])
    def test_entries_near_the_float64_maximum_profile_as_at_unit_scale(self, tmp_path, cap):
        matrix = np.random.default_rng(0).standard_normal((64, 64))
        write_matrix(tmp_path / "unit.aent", matrix)
        write_matrix(tmp_path / "huge.aent", matrix * 2.0**1020)
        code, unit = run_to_file(tmp_path, ["profile", str(tmp_path / "unit.aent"), *cap], "unit.csv")
        assert code == 0
        code, huge = run_to_file(tmp_path, ["profile", str(tmp_path / "huge.aent"), *cap], "huge.csv")
        assert code == 0
        assert huge[2:] == unit[2:]
        assert huge[3].startswith("1,2,2048,2,0.99706")

    def test_one_by_one_has_headers_only(self, tmp_path):
        src = tmp_path / "one.aent"
        write_matrix(src, np.array([[3.0]]))
        code, lines = run_to_file(tmp_path, ["profile", str(src)])
        assert code == 0
        assert len(lines) == 2

    def test_missing_file_is_io_error(self, tmp_path):
        code, _ = run_to_file(tmp_path, ["profile", str(tmp_path / "nope.aent")])
        assert code == 3

    def test_garbage_file_is_format_error(self, tmp_path):
        src = tmp_path / "bad.aent"
        src.write_bytes(b"not a matrix file at all")
        code, _ = run_to_file(tmp_path, ["profile", str(src)])
        assert code == 4

    def test_zero_matrix_is_degenerate(self, tmp_path):
        src = tmp_path / "zero.aent"
        write_matrix(src, np.zeros((4, 4)))
        code, _ = run_to_file(tmp_path, ["profile", str(src)])
        assert code == 5

    def test_bad_chi_is_invalid_argument(self, tmp_path):
        src = tmp_path / "eye.aent"
        write_matrix(src, np.eye(4))
        code, _ = run_to_file(tmp_path, ["profile", str(src), "--chi-max", "0"])
        assert code == 2


def _bad_file(tmp_path, kind):
    path = tmp_path / f"{kind}.aent"
    if kind == "huge-dims":
        # 2^32 x 2^32 float64 dims, whose element count wraps to 0 in 64 bits
        path.write_bytes(struct.pack("<4sHHH2Q", b"AENT", 1, 1, 2, 1 << 32, 1 << 32))
    else:
        matrix = np.eye(6, 4)
        matrix[2, 3] = np.nan if kind == "nan" else np.inf
        write_matrix(path, matrix)
    return str(path)


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["profile", "<nan>"], 2),
        (["profile", "<inf>"], 2),
        (["mp-compare", "<nan>"], 2),
        (["mp-compare", "<zero>"], 5),
        (["profile", "<huge-dims>"], 4),
        (["profile", "<eye>", "--base", "1"], 2),
        (["profile", "<eye>", "--base", "0"], 2),
        (["profile", "<eye>", "--base", "nan"], 2),
        (["page-bench", "--size", "4", "--seeds", "1", "--base", "1"], 2),
        (["attn", "--T", "8", "--heads", "1", "--qk-std", "inf"], 2),
        (["attn", "--T", "8", "--heads", "1", "--qk-std", "nan"], 2),
        (["cardy", "--T-grid", "8,16,32,64", "--seeds", "1", "--qk-std", "nan"], 2),
        (["attn", "--T", "8", "--heads", "1", "--rope", "--rope-theta", "0"], 2),
        (["attn", "--T", "8", "--heads", "1", "--rope", "--rope-theta", "-5"], 2),
        (["attn", "--T", "8", "--heads", "1", "--rope", "--rope-theta", "nan"], 2),
        (["attn", "--T", "8", "--heads", "1", "--rope", "--rope-theta", "inf"], 2),
        (["page-bench", "--size", "8", "--seeds", "1", "--seed", "-1"], 2),
        (["cardy", "--T-grid", "8,16,32,64", "--seeds", "1", "--seed", "-1"], 2),
        (["valley", "--seeds", "1", "--seed", "-1"], 2),
        (["mp-compare", "--gaussian", "8x8", "--seed", "-1"], 2),
        (["attn", "--T", "8", "--heads", "1", "--seed", "-1"], 2),
        (["valley", "--rank", "-1", "--seeds", "1"], 2),
        (["cardy", "--T-grid", "8,16,32,64", "--seeds", "1", "--qk-std", "1e300"], 2),
        (["attn", "--T", "8", "--heads", "1", "--qk-std", "1e300"], 2),
        (["mp-compare", "--gaussian", "1x8"], 2),
        (["mp-compare", "--gaussian", "8x1"], 2),
        (["mp-compare", "<eye>", "--seed", "3"], 2),
    ],
    ids=[
        "profile-nan",
        "profile-inf",
        "mp-compare-nan",
        "mp-compare-zero",
        "profile-huge-dims",
        "base-1",
        "base-0",
        "base-nan",
        "page-bench-base-1",
        "attn-qk-std-inf",
        "attn-qk-std-nan",
        "cardy-qk-std-nan",
        "attn-rope-theta-0",
        "attn-rope-theta-negative",
        "attn-rope-theta-nan",
        "attn-rope-theta-inf",
        "page-bench-seed-negative",
        "cardy-seed-negative",
        "valley-seed-negative",
        "mp-compare-seed-negative",
        "attn-seed-negative",
        "valley-rank-negative",
        "cardy-logit-overflow",
        "attn-logit-overflow",
        "mp-compare-1xN",
        "mp-compare-Nx1",
        "mp-compare-file-seed",
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bad_input_exits_with_documented_code(tmp_path, capsys, argv, expected):
    files = {f"<{kind}>": _bad_file(tmp_path, kind) for kind in ("nan", "inf", "huge-dims")}
    for kind, matrix in (("eye", np.eye(4)), ("zero", np.zeros((6, 4)))):
        files[f"<{kind}>"] = str(tmp_path / f"{kind}.aent")
        write_matrix(files[f"<{kind}>"], matrix)
    code, lines = run_to_file(tmp_path, [files.get(arg, arg) for arg in argv])
    assert code == expected
    assert lines == []
    err = capsys.readouterr().err
    assert err.startswith("aent: ")
    assert err.count("\n") == 1


def test_lapack_failure_is_degenerate_input(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    src = tmp_path / "gauss.aent"
    write_matrix(src, np.random.default_rng(0).standard_normal((8, 6)))
    code, lines = run_to_file(tmp_path, ["profile", str(src)])
    assert code == 5
    assert lines == []
    assert capsys.readouterr().err == "aent: degenerate input: Eigenvalues did not converge\n"


class TestPageBenchCommand:
    def test_small_run_tables(self, tmp_path):
        code, lines = run_to_file(
            tmp_path, ["page-bench", "--size", "8", "--seeds", "2"]
        )
        assert code == 0
        assert "# table cuts" in lines
        assert "# table summary" in lines
        header = lines[lines.index("# table cuts") + 1]
        assert header.split(",")[0] == "cut"

    def test_json_emission(self, tmp_path):
        out_json = tmp_path / "report.json"
        code, _ = run_to_file(
            tmp_path,
            ["page-bench", "--size", "8", "--seeds", "1", "--json", str(out_json)],
        )
        assert code == 0
        payload = json.loads(out_json.read_text())
        assert payload["name"] == "page-bench"
        assert payload["config"]["size"] == 8
        assert payload["tool_version"] == "0.1.0"

    def test_size_must_be_power_of_two(self, tmp_path):
        assert run_to_file(tmp_path, ["page-bench", "--size", "12"])[0] == 2
        assert run_to_file(tmp_path, ["page-bench", "--size", "2"])[0] == 2

    def test_deterministic_modulo_timestamp(self, tmp_path):
        argv = ["page-bench", "--size", "8", "--seeds", "2", "--seed", "7"]
        _, first = run_to_file(tmp_path, argv, name="a.csv")
        _, second = run_to_file(tmp_path, argv, name="b.csv")
        assert first[1:] == second[1:]
        assert first[0].startswith("# generated ")


class TestCardyCommand:
    def test_small_run(self, tmp_path):
        code, lines = run_to_file(
            tmp_path,
            ["cardy", "--T-grid", "8,16,32,64", "--seeds", "1", "--d-mult", "1"],
        )
        assert code == 0
        assert "qk_std=0.65" in lines[1]
        assert "# table points" in lines
        assert lines[lines.index("# table fit") + 1].split(",") == [
            "slope",
            "intercept",
            "sigma2",
            "predicted_charge",
            "relative_slope_deviation",
            "s1_largest_t",
            "p1_largest_t",
            "renyi2_largest_t",
            "renyi2_predicted",
        ]

    def test_grid_validation(self, tmp_path):
        code, _ = run_to_file(
            tmp_path, ["cardy", "--T-grid", "8,12,32,64", "--seeds", "1"]
        )
        assert code == 2
        code, _ = run_to_file(
            tmp_path, ["cardy", "--T-grid", "8,16,32,64", "--d-mult", "0"]
        )
        assert code == 2


class TestValleyCommand:
    def test_small_run(self, tmp_path):
        code, lines = run_to_file(
            tmp_path,
            [
                "valley",
                "--dout", "16",
                "--din", "16",
                "--rank", "1,2",
                "--seeds", "2",
            ],
        )
        assert code == 0
        assert "# table instances" in lines
        assert "# table summary" in lines
        assert not any(",-0," in line or line.endswith(",-0") for line in lines)

    def test_dims_validated(self, tmp_path):
        assert run_to_file(tmp_path, ["valley", "--dout", "12"])[0] == 2
        assert run_to_file(tmp_path, ["valley", "--rank", "oops"])[0] == 2


class TestMpCompareCommand:
    def test_gaussian_source(self, tmp_path):
        code, lines = run_to_file(
            tmp_path, ["mp-compare", "--gaussian", "16x16", "--bins", "8"]
        )
        assert code == 0
        assert "source=gaussian:16x16:seed=0" in lines[1]
        assert "# table summary" in lines

    def test_file_source(self, tmp_path):
        src = tmp_path / "g.aent"
        write_matrix(src, np.random.default_rng(0).standard_normal((16, 16)))
        code, _ = run_to_file(tmp_path, ["mp-compare", str(src)])
        assert code == 0

    def test_source_exclusivity(self, tmp_path):
        src = tmp_path / "g.aent"
        write_matrix(src, np.eye(4))
        assert run_to_file(tmp_path, ["mp-compare"])[0] == 2
        assert (
            run_to_file(tmp_path, ["mp-compare", str(src), "--gaussian", "8x8"])[0]
            == 2
        )

    def test_bad_gaussian_shape(self, tmp_path):
        assert run_to_file(tmp_path, ["mp-compare", "--gaussian", "8x8x8"])[0] == 2

    def test_seed_with_a_file_is_refused(self, tmp_path, capsys):
        src = tmp_path / "g.aent"
        write_matrix(src, np.eye(4))
        assert run_to_file(tmp_path, ["mp-compare", str(src), "--seed", "0"])[0] == 2
        assert capsys.readouterr().err == "aent: invalid argument: --seed applies only with --gaussian\n"

    def test_bad_cut(self, tmp_path):
        code, _ = run_to_file(
            tmp_path, ["mp-compare", "--gaussian", "8x8", "--cut", "99"]
        )
        assert code == 2

    # np.linspace raises IndexError at 2**63 - 2 and 2**63 and ValueError at 2**64 + 1; the check refuses them first
    @pytest.mark.parametrize("bins", ["3", str(2**60), str(2**63 - 2), str(2**63), str(2**64 + 1)])
    def test_a_bin_count_out_of_range_is_refused_by_name(self, capsys, bins):
        assert main(["mp-compare", "--gaussian", "4x4", "--bins", bins]) == 2
        assert capsys.readouterr().err == (
            f"aent: invalid argument: --bins must be at least 4 and less than {2**60 - 1}, got {bins}\n"
        )

    def test_rank_deficient_file_matches_the_svd_spectrum(self, tmp_path):
        # rounding puts about half of the 1020 zero eigenvalues of the Gram
        # matrix below 0, so this cut is read from the SVD; each zero must
        # land in the first bin, while the four signal values (about 256
        # each) lie above the last one
        rng = np.random.default_rng(8)
        matrix = rng.standard_normal((1024, 4)) @ rng.standard_normal((4, 1024))
        src, out_json = tmp_path / "rank4.aent", tmp_path / "out.json"
        write_matrix(src, matrix)
        code, _ = run_to_file(tmp_path, ["mp-compare", str(src), "--json", str(out_json)])
        assert code == 0
        tables = json.loads(out_json.read_text())["tables"]
        summary = tables["summary"][0]
        assert summary["values"] == 1024
        assert tables["histogram"][0]["count"] == sum(row["count"] for row in tables["histogram"]) == 1020
        sigmas = np.linalg.svd(matrix, compute_uv=False)
        reference = ks_distance(np.sort(1024 * sigmas**2 / np.dot(sigmas, sigmas)), MarchenkoPastur(1.0))
        assert abs(summary["ks_distance"] - reference) <= 1e-9


class TestAttnCommand:
    def test_small_run(self, tmp_path):
        code, lines = run_to_file(
            tmp_path, ["attn", "--T", "8", "--heads", "1", "--seeds", "1"]
        )
        assert code == 0
        assert "# table heads" in lines
        assert "# table profiles" in lines
        assert "# table ablation" in lines

    def test_t_validated(self, tmp_path):
        assert run_to_file(tmp_path, ["attn", "--T", "12"])[0] == 2

    @pytest.mark.parametrize("rope", [[], ["--rope"]], ids=["plain", "rope"])
    @pytest.mark.parametrize("theta", ["-5", "nan"])
    def test_a_bad_rope_theta_is_refused_before_any_draw(self, tmp_path, capsys, monkeypatch, theta, rope):
        draws, seeded = [], aent.attention._seeded_rng
        monkeypatch.setattr(aent.attention, "_seeded_rng", lambda seed: draws.append(seed) or seeded(seed))
        code, lines = run_to_file(tmp_path, ["attn", "--T", "16", "--rope-theta", theta, *rope])
        assert (code, lines, draws) == (2, [], [])
        assert capsys.readouterr().err == (
            f"aent: invalid argument: RoPE base theta_base must be finite and > 0, got {float(theta)}\n"
        )


class TestAdaptersCountCommand:
    def test_default_reference_table(self, tmp_path):
        code, lines = run_to_file(tmp_path, ["adapters-count"])
        assert code == 0
        data = [line.split(",") for line in lines if line and not line.startswith("#")]
        header, rows = data[0], data[1:]
        assert ",".join(header) == ADAPTERS_COUNT_HEADER
        params_col = header.index("params")
        assert [row[params_col] for row in rows] == [
            "16777216",
            "2097152",
            "1574912",
        ]
        ratio_col = header.index("ratio_vs_full")
        assert rows[0][ratio_col] == "1"
        assert rows[1][ratio_col] == "0.125"

    def test_explicit_specs(self, tmp_path):
        code, lines = run_to_file(
            tmp_path,
            [
                "adapters-count",
                "--spec", "lora:16,16,4",
                "--spec", "mps:16,16,4,4,4,2",
            ],
        )
        assert code == 0
        rows = [line for line in lines if line.startswith(("lora", "mps"))]
        assert len(rows) == 2
        assert rows[0].startswith("lora,16,16,4,,,")
        assert rows[1].startswith("mps_adapt,16,16,4,4,4,2,")

    def test_invalid_specs(self, tmp_path):
        assert run_to_file(tmp_path, ["adapters-count", "--spec", "lora:16,16,0"])[0] == 2
        assert run_to_file(tmp_path, ["adapters-count", "--spec", "banana:1,2"])[0] == 2
        assert run_to_file(tmp_path, ["adapters-count", "--spec", "lora:16,16"])[0] == 2


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert capsys.readouterr().out.strip() == "aent 0.1.0"

    def test_the_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_unknown_command_exits_via_argparse(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    # numpy refuses these sizes without allocating: they overflow the address space
    @pytest.mark.parametrize("argv", [
        ["mp-compare", "--gaussian", "3037000500x3037000500"],
        ["cardy", "--T-grid", "8,16,32,1073741824"],
    ])
    def test_an_overflowing_size_exits_2_naming_its_flag(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"aent: invalid argument: {' '.join(argv)}: needs more memory than can be allocated")

    # a real request of this size may succeed under overcommit, so the failed
    # allocation is simulated where the experiment would make it
    @pytest.mark.parametrize("argv, experiment", [
        (["mp-compare", "--gaussian", "4x4", "--bins", "1000000000000"], "mp_compare"),
        (["page-bench", "--size", "1048576"], "page_bench"),
        (["attn", "--T", "1048576", "--causal"], "attn_experiment"),
    ])
    def test_a_failed_allocation_exits_2_naming_its_flag(self, monkeypatch, capsys, argv, experiment):
        def allocate(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 TiB")

        monkeypatch.setattr(aent.experiments, experiment, allocate)
        assert main(argv) == 2
        err = capsys.readouterr().err
        flags = " ".join(arg for arg in argv[1:] if arg != "--causal")
        assert err.startswith(f"aent: invalid argument: {argv[0]} {flags}: needs more memory")
        assert "Unable to allocate 8.00 TiB" in err

    def test_any_other_value_error_is_not_taken_for_a_size(self, monkeypatch):
        def fail(*args, **kwargs):
            raise ValueError("not a size")

        monkeypatch.setattr(aent.experiments, "page_bench", fail)
        with pytest.raises(ValueError, match="not a size"):
            main(["page-bench", "--size", "8"])

    def test_float_formatting_is_12_sig_digits(self, tmp_path):
        src = tmp_path / "m.aent"
        write_matrix(src, np.diag([2.0, 1.0, 1.0, 1.0]))
        code, lines = run_to_file(tmp_path, ["profile", str(src)])
        assert code == 0
        # the row-column cut of diag(2,1,1,1) has lambda^2 = (4,1,1,1)/7
        row = next(line for line in lines if line.startswith("2,"))
        entropy = row.split(",")[4]
        assert entropy == "1.6644977792"
        assert len(entropy.replace(".", "").lstrip("0")) <= 12


# ---------------------------------------------------------------------------
# The subcommand table


@pytest.mark.parametrize("command", list(SUBCOMMANDS))
def test_table_keywords_are_runner_parameters(command):
    _, runner, _, flags = SUBCOMMANDS[command]
    if isinstance(runner, str):
        runner = getattr(aent.experiments, runner)
    parameters = inspect.signature(runner).parameters
    assert [keyword for _, keyword, _, _ in flags if keyword not in parameters] == []


OMITTED_FLAG_CONFIGS = {
    "profile": (
        ["profile", "<eye>"],
        "# config profile base=2 chi_max= input=<eye> tool_version=0.1.0",
    ),
    "page-bench": (
        ["page-bench", "--size", "8"],
        "# config page-bench base=2 chi_max= seed=0 seeds=10 size=8 tool_version=0.1.0",
    ),
    "cardy": (
        ["cardy", "--T-grid", "8,16,32,64"],
        "# config cardy d_mult=16 qk_std=0.65 seed=0 seeds=5 t_grid=8,16,32,64 "
        "tool_version=0.1.0",
    ),
    "valley": (
        ["valley", "--dout", "16", "--din", "16", "--rank", "1,2"],
        "# config valley base=2 d_in=16 d_out=16 ranks=1,2 seed=0 seeds=20 tool_version=0.1.0",
    ),
    "mp-compare": (
        ["mp-compare", "--gaussian", "16x16"],
        "# config mp-compare bins=64 c=1 cut=4 source=gaussian:16x16:seed=0 tool_version=0.1.0",
    ),
    "attn": (
        ["attn", "--T", "8"],
        "# config attn base=2 causal=false chi_max= heads=4 qk_std=0.65 rope=false "
        "rope_theta=10000 seed=0 seeds=1 t=8 tool_version=0.1.0",
    ),
    "adapters-count": (
        ["adapters-count"],
        "# config adapters-count specs=full:4096,4096,lora:4096,4096,256,mps:4096,4096,256,64,64,32 "
        "tool_version=0.1.0",
    ),
}


@pytest.mark.parametrize("command", list(SUBCOMMANDS))
def test_omitted_flags_echo_the_experiment_defaults(tmp_path, command):
    eye = str(tmp_path / "eye.aent")
    write_matrix(eye, np.eye(4))
    argv, expected = OMITTED_FLAG_CONFIGS[command]
    code, lines = run_to_file(tmp_path, [eye if arg == "<eye>" else arg for arg in argv])
    assert code == 0
    assert lines[1] == expected.replace("<eye>", eye)


#: command -> runs of (argv, config items it must echo).  Together the runs
#: give every flag of the command a value other than its default, and each
#: item names the flag's runner keyword, except that mp-compare echoes its
#: input, --gaussian and --seed as ``source``.  Cardy echoes its grid sorted.
ALL_FLAG_RUNS = {
    "profile": [(["profile", "<eye>", "--chi-max", "3", "--base", "3"], "input=<eye> chi_max=3 base=3")],
    "page-bench": [
        (
            ["page-bench", "--size", "16", "--chi-max", "2", "--seeds", "2", "--seed", "3", "--base", "3"],
            "size=16 chi_max=2 seeds=2 seed=3 base=3",
        )
    ],
    "cardy": [
        (
            ["cardy", "--T-grid", "32,8,16,64", "--seeds", "1", "--d-mult", "2", "--qk-std", "0.5", "--seed", "1"],
            "t_grid=8,16,32,64 seeds=1 d_mult=2 qk_std=0.5 seed=1",
        )
    ],
    "valley": [
        (
            ["valley", "--dout", "8", "--din", "4", "--rank", "2,1", "--seeds", "2", "--seed", "1", "--base", "3"],
            "d_out=8 d_in=4 ranks=2,1 seeds=2 seed=1 base=3",
        )
    ],
    "mp-compare": [
        (["mp-compare", "<eye>", "--cut", "2", "--bins", "8"], "source=file:<eye> cut=2 bins=8"),
        (["mp-compare", "--gaussian", "8x4", "--seed", "2"], "source=gaussian:8x4:seed=2"),
    ],
    "attn": [
        (
            ["attn", "--T", "4", "--seeds", "2", "--heads", "1", "--causal", "--rope", "--rope-theta", "100",
             "--qk-std", "0.5", "--chi-max", "2", "--seed", "1"],
            "t=4 seeds=2 heads=1 causal=true rope=true rope_theta=100 qk_std=0.5 chi_max=2 seed=1",
        )
    ],
    "adapters-count": [(["adapters-count", "--spec", "lora:8,8,2"], "specs=lora:8,8,2")],
}


@pytest.mark.parametrize("command", list(SUBCOMMANDS))
def test_every_flag_given_is_echoed(tmp_path, command):
    eye = str(tmp_path / "eye.aent")
    write_matrix(eye, np.eye(4))
    given = set()
    for argv, items in ALL_FLAG_RUNS[command]:
        given.update(argv)
        code, lines = run_to_file(tmp_path, [eye if arg == "<eye>" else arg for arg in argv])
        assert code == 0
        echo = lines[1].split()
        assert [item for item in items.replace("<eye>", eye).split() if item not in echo] == []
    flags = [flag if flag.startswith("-") else "<eye>" for flag, _, _, _ in SUBCOMMANDS[command][3]]
    assert [flag for flag in flags if flag not in given] == []


#: Runs every given argv through cli.main in one interpreter, then prints the
#: exit codes and every imported scipy module.
_IMPORT_PROBE = """
import json, sys
from aent.cli import main
runs, out = json.loads(sys.argv[1]), sys.argv[2]
codes = [main(argv + ["--out", out]) for argv in runs]
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_every_subcommand_runs_without_importing_scipy(tmp_path):
    # numpy is the one declared runtime dependency
    eye = str(tmp_path / "eye.aent")
    write_matrix(eye, np.eye(4))
    runs = [argv for argv, _ in OMITTED_FLAG_CONFIGS.values()]
    runs += [argv for command_runs in ALL_FLAG_RUNS.values() for argv, _ in command_runs]
    runs = [[eye if arg == "<eye>" else arg for arg in argv] for argv in runs]
    assert {argv[0] for argv in runs} == set(SUBCOMMANDS)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(runs), str(tmp_path / "out.csv")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"codes": [0] * len(runs), "scipy": []}


@pytest.mark.parametrize("command", list(SUBCOMMANDS))
def test_help_exits_zero(capsys, command):
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    assert f"aent {command}" in capsys.readouterr().out


def _readme_synopsis() -> dict[str, str]:
    """README "Command line" synopsis: subcommand -> its entry, continuation lines joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    entries: dict[str, str] = {}
    for line in block.splitlines():
        if line.startswith("aent "):
            command = line.split()[1]
            entries[command] = line
        elif line.strip() and entries:
            entries[command] += " " + line.strip()
    return entries


@pytest.mark.parametrize("command", list(SUBCOMMANDS))
def test_readme_synopsis_names_every_flag(command):
    entry = _readme_synopsis().get(command, "")
    # flags as written, positionals as their upper-case metavar
    named = set(re.findall(r"--?[\w-]+|[A-Z]+", entry))
    flags = [flag if flag.startswith("-") else flag.upper() for flag, _, _, _ in SUBCOMMANDS[command][3]]
    assert entry and [flag for flag in flags if flag not in named] == []
