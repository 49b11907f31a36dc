import contextlib
import hashlib
import inspect
import io
import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aent.attention
import aent.experiments
from aent import mps
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
        (["profile", "<one>", "--chi-max", "0"], 2),
        (["profile", "<col>", "--chi-max", "-3"], 2),
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
        "profile-1x1-chi-max-0",
        "profile-7x1-chi-max-negative",
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bad_input_exits_with_documented_code(tmp_path, capsys, argv, expected):
    files = {f"<{kind}>": _bad_file(tmp_path, kind) for kind in ("nan", "inf", "huge-dims")}
    matrices = {"eye": np.eye(4), "zero": np.zeros((6, 4)), "one": np.ones((1, 1)), "col": np.ones((7, 1))}
    for kind, matrix in matrices.items():
        files[f"<{kind}>"] = str(tmp_path / f"{kind}.aent")
        write_matrix(files[f"<{kind}>"], matrix)
    code, lines = run_to_file(tmp_path, [files.get(arg, arg) for arg in argv])
    assert code == expected
    assert lines == []
    err = capsys.readouterr().err
    assert err.startswith("aent: ")
    assert err.count("\n") == 1


def test_lapack_failure_is_degenerate_input(tmp_path, capsys, monkeypatch):
    def unconverged(*args):  # LAPACK dsyevd's arguments; the 11th, info, reports no convergence
        args[10].value = 1

    monkeypatch.setattr(mps, "_DSYEVD", unconverged)
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

    def test_rank_above_the_smaller_dim_rejected(self, tmp_path, capsys):
        argv = ["valley", "--dout", "4", "--din", "8", "--rank", "9", "--seeds", "1"]
        assert run_to_file(tmp_path, argv) == (2, [])
        assert capsys.readouterr().err == "aent: invalid argument: rank 9 exceeds min(d_out, d_in) = 4\n"


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

    def test_logit_overflow_names_the_sqrt_t_scaling(self, tmp_path, capsys):
        # the head width is T, so the logits are divided by sqrt(T)
        code, lines = run_to_file(tmp_path, ["attn", "--T", "8", "--qk-std", "1e200"])
        assert (code, lines) == (2, [])
        assert capsys.readouterr().err == (
            "aent: invalid argument: attention logits Q K^T / sqrt(T) are not finite (float64 overflow); "
            "reduce qk_std\n"
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

    @pytest.mark.parametrize(
        "spec, message",
        [("dense:", "not understood; use full:"), ("dense:4,4", "not understood; use full:"), ("lora:", "is empty")],
    )
    def test_an_unknown_kind_is_named_before_its_fields(self, tmp_path, capsys, spec, message):
        assert run_to_file(tmp_path, ["adapters-count", "--spec", spec]) == (2, [])
        assert capsys.readouterr().err.startswith(f"aent: invalid argument: adapter spec {spec!r} {message}")


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


# ---------------------------------------------------------------------------
# Pinned outputs


def _write_pinned_inputs() -> None:
    rng = np.random.default_rng(23)
    write_matrix("f8.aent", rng.standard_normal((64, 48)))
    write_matrix("f4.aent", rng.standard_normal((96, 64)).astype(np.float32))
    # exact low rank: an apex of the ladder does not resolve, so the profile goes cut by cut
    write_matrix("rank4.aent", rng.standard_normal((256, 4)) @ rng.standard_normal((4, 256)))


#: argv -> sha256 of its CSV below the timestamp line.  ``--qk-std 0``
#: gives cardy samples whose Gram spectrum does not resolve (the SVD route).
PINNED_OUTPUTS = {
    "profile f8.aent": "e0e841c9776e60926311f78a2778dc039877d73ad821e6bf3c48a82287fb6c2a",
    "profile f8.aent --chi-max 4": "5296244483b6c1adf2a1afdaf2c195a08e1b0373cab79b21d2f17d13fd68b02c",
    "profile f4.aent": "fbbe373bde2d50c8cfcacdfcb78253288fc52092e52d5b03e4c4cbcdf1ceb566",
    "profile f4.aent --chi-max 4": "9c9fe0e01f020ef1dbac321a7e3246585d1649ba7b81b1fe7833d35def488414",
    "profile rank4.aent": "102643e2ec0892c295e087164dfc3e24ff8e011c3a2d8722d28f3bf91996264e",
    "profile rank4.aent --chi-max 4": "ea716d082efe39a43094155b5660607122391bc3f1547240e455017b35ee6af5",
    "page-bench --size 16 --seeds 2": "feff0c34157e761d914593d436bee5ab9cd2fd6f8fd1dc7ad1c219765c9acd01",
    "cardy --T-grid 8,16,32,64 --seeds 2": "2509b59206f37b9638407689e871a5a0d790068ef203869874b5b3f269375418",
    "cardy --T-grid 8,16,32,64 --seeds 2 --qk-std 0":
        "7477df3afb0c60e9edd3990180bbbaefbe6cd536f5bc9064f420abdbd7b8ba27",
    "valley --dout 16 --din 16 --rank 1,2 --seeds 2":
        "234c77ec8e18c15907c2100cffd67ac6a4c3f5596449c1e38310feaaf9cc4569",
    "mp-compare --gaussian 64x48": "e674792fe0b3daddc5d9e801358624fa80bbb1ac5f1f4180ce1235d1d39dc569",
    "attn --T 16 --heads 2": "ede4195bd94f6592c6cab9782ec27d28a2332f7530d61664357042d31190b0f8",
    "attn --T 16 --heads 2 --causal --rope": "53e2818127b134e27846a78ec763c17124e19db4810730e4de8bdb543bc76cdf",
    "adapters-count": "c13c34f6b650d1b8adcfa962a06c49073b53191cb4ff367446514bd7f3e0a7bb",
}


@pytest.mark.parametrize("argv,digest", list(PINNED_OUTPUTS.items()), ids=list(PINNED_OUTPUTS))
def test_subcommand_output_is_pinned(tmp_path, monkeypatch, argv, digest):
    # relative file names keep profile's echo of its input the same in any directory
    monkeypatch.chdir(tmp_path)
    _write_pinned_inputs()
    assert main(argv.split() + ["--out", "out.csv"]) == 0
    below = Path("out.csv").read_text().split("\n", 1)[1]
    assert hashlib.sha256(below.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# Fuzzed argv and matrix files

_JUNK = ["x", "", "0x10", ",", "4x4x4", "1.5", "nan", "inf"]
#: (good, bad) pools of flag values: the bad ones are parseable but out of range
_COUNTS = (["1", "2", "3"], ["0", "-1", "-3"])
_SEEDS = (["0", "1", "7"], ["-1"])
_SIZES = (["2", "4", "8", "16", "32", "64"], ["-4", "0", "1", "3", "6", "48"])
_BASES = (["2", "10", "0.5", "2.718281828459045"], ["0", "1", "-2", "nan", "inf", "-inf"])
_QK_STDS = (["0", "1e-3", "0.65", "2"], ["-2", "nan", "inf", "1e300"])
_THETAS = (["0.5", "100", "10000"], ["0", "-5", "nan", "inf"])


def _value(good, bad=()):
    """A value from ``good``, or three times in sixteen from ``bad``, or once a junk string."""
    return st.integers(0, 15).flatmap(lambda i: st.sampled_from(good if i > 3 else (list(bad) or good) if i else _JUNK))


def _int_list(good, bad=(), min_size=1):
    return st.lists(_value(good, bad), min_size=min_size, max_size=6).map(",".join)


@st.composite
def _aent_file(draw) -> bytes:
    """A small matrix file, intact, truncated, with flipped or trailing bytes, or random bytes."""
    rows, cols = draw(st.sampled_from([(1, 1), (7, 1), (4, 4), (8, 6), (16, 12), (64, 64)]))
    code, dtype = draw(st.sampled_from([(0, "<f4"), (1, "<f8")]))
    matrix = np.random.default_rng(rows * cols).standard_normal((rows, cols)).astype(dtype)
    blob = struct.pack("<4sHHH2Q", b"AENT", 1, code, 2, rows, cols) + matrix.tobytes()
    kind = draw(st.sampled_from(["intact", "truncated", "flipped", "trailing", "random"]))
    if kind == "truncated":
        blob = blob[: draw(st.integers(0, len(blob) - 1))]
    elif kind == "flipped":
        flipped = bytearray(blob)
        for at in draw(st.lists(st.integers(0, len(blob) - 1), min_size=1, max_size=3)):
            flipped[at] ^= draw(st.integers(1, 255))
        blob = bytes(flipped)
    elif kind == "trailing":
        blob += draw(st.binary(min_size=1, max_size=16))
    elif kind == "random":
        blob = draw(st.binary(max_size=64))
    return blob


_GAUSSIAN_SHAPES = [f"{rows}x{cols}" for rows in _SIZES[0] for cols in _SIZES[0]]
_ADAPTER_SPEC = st.tuples(
    _value(["full", "lora", "mps", "MPS"], ["dense"]), st.lists(_value(*_SIZES), max_size=7).map(",".join)
).map(":".join)

#: command -> {flag: strategy for its value, None for a switch or the input
#: file}; the first entry of a command is always given, the others each with
#: probability 1/2.  Sizes stay at 64 or below, seeds and heads at 3.
_GRAMMAR = {
    "profile": {"<file>": None, "--chi-max": _value(*_SIZES), "--base": _value(*_BASES)},
    "page-bench": {
        "--size": _value(*_SIZES), "--seeds": _value(*_COUNTS), "--chi-max": _value(*_SIZES),
        "--seed": _value(*_SEEDS), "--base": _value(*_BASES),
    },
    "cardy": {
        "--T-grid": _int_list(*_SIZES, min_size=4), "--seeds": _value(*_COUNTS), "--d-mult": _value(*_COUNTS),
        "--qk-std": _value(*_QK_STDS), "--seed": _value(*_SEEDS),
    },
    "valley": {
        "--seeds": _value(*_COUNTS), "--dout": _value(*_SIZES), "--din": _value(*_SIZES),
        "--rank": _int_list(["1", "2", "4", "64"], ["0", "-1", "100"]), "--seed": _value(*_SEEDS),
        "--base": _value(*_BASES),
    },
    "mp-compare": {
        "--bins": _value(["4", "16", "64"], ["-1", "0", "3"]), "<file>": None,
        "--gaussian": _value(_GAUSSIAN_SHAPES, ["0x8", "8x1", "1x8", "64x-1", "8x8x8", "x8"]),
        "--cut": _value(["1", "2", "3"], ["0", "-1", "12"]), "--seed": _value(*_SEEDS),
    },
    "attn": {
        "--T": _value(*_SIZES), "--heads": _value(*_COUNTS), "--seeds": _value(*_COUNTS), "--causal": None,
        "--rope": None, "--rope-theta": _value(*_THETAS), "--qk-std": _value(*_QK_STDS),
        "--chi-max": _value(*_SIZES), "--seed": _value(*_SEEDS),
    },
    "adapters-count": {"--spec": _ADAPTER_SPEC},
}


@st.composite
def _cli_case(draw):
    command = draw(st.sampled_from(list(_GRAMMAR)))
    argv, blob = [command], None
    for i, (flag, value) in enumerate(_GRAMMAR[command].items()):
        if i and not draw(st.booleans()):
            continue
        if flag == "<file>":
            blob = draw(_aent_file())
            argv.append("in.aent")
        elif value is None:
            argv.append(flag)
        else:
            argv += [flag, draw(value)]
        if flag == "--spec" and draw(st.booleans()):
            argv += [flag, draw(value)]
    if draw(st.integers(0, 19)) == 0:
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(_JUNK + ["--nope"])))
    return argv, blob


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(case=_cli_case())
def test_fuzzed_argv_and_files_exit_with_a_documented_code(tmp_path_factory, case):
    argv, blob = case
    work = tmp_path_factory.getbasetemp() / "fuzz"
    work.mkdir(exist_ok=True)
    (work / "in.aent").unlink(missing_ok=True)
    if blob is not None:
        (work / "in.aent").write_bytes(blob)
    argv = [str(work / arg) if arg == "in.aent" else arg for arg in argv] + ["--out", str(work / "out.csv")]
    if argv[0] != "profile":
        argv += ["--json", str(work / "out.json")]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2
            assert ": error: " in err.getvalue()
            return
    assert code in (0, 2, 3, 4, 5)
    # a refusal is one line of its own, and a run that succeeds prints nothing
    if code:
        assert err.getvalue().startswith("aent: ") and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""
