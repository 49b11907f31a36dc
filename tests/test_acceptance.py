"""End-to-end acceptance gate.

Each test covers one headline capability at its stated tolerance and
prints a single machine-greppable PASS/FAIL line.  These run at full
desk scale, so this module is the slow part of the suite.
"""

import math
import time

import numpy as np

from aent import (
    REFERENCE_ADAPTER_SPECS,
    adapter_count_rows,
    cardy_experiment,
    collapse_experiment,
    decompose,
    entropy_bounds,
    estimate_sigma2,
    mp_compare,
    page_bench,
    reconstruct,
    sample_gaussian_matrix,
    valley_experiment,
    write_matrix,
)
from aent.cli import main


def _verdict(number: int, title: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {status} {title}: {detail}")
    assert ok, f"criterion {number} ({title}): {detail}"


def test_01_page_benchmark():
    start = time.perf_counter()
    untruncated = page_bench(1024, seeds=10)
    dev = untruncated.tables["summary"][0]["max_abs_deviation_min4"]

    truncated = page_bench(1024, chi_max=32, seeds=10)
    central = [
        row["mean_entropy"]
        for row in truncated.tables["cuts"]
        if row["min_dim"] >= 32
    ]
    wall = time.perf_counter() - start

    ok = (
        dev <= 0.1
        and max(central) <= 5.0 + 1e-9
        and min(central) >= 4.5
        and wall <= 120.0
    )
    _verdict(
        1,
        "page benchmark",
        ok,
        f"max |mean S - S_page| = {dev:.6f} bits (tol 0.1) on cuts with "
        f"min_dim >= 4; chi=32 central cuts in [{min(central):.4f}, "
        f"{max(central):.4f}] bits (cap 5.0); wall {wall:.1f}s (limit 120s)",
    )


def test_02_reconstruction_fidelity():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    done = 0
    while done < 100:
        dims = tuple(int(p) for p in rng.choice([2, 3, 5], rng.integers(2, 7)))
        if int(np.prod(dims)) > 4000:
            continue
        tensor = rng.standard_normal(dims)
        err = np.linalg.norm(reconstruct(decompose(tensor)) - tensor)
        worst = max(worst, err / np.linalg.norm(tensor))
        done += 1
    wall = time.perf_counter() - start

    ok = worst <= 1e-10 and wall <= 60.0
    _verdict(
        2,
        "reconstruction fidelity",
        ok,
        f"worst relative Frobenius error {worst:.3e} over 100 mixed "
        f"prime-site tensors (tol 1e-10); wall {wall:.1f}s (limit 60s)",
    )


def test_03_entanglement_valley():
    start = time.perf_counter()
    report = valley_experiment(d_out=64, d_in=64, ranks=(1, 2, 4, 8), seeds=20)
    summary = {row["rank"]: row for row in report.tables["summary"]}
    wall = time.perf_counter() - start

    all_pass = all(summary[r]["pass_rate"] == 1.0 for r in (1, 2, 4, 8))
    interior_above = all(
        summary[r]["mean_interior"] > summary[r]["mean_rowcol"] for r in (2, 4, 8)
    )
    ok = all_pass and interior_above and wall <= 60.0
    margins = {
        r: round(summary[r]["mean_interior"] - summary[r]["mean_rowcol"], 3)
        for r in (2, 4, 8)
    }
    _verdict(
        3,
        "entanglement valley",
        ok,
        f"row-column entropy <= log2 r in 80/80 instances: {all_pass}; "
        f"interior - rowcol margins (bits) {margins}; wall {wall:.1f}s (limit 60s)",
    )


def test_04_attention_entropy_scaling():
    start = time.perf_counter()
    report = cardy_experiment(
        t_grid=(64, 128, 256, 512, 1024, 2048), seeds=5, d_mult=16
    )
    fit = report.tables["fit"][0]
    wall = time.perf_counter() - start

    rel_dev = fit["relative_slope_deviation"]
    s1_err = abs(fit["s1_largest_t"] - 1.0)
    p1_err = abs(fit["p1_largest_t"] - 1.0 / (1.0 + fit["sigma2"]))
    renyi2_err = abs(fit["renyi2_largest_t"] - fit["renyi2_predicted"])
    ok = (
        rel_dev <= 0.15
        and s1_err <= 0.05
        and p1_err <= 0.05
        and renyi2_err <= 0.1
        and wall <= 600.0
    )
    _verdict(
        4,
        "attention entropy log-scaling",
        ok,
        f"slope {fit['slope']:.4f} vs charge {fit['predicted_charge']:.4f} "
        f"(rel dev {rel_dev:.4f}, tol 0.15); |s1-1| = {s1_err:.5f} (tol 0.05); "
        f"|p1 - 1/(1+sigma2)| = {p1_err:.5f} (tol 0.05); Renyi-2 gap "
        f"{renyi2_err:.4f} nats (tol 0.1); wall {wall:.0f}s (limit 600s)",
    )


def test_05_stable_rank_entropy_bounds():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    violations = 0
    for _ in range(1000):
        t = int(rng.integers(2, 257))
        scale = 10.0 ** rng.uniform(-6.0, 6.0)
        if rng.random() < 0.25:
            eig = np.concatenate(([1.0], rng.random(t - 1) * 10.0 ** rng.uniform(-9, 0)))
        else:
            eig = rng.lognormal(0.0, 2.0, t)
        eig = np.sort(eig * scale)[::-1]
        b = entropy_bounds(eig)
        probs = eig / eig.sum()
        pos = probs[probs > 0.0]
        s_vn = float(-(pos * np.log(pos)).sum())
        s_r2 = float(-np.log((probs**2).sum()))
        if s_vn > b.vn_bound + 1e-9:
            violations += 1
        if s_r2 > b.renyi2_bound + 1e-9:
            violations += 1
        if b.delta1**2 > (t - 1) * b.eta * (1.0 + 1e-9) + 1e-12:
            violations += 1
    wall = time.perf_counter() - start

    ok = violations == 0 and wall <= 30.0
    _verdict(
        5,
        "stable-rank entropy bounds",
        ok,
        f"{violations} violations over 1000 random sorted spectra "
        f"(T in [2, 256], scales 1e-6..1e6); wall {wall:.1f}s (limit 30s)",
    )


def test_06_output_entropy_collapse():
    start = time.perf_counter()
    report = collapse_experiment(log2_min=6, log2_max=12)
    summary = report.tables["summary"][0]
    entropies = [row["entropy_nats"] for row in report.tables["grid"]]
    wall = time.perf_counter() - start

    ok = (
        summary["ratio_spread"] <= 10.0
        and summary["monotone_decreasing"]
        and summary["bound_satisfied"]
        and entropies[-1] < 0.01
        and wall <= 10.0
    )
    _verdict(
        6,
        "output entropy collapse",
        ok,
        f"S*T/ln T spread {summary['ratio_spread']:.4f} (tol 10); monotone "
        f"decreasing {summary['monotone_decreasing']}; S at T=4096 is "
        f"{entropies[-1]:.5f} nats; wall {wall:.2f}s (limit 10s)",
    )


def test_07_adapter_parameter_counts():
    report = adapter_count_rows(list(REFERENCE_ADAPTER_SPECS))
    params = [row["params"] for row in report.tables["counts"]]
    expected = [16777216, 2097152, 1574912]
    ok = params == expected
    _verdict(
        7,
        "adapter parameter counts",
        ok,
        f"full/lora/mps_adapt = {params} (expected {expected})",
    )


def test_08_meanfield_split_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    worst_norm = 0.0
    worst_inner = 0.0
    for _ in range(100):
        t = int(rng.integers(4, 65))
        a = rng.gamma(shape=1.0, scale=1.0, size=(t, t))
        a /= a.sum(axis=1, keepdims=True)
        mean_field = np.full((t, t), 1.0 / t)
        lhs = float(np.vdot(a, a).real)
        rhs = 1.0 + estimate_sigma2(a)
        worst_norm = max(worst_norm, abs(lhs - rhs))
        worst_inner = max(worst_inner, abs(float(np.vdot(mean_field, a - mean_field).real)))
    wall = time.perf_counter() - start

    ok = worst_norm <= 1e-8 and worst_inner <= 1e-10 and wall <= 10.0
    _verdict(
        8,
        "mean-field split identities",
        ok,
        f"max | ||A||_F^2 - (1 + estimate_sigma2(A)) | = {worst_norm:.2e} (tol 1e-8); "
        f"max |<J/T, A - J/T>| = {worst_inner:.2e} (tol 1e-10) over 100 "
        f"row-stochastic draws; wall {wall:.1f}s (limit 10s)",
    )


def test_09_marchenko_pastur_convergence():
    start = time.perf_counter()
    matrix = sample_gaussian_matrix(1024, 1024, [0, 1024, 1024])
    report = mp_compare(matrix, source="gaussian-1024x1024")
    ks = report.tables["summary"][0]["ks_distance"]
    wall = time.perf_counter() - start

    ok = ks <= 0.05 and wall <= 60.0
    _verdict(
        9,
        "Marchenko-Pastur convergence",
        ok,
        f"KS distance {ks:.5f} at the row-column cut of a 1024x1024 Gaussian "
        f"(tol 0.05); wall {wall:.1f}s (limit 60s)",
    )


def test_10_cli_determinism(tmp_path):
    src = tmp_path / "input.aent"
    write_matrix(src, sample_gaussian_matrix(16, 16, seed=3))
    commands = {
        "profile": ["profile", str(src)],
        "page-bench": ["page-bench", "--size", "16", "--seeds", "2"],
        "cardy": ["cardy", "--T-grid", "8,16,32,64", "--seeds", "1", "--d-mult", "1"],
        "valley": ["valley", "--dout", "16", "--din", "16", "--rank", "1,2", "--seeds", "2"],
        "mp-compare": ["mp-compare", "--gaussian", "16x16"],
        "attn": ["attn", "--T", "8", "--heads", "2"],
        "adapters-count": ["adapters-count"],
    }
    mismatched = []
    for name, argv in commands.items():
        texts = []
        for run in range(2):
            out = tmp_path / f"{name}-{run}.csv"
            code = main(argv + ["--out", str(out)])
            assert code == 0, f"{name} exited {code}"
            # everything after the timestamp line must be byte-identical
            texts.append(out.read_text().split("\n", 1)[1])
        if texts[0] != texts[1]:
            mismatched.append(name)

    ok = not mismatched
    _verdict(
        10,
        "CLI determinism",
        ok,
        "all 7 subcommands byte-identical below the timestamp line"
        if ok
        else f"mismatched rows in: {mismatched}",
    )
