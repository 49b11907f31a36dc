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
    profile,
    reconstruct,
    sample_gaussian_matrix,
    tensorize,
    valley_check,
    valley_experiment,
    write_matrix,
)
from aent.cli import main
from aent.mps import _ladder, _rescaled, schmidt_values
from svd_reference import cut_spectrum


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


def test_11_identity_entropy_tent():
    start = time.perf_counter()
    prof = profile(np.eye(1024))
    # eye(2^10) over 20 qubit sites: a flat spectrum of rank 2^min(k, 20 - k) at cut k
    tent = [min(k, 20 - k) for k in range(1, 20)]
    worst = max(abs(value - s) for r, s in zip(prof.records, tent) for value in (r.entropy, r.renyi2))
    wall = time.perf_counter() - start

    ok = len(prof.records) == len(tent) and worst <= 1e-10 and wall <= 10.0
    _verdict(
        11,
        "identity entropy tent",
        ok,
        f"worst |S - min(k, 20 - k)| over the entropy and Renyi-2 of eye(1024)'s "
        f"{len(prof.records)} cuts {worst:.1e} bits (tol 1e-10); wall {wall:.1f}s (limit 10s)",
    )


def _planted_matrix() -> tuple[np.ndarray, np.ndarray]:
    """(U diag(s) V^T, s) at 64 x 64, s_i = 10^(-5i/63), U and V from QRs of seeded Gaussians."""
    rng = np.random.default_rng(12)
    u = np.linalg.qr(rng.standard_normal((64, 64)))[0]
    v = np.linalg.qr(rng.standard_normal((64, 64)))[0]
    s = 10.0 ** (-5.0 * np.arange(64) / 63)
    return (u * s) @ v.T, s


_PLANTED_SCALES = (0, 700, -700)


def test_12_planted_spectrum_entropy():
    start = time.perf_counter()
    x, s = _planted_matrix()
    p = s**2 / np.dot(s, s)
    reference = float(-(p * np.log2(p)).sum())
    # 64 x 64 is 12 qubit sites, so cut 6 (record 5) is the row-column cut, whose Schmidt values are s
    errors = [abs(profile(x * 2.0**e).records[5].entropy - reference) for e in _PLANTED_SCALES]
    worst = max(errors)
    wall = time.perf_counter() - start

    # each error is tested, so a NaN, which max() may pass over, reads as FAIL
    ok = all(err <= 1e-10 for err in errors) and wall <= 10.0
    _verdict(
        12,
        "planted spectrum entropy",
        ok,
        f"worst |S - H(s^2/sum s^2)| at the row-column cut of U diag(s) V^T, s_i = 10^(-5i/63), at scales "
        f"2^0 and 2^+-700: {worst:.1e} bits (reference {reference:.6f} bits, tol 1e-10); wall {wall:.1f}s (limit 10s)",
    )


def test_13_planted_reconstruction():
    start = time.perf_counter()
    x, _ = _planted_matrix()
    errors = []
    for e in _PLANTED_SCALES:
        _, tensor = tensorize(x * 2.0**e)
        with np.errstate(over="ignore", invalid="ignore"):  # a wrong scale may overflow, and inf reads as FAIL
            back = reconstruct(decompose(tensor)).reshape(x.shape) / 2.0**e
            errors.append(np.linalg.norm(back - x) / np.linalg.norm(x))
    worst = max(errors)
    wall = time.perf_counter() - start

    ok = all(err <= 1e-12 for err in errors) and wall <= 10.0
    _verdict(
        13,
        "planted reconstruction",
        ok,
        f"worst relative error of reconstruct(decompose(x)) over the 12 sites of the planted 64 x 64 matrix "
        f"at scales 2^0 and 2^+-700, scale undone: {worst:.1e} (tol 1e-12); wall {wall:.1f}s (limit 10s)",
    )


def test_14_factored_valley_matches_dense_profile():
    start = time.perf_counter()
    rng = np.random.default_rng(14)
    errors = {}
    for r in (2, 8, 32):
        b, a = rng.standard_normal((64, r)), rng.standard_normal((r, 64))
        # valley_check never forms B A; the dense profile of B A is the reference for every one of its 11 cuts
        errors[r] = float(np.abs(valley_check(b, a).entropies - profile(b @ a).entropies).max())
    worst = max(errors.values())
    wall = time.perf_counter() - start

    ok = all(err <= 1e-10 for err in errors.values()) and wall <= 10.0
    _verdict(
        14,
        "factored valley entropies",
        ok,
        f"worst |valley_check(B, A) - profile(B A)| over the 11 cuts of seeded 64 x 64 updates at r = 2, 8 "
        f"and 32: {worst:.1e} bits (tol 1e-10); wall {wall:.1f}s (limit 10s)",
    )


# (dims, cut): chains of 2, 3, 5 and 7 sites, with a square unfolding at the cut and without one
_WALK_CHAINS = (
    ((24, 24), 1),
    ((17, 40), 1),
    ((4, 6, 24), 2),
    ((5, 7, 11), 2),
    ((2, 3, 4, 2, 12), 3),
    ((3, 5, 2, 7, 2), 2),
    ((2, 3, 2, 3, 2, 3, 6), 4),
    ((2, 3, 5, 2, 3, 5, 2), 3),
)
_WALK_KINDS = ("gaussian", "low-rank", "spread")


def _walk_inputs(seed: int):
    """(kind, tensor) for each chain: Gaussian, rank 3 at its cut, and singular values 10^(-5i/(k-1)) at its cut."""
    rng = np.random.default_rng(seed)
    for dims, cut in _WALK_CHAINS:
        left = math.prod(dims[:cut])
        right = math.prod(dims) // left
        k = min(left, right)
        u = np.linalg.qr(rng.standard_normal((left, k)))[0]
        v = np.linalg.qr(rng.standard_normal((right, k)))[0]
        yield "gaussian", rng.standard_normal(dims)
        yield "low-rank", (rng.standard_normal((left, 3)) @ rng.standard_normal((3, right))).reshape(dims)
        yield "spread", ((u * 10.0 ** (-5.0 * np.arange(k) / (k - 1))) @ v.T).reshape(dims)


def _walk_error(tensor) -> float:
    """Worst |sigma - sigma_svd| / sigma_svd_max over every cut, values the carried loop dropped read as 0."""
    errors = []
    for k, sigmas in enumerate(schmidt_values(tensor), start=1):
        direct = cut_spectrum(tensor, k).sigmas
        if sigmas.size > direct.size:
            return math.inf
        padded = np.concatenate([sigmas, np.zeros(direct.size - sigmas.size)])
        errors.append(float(np.abs(padded - direct).max() / direct[0]))
    # a NaN reads as inf, so it cannot pass
    return max(math.inf if math.isnan(err) else err for err in errors)


def test_15_schmidt_values_match_direct_svd():
    start = time.perf_counter()
    worst = {kind: 0.0 for kind in _WALK_KINDS}
    count = 0
    for seed in (0, 1, 2):
        for kind, tensor in _walk_inputs(seed):
            worst[kind] = max(worst[kind], _walk_error(tensor))
            count += 1
    wall = time.perf_counter() - start

    # 1e-10 was fixed before the first run: 15x the worst of 4800 tensors from seeds 1000-1199 (6.8e-12, spread)
    ok = all(err <= 1e-10 for err in worst.values()) and wall <= 10.0
    _verdict(
        15,
        "schmidt values match a direct SVD",
        ok,
        f"worst |sigma - sigma_svd| / sigma_max at every cut of {count} chains of 2, 3, 5 and 7 sites: "
        + ", ".join(f"{kind} {err:.1e}" for kind, err in worst.items())
        + f" (tol 1e-10); wall {wall:.1f}s (limit 10s)",
    )


def test_16_page_inputs_walk_every_cut():
    start = time.perf_counter()
    stopped, margins = [], []
    for seed in range(10):  # page_bench(1024, seeds=10)'s untruncated draws, criterion 01's inputs
        _, tensor = tensorize(sample_gaussian_matrix(1024, 1024, [seed, 1024]))
        spectra, unresolved = _ladder(_rescaled(tensor)[0])
        if unresolved is not None:
            stopped.append(f"seed {seed} at cut {unresolved}")
            continue
        for cut, sigmas in enumerate(spectra, start=1):
            # the walk's resolution test is lam_min > 100 k eps lam_max, with lam = sigma^2 and k values at the cut
            margin = (sigmas[-1] / sigmas[0]) ** 2 / (100 * sigmas.size * np.finfo(np.float64).eps)
            margins.append((float(margin), seed, cut))
    wall = time.perf_counter() - start

    # the 20 s limit was fixed before the first run, from a 2.4 s measurement of the same draws and walks
    ok = not stopped and wall <= 20.0
    smallest = "{:.1f}x (seed {}, cut {})".format(*min(margins)) if margins else "none walked"
    _verdict(
        16,
        "page inputs read every cut from the walk",
        ok,
        f"{10 - len(stopped)} of the 10 untruncated 1024 x 1024 page_bench draws walk every cut "
        f"(stopped: {'; '.join(stopped) or 'none'}); smallest resolution margin lam_min / (100 k eps lam_max) "
        f"{smallest}; wall {wall:.1f}s (limit 20s)",
    )
