"""Named desk-scale experiments with deterministic seeding and full config echo.

Every experiment returns an ExperimentReport whose tables are plain
lists of dicts with python scalars only, so the result rows serialize
identically from run to run.  Wall-clock time is recorded but is the
one field excluded from any determinism comparison.  Seeding is always
an explicit integer >= 0 fed to ``numpy.random.default_rng`` together with
the grid coordinates, so adding or reordering grid points never shifts
the streams of the others.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .adapters import AdapterSpec, param_count, valley_check
from .attention import DEFAULT_QK_STD, AttentionScene, _gaussian_qk, attention_matrix, mask_ablation, output_operator
from .entropy import EntanglementProfile, page_entropy, profile
from .errors import InvalidArgumentError
from .mps import _rescaled, _sigmas
from .rmt import (
    MarchenkoPastur,
    _seeded_rng,
    _stochastic_spectrum,
    cardy_fit,
    entropy_bounds,
    estimate_sigma2,
    ks_distance,
    output_collapse_check,
    sample_gaussian_matrix,
)
from .tensorize import tensorize
from .version import __version__


@dataclass
class ExperimentReport:
    """Name, config echo, result tables, tool version and wall-clock."""

    name: str
    config: dict
    tables: dict[str, list[dict]]
    tool_version: str = __version__
    wall_clock_seconds: float = 0.0
    details: object = field(default=None, repr=False, compare=False)

    def to_json(self) -> str:
        payload = {
            "name": self.name,
            "config": self.config,
            "tables": self.tables,
            "tool_version": self.tool_version,
            "wall_clock_seconds": self.wall_clock_seconds,
        }
        return json.dumps(payload, sort_keys=True, indent=2)


def _profile_rows(prof: EntanglementProfile, extra: dict | None = None) -> list[dict]:
    rows = []
    for rec in prof.records:
        row = dict(extra) if extra else {}
        row.update(
            cut=rec.cut,
            d_left=rec.d_left,
            d_right=rec.d_right,
            chi=rec.chi,
            entropy=float(rec.entropy),
            renyi2=float(rec.renyi2),
            normalized=float(rec.normalized),
        )
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Page benchmark


def page_bench(
    size: int,
    chi_max: int | None = None,
    seeds: int = 10,
    base: float = 2.0,
    seed: int = 0,
) -> ExperimentReport:
    """Mean entanglement profile of square Gaussian matrices vs the Page curve."""
    if seeds < 1:
        raise InvalidArgumentError("need at least one seed")
    start = time.perf_counter()
    sums = None
    first = None
    for s in range(seeds):
        matrix = sample_gaussian_matrix(size, size, [seed + s, size])
        prof = profile(matrix, chi_max=chi_max, base=base)
        if sums is None:
            first = prof
            sums = np.array(prof.entropies, dtype=np.float64)
        else:
            sums += prof.entropies
    means = sums / seeds

    rows = []
    max_dev_min4 = 0.0
    for rec, mean_s in zip(first.records, means):
        d_lo, d_hi = sorted((rec.d_left, rec.d_right))
        reference = page_entropy(d_lo, d_hi, base=base)
        dev = abs(mean_s - reference)
        if d_lo >= 4:
            max_dev_min4 = max(max_dev_min4, dev)
        rows.append(
            {
                "cut": rec.cut,
                "d_left": rec.d_left,
                "d_right": rec.d_right,
                "min_dim": d_lo,
                "mean_entropy": float(mean_s),
                "page_entropy": float(reference),
                "abs_deviation": float(dev),
            }
        )
    summary = [
        {
            "max_abs_deviation_min4": float(max_dev_min4),
            "max_mean_entropy": float(means.max()),
            "cuts": len(rows),
        }
    ]
    return ExperimentReport(
        name="page-bench",
        config={
            "size": size,
            "chi_max": chi_max,
            "seeds": seeds,
            "seed": seed,
            "base": base,
        },
        tables={"cuts": rows, "summary": summary},
        wall_clock_seconds=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# Attention entropy log-scaling fit


def cardy_experiment(
    t_grid: tuple[int, ...] = (64, 128, 256, 512, 1024, 2048),
    seeds: int = 5,
    d_mult: int = 16,
    qk_std: float = DEFAULT_QK_STD,
    d_qk: int | None = None,
    seed: int = 0,
) -> ExperimentReport:
    """Fit attention-matrix entropy against ln T across a grid of scenes.

    Each sample draws Q and K of shape (T, d_qk) with i.i.d.
    N(0, qk_std^2) entries from a generator seeded by (seed + s, T); only
    the attention matrix is formed, the value path is not needed for the
    fit.  ``d_qk`` defaults to T so the rescaled bulk law is identical
    across the grid.  ``d_mult`` (the width of a simulated context, in
    units of T) has no effect on the draw, since Q and K have the same
    law at every context width; it is still validated and echoed.
    """
    sizes = sorted(set(int(t) for t in t_grid))
    if len(sizes) < 4:
        raise InvalidArgumentError(f"need >= 4 distinct T values, got {len(sizes)}")
    if d_mult < 1:
        raise InvalidArgumentError("d_mult must be >= 1")
    if seeds < 1:
        raise InvalidArgumentError("need at least one seed")
    start = time.perf_counter()
    samples = []
    for t in sizes:
        head = t if d_qk is None else d_qk
        for s in range(seeds):
            q, k = _gaussian_qk(_seeded_rng([seed + s, t]), t, head, qk_std)
            samples.append((t, attention_matrix(q, k)))
    fit = cardy_fit(samples)

    points = [
        {"t": int(t), "entropy_nats": float(s_nats)} for t, s_nats in fit.points
    ]
    fit_rows = [
        {
            "slope": fit.slope,
            "intercept": fit.intercept,
            "sigma2": fit.sigma2_estimate,
            "predicted_charge": fit.predicted_charge,
            "relative_slope_deviation": fit.relative_slope_deviation,
            "constant_c": fit.constant_c,
            "s1_largest_t": fit.s1_largest_t,
            "p1_largest_t": fit.p1_largest_t,
            "renyi2_largest_t": fit.renyi2_largest_t,
            "renyi2_predicted": fit.renyi2_predicted,
        }
    ]
    return ExperimentReport(
        name="cardy",
        config={
            "t_grid": sizes,
            "seeds": seeds,
            "seed": seed,
            "d_mult": d_mult,
            "d_qk": d_qk,
            "qk_std": qk_std,
        },
        tables={"points": points, "fit": fit_rows},
        wall_clock_seconds=time.perf_counter() - start,
        details=fit,
    )


# ---------------------------------------------------------------------------
# Entanglement valley of low-rank updates


def valley_experiment(
    d_out: int = 64,
    d_in: int = 64,
    ranks: tuple[int, ...] = (1, 2, 4, 8, 16, 32),
    seeds: int = 20,
    base: float = 2.0,
    seed: int = 0,
) -> ExperimentReport:
    """Row-column-cut entropy of Gaussian low-rank updates against log r."""
    if seeds < 1:
        raise InvalidArgumentError("need at least one seed")
    if min(ranks, default=1) < 1:
        raise InvalidArgumentError(f"rank must be >= 1, got {min(ranks)}")
    start = time.perf_counter()
    rows = []
    summary = []
    for r in ranks:
        r = int(r)
        rowcol_vals, interior_vals, passes = [], [], 0
        for s in range(seeds):
            rng = _seeded_rng([seed + s, r])
            b = rng.standard_normal((d_out, r))
            a = rng.standard_normal((r, d_in))
            check = valley_check(b @ a, r, base=base)
            interior = [
                rec.entropy
                for rec in check.profile.records
                if rec.cut in check.interior_cuts
            ]
            interior_mean = float(np.mean(interior)) if interior else math.nan
            rowcol_vals.append(check.s_rowcol)
            interior_vals.append(interior_mean)
            passes += int(check.passes)
            rows.append(
                {
                    "rank": r,
                    "seed": seed + s,
                    "s_rowcol": float(check.s_rowcol),
                    "bound": float(check.bound),
                    "interior_max": float(check.interior_max),
                    "interior_mean": interior_mean,
                    "passes": bool(check.passes),
                }
            )
        finite_interior = [v for v in interior_vals if not math.isnan(v)]
        summary.append(
            {
                "rank": r,
                "bound": float(math.log(r) / math.log(base)),
                "mean_rowcol": float(np.mean(rowcol_vals)),
                "mean_interior": float(np.mean(finite_interior)) if finite_interior else math.nan,
                "pass_rate": passes / seeds,
            }
        )
    return ExperimentReport(
        name="valley",
        config={
            "d_out": d_out,
            "d_in": d_in,
            "ranks": [int(r) for r in ranks],
            "seeds": seeds,
            "seed": seed,
            "base": base,
        },
        tables={"instances": rows, "summary": summary},
        wall_clock_seconds=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# Reduced-density spectrum vs the Marchenko-Pastur law


def mp_compare(
    matrix,
    cut: int | None = None,
    bins: int = 64,
    source: str = "matrix",
) -> ExperimentReport:
    """KS distance of a cut's scaled reduced-density spectrum to MP(c).

    The reduced density eigenvalues at the cut, the squared Schmidt values
    of :func:`mps._sigmas`, are scaled by the smaller cut dimension, which
    maps them onto the MP law with aspect ratio c = d_min/d_max when the
    input is an i.i.d. Gaussian matrix.
    """
    if bins < 4:
        raise InvalidArgumentError("need at least 4 histogram bins")
    start = time.perf_counter()
    layout, tensor = tensorize(matrix)
    if layout.num_cuts == 0:
        raise InvalidArgumentError("a 1x1 matrix has no cuts to compare at")
    k = layout.n if cut is None else int(cut)
    d_min, d_max = sorted(layout.cut_dims(k))
    unfolding, _ = _rescaled(tensor.reshape(layout.cut_dims(k)))
    eigs = _sigmas(unfolding) ** 2
    scaled = np.sort(d_min * eigs / eigs.sum())
    c = d_min / d_max
    law = MarchenkoPastur(c)
    ks = ks_distance(scaled, law)

    lo, hi = law.support
    edges = np.linspace(0.0, hi * 1.05, bins + 1)
    counts, _ = np.histogram(scaled, bins=edges)
    widths = np.diff(edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    density = counts / (scaled.size * widths)
    hist_rows = [
        {
            "bin_left": float(edges[i]),
            "bin_right": float(edges[i + 1]),
            "count": int(counts[i]),
            "empirical_density": float(density[i]),
            "mp_density": float(law.pdf(centers[i])),
        }
        for i in range(bins)
    ]
    summary = [
        {
            "cut": k,
            "d_min": d_min,
            "d_max": d_max,
            "c": float(c),
            "ks_distance": float(ks),
            "values": int(scaled.size),
        }
    ]
    return ExperimentReport(
        name="mp-compare",
        config={"source": source, "cut": k, "bins": bins, "c": float(c)},
        tables={"summary": summary, "histogram": hist_rows},
        wall_clock_seconds=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# Attention scene profiles and the mask ablation


def attn_experiment(
    t: int,
    heads: int = 4,
    seeds: int = 1,
    d: int | None = None,
    d_qk: int | None = None,
    causal: bool = False,
    rope: bool = False,
    rope_theta: float = 10000.0,
    qk_std: float = DEFAULT_QK_STD,
    chi_max: int | None = None,
    base: float = 2.0,
    seed: int = 0,
) -> ExperimentReport:
    """Per-head profiles of A and of the output operator, plus the ablation.

    Heads are independent scenes seeded by (seed index, head index); the
    ablation reuses each scene's logits with the causal mask on and off.
    """
    if heads < 1 or seeds < 1:
        raise InvalidArgumentError("need at least one head and one seed")
    start = time.perf_counter()
    head_rows, profile_rows, ablation_rows = [], [], []
    for s in range(seeds):
        for h in range(heads):
            scene = AttentionScene.build(
                t,
                d=d,
                d_qk=d_qk,
                seed=[seed + s, h],
                causal=causal,
                rope=rope,
                rope_theta=rope_theta,
                qk_std=qk_std,
            )
            sigma_op = output_operator(scene.x)
            prof_sigma = profile(sigma_op, chi_max=chi_max, base=base)
            sv, _, _ = _stochastic_spectrum(scene.a)
            s1 = float(sv[0])
            p1 = float(sv[0] ** 2 / np.dot(sv, sv))
            sigma2 = estimate_sigma2(scene.a)
            ablation = mask_ablation(scene, chi_max=chi_max, base=base)
            # one of the ablation's two matrices is scene.a, bit for bit
            prof_a = ablation.profile_masked if causal else ablation.profile_unmasked
            head_rows.append(
                {
                    "seed": seed + s,
                    "head": h,
                    "s1": s1,
                    "sigma2": sigma2,
                    "p1": p1,
                    "max_normalized_a": float(max(r.normalized for r in prof_a.records)),
                }
            )
            key = {"seed": seed + s, "head": h}
            profile_rows += _profile_rows(prof_a, {**key, "matrix": "A"})
            profile_rows += _profile_rows(prof_sigma, {**key, "matrix": "Sigma"})
            for rec_m, rec_u in zip(
                ablation.profile_masked.records, ablation.profile_unmasked.records
            ):
                ablation_rows.append(
                    {
                        **key,
                        "cut": rec_m.cut,
                        "entropy_masked": float(rec_m.entropy),
                        "entropy_unmasked": float(rec_u.entropy),
                    }
                )
    return ExperimentReport(
        name="attn",
        config={
            "t": t,
            "heads": heads,
            "seeds": seeds,
            "seed": seed,
            "d": t if d is None else d,
            "d_qk": t if d_qk is None else d_qk,
            "causal": causal,
            "rope": rope,
            "rope_theta": rope_theta,
            "qk_std": qk_std,
            "chi_max": chi_max,
            "base": base,
        },
        tables={
            "heads": head_rows,
            "profiles": profile_rows,
            "ablation": ablation_rows,
        },
        wall_clock_seconds=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# Output entanglement collapse


def collapse_spectrum(t: int) -> np.ndarray:
    """Eigenvalues [1, T^-2, ..., T^-2] with T-1 tail entries.

    The tail puts the stable-rank excess at (T-1) T^-4, i.e. O(T^-3),
    the regime where the entropy must fall like (ln T)/T.
    """
    if t < 2:
        raise InvalidArgumentError("collapse spectra need T >= 2")
    eig = np.full(t, 1.0 / (t * t))
    eig[0] = 1.0
    return eig


def collapse_experiment(log2_min: int = 6, log2_max: int = 12) -> ExperimentReport:
    """Entropy collapse S ~ (ln T)/T on constructed near-pure spectra."""
    if log2_min < 1 or log2_max < log2_min:
        raise InvalidArgumentError("need 1 <= log2_min <= log2_max")
    start = time.perf_counter()
    spectra = [(1 << k, collapse_spectrum(1 << k)) for k in range(log2_min, log2_max + 1)]
    report = output_collapse_check(spectra)
    rows = []
    for (t, eig), row in zip(spectra, report.rows):
        bounds = entropy_bounds(eig)
        rows.append(
            {
                "t": row.size,
                "eta": bounds.eta,
                "delta1": row.delta1,
                "entropy_nats": row.entropy,
                "vn_bound": row.vn_bound,
                "ratio": row.ratio,
            }
        )
    summary = [
        {
            "ratio_spread": report.ratio_spread,
            "monotone_decreasing": report.monotone_decreasing,
            "bound_satisfied": report.bound_satisfied,
        }
    ]
    return ExperimentReport(
        name="collapse",
        config={"log2_min": log2_min, "log2_max": log2_max},
        tables={"grid": rows, "summary": summary},
        wall_clock_seconds=time.perf_counter() - start,
        details=report,
    )


# ---------------------------------------------------------------------------
# Adapter parameter counts


def adapter_count_rows(specs: list[AdapterSpec]) -> ExperimentReport:
    """Parameter counts per adapter spec with the ratio against full tuning."""
    start = time.perf_counter()
    rows = []
    for spec in specs:
        d_in_effective = spec.d_in if spec.kind != "mps_adapt" else spec.d1 * spec.d2
        full = spec.d_out * d_in_effective
        params = param_count(spec)
        rows.append(
            {
                "kind": spec.kind,
                "d_out": spec.d_out,
                "d_in": d_in_effective,
                "r": spec.r,
                "d1": spec.d1,
                "d2": spec.d2,
                "chi": spec.chi,
                "params": params,
                "ratio_vs_full": params / full,
            }
        )
    return ExperimentReport(
        name="adapters-count",
        config={"specs": [row["kind"] for row in rows]},
        tables={"counts": rows},
        wall_clock_seconds=time.perf_counter() - start,
    )


#: The three printed reference adapter configurations at 4096 x 4096.
REFERENCE_ADAPTER_SPECS = (
    AdapterSpec(kind="full", d_out=4096, d_in=4096),
    AdapterSpec(kind="lora", d_out=4096, d_in=4096, r=256),
    AdapterSpec(kind="mps_adapt", d_out=4096, d_in=4096, r=256, d1=64, d2=64, chi=32),
)
