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

import functools
import inspect
import json
import time
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .adapters import AdapterSpec, param_count, valley_check
from .attention import DEFAULT_QK_STD, AttentionScene, _logits, _qk_rows, _softmax_rows, mask_ablation, output_operator
from .entropy import EntanglementProfile, _log_base, page_entropy, profile
from .errors import InvalidArgumentError
from .mps import _rescaled, _sigmas
from .rmt import (
    MarchenkoPastur,
    _seeded_rng,
    _stochastic_spectrum,
    cardy_fit,
    ks_distance,
    output_collapse_check,
    sample_gaussian_matrix,
)
from .tensorize import tensorize
from .version import __version__


@dataclass
class ExperimentReport:
    """Name, config echo, result tables, tool version and wall-clock.

    ``config`` echoes every argument of the experiment, defaults included,
    with any value the experiment normalized (a sorted grid, a resolved
    default) in place of the raw one.
    """

    name: str
    tables: dict[str, list[dict]]
    config: dict = field(default_factory=dict)
    tool_version: str = __version__
    wall_clock_seconds: float = 0.0

    def to_json(self) -> str:
        payload = {
            "name": self.name,
            "config": self.config,
            "tables": self.tables,
            "tool_version": self.tool_version,
            "wall_clock_seconds": self.wall_clock_seconds,
        }
        return json.dumps(payload, sort_keys=True, indent=2)


def _echoed(fn):
    """``fn`` timed, with every bound argument echoed into its report's config.

    The body puts in ``config`` only the values it normalizes; those
    replace the raw arguments of the same name.
    """
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def run(*args, **kwargs):
        start = time.perf_counter()
        report = fn(*args, **kwargs)
        report.wall_clock_seconds = time.perf_counter() - start
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        report.config = {**bound.arguments, **report.config}
        return report

    return run


def _profile_rows(prof: EntanglementProfile, extra: dict | None = None) -> list[dict]:
    return [{**(extra or {}), **vars(rec)} for rec in prof.records]


# ---------------------------------------------------------------------------
# Page benchmark


@_echoed
def page_bench(
    size: int,
    chi_max: int | None = None,
    seeds: int = 10,
    base: float = 2.0,
    seed: int = 0,
) -> ExperimentReport:
    """Mean entanglement profile of square Gaussian matrices vs the Page curve."""
    if size < 2:
        raise InvalidArgumentError(f"size must be >= 2 for a matrix with cuts, got {size}")
    if seeds < 1:
        raise InvalidArgumentError("need at least one seed")
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
    return ExperimentReport(name="page-bench", tables={"cuts": rows, "summary": summary})


# ---------------------------------------------------------------------------
# Attention entropy log-scaling fit


def _cardy_sample(t: int, qk_std: float, seed) -> np.ndarray:
    """One T x T attention matrix, bit for bit :func:`attention_matrix` of Q and K drawn whole.

    K is drawn after Q, in 4 blocks into the logits, and Q is dropped
    before the softmax: two T x T arrays and a block of K are alive at most.
    """
    rng = _seeded_rng(seed)
    q = _qk_rows(rng, t, t, qk_std)
    logits = _logits(q, lambda lo, hi: _qk_rows(rng, hi - lo, t, qk_std), blocks=4)
    del q
    return _softmax_rows(logits, causal=False)


@_echoed
def cardy_experiment(
    t_grid: tuple[int, ...] = (64, 128, 256, 512, 1024, 2048),
    seeds: int = 5,
    d_mult: int = 16,
    qk_std: float = DEFAULT_QK_STD,
    seed: int = 0,
) -> ExperimentReport:
    """Fit attention-matrix entropy against ln T across a grid of scenes.

    Each sample draws Q and K of shape (T, T) with i.i.d. N(0, qk_std^2)
    entries from a generator seeded by (seed + s, T); only the attention
    matrix is formed, the value path is not needed for the fit.  The head
    width is T, so the rescaled bulk law is identical across the grid.
    ``d_mult`` (the width of a simulated context, in units of T) has no
    effect on the draw, since Q and K have the same law at every context
    width; it is still validated and echoed.

    Samples are drawn in ascending T and handed to :func:`cardy_fit` one
    at a time, so one attention matrix is alive at once.
    """
    sizes = sorted(set(int(t) for t in t_grid))
    if len(sizes) < 4:
        raise InvalidArgumentError(f"need >= 4 distinct T values, got {len(sizes)}")
    if d_mult < 1:
        raise InvalidArgumentError("d_mult must be >= 1")
    if seeds < 1:
        raise InvalidArgumentError("need at least one seed")
    fit = cardy_fit(functools.partial(_cardy_sample, t, qk_std, [seed + s, t]) for t in sizes for s in range(seeds))
    row = {**vars(fit)}
    points = [{"t": t, "entropy_nats": s_nats} for t, s_nats in row.pop("points")]
    del row["svd_fallbacks"]
    return ExperimentReport(name="cardy", config={"t_grid": sizes}, tables={"points": points, "fit": [row]})


# ---------------------------------------------------------------------------
# Entanglement valley of low-rank updates


@_echoed
def valley_experiment(
    d_out: int = 64,
    d_in: int = 64,
    ranks: tuple[int, ...] = (1, 2, 4, 8, 16, 32),
    seeds: int = 20,
    base: float = 2.0,
    seed: int = 0,
) -> ExperimentReport:
    """Row-column-cut entropy of Gaussian low-rank updates against log r.

    Instance s of rank r draws B (d_out, r), then A (r, d_in), from
    (seed + s, r).  Each rank's stacked factors go through one
    :func:`valley_check`, which never forms B A.
    """
    if d_out < 2 or d_in < 2:
        raise InvalidArgumentError(f"a {d_out}x{d_in} update has no row-column cut; need d_out, d_in >= 2")
    if seeds < 1:
        raise InvalidArgumentError("need at least one seed")
    if min(ranks, default=1) < 1:
        raise InvalidArgumentError(f"rank must be >= 1, got {min(ranks)}")
    _log_base(base)  # checks the base before any draw
    rows = []
    summary = []
    for r in ranks:
        r = int(r)
        b, a = np.empty((seeds, d_out, r)), np.empty((seeds, r, d_in))
        for s in range(seeds):
            rng = _seeded_rng([seed + s, r])
            rng.standard_normal(out=b[s])
            rng.standard_normal(out=a[s])
        check = valley_check(b, a, base)
        for s in range(seeds):
            rows.append(
                {
                    "rank": r,
                    "seed": seed + s,
                    "s_rowcol": float(check.s_rowcol[s]),
                    "bound": check.bound,
                    "interior_max": float(check.interior_max[s]),
                    "interior_mean": float(check.interior_mean[s]),
                    "passes": bool(check.passes[s]),
                }
            )
        summary.append(
            {
                "rank": r,
                "bound": check.bound,
                "mean_rowcol": float(check.s_rowcol.mean()),
                "mean_interior": float(check.interior_mean.mean()),
                "pass_rate": int(check.passes.sum()) / seeds,
            }
        )
    return ExperimentReport(
        name="valley",
        config={"ranks": [int(r) for r in ranks]},
        tables={"instances": rows, "summary": summary},
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
    most = np.iinfo(np.intp).max // 8  # so that the bins + 1 float64 edges fit the address space
    if not 4 <= bins < most:
        raise InvalidArgumentError(f"--bins must be at least 4 and less than {most}, got {bins}")
    start = time.perf_counter()
    layout, tensor = tensorize(matrix)
    if layout.num_cuts == 0:
        raise InvalidArgumentError(f"a {layout.d_out}x{layout.d_in} matrix has no cuts to compare at")
    if cut is None and not (layout.n and layout.m):
        raise InvalidArgumentError(
            f"a matrix of shape {layout.d_out}x{layout.d_in} has no row-column cut; "
            f"pass --cut in [1, {layout.num_cuts}]"
        )
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


@_echoed
def attn_experiment(
    t: int,
    heads: int = 4,
    seeds: int = 1,
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
    ablation profiles each scene's attention with the causal mask on and off.
    """
    if t < 2:
        raise InvalidArgumentError(f"T must be >= 2 for an attention matrix with cuts, got {t}")
    if heads < 1 or seeds < 1:
        raise InvalidArgumentError("need at least one head and one seed")
    head_rows, profile_rows, ablation_rows = [], [], []
    for s in range(seeds):
        for h in range(heads):
            scene = AttentionScene.build(
                t, seed=[seed + s, h], causal=causal, rope=rope, rope_theta=rope_theta, qk_std=qk_std
            )
            sigma_op = output_operator(scene.x)
            prof_sigma = profile(sigma_op, chi_max=chi_max, base=base)
            sv, _, sigma2 = _stochastic_spectrum(scene.a.copy)
            s1 = float(sv[0])
            p1 = float(sv[0] ** 2 / np.dot(sv, sv))
            ablation = mask_ablation(scene, chi_max=chi_max, base=base)
            # one of the ablation's two matrices is scene.a itself
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
        tables={
            "heads": head_rows,
            "profiles": profile_rows,
            "ablation": ablation_rows,
        },
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


@_echoed
def collapse_experiment(log2_min: int = 6, log2_max: int = 12) -> ExperimentReport:
    """Entropy collapse S ~ (ln T)/T on constructed near-pure spectra."""
    if log2_min < 1 or log2_max < log2_min:
        raise InvalidArgumentError("need 1 <= log2_min <= log2_max")
    report = output_collapse_check([collapse_spectrum(1 << k) for k in range(log2_min, log2_max + 1)])
    summary = {**vars(report)}
    rows = [{**vars(row)} for row in summary.pop("rows")]
    return ExperimentReport(name="collapse", tables={"grid": rows, "summary": [summary]})


# ---------------------------------------------------------------------------
# Adapter parameter counts


#: The three printed reference adapter configurations at 4096 x 4096.
REFERENCE_ADAPTER_SPECS = (
    AdapterSpec(kind="full", d_out=4096, d_in=4096),
    AdapterSpec(kind="lora", d_out=4096, d_in=4096, r=256),
    AdapterSpec(kind="mps_adapt", d_out=4096, d_in=4096, r=256, d1=64, d2=64, chi=32),
)


@_echoed
def adapter_count_rows(specs: Sequence[AdapterSpec] = REFERENCE_ADAPTER_SPECS) -> ExperimentReport:
    """Parameter counts per adapter spec with the ratio against full tuning."""
    rows = []
    for spec in specs:
        params = param_count(spec)
        rows.append({**vars(spec), "params": params, "ratio_vs_full": params / (spec.d_out * spec.d_in)})
    return ExperimentReport(
        name="adapters-count", config={"specs": [spec.text for spec in specs]}, tables={"counts": rows}
    )
