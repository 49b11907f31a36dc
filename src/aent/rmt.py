"""Random-matrix baselines and spectrum-level checks.

Covers the Marchenko-Pastur reference law, stable-rank entropy bounds,
the log-scaling fit for attention-matrix entropy, and the output-collapse
check.  Eigenvalue inputs here are spectra of symmetric PSD operators;
they are normalized to probabilities p = lambda / sum(lambda).  Entropies
in this module are natural-log unless a base is passed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .entropy import _log_base, _shannon, binary_entropy, normalize_spectrum, renyi, von_neumann
from .errors import DegenerateInputError, InvalidArgumentError


def _seeded_rng(seed) -> np.random.Generator:
    """``np.random.default_rng(seed)``; an int seed, or each int in a list of them, must be >= 0."""
    if isinstance(seed, (int, np.integer, list, tuple, np.ndarray)) and np.min(seed, initial=0) < 0:
        raise InvalidArgumentError(f"seed entries must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def sample_gaussian_matrix(rows: int, cols: int, seed) -> np.ndarray:
    """i.i.d. standard normal entries from a seeded generator."""
    if rows < 1 or cols < 1:
        raise InvalidArgumentError("matrix dimensions must be >= 1")
    return _seeded_rng(seed).standard_normal((rows, cols))


# ---------------------------------------------------------------------------
# Reference spectral laws


def mp_support(c: float) -> tuple[float, float]:
    """Support edges [(1-sqrt(c))^2, (1+sqrt(c))^2] of the MP law."""
    if not 0.0 < c <= 1.0:
        raise InvalidArgumentError(f"aspect ratio c must be in (0, 1], got {c}")
    root = math.sqrt(c)
    return (1.0 - root) ** 2, (1.0 + root) ** 2


def mp_density(x, c: float):
    """Marchenko-Pastur density with aspect ratio c, zero off support."""
    lo, hi = mp_support(c)
    arr = np.asarray(x, dtype=np.float64)
    inside = (arr > lo) & (arr < hi)
    out = np.zeros_like(arr)
    xs = arr[inside]
    out[inside] = np.sqrt((hi - xs) * (xs - lo)) / (2.0 * np.pi * c * xs)
    if np.isscalar(x):
        return float(out)
    return out


class MarchenkoPastur:
    """MP law as a sampling-free distribution object with pdf/cdf."""

    def __init__(self, c: float):
        self.c = float(c)
        self.support = mp_support(c)
        lo, hi = self.support
        # CDF via the substitution x = lo + (hi-lo) sin^2(theta), which
        # removes the edge singularities (including x^-1/2 at c = 1).
        theta = np.linspace(0.0, np.pi / 2.0, 4001)
        sin2 = np.sin(theta) ** 2
        xs = lo + (hi - lo) * sin2
        if lo == 0.0:
            g = hi * np.cos(theta) ** 2 / (np.pi * self.c)
        else:
            g = (hi - lo) ** 2 * sin2 * np.cos(theta) ** 2 / (np.pi * self.c * xs)
        steps = 0.5 * (g[1:] + g[:-1]) * np.diff(theta)
        cum = np.concatenate([[0.0], np.cumsum(steps)])
        self._grid_x = xs
        self._grid_f = cum / cum[-1]

    def pdf(self, x):
        return mp_density(x, self.c)

    def cdf(self, x):
        arr = np.asarray(x, dtype=np.float64)
        out = np.interp(arr, self._grid_x, self._grid_f, left=0.0, right=1.0)
        if np.isscalar(x):
            return float(out)
        return out


def ks_distance(samples, law) -> float:
    """Sup-norm distance between the empirical CDF and ``law.cdf``."""
    xs = np.sort(np.asarray(samples, dtype=np.float64))
    if xs.size == 0:
        raise InvalidArgumentError("ks_distance needs at least one sample")
    n = xs.size
    f = np.asarray(law.cdf(xs), dtype=np.float64)
    i = np.arange(1, n + 1, dtype=np.float64)
    d_plus = np.max(i / n - f)
    d_minus = np.max(f - (i - 1.0) / n)
    return float(min(max(d_plus, d_minus), 1.0))


# ---------------------------------------------------------------------------
# Stable rank and the entropy bounds it implies


def _eigen_probs(eigenvalues) -> np.ndarray:
    arr = np.asarray(eigenvalues, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidArgumentError("expected a non-empty 1-d spectrum")
    if np.any(arr < 0):
        raise InvalidArgumentError("eigenvalues must be non-negative")
    if np.any(np.diff(arr) > 0):
        raise InvalidArgumentError("eigenvalues must be sorted non-increasing")
    if arr[0] <= 0:
        raise DegenerateInputError("all eigenvalues are zero")
    return arr / arr.sum()


def stable_rank(eigenvalues) -> float:
    """Tr(Sigma^2)/lambda_1^2 = 1 + sum_{i>=2} (lambda_i/lambda_1)^2."""
    arr = np.asarray(eigenvalues, dtype=np.float64)
    _eigen_probs(arr)
    ratios = arr / arr[0]
    return float(np.dot(ratios, ratios))


@dataclass(frozen=True)
class EntropyBounds:
    """Spectrum-only certificates for the entropies of rho = Sigma/Tr(Sigma).

    ``vn_bound`` is the max-entropy bound evaluated at the exact tail mass
    1 - p_1 = delta1/(1+delta1); it never exceeds log T and is certified
    >= the von Neumann entropy for every spectrum.
    """

    eta: float
    delta1: float
    vn_bound: float
    renyi2_bound: float


def entropy_bounds(eigenvalues, base: float = math.e) -> EntropyBounds:
    """Entropy certificates from the stable rank of a PSD spectrum."""
    log_base = _log_base(base)
    arr = np.asarray(eigenvalues, dtype=np.float64)
    _eigen_probs(arr)
    t = arr.size
    eta = stable_rank(arr) - 1.0
    delta1 = float(arr[1:].sum() / arr[0])
    log_t_minus_1 = math.log(t - 1) / log_base if t > 1 else 0.0
    tail = delta1 / (1.0 + delta1)
    vn_bound = binary_entropy(tail, base=base) + tail * log_t_minus_1
    renyi2_bound = 2.0 * math.log1p(delta1) / log_base
    return EntropyBounds(eta=eta, delta1=delta1, vn_bound=vn_bound, renyi2_bound=renyi2_bound)


# ---------------------------------------------------------------------------
# Row-stochastic matrices: bulk mass and the entropy scaling fit


def check_row_stochastic(a: np.ndarray) -> np.ndarray:
    """Validate that rows sum to 1 within 1e-6 and entries are finite."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InvalidArgumentError("expected a square attention matrix")
    row_sums = arr.sum(axis=1)
    worst = float(np.abs(row_sums - 1.0).max())
    if not np.isfinite(worst) or worst > 1e-6:
        raise InvalidArgumentError(
            f"matrix is not row-stochastic: max |row sum - 1| = {worst!r}"
        )
    return arr


def estimate_sigma2(a) -> float:
    """Squared Frobenius norm of the bulk A - (1/T) 11^T."""
    arr = check_row_stochastic(a)
    t = arr.shape[0]
    bulk = arr - 1.0 / t
    return float(np.vdot(bulk, bulk).real)


def _stochastic_spectrum(draw):
    """(sigmas, svd, sigma2) of the square matrix ``draw()``, whose rows must sum to ~1; see :func:`cardy_fit`.

    ``sigmas`` are A's singular values, descending, from the SVD when ``svd``;
    ``sigma2`` is :func:`estimate_sigma2` of A, read from the same bulk.
    A, then B, is dropped once the next array is formed, so two T x T
    arrays are alive at most; A is drawn again only for the SVD.
    """
    a = check_row_stochastic(draw())
    t = a.shape[0]
    b = a - 1.0 / t
    del a
    sigma2 = float(np.vdot(b, b).real)
    delta = b.sum(axis=1)
    gram = b @ b.T
    del b
    # B B^T is exactly symmetric, but the corrections round differently at
    # (i, j) and (j, i); added transposed, they make gram.T, the F-order view
    # LAPACK reads without a copy, bit for bit B B^T + delta 1^T/T + 1 (delta + 1)^T/T
    gram += delta / t
    gram += ((delta + 1.0) / t)[:, None]
    lam = np.linalg.eigvalsh(gram.T)
    del gram
    if lam[0] > t * np.finfo(np.float64).eps * lam[-1]:
        return np.sqrt(lam[::-1]), False, sigma2
    return np.linalg.svd(check_row_stochastic(draw()), compute_uv=False), True, sigma2


@dataclass
class CardyFit:
    """Least-squares fit of attention entropy against ln T.

    ``points`` holds (T, S) with S in nats.  The estimates suffixed
    ``_largest_t`` are averaged over the samples at the largest T, where
    the limit quantities are least biased.  ``svd_fallbacks`` counts the
    samples whose spectrum came from an SVD rather than the Gram matrix.
    """

    points: list[tuple[int, float]]
    slope: float
    intercept: float
    sigma2_estimate: float
    predicted_charge: float
    s1_largest_t: float
    p1_largest_t: float
    renyi2_largest_t: float
    renyi2_predicted: float
    svd_fallbacks: int

    @property
    def relative_slope_deviation(self) -> float:
        if self.predicted_charge == 0.0:
            return abs(self.slope)
        return abs(self.slope - self.predicted_charge) / self.predicted_charge


def cardy_fit(attention_samples) -> CardyFit:
    """Fit S(A) = slope * ln T + intercept over row-stochastic samples.

    ``attention_samples`` is any iterable of zero-argument draws covering
    at least four distinct sizes, where ``draw()`` returns that sample's
    square matrix A and must return the same A on every call: it is called
    once, and a second time only for a sample that takes the SVD fallback.
    A sample's T is A's size, read from its spectrum.  Each sample is
    reduced as it arrives to one row (T, S, s1, p1, Renyi-2, sigma^2); no
    reference to A is kept, so one matrix is alive at a time when each
    draw makes a new one.  The rows are sorted stably by
    T, so any order gives the same fit: ``points`` are their (T, S), and
    the largest-T statistics are means over the rows at the largest T.
    sigma^2 is estimated from the Frobenius norm of the bulk
    B = A - (1/T) 11^T, the B whose Gram matrix gives the spectrum; the
    predicted slope is sigma^2/(1+sigma^2).

    Spectra come from Gram matrices, not SVDs.  Per sample one product
    B B^T gives A A^T through the exact identity
    A A^T = B B^T + (delta 1^T + 1 delta^T + 11^T)/T, delta = A 1 - 1,
    which holds whatever the row sums.  The values of A are the sqrt of
    eigvalsh(A A^T) unless lam_min <= T eps lam_max, where the Gram cannot
    resolve the small end (a rank-deficient or near-uniform A) and an SVD
    of A, drawn again, is taken instead; ``svd_fallbacks`` counts those.
    """
    rows = []
    svd_fallbacks = 0
    for draw in attention_samples:
        sigmas, svd, sigma2 = _stochastic_spectrum(draw)
        svd_fallbacks += svd
        lambdas = normalize_spectrum(sigmas)
        rows.append((
            sigmas.size,
            von_neumann(lambdas, base=math.e),
            float(sigmas[0]),
            float(sigmas[0] ** 2 / np.dot(sigmas, sigmas)),
            renyi(lambdas, 2.0, base=math.e),
            sigma2,
        ))
    sizes = {row[0] for row in rows}
    if len(sizes) < 4:
        raise InvalidArgumentError(
            f"need >= 4 distinct T values for the fit, got {len(sizes)}"
        )
    rows.sort(key=lambda row: row[0])
    points = [(t, s) for t, s, *_ in rows]

    log_t = np.log([t for t, _ in points])
    entropies = np.array([s for _, s in points])
    slope, intercept = np.polyfit(log_t, entropies, 1)

    largest = [row[2:] for row in rows if row[0] == rows[-1][0]]
    s1, p1, renyi2, sigma2 = (float(np.mean(column)) for column in zip(*largest))
    charge = sigma2 / (1.0 + sigma2)
    return CardyFit(
        points=points,
        slope=float(slope),
        intercept=float(intercept),
        sigma2_estimate=sigma2,
        predicted_charge=charge,
        s1_largest_t=s1,
        p1_largest_t=p1,
        renyi2_largest_t=renyi2,
        renyi2_predicted=2.0 * math.log1p(sigma2),
        svd_fallbacks=svd_fallbacks,
    )


# ---------------------------------------------------------------------------
# Output entanglement collapse


@dataclass(frozen=True)
class CollapseRow:
    size: int
    entropy: float
    vn_bound: float
    eta: float
    delta1: float
    ratio: float


@dataclass
class CollapseReport:
    """S(X) against the (log T)/T collapse scaling, with bound checks."""

    rows: list[CollapseRow] = field(default_factory=list)
    ratio_spread: float = math.inf
    monotone_decreasing: bool = False
    bound_satisfied: bool = False


def output_collapse_check(spectra_by_size) -> CollapseReport:
    """Evaluate S(X) over a grid of output-operator spectra.

    ``spectra_by_size`` is a sequence of (T, eigenvalues) with the
    eigenvalues sorted non-increasing; the caller constructs them so the
    stable rank stays near 1.  The report records S, the certified bound,
    and the ratio S * T / ln T per grid point.
    """
    rows: list[CollapseRow] = []
    for t, eig in sorted(spectra_by_size, key=lambda item: item[0]):
        t = int(t)
        if t < 2:
            raise InvalidArgumentError("grid sizes must be >= 2")
        probs = _eigen_probs(eig)
        if probs.size != t:
            raise InvalidArgumentError(
                f"expected {t} eigenvalues, got {probs.size}"
            )
        s = _shannon(probs, math.e)
        bounds = entropy_bounds(eig, base=math.e)
        rows.append(
            CollapseRow(
                size=t,
                entropy=s,
                vn_bound=bounds.vn_bound,
                eta=bounds.eta,
                delta1=bounds.delta1,
                ratio=s * t / math.log(t),
            )
        )
    ratios = np.array([r.ratio for r in rows])
    entropies = np.array([r.entropy for r in rows])
    return CollapseReport(
        rows=rows,
        ratio_spread=float(ratios.max() / ratios.min()) if ratios.min() > 0 else math.inf,
        monotone_decreasing=bool(np.all(np.diff(entropies) < 0.0)) if len(rows) > 1 else True,
        bound_satisfied=bool(all(r.entropy <= r.vn_bound + 1e-12 for r in rows)),
    )
