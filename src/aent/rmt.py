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

from .entropy import _checked_spectrum, _log_base, _shannon, binary_entropy, spectrum_entropies
from .errors import DegenerateInputError, InvalidArgumentError
from .mps import _eigvalsh


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


class MarchenkoPastur:
    """MP law with aspect ratio c in (0, 1], sampling-free: support [(1-sqrt(c))^2, (1+sqrt(c))^2], pdf and cdf."""

    def __init__(self, c: float):
        if not 0.0 < c <= 1.0:
            raise InvalidArgumentError(f"aspect ratio c must be in (0, 1], got {c}")
        self.c = float(c)
        root = math.sqrt(c)
        lo, hi = self.support = (1.0 - root) ** 2, (1.0 + root) ** 2
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
        """The density, zero off the support."""
        lo, hi = self.support
        arr = np.asarray(x, dtype=np.float64)
        inside = (arr > lo) & (arr < hi)
        out = np.zeros_like(arr)
        xs = arr[inside]
        out[inside] = np.sqrt((hi - xs) * (xs - lo)) / (2.0 * np.pi * self.c * xs)
        return out

    def cdf(self, x):
        return np.interp(x, self._grid_x, self._grid_f, left=0.0, right=1.0)


def ks_distance(samples, law) -> float:
    """Sup-norm distance between the empirical CDF and ``law.cdf``."""
    xs = np.sort(np.asarray(samples, dtype=np.float64))
    if xs.size == 0:
        raise InvalidArgumentError("ks_distance needs at least one sample")
    if not np.all(np.isfinite(xs)):
        raise InvalidArgumentError("ks_distance samples must be finite")
    n = xs.size
    f = law.cdf(xs)
    i = np.arange(1, n + 1, dtype=np.float64)
    d_plus = np.max(i / n - f)
    d_minus = np.max(f - (i - 1.0) / n)
    return float(min(max(d_plus, d_minus), 1.0))


# ---------------------------------------------------------------------------
# Stable rank and the entropy bounds it implies


def _eigen_ratios(eigenvalues) -> np.ndarray:
    """lambda / lambda_1 of a checked PSD spectrum, refused unless sorted non-increasing with lambda_1 > 0."""
    arr = _checked_spectrum(eigenvalues, "eigenvalues")
    if np.any(np.diff(arr) > 0):
        raise InvalidArgumentError("eigenvalues must be sorted non-increasing")
    if arr[0] <= 0:
        raise DegenerateInputError("all eigenvalues are zero")
    # divide by the top value first, so a finite spectrum cannot overflow a sum
    return arr / arr[0]


@dataclass(frozen=True)
class EntropyBounds:
    """Spectrum-only certificates for the entropies of rho = Sigma/Tr(Sigma).

    ``eta`` is the stable rank Tr(Sigma^2)/lambda_1^2 less one: sum_{i>=2} (lambda_i/lambda_1)^2.
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
    ratios = _eigen_ratios(eigenvalues)
    t = ratios.size
    eta = float(np.dot(ratios, ratios)) - 1.0
    delta1 = float(ratios[1:].sum())
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


def _bulk(a: np.ndarray) -> tuple[np.ndarray, float]:
    """(B, ||B||_F^2) of the bulk B = A - (1/T) 11^T, written over ``a`` once it passes :func:`check_row_stochastic`."""
    b = check_row_stochastic(a)
    b -= 1.0 / b.shape[0]
    return b, float(np.vdot(b, b).real)


def estimate_sigma2(a) -> float:
    """Squared Frobenius norm of the bulk A - (1/T) 11^T, from :func:`_bulk` of a copy of A."""
    return _bulk(np.array(a, dtype=np.float64))[1]


def _stochastic_spectrum(draw):
    """(sigmas, svd, sigma2) of the square matrix ``draw()``, whose rows must sum to ~1; see :func:`cardy_fit`.

    ``sigmas`` are A's singular values, descending, from the SVD when ``svd``;
    ``sigma2`` is :func:`estimate_sigma2` of A, by the same :func:`_bulk`,
    which writes B = A - 1/T over the array ``draw()`` returned.  B is dropped
    once the Gram is formed, whose eigenvalues LAPACK then solves in place
    (:func:`mps._eigvalsh`): two T x T arrays are alive at most, and one
    during the eigensolve.  Of the Gram eigenvalues at or below x = T eps
    lam_max (eps = 2.2e-16), which the Gram cannot resolve, one is read as 0,
    which moves S by at most x^ (1 + ln(1/x^)) nats with x^ = x / sum(lam);
    two or more mean a null space, and only then is A drawn again for an SVD.
    """
    b, sigma2 = _bulk(draw())
    t = b.shape[0]
    delta = b.sum(axis=1)
    gram = b @ b.T
    del b
    # B B^T is exactly symmetric, but the corrections round differently at
    # (i, j) and (j, i); added transposed, they make gram.T, the matrix
    # _eigvalsh hands LAPACK, bit for bit B B^T + delta 1^T/T + 1 (delta + 1)^T/T
    gram += delta / t
    gram += ((delta + 1.0) / t)[:, None]
    lam = _eigvalsh(gram)
    del gram
    unresolved = np.count_nonzero(lam <= t * np.finfo(np.float64).eps * lam[-1])
    if unresolved > 1:
        return np.linalg.svd(check_row_stochastic(draw()), compute_uv=False), True, sigma2
    lam[:unresolved] = 0.0
    return np.sqrt(lam[::-1]), False, sigma2


@dataclass
class CardyFit:
    """Least-squares fit of attention entropy against ln T.

    The fields before ``points`` are the cardy report's ``fit`` columns, in
    order.  ``relative_slope_deviation`` is |slope - charge| / charge, or
    |slope| at charge 0.  The ``_largest_t`` estimates are means over the
    samples at the largest T, where the limit quantities are least biased.
    ``points`` holds (T, S), S in nats.  ``svd_fallbacks`` counts the
    samples whose spectrum came from an SVD rather than the Gram matrix:
    those with two or more Gram eigenvalues at or below x = T eps lam_max
    (eps = 2.2e-16).  One such value reads 0, which moves S by at most
    x^ (1 + ln(1/x^)) nats, x^ = x / sum(lam); see :func:`cardy_fit`.
    """

    slope: float
    intercept: float
    sigma2: float
    predicted_charge: float
    relative_slope_deviation: float
    s1_largest_t: float
    p1_largest_t: float
    renyi2_largest_t: float
    renyi2_predicted: float
    points: list[tuple[int, float]]
    svd_fallbacks: int


def cardy_fit(attention_samples) -> CardyFit:
    """Fit S(A) = slope * ln T + intercept over row-stochastic samples.

    ``attention_samples`` is any iterable of zero-argument draws covering
    at least four distinct sizes, where ``draw()`` returns that sample's
    square matrix A and must return a new array holding the same A on every
    call, which the fit overwrites with its bulk: it is called once, and a
    second time only for a sample that takes the SVD.
    A sample's T is A's size, read from its spectrum.  Each sample is
    reduced as it arrives to one row (T, S, s1, p1, Renyi-2, sigma^2); no
    reference to A is kept, so one matrix is alive at a time.  The rows
    are sorted stably by T, so any order gives the same fit: ``points``
    are their (T, S), and the largest-T statistics are means over the
    rows at the largest T.
    sigma^2 is estimated from the Frobenius norm of the bulk
    B = A - (1/T) 11^T, the B whose Gram matrix gives the spectrum; the
    predicted slope is sigma^2/(1+sigma^2).

    Spectra come from Gram matrices, not SVDs.  Per sample one product
    B B^T gives A A^T through the exact identity
    A A^T = B B^T + (delta 1^T + 1 delta^T + 11^T)/T, delta = A 1 - 1,
    which holds whatever the row sums.  The values of A are the sqrt of
    eigvalsh(A A^T); the Gram cannot resolve eigenvalues at or below
    x = T eps lam_max (eps = 2.2e-16).  One such value is read as 0.  Its
    weight is at most x^ = x / sum(lam) <= T eps, so it moves S by at most
    x^ (1 + ln(1/x^)) nats (its own term plus the renormalization of the
    rest; 6.9e-12 at T = 1024, 1.3e-11 at T = 2048), p1 by a relative x^
    and Renyi-2 by about 2 x^; s1 is the top value and sigma^2 is read from
    B, so neither moves.  Two or more such values mean a null space (a
    rank-deficient or near-uniform A): that sample's A is drawn again and
    its values come from an SVD, which keeps the exact zeros;
    ``svd_fallbacks`` counts those.
    """
    rows = []
    svd_fallbacks = 0
    for draw in attention_samples:
        sigmas, svd, sigma2 = _stochastic_spectrum(draw)
        svd_fallbacks += svd
        _, s, s2 = spectrum_entropies(sigmas, math.e)
        rows.append((sigmas.size, s, float(sigmas[0]), float(sigmas[0] ** 2 / np.dot(sigmas, sigmas)), s2, sigma2))
    sizes = {row[0] for row in rows}
    if len(sizes) < 4:
        raise InvalidArgumentError(
            f"need >= 4 distinct T values for the fit, got {len(sizes)}"
        )
    rows.sort(key=lambda row: row[0])
    points = [(t, s) for t, s, *_ in rows]

    log_t = np.log([t for t, _ in points])
    entropies = np.array([s for _, s in points])
    slope, intercept = np.polyfit(log_t, entropies, 1).tolist()

    largest = [row[2:] for row in rows if row[0] == rows[-1][0]]
    s1, p1, renyi2, sigma2 = (float(np.mean(column)) for column in zip(*largest))
    charge = sigma2 / (1.0 + sigma2)
    return CardyFit(
        slope=slope,
        intercept=intercept,
        sigma2=sigma2,
        predicted_charge=charge,
        relative_slope_deviation=abs(slope - charge) / charge if charge else abs(slope),
        s1_largest_t=s1,
        p1_largest_t=p1,
        renyi2_largest_t=renyi2,
        renyi2_predicted=2.0 * math.log1p(sigma2),
        points=points,
        svd_fallbacks=svd_fallbacks,
    )


# ---------------------------------------------------------------------------
# Output entanglement collapse


@dataclass(frozen=True)
class CollapseRow:
    """One grid point, its fields the columns of the collapse report's ``grid`` table in order."""

    t: int
    eta: float
    delta1: float
    entropy_nats: float
    vn_bound: float
    ratio: float


@dataclass
class CollapseReport:
    """S(X) against the (log T)/T collapse scaling, with bound checks.

    The fields after ``rows`` are the columns of the collapse report's
    ``summary`` table, in its order.
    """

    rows: list[CollapseRow] = field(default_factory=list)
    ratio_spread: float = math.inf
    monotone_decreasing: bool = False
    bound_satisfied: bool = False


def output_collapse_check(spectra) -> CollapseReport:
    """Evaluate S(X) over a grid of output-operator spectra.

    ``spectra`` is a non-empty sequence of eigenvalue arrays, each sorted
    non-increasing; a spectrum's T is its length, and the rows are sorted
    stably by T.  The caller constructs them so the stable rank stays near
    1.  The report records S, the certified bound, and the ratio
    S * T / ln T per grid point.
    """
    rows: list[CollapseRow] = []
    for eig in sorted(spectra, key=np.size):
        ratios = _eigen_ratios(eig)
        probs = ratios / ratios.sum()
        t = probs.size
        if t < 2:
            raise InvalidArgumentError("grid sizes must be >= 2")
        s = float(_shannon(probs[probs > 0.0], math.e))  # a zero tail would regroup numpy's pairwise sum
        bounds = entropy_bounds(eig, base=math.e)
        rows.append(CollapseRow(
            t=t, eta=bounds.eta, delta1=bounds.delta1, entropy_nats=s, vn_bound=bounds.vn_bound,
            ratio=s * t / math.log(t),
        ))
    if not rows:
        raise InvalidArgumentError("the collapse grid needs at least one spectrum")
    ratios = np.array([r.ratio for r in rows])
    entropies = np.array([r.entropy_nats for r in rows])
    return CollapseReport(
        rows=rows,
        ratio_spread=float(ratios.max() / ratios.min()) if ratios.min() > 0 else math.inf,
        monotone_decreasing=bool(np.all(np.diff(entropies) < 0.0)) if len(rows) > 1 else True,
        bound_satisfied=bool(all(r.entropy_nats <= r.vn_bound + 1e-12 for r in rows)),
    )
