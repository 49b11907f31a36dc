"""Entanglement entropies of Schmidt spectra and per-cut profiles.

A spectrum of singular values sigma is normalized to lambda_i =
sigma_i / sqrt(sum sigma^2), so the squared values form a probability
distribution.  Entropies default to base 2 (bits); pass ``base=math.e``
for nats.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import mps
from .errors import DegenerateInputError, InvalidArgumentError
from .tensorize import tensorize

#: |sum(lambda^2) - 1| tolerance accepted by the entropy functions.
NORMALIZATION_TOL = 1e-9


def normalize_spectrum(sigmas) -> np.ndarray:
    """Schmidt coefficients lambda with sum(lambda^2) == 1.

    Values below 1e-12 times the largest singular value are zeroed before
    normalizing, so noise-level SVD output does not register as rank.
    """
    arr = np.asarray(sigmas, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidArgumentError("expected a non-empty 1-d spectrum")
    if np.any(arr < 0):
        raise InvalidArgumentError("singular values must be non-negative")
    top = arr.max()
    if top <= 0:
        raise DegenerateInputError("all singular values are zero")
    # divide by the maximum first so squaring cannot leave float64 range
    out = np.where(arr > mps.SIGMA_FLOOR * top, arr / top, 0.0)
    return out / math.sqrt(float(np.dot(out, out)))


def _log_base(base: float) -> float:
    """ln(base), for a finite base > 0 other than 1."""
    if not (math.isfinite(base) and base > 0.0 and base != 1.0):
        raise InvalidArgumentError(f"log base must be finite, > 0 and != 1, got {base}")
    return math.log(base)


def _check_normalized(lambdas: np.ndarray) -> np.ndarray:
    arr = np.asarray(lambdas, dtype=np.float64)
    if np.any(arr < 0):
        raise InvalidArgumentError("singular values must be non-negative")
    total = float(np.dot(arr, arr))
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise InvalidArgumentError(
            f"spectrum is not normalized: sum(lambda^2) = {total!r}"
        )
    return arr


def _shannon(probs: np.ndarray, base: float) -> float:
    """-sum(p log p) over the nonzero ``probs``, with 0 log 0 = 0."""
    w = probs[probs > 0.0]
    return float(-(w * np.log(w)).sum() / _log_base(base))


def von_neumann(lambdas, base: float = 2.0) -> float:
    """S = -sum(lambda^2 log lambda^2), with 0 log 0 = 0 (also where lambda^2 underflows)."""
    s = _shannon(_check_normalized(lambdas) ** 2, base)
    # the comparison form avoids returning -0.0 for pure states
    return s if s > 0.0 else 0.0


def renyi(lambdas, alpha: float, base: float = 2.0) -> float:
    """Renyi entropy S_alpha = log(sum w^alpha) / (1 - alpha), w = lambda^2, for a finite alpha.

    A power sum that underflows (a large alpha) is read as alpha log w_1 + log sum (w/w_1)^alpha, w_1 = max w.
    """
    if not (math.isfinite(alpha) and alpha > 0) or alpha == 1:
        raise InvalidArgumentError(f"alpha must be finite, positive and != 1, got {alpha}")
    arr = _check_normalized(lambdas)
    w = arr[arr > 0.0] ** 2
    total = (w**alpha).sum()
    # float64's smallest normal; numpy's finfo(...).tiny builds and keeps a cache on its first read
    if total >= sys.float_info.min:
        s = float(np.log(total) / ((1.0 - alpha) * _log_base(base)))
    else:
        top = w.max()
        rest = math.log(((w / top) ** alpha).sum())
        s = (alpha / (1.0 - alpha) * math.log(top) + rest / (1.0 - alpha)) / _log_base(base)
    return s if s > 0.0 else 0.0


def binary_entropy(u: float, base: float = 2.0) -> float:
    """h(u) = -u log u - (1-u) log(1-u) on [0, 1]."""
    if not 0.0 <= u <= 1.0:
        raise InvalidArgumentError(f"binary_entropy needs u in [0, 1], got {u}")
    s = 0.0
    for p in (u, 1.0 - u):
        if p > 0.0:
            s -= p * math.log(p)
    return s / _log_base(base)


def page_entropy(d_left: int, d_right: int, base: float = 2.0) -> float:
    """Leading-order average entanglement of a random state, d_left <= d_right.

    In nats this is ln(d_left) - d_left / (2 d_right), converted to the
    requested base and clamped at zero.
    """
    if d_left < 1 or d_right < 1:
        raise InvalidArgumentError("dimensions must be >= 1")
    if d_left > d_right:
        raise InvalidArgumentError(
            f"page_entropy expects d_left <= d_right, got {d_left} > {d_right}"
        )
    s_nats = math.log(d_left) - d_left / (2.0 * d_right)
    return max(s_nats / _log_base(base), 0.0)


@dataclass(frozen=True)
class CutRecord:
    """Entropies at one cut of the site chain."""

    cut: int
    d_left: int
    d_right: int
    chi: int
    entropy: float
    renyi2: float
    normalized: float


@dataclass
class EntanglementProfile:
    """Per-cut entropy records for one matrix, all in the same log base."""

    records: list[CutRecord]
    log_base: float
    chi_max: int | None = None

    @property
    def entropies(self) -> np.ndarray:
        return np.array([r.entropy for r in self.records], dtype=float)


def profile(matrix, chi_max: int | None = None, base: float = 2.0) -> EntanglementProfile:
    """Entropy at every cut of the prime-site tensorization of ``matrix``.

    Untruncated, ``chi`` counts each cut's Schmidt values above
    ``SIGMA_FLOOR`` times the largest (:func:`mps.schmidt_values`: two
    apex Gram products of the tensor, every other cut's Gram matrix an
    exact partial trace of its neighbour's, whose condition number is no
    larger); with ``chi_max`` set, the sweep of :func:`mps.decompose`
    gives the truncated state.
    ``normalized`` is the entropy divided by log(min(d_left, d_right)).
    """
    log_base = _log_base(base)
    layout, tensor = tensorize(matrix)
    records: list[CutRecord] = []
    if layout.num_cuts == 0:
        return EntanglementProfile(records=records, log_base=base, chi_max=chi_max)
    # entropies do not depend on a power-of-two scale, which may not fit back
    tensor, _ = mps._rescaled(tensor)
    if chi_max is None:
        spectra = mps.schmidt_values(tensor)
    else:
        spectra = mps.decompose(tensor, chi_max=chi_max).bond_spectra
    for k, sigmas in enumerate(spectra, start=1):
        d_left, d_right = layout.cut_dims(k)
        lambdas = normalize_spectrum(sigmas)
        s = von_neumann(lambdas, base=base)
        s2 = renyi(lambdas, 2.0, base=base)
        denom = math.log(min(d_left, d_right)) / log_base
        records.append(
            CutRecord(
                cut=k,
                d_left=d_left,
                d_right=d_right,
                chi=int(np.count_nonzero(lambdas)),
                entropy=s,
                renyi2=s2,
                normalized=s / denom,
            )
        )
    return EntanglementProfile(records=records, log_base=base, chi_max=chi_max)
