"""Entanglement entropies of Schmidt spectra and per-cut profiles.

A spectrum of singular values sigma is normalized to lambda_i =
sigma_i / sqrt(sum sigma^2), so the squared values form a probability
distribution.  :func:`spectrum_entropies` is the one reduction of a
spectrum to its rank, von Neumann and Renyi-2 entropies; its spectrum check,
``SIGMA_FLOOR`` cut and Shannon sum are the package's only ones.  Entropies
default to base 2 (bits); pass ``base=math.e`` for nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mps
from .errors import DegenerateInputError, InvalidArgumentError
from .tensorize import tensorize


def _checked_spectrum(values, what: str) -> np.ndarray:
    """``values`` as float64, refused unless 1-d, non-empty, finite and non-negative; ``what`` names them."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidArgumentError("expected a non-empty 1-d spectrum")
    if not np.all(np.isfinite(arr)):
        raise InvalidArgumentError(f"{what} must be finite")
    if np.any(arr < 0):
        raise InvalidArgumentError(f"{what} must be non-negative")
    return arr


def _floored(values: np.ndarray, top) -> np.ndarray:
    """``values / top``, zero where a value is at or below ``SIGMA_FLOOR * top``; ``top`` broadcasts."""
    return np.where(values > mps.SIGMA_FLOOR * top, values / top, 0.0)


def normalize_spectrum(sigmas) -> np.ndarray:
    """Schmidt coefficients lambda with sum(lambda^2) == 1.

    Values below 1e-12 times the largest singular value are zeroed before
    normalizing, so noise-level SVD output does not register as rank.
    """
    arr = _checked_spectrum(sigmas, "singular values")
    top = arr.max()
    if top <= 0:
        raise DegenerateInputError("all singular values are zero")
    # divide by the maximum first so squaring cannot leave float64 range
    out = _floored(arr, top)
    return out / math.sqrt(float(np.dot(out, out)))


def _log_base(base: float) -> float:
    """ln(base), for a finite base > 0 other than 1."""
    if not (math.isfinite(base) and base > 0.0 and base != 1.0):
        raise InvalidArgumentError(f"log base must be finite, > 0 and != 1, got {base}")
    return math.log(base)


def _shannon(probs: np.ndarray, base: float) -> np.ndarray:
    """-sum(p log p) over the last axis of ``probs``, with 0 log 0 = 0, clamped at 0 (so never -0.0)."""
    s = -(probs * np.log(probs, out=np.zeros_like(probs), where=probs > 0.0)).sum(axis=-1) / _log_base(base)
    return np.where(s > 0.0, s, 0.0)


def spectrum_entropies(sigmas, base: float = 2.0) -> tuple[int, float, float]:
    """(chi, S, S_2) of the Schmidt values ``sigmas``, normalized by :func:`normalize_spectrum`.

    With w = lambda^2, chi counts the nonzero lambda, S = -sum(w log w) is
    the von Neumann entropy and S_2 = -log sum(w^2) the Renyi-2 entropy;
    both are clamped at 0, which also keeps a pure state's -0.0 out.
    """
    log_base = _log_base(base)
    lambdas = normalize_spectrum(sigmas)
    w = lambdas[lambdas > 0.0] ** 2
    s2 = float(-np.log((w**2).sum()) / log_base)
    return w.size, float(_shannon(w, base)), (s2 if s2 > 0.0 else 0.0)


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
    mps._check_chi_max(chi_max)
    layout, tensor = tensorize(matrix)
    records: list[CutRecord] = []
    if layout.num_cuts == 0:
        return EntanglementProfile(records=records)
    # entropies do not depend on a power-of-two scale, which may not fit back
    if chi_max is None:
        spectra = mps.schmidt_values(tensor, scale_back=False)
    else:
        spectra = mps.decompose(tensor, chi_max=chi_max, scale_back=False).bond_spectra
    for k, sigmas in enumerate(spectra, start=1):
        d_left, d_right = layout.cut_dims(k)
        chi, s, s2 = spectrum_entropies(sigmas, base)
        denom = math.log(min(d_left, d_right)) / log_base
        records.append(
            CutRecord(cut=k, d_left=d_left, d_right=d_right, chi=chi, entropy=s, renyi2=s2, normalized=s / denom)
        )
    return EntanglementProfile(records=records)
