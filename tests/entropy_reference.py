"""The entropy arithmetic that ``aent`` keeps, written out as separate copies once had it.

A spectrum is normalized by ``normalize_spectrum``, checked, and then
reduced twice: the Shannon sum over lambda^2 and the order-2 power sum,
each with its own zero filter, as two separate entropy functions did.
``spectrum_entropies`` must give the same bits.  ``valley_entropies`` is
the stacked floor, normalization and Shannon sum that ``valley_check``
once kept in a copy of its own, and ``collapse_entropy`` the Shannon sum
``output_collapse_check`` once took over the nonzero probabilities; both
must still give the same bits.
"""

import math

import numpy as np

from aent import normalize_spectrum
from aent.mps import SIGMA_FLOOR


def _normalized(lambdas) -> np.ndarray:
    arr = np.asarray(lambdas, dtype=np.float64)
    assert np.all(arr >= 0) and abs(float(np.dot(arr, arr)) - 1.0) <= 1e-9
    return arr


def von_neumann(lambdas, base: float = 2.0) -> float:
    """S = -sum(lambda^2 log lambda^2) over the nonzero lambda^2, clamped at 0."""
    probs = _normalized(lambdas) ** 2
    w = probs[probs > 0.0]
    s = float(-(w * np.log(w)).sum() / math.log(base))
    return s if s > 0.0 else 0.0


def renyi2(lambdas, base: float = 2.0) -> float:
    """S_2 = log(sum w^2) / (1 - 2), w = lambda^2 over the nonzero lambda, clamped at 0."""
    arr = _normalized(lambdas)
    w = arr[arr > 0.0] ** 2
    s = float(np.log((w**2.0).sum()) / ((1.0 - 2.0) * math.log(base)))
    return s if s > 0.0 else 0.0


def spectrum_entropies(sigmas, base: float = 2.0) -> tuple[int, float, float]:
    """(chi, S, S_2) of ``sigmas``, through one normalization and the two reductions above."""
    lambdas = normalize_spectrum(sigmas)
    return int(np.count_nonzero(lambdas)), von_neumann(lambdas, base), renyi2(lambdas, base)


def valley_entropies(sigmas, base: float = 2.0) -> np.ndarray:
    """Entropy of each row of a stack of descending spectra: floored, normalized, Shannon-summed, clamped at 0."""
    top = sigmas[:, :1]
    kept = np.where(sigmas > SIGMA_FLOOR * top, sigmas / top, 0.0) ** 2
    w = kept / kept.sum(axis=1, keepdims=True)
    s = -(w * np.log(w, out=np.zeros_like(w), where=w > 0.0)).sum(axis=1) / math.log(base)
    return np.where(s > 0.0, s, 0.0)


def collapse_entropy(eigenvalues) -> float:
    """S in nats of a non-increasing PSD spectrum: p = lambda / sum(lambda), -sum(p ln p) over p > 0, clamped at 0."""
    ratios = np.asarray(eigenvalues, dtype=np.float64) / eigenvalues[0]
    probs = ratios / ratios.sum()
    w = probs[probs > 0.0]
    s = float(-(w * np.log(w)).sum())
    return s if s > 0.0 else 0.0
