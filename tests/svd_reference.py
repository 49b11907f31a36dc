"""Direct-SVD reference for the Schmidt spectra that ``aent`` reads from Gram matrices.

It shares no code with ``aent.mps``: each cut is one ``np.linalg.svd`` of
the plain row-major unfolding.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Singular values of one unfolding, sorted in descending order."""

    cut: int
    d_left: int
    d_right: int
    sigmas: np.ndarray


def cut_spectrum(tensor, cut: int) -> SchmidtSpectrum:
    """Schmidt values across ``cut`` (1 <= cut < ndim), by direct SVD of the unfolding."""
    arr = np.asarray(tensor, dtype=np.float64)
    d_left = int(np.prod(arr.shape[:cut]))
    d_right = int(np.prod(arr.shape[cut:]))
    sigmas = np.linalg.svd(arr.reshape(d_left, d_right), compute_uv=False)
    return SchmidtSpectrum(cut=cut, d_left=d_left, d_right=d_right, sigmas=sigmas)
