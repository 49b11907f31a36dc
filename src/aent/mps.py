"""Tensor-train (matrix product state) decomposition by sequential SVD.

The sweep runs left to right.  At bond k the carried matrix is reshaped to
(chi_prev * d_k, rest), an economy SVD splits off the next core, and the
product S @ Vh is carried forward.  Because every left factor is
orthonormal, the singular values found at bond k of an untruncated sweep
are exactly the Schmidt values of the full tensor across that cut.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, InvalidArgumentError

# Relative threshold below which singular values are treated as zero.
SIGMA_FLOOR = 1e-12


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Singular values of one unfolding, sorted in descending order."""

    cut: int
    d_left: int
    d_right: int
    sigmas: np.ndarray


@dataclass
class MpsChain:
    """Cores of a tensor train plus the singular values kept at each bond.

    ``cores[k]`` has shape (chi_{k-1}, d_k, chi_k) with chi_0 = chi_M = 1.
    ``bond_spectra[k]`` holds the unnormalized singular values retained at
    the bond between sites k and k+1 (0-based), so its length equals the
    bond dimension chi_{k+1}.
    """

    cores: list[np.ndarray] = field(default_factory=list)
    bond_spectra: list[np.ndarray] = field(default_factory=list)
    chi_max: int | None = None

    @property
    def site_dims(self) -> tuple[int, ...]:
        return tuple(core.shape[1] for core in self.cores)

    @property
    def bond_dims(self) -> tuple[int, ...]:
        dims = [1]
        dims.extend(core.shape[2] for core in self.cores)
        return tuple(dims)


def _as_tensor(tensor) -> np.ndarray:
    arr = np.ascontiguousarray(tensor, dtype=np.float64)
    if arr.ndim < 1:
        raise InvalidArgumentError("expected a tensor with at least one axis")
    if arr.size == 0:
        raise InvalidArgumentError("expected a non-empty tensor")
    if not np.isfinite(arr).all():
        raise InvalidArgumentError("tensor has NaN or infinite entries")
    return arr


def decompose(tensor, chi_max: int | None = None) -> MpsChain:
    """Sequential-SVD tensor train of ``tensor``.

    With ``chi_max`` set, at most that many singular values are kept per
    bond (the largest ones).  Values below ``SIGMA_FLOOR`` times the bond
    maximum are dropped regardless.  Kept values are stored unnormalized;
    nothing is rescaled by truncation.
    """
    arr = _as_tensor(tensor)
    if not np.any(arr):
        raise DegenerateInputError("cannot decompose an all-zero tensor")
    if chi_max is not None and chi_max < 1:
        raise InvalidArgumentError(f"chi_max must be >= 1, got {chi_max}")

    dims = arr.shape
    cores: list[np.ndarray] = []
    spectra: list[np.ndarray] = []
    carried = arr.reshape(1, -1)
    chi = 1
    for d in dims[:-1]:
        mat = carried.reshape(chi * d, -1)
        u, s, vh = np.linalg.svd(mat, full_matrices=False)
        keep = int(np.count_nonzero(s > SIGMA_FLOOR * s[0]))
        if chi_max is not None:
            keep = min(keep, chi_max)
        cores.append(u[:, :keep].reshape(chi, d, keep))
        spectra.append(s[:keep].copy())
        carried = s[:keep, None] * vh[:keep]
        chi = keep
    cores.append(carried.reshape(chi, dims[-1], 1))
    return MpsChain(cores=cores, bond_spectra=spectra, chi_max=chi_max)


def reconstruct(mps: MpsChain) -> np.ndarray:
    """Contract the chain back into a dense tensor."""
    if not mps.cores:
        raise InvalidArgumentError("cannot reconstruct an empty chain")
    left = mps.cores[0].reshape(mps.cores[0].shape[1], -1)
    for core in mps.cores[1:]:
        left = left @ core.reshape(core.shape[0], -1)
        left = left.reshape(-1, core.shape[2])
    return left.reshape(mps.site_dims)


def cut_spectrum(tensor, cut: int) -> SchmidtSpectrum:
    """Schmidt values across one cut, by direct SVD of the unfolding.

    This is the reference the sweep is checked against; it does not share
    code with :func:`decompose`.
    """
    arr = _as_tensor(tensor)
    if arr.ndim < 2:
        raise InvalidArgumentError("cut_spectrum needs at least two axes")
    if not 1 <= cut <= arr.ndim - 1:
        raise InvalidArgumentError(f"cut must be in [1, {arr.ndim - 1}], got {cut}")
    d_left = int(np.prod(arr.shape[:cut]))
    d_right = int(np.prod(arr.shape[cut:]))
    sigmas = np.linalg.svd(arr.reshape(d_left, d_right), compute_uv=False)
    return SchmidtSpectrum(cut=cut, d_left=d_left, d_right=d_right, sigmas=sigmas)


def schmidt_values(tensor) -> list[np.ndarray]:
    """Descending Schmidt values at cuts 1..n-1, one cut at a time.

    Each is sqrt(eigvalsh) of the Gram matrix on the smaller side of the
    unfolding, or its exact SVD where the smallest eigenvalue is within
    100 k eps of the largest: squaring cannot resolve ``SIGMA_FLOOR`` there.
    An SVD that finds at most half the full rank above 1e-2 ``SIGMA_FLOOR``
    compresses the unfolding for the later cuts, as the sweep does, so
    their arrays may be shorter than min(d_left, d_right).
    """
    arr = _as_tensor(tensor)
    top = max(arr.max(), -arr.min())
    if top == 0:
        raise DegenerateInputError("cannot decompose an all-zero tensor")
    # an exact power-of-two rescale keeps the Gram entries from overflowing
    exponent = int(np.frexp(top)[1])
    carried = np.ldexp(arr, -exponent).reshape(1, -1)
    spectra = []
    for d in arr.shape[:-1]:
        m = carried = carried.reshape(carried.shape[0] * d, -1)
        lam = np.linalg.eigvalsh(m @ m.T if m.shape[0] <= m.shape[1] else m.T @ m)[::-1]
        if lam[-1] > 100 * lam.size * np.finfo(np.float64).eps * lam[0]:
            sigmas = np.sqrt(lam)
        else:
            sigmas = np.linalg.svd(m, compute_uv=False)
            keep = int(np.count_nonzero(sigmas > 1e-2 * SIGMA_FLOOR * sigmas[0]))
            if 2 * keep <= sigmas.size:
                _, s, vh = np.linalg.svd(m, full_matrices=False)
                carried = s[:keep, None] * vh[:keep]
        spectra.append(np.ldexp(sigmas, exponent))
    return spectra
