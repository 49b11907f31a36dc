"""Tensor-train (matrix product state) decomposition by a sequential sweep.

At bond k the carried matrix m is reshaped to (chi_prev * d_k, rest), its
left factor U (the next core) and values S come from eigh(m @ m^T) or an
SVD, and S @ Vh = U^T m is carried forward.  As every left factor is
orthonormal, the values at bond k of an untruncated sweep are exactly the
Schmidt values of the full tensor across that cut.
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


# Largest entries within 2**+-_SAFE_EXPONENT are not rescaled: every Gram
# entry stays below 2**263 and every square that can pass the 1e-2
# SIGMA_FLOOR cut above 2**-300, far inside float64 and LAPACK's unscaled range.
_SAFE_EXPONENT = 100


def _rescaled(tensor) -> tuple[np.ndarray, int]:
    """(tensor * 2**-exponent, exponent), exact, so squares stay in range.

    Outside the safe range the largest entry is scaled into [0.5, 1); inside
    it the tensor itself comes back with exponent 0, so callers must not
    write into the array.
    """
    arr = _as_tensor(tensor)
    top = max(arr.max(), -arr.min())
    if top == 0:
        raise DegenerateInputError("cannot decompose an all-zero tensor")
    exponent = int(np.frexp(top)[1])
    if abs(exponent) <= _SAFE_EXPONENT:
        return arr, 0
    return np.ldexp(arr, -exponent), exponent


_PROBE = 64


def _sigmas(m: np.ndarray, vectors: bool = False):
    """Descending singular values of a rescaled unfolding ``m``.

    sqrt(eigh) of the k x k Gram matrix on the smaller side (rows side with
    ``vectors``) where lam_min > 100 k eps lam_max resolves ``SIGMA_FLOOR``,
    tried first on the leading ``_PROBE`` block once k >= 4 ``_PROBE`` (by
    Cauchy interlacing the whole fails where it does); else an SVD.  With
    ``vectors`` (a tall ``m`` takes the SVD) returns (u, s, vh), vh None on the Gram path.
    """
    g = m if m.shape[0] <= m.shape[1] else m.T
    tol = 100 * g.shape[0] * np.finfo(np.float64).eps
    gram = g is m or not vectors
    if gram and g.shape[0] >= 4 * _PROBE:
        lam = np.linalg.eigvalsh(g[:_PROBE] @ g[:_PROBE].T)
        gram = lam[0] > tol * lam[-1]
    if gram:
        lam, u = np.linalg.eigh(g @ g.T) if vectors else (np.linalg.eigvalsh(g @ g.T), None)
        if lam[0] > tol * lam[-1]:
            return (u[:, ::-1], np.sqrt(lam[::-1]), None) if vectors else np.sqrt(lam[::-1])
    return np.linalg.svd(m, full_matrices=False) if vectors else np.linalg.svd(m, compute_uv=False)


def decompose(tensor, chi_max: int | None = None) -> MpsChain:
    """Tensor train of ``tensor`` by a left-to-right sweep.

    Each bond is split by :func:`_sigmas`: a wide unfolding by the top
    eigenvectors of its Gram matrix, a tall or unresolved one by an SVD.
    With ``chi_max`` set, at most that many values, the largest (ties
    broken arbitrarily), are kept per bond.
    Values below ``SIGMA_FLOOR`` times the bond maximum are dropped
    regardless.  Kept values are stored unnormalized.
    """
    arr, exponent = _rescaled(tensor)
    if chi_max is not None and chi_max < 1:
        raise InvalidArgumentError(f"chi_max must be >= 1, got {chi_max}")

    dims = arr.shape
    cores: list[np.ndarray] = []
    spectra: list[np.ndarray] = []
    carried = arr.reshape(1, -1)
    chi = 1
    for d in dims[:-1]:
        m = carried.reshape(chi * d, -1)
        u, s, vh = _sigmas(m, vectors=True)
        keep = min(int(np.count_nonzero(s > SIGMA_FLOOR * s[0])), chi_max or s.size)
        cores.append(u[:, :keep].reshape(chi, d, keep))
        spectra.append(np.ldexp(s[:keep], exponent))
        carried = u[:, :keep].T @ m if vh is None else s[:keep, None] * vh[:keep]
        chi = keep
    cores.append(np.ldexp(carried, exponent).reshape(chi, dims[-1], 1))
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

    This is the reference the Gram spectra are checked against; it does
    not share code with :func:`decompose` or :func:`schmidt_values`.
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

    Each is read by :func:`_sigmas`, from the Gram matrix of the unfolding
    or its exact SVD.  An SVD that finds at most half the full rank above
    1e-2 ``SIGMA_FLOOR`` compresses the unfolding for the later cuts, as
    the sweep does, so their arrays may be shorter than min(d_left, d_right).
    """
    arr, exponent = _rescaled(tensor)
    carried = arr.reshape(1, -1)
    spectra = []
    for d in arr.shape[:-1]:
        m = carried = carried.reshape(carried.shape[0] * d, -1)
        sigmas = _sigmas(m)
        keep = int(np.count_nonzero(sigmas > 1e-2 * SIGMA_FLOOR * sigmas[0]))
        if 2 * keep <= sigmas.size:
            _, s, vh = np.linalg.svd(m, full_matrices=False)
            carried = s[:keep, None] * vh[:keep]
        spectra.append(np.ldexp(sigmas, exponent))
    return spectra
