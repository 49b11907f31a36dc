"""Tensor-train (matrix product state) decomposition by a sequential sweep.

At bond k the carried matrix m is reshaped to (chi_prev * d_k, rest), its
left factor U (the next core) and values S come from eigh(m @ m^T) or an
SVD, and S @ Vh = U^T m is carried forward.  As every left factor is
orthonormal, the values at bond k of an untruncated sweep are exactly the
Schmidt values of the full tensor across that cut.

The untruncated Schmidt values need no cores, only the Gram matrix on the
smaller side of each cut, the reduced density matrix rho_A = Tr_B rho of
the state.  :func:`schmidt_values` multiplies the tensor by itself twice,
at the two apex cuts where the smaller side flips from left to right, and
reads every other cut's Gram matrix as an exact partial trace of its
neighbour's, walking outward one site at a time.  Tracing out a site sums
d principal blocks, so it cannot raise the condition number:
cond(Tr_i G) <= cond(G).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, InvalidArgumentError

# Relative threshold below which singular values are treated as zero.
SIGMA_FLOOR = 1e-12


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
    return arr


# Largest entries within 2**+-_SAFE_EXPONENT are not rescaled: every Gram
# entry stays below 2**263 and every square that can pass the 1e-2
# SIGMA_FLOOR cut above 2**-300, far inside float64 and LAPACK's unscaled range.
_SAFE_EXPONENT = 100


def _rescaled(tensor, stack: int = 0, name: str = "tensor") -> tuple[np.ndarray, np.ndarray]:
    """(tensor * 2**-exponent, exponent), exact, so squares stay in range.

    The first ``stack`` axes index separate tensors, each with its own
    exponent (an int array of those axes' shape, 0-d for one tensor).
    Outside the safe range a tensor's largest entry is scaled into
    [0.5, 1); inside it the exponent is 0, and when no tensor moves the
    input itself comes back, so callers must not write into the array.
    NaN and +-inf propagate through max and min, so those two passes are
    also the finiteness check.  A non-finite or all-zero tensor is refused
    by ``name`` and, in a stack, its index.
    """
    arr = _as_tensor(tensor)
    axes = tuple(range(stack, arr.ndim))
    top = np.maximum(arr.max(axis=axes), -arr.min(axis=axes))
    for bad, error, what in (
        (~np.isfinite(top), InvalidArgumentError, "has NaN or infinite entries"),
        (top == 0, DegenerateInputError, "is all zero"),
    ):
        if bad.any():
            at = f"[{', '.join(str(i) for i in np.unravel_index(np.argmax(bad), bad.shape))}]" if stack else ""
            raise error(f"{name}{at} {what}")
    exponent = np.frexp(top)[1]
    exponent = np.where(np.abs(exponent) > _SAFE_EXPONENT, exponent, 0)
    if not exponent.any():
        return arr, exponent
    return np.ldexp(arr, -exponent.reshape(exponent.shape + (1,) * len(axes))), exponent


_PROBE = 64


def _gram(g: np.ndarray) -> np.ndarray:
    """g @ g.T, the Gram matrix on the rows side of ``g``.

    numpy fills both triangles of the product identically, and a partial
    trace keeps that exact symmetry, so each Gram matrix larger than the
    probe goes to LAPACK as its F-order view ``gram.T``: the same input,
    read without a transposing copy.
    """
    return g @ g.T


def _resolved(lam: np.ndarray, k: int):
    """Ascending Gram eigenvalues ``lam`` of a k x k cut resolve ``SIGMA_FLOOR``; per row of a stack."""
    return lam[..., 0] > 100 * k * np.finfo(np.float64).eps * lam[..., -1]


def _sigmas(m: np.ndarray, vectors: bool = False):
    """Descending singular values of a rescaled unfolding ``m``.

    sqrt(eigh) of the k x k Gram matrix on the smaller side (rows side with
    ``vectors``) where lam_min > 100 k eps lam_max resolves ``SIGMA_FLOOR``,
    tried first on the leading ``_PROBE`` block once k >= 4 ``_PROBE`` (by
    Cauchy interlacing the whole fails where it does); else an SVD.  With
    ``vectors`` (a tall ``m`` takes the SVD) returns (u, s, vh), vh None on the Gram path.
    """
    found = _gram_sigmas(m, vectors)
    if found is not None:
        return found
    return np.linalg.svd(m, full_matrices=False) if vectors else np.linalg.svd(m, compute_uv=False)


def _gram_sigmas(m: np.ndarray, vectors: bool = False):
    """What :func:`_sigmas` reads from the Gram matrix, or None where it takes the SVD."""
    g = m if m.shape[0] <= m.shape[1] else m.T
    k = g.shape[0]
    if vectors and g is not m:
        return None
    if k >= 4 * _PROBE and not _resolved(np.linalg.eigvalsh(g[:_PROBE] @ g[:_PROBE].T), k):
        return None
    lam, u = np.linalg.eigh(_gram(g).T) if vectors else (np.linalg.eigvalsh(_gram(g).T), None)
    if not _resolved(lam, k):
        return None
    return (u[:, ::-1], np.sqrt(lam[::-1]), None) if vectors else np.sqrt(lam[::-1])


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


def _ladder(arr: np.ndarray) -> tuple[list[np.ndarray] | None, int | None]:
    """(Schmidt values at every cut, None) from two Gram products, else (None, the first unresolved cut).

    The left apex is the last cut whose left side is the smaller (m @ m^T),
    the right apex the next one (m^T @ m); both are tested, as
    :func:`_sigmas` tests a cut but probed on min(_PROBE, k/4) >= 4 rows,
    before any walk starts; the cut is None where a probe failed first.
    Walking outward, each cut's Gram matrix is its neighbour's with one
    site traced out, and keeps the test; by the condition bound, a walked
    cut below a resolved apex essentially never fails it.
    """
    dims = arr.shape
    lefts = [math.prod(dims[:cut]) for cut in range(1, len(dims))]
    apex = sum(left * left <= arr.size for left in lefts)
    spectra: dict[int, np.ndarray] = {}
    walks = []
    for cut, rows in ((apex, True), (apex + 1, False)):
        if not 1 <= cut < len(dims):
            continue
        m = arr.reshape(lefts[cut - 1], -1)
        g = m if rows else m.T
        k = g.shape[0]
        p = min(_PROBE, k // 4)
        if p >= 4 and not _resolved(np.linalg.eigvalsh(g[:p] @ g[:p].T), k):
            return None, None
        gram = _gram(g)
        lam = np.linalg.eigvalsh(gram.T)
        if not _resolved(lam, k):
            return None, cut
        spectra[cut] = np.sqrt(lam[::-1])
        walks.append((gram, rows, range(cut - 1, 0, -1) if rows else range(cut + 1, len(dims))))
    for gram, rows, cuts in walks:
        for cut in cuts:
            k = min(lefts[cut - 1], arr.size // lefts[cut - 1])
            d = dims[cut] if rows else dims[cut - 1]  # the one site between this cut and the last
            if rows:
                gram = gram.reshape(k, d, k, d).trace(axis1=1, axis2=3)
            else:
                gram = gram.reshape(d, k, d, k).trace(axis1=0, axis2=2)
            lam = np.linalg.eigvalsh(gram.T)
            if not _resolved(lam, k):
                return None, cut
            spectra[cut] = np.sqrt(lam[::-1])
    return [spectra[cut] for cut in range(1, len(dims))], None


def _svd_compressed(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(descending singular values of ``m``, ``m`` or its compression for the later cuts).

    Where at most half the values are above 1e-2 ``SIGMA_FLOOR``, the rows
    are compressed to those values, as the sweep does, which leaves every
    later Schmidt value unchanged.  An unfolding at least twice as long as
    it is wide is first reduced by one QR to its small triangular factor r,
    which has the same values; the vectors of a compression then come from
    a second SVD of r, not of the unfolding.  A tall m = q r compresses to
    S_k Vh_k of r; a wide m = r^T q^T to U_k^T m, whose U is r's V.
    """
    wide, tall = m.shape[1] >= 2 * m.shape[0], m.shape[0] >= 2 * m.shape[1]
    r = np.linalg.qr(m.T if wide else m, mode="r") if wide or tall else m
    sigmas = np.linalg.svd(r, compute_uv=False)
    keep = int(np.count_nonzero(sigmas > 1e-2 * SIGMA_FLOOR * sigmas[0]))
    if 2 * keep > sigmas.size:
        return sigmas, m
    _, s, vh = np.linalg.svd(r, full_matrices=False)
    return sigmas, vh[:keep] @ m if wide else s[:keep, None] * vh[:keep]


def schmidt_values(tensor) -> list[np.ndarray]:
    """Descending Schmidt values at cuts 1..n-1.

    The two apex cuts, where the smaller side flips from left to right,
    each take one Gram product of the whole tensor; every other cut's Gram
    matrix is an exact partial trace of its neighbour's, one site at a
    time, whose condition number is no larger.  Each cut must pass the
    resolution test of :func:`_sigmas`.  A tensor with a cut that fails
    it, in practice an apex of a low-rank tensor, goes cut by cut
    instead: the Gram spectrum of :func:`_sigmas` where it resolves (it
    keeps every value, so nothing is compressed), else
    :func:`_svd_compressed`, which may compress the unfolding for the later
    cuts, so their arrays may be shorter than min(d_left, d_right).
    """
    arr, exponent = _rescaled(tensor)
    spectra, unresolved = _ladder(arr)
    if spectra is None:
        spectra, carried = [], arr.reshape(1, -1)
        for cut, d in enumerate(arr.shape[:-1], start=1):
            carried = carried.reshape(carried.shape[0] * d, -1)
            # the unresolved cut, still uncompressed, would fail the Gram test again, as it did in the ladder
            failed = cut == unresolved and carried.size == arr.size
            sigmas = None if failed else _gram_sigmas(carried)
            if sigmas is None:
                sigmas, carried = _svd_compressed(carried)
            spectra.append(sigmas)
    return [np.ldexp(sigmas, exponent) for sigmas in spectra]
