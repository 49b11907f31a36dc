"""Tensor-train (matrix product state) decomposition by a sequential sweep.

At bond k the carried matrix m is reshaped to (chi_prev * d_k, rest), its
left factor U (the next core) and values S come from eigh(m @ m^T) or an
SVD, and S @ Vh = U^T m is carried forward.  As every left factor is
orthonormal, the values at bond k of an untruncated sweep are exactly the
Schmidt values of the full tensor across that cut.  No sweep, capped or
not, can truncate a cut whose left side is at most its right side and at
most ``chi_max`` if set: this exact prefix is read by partial trace (below)
from one Gram product, with identity cores, and the sweep starts after it.

The untruncated Schmidt values need no cores, only the Gram matrix on the
smaller side of each cut, the reduced density matrix rho_A = Tr_B rho of
the state.  :func:`schmidt_values` multiplies the tensor by itself twice,
at the two apex cuts where the smaller side flips from left to right, and
reads every other cut's Gram matrix as an exact partial trace of its
neighbour's, walking outward one site at a time.  Tracing out a site sums
d principal blocks, so it cannot raise the condition number:
cond(Tr_i G) <= cond(G).  Each trace is written below the diagonal of
the Gram matrix it is traced from, which LAPACK then solves in place from
its upper triangle (:func:`_eigvalsh`), so one buffer holds all of a
walk's Gram matrices.  Every Gram product of k >= 4 ``_PROBE`` rows is
tested first on its leading ``_PROBE`` rows: by Cauchy interlacing the
whole fails where they fail.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, InvalidArgumentError
from .tensorize import _finite

# Relative threshold below which singular values are treated as zero.
SIGMA_FLOOR = 1e-12


@dataclass
class MpsChain:
    """Cores of a tensor train plus the singular values kept at each bond.

    ``cores[k]`` has shape (chi_{k-1}, d_k, chi_k) with chi_0 = chi_M = 1.
    Each core but the last is a left isometry.  The cores of the exact
    prefix, the cuts no sweep can truncate (see :func:`decompose`), are
    identities, ``eye(chi_k)`` reshaped.
    ``bond_spectra[k]`` holds the unnormalized singular values retained at
    the bond between sites k and k+1 (0-based), so its length equals the
    bond dimension chi_{k+1}.
    """

    cores: list[np.ndarray] = field(default_factory=list)
    bond_spectra: list[np.ndarray] = field(default_factory=list)

    @property
    def site_dims(self) -> tuple[int, ...]:
        return tuple(core.shape[1] for core in self.cores)

    @property
    def bond_dims(self) -> tuple[int, ...]:
        dims = [1]
        dims.extend(core.shape[2] for core in self.cores)
        return tuple(dims)


def _as_tensor(tensor) -> np.ndarray:
    if np.ndim(tensor) < 1:  # ascontiguousarray would make a 0-d input 1-d
        raise InvalidArgumentError("expected a tensor with at least one axis")
    arr = np.ascontiguousarray(tensor, dtype=np.float64)
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


def _scaled_back(values: np.ndarray, exponent) -> np.ndarray:
    """``values * 2**exponent``, undoing :func:`_rescaled`; refused where that overflows float64."""
    with np.errstate(over="ignore"):
        out = np.ldexp(values, exponent)
    if not _finite(out):
        raise InvalidArgumentError(f"the tensor's Schmidt values overflow float64 at its scale 2**{int(exponent)}")
    return out


_PROBE = 64


def _gram(g: np.ndarray) -> np.ndarray:
    """g @ g.T, the Gram matrix on the rows side of ``g``; :func:`_eigvalsh` reads its upper triangle."""
    return g @ g.T


_F64, _I64 = ctypes.POINTER(ctypes.c_double), ctypes.POINTER(ctypes.c_int64)


def _lapack_dsyevd():
    """numpy's own LAPACK dsyevd (ILP64, bundled scipy-openblas), or None where numpy has no such symbol.

    dlsym on numpy's linalg extension also searches the libraries it links,
    so this is the routine, thread pool and thread count eigvalsh uses.
    """
    try:
        fn = ctypes.CDLL(np.linalg._umath_linalg.__file__).scipy_dsyevd_64_
    except (AttributeError, OSError):  # numpy on Accelerate, MKL or an LP64 LAPACK
        return None
    # jobz, uplo, n, a, lda, w, work, lwork, iwork, liwork, info, then the two string lengths
    fn.argtypes = [ctypes.c_char_p, ctypes.c_char_p, _I64, _F64, _I64, _F64, _F64, _I64, _I64, _I64, _I64,
                   ctypes.c_size_t, ctypes.c_size_t]
    fn.restype = None
    return fn


_DSYEVD = _lapack_dsyevd()


def _eigvalsh(gram: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Gram matrix ``gram``, ``np.linalg.eigvalsh(gram.T)`` bit for bit.

    eigvalsh copies its input into a private buffer for LAPACK dsyevd.  Here
    dsyevd (JOBZ='N', UPLO='L') runs on ``gram``'s own buffer, column-major
    ``gram.T``, after numpy's workspace query (dsytrd picks its blocked path
    from lwork).  It overwrites the upper triangle and diagonal and never
    reads the strict lower triangle.  A writeable float64 ``gram`` with unit
    column stride is solved where it lies, its row stride the LDA; anything
    else is first copied to C order.  Where numpy has no dsyevd to share
    (:func:`_lapack_dsyevd`) the eigvalsh call is made instead.
    """
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise np.linalg.LinAlgError(f"expected a square Gram matrix, got shape {gram.shape}")
    row, column = gram.strides
    if not (gram.dtype == np.float64 and gram.flags.writeable and gram.flags.aligned and column == 8 and row >= 8 * len(gram)):
        gram = np.require(gram, np.float64, ["C", "W"])  # LAPACK writes the buffer it is handed
    if _DSYEVD is None:
        return np.linalg.eigvalsh(gram.T)
    lam = np.empty(len(gram))
    n, lda, info = ctypes.c_int64(lam.size), ctypes.c_int64(max(gram.strides[0] // 8, 1)), ctypes.c_int64(0)
    a, w = gram.ctypes.data_as(_F64), lam.ctypes.data_as(_F64)
    work, lwork, iwork, liwork = ctypes.c_double(), ctypes.c_int64(-1), ctypes.c_int64(), ctypes.c_int64(-1)
    _DSYEVD(b"N", b"L", n, a, lda, w, work, lwork, iwork, liwork, info, 1, 1)
    if not info.value:
        lwork.value, liwork.value = int(work.value), iwork.value
        work, iwork = np.empty(lwork.value), np.empty(liwork.value, np.int64)
        _DSYEVD(b"N", b"L", n, a, lda, w, work.ctypes.data_as(_F64), lwork, iwork.ctypes.data_as(_I64), liwork, info, 1, 1)
    if info.value:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return lam


def _resolved(lam: np.ndarray, k: int):
    """Ascending Gram eigenvalues ``lam`` of a k x k cut resolve ``SIGMA_FLOOR``; per row of a stack."""
    return lam[..., 0] > 100 * k * np.finfo(np.float64).eps * lam[..., -1]


def _probe_resolves(g: np.ndarray) -> bool:
    """False where g has k >= 4 _PROBE rows whose leading _PROBE fail :func:`_resolved`; by interlacing, all k do."""
    k = g.shape[0]
    return k < 4 * _PROBE or bool(_resolved(_eigvalsh(g[:_PROBE] @ g[:_PROBE].T), k))


def _sigmas(m: np.ndarray, vectors: bool = False):
    """Descending singular values of a rescaled unfolding ``m``.

    sqrt(eigh) of the k x k Gram matrix on the smaller side (rows side with
    ``vectors``) where lam_min > 100 k eps lam_max resolves ``SIGMA_FLOOR``
    (probed first, :func:`_probe_resolves`); else an SVD.  With ``vectors``
    (a tall ``m`` takes the SVD) returns (u, s, vh), vh None on the Gram path.
    """
    found = _gram_sigmas(m, vectors)
    if found is not None:
        return found
    return np.linalg.svd(m, full_matrices=False) if vectors else np.linalg.svd(m, compute_uv=False)


def _gram_sigmas(m: np.ndarray, vectors: bool = False):
    """What :func:`_sigmas` reads from the Gram matrix, or None where it takes the SVD."""
    g = m if m.shape[0] <= m.shape[1] else m.T
    k = g.shape[0]
    if (vectors and g is not m) or not _probe_resolves(g):
        return None
    lam, u = np.linalg.eigh(_gram(g).T) if vectors else (_eigvalsh(_gram(g)), None)
    if not _resolved(lam, k):
        return None
    return (u[:, ::-1], np.sqrt(lam[::-1]), None) if vectors else np.sqrt(lam[::-1])


def _check_chi_max(chi_max: int | None) -> None:
    if chi_max is not None and chi_max < 1:
        raise InvalidArgumentError(f"chi_max must be >= 1, got {chi_max}")


def decompose(tensor, chi_max: int | None = None, *, scale_back: bool = True) -> MpsChain:
    """Tensor train of ``tensor`` by a left-to-right sweep.

    Each bond is split by :func:`_sigmas`: a wide unfolding by the top
    eigenvectors of its Gram matrix, a tall or unresolved one by an SVD.
    With ``chi_max`` set, at most that many values, the largest (ties
    broken arbitrarily), are kept per bond.
    Values below ``SIGMA_FLOOR`` times the bond maximum are dropped
    regardless.  Kept values are stored unnormalized.

    No sweep, capped or not, can truncate a cut whose left side is at most
    its right side and at most ``chi_max`` if set.  The last such cut P
    takes one Gram product of the tensor, and cuts P-1..1 are read from it
    by exact partial traces (:func:`_walk`); uncapped, these are
    :func:`schmidt_values`' own, bit for bit.  Where every one of them
    passes the test of :func:`_resolved` they keep every value, so their
    cores are identity isometries, ``eye(chi_k)`` reshaped to
    (chi_{k-1}, d_k, chi_k), and the sweep goes on from cut P+1 with the
    tensor itself, unrotated.  Where one does not, the sweep runs from cut 1.

    With ``scale_back=False`` the chain is that of the tensor divided by
    its power-of-two scale (:func:`_rescaled`), whose values cannot
    overflow; entropies do not depend on the scale.
    """
    arr, exponent = _rescaled(tensor)
    exponent = exponent if scale_back else 0
    _check_chi_max(chi_max)

    dims = arr.shape
    cores: list[np.ndarray] = []
    spectra: list[np.ndarray] = []
    carried = arr.reshape(1, -1)
    chi = 1
    lefts = [math.prod(dims[:cut]) for cut in range(1, len(dims))]
    prefix = sum(left * left <= arr.size and (chi_max is None or left <= chi_max) for left in lefts)
    g = arr.reshape(math.prod(dims[:prefix]), -1)
    walked: dict[int, np.ndarray] = {}
    if prefix and _walk(g, dims, range(prefix, 0, -1), True, walked) is None:
        for d in dims[:prefix]:
            cores.append(np.eye(chi * d).reshape(chi, d, chi * d))
            spectra.append(_scaled_back(walked[len(cores)], exponent))
            chi *= d
        carried = g
    for d in dims[len(cores) : -1]:
        m = carried.reshape(chi * d, -1)
        u, s, vh = _sigmas(m, vectors=True)
        keep = min(int(np.count_nonzero(s > SIGMA_FLOOR * s[0])), chi_max or s.size)
        cores.append(u[:, :keep].reshape(chi, d, keep))
        spectra.append(_scaled_back(s[:keep], exponent))
        carried = u[:, :keep].T @ m if vh is None else s[:keep, None] * vh[:keep]
        chi = keep
    cores.append(_scaled_back(carried, exponent).reshape(chi, dims[-1], 1))
    return MpsChain(cores=cores, bond_spectra=spectra)


def reconstruct(mps: MpsChain) -> np.ndarray:
    """Contract the chain back into a dense tensor."""
    if not mps.cores:
        raise InvalidArgumentError("cannot reconstruct an empty chain")
    left = mps.cores[0].reshape(mps.cores[0].shape[1], -1)
    for core in mps.cores[1:]:
        left = left @ core.reshape(core.shape[0], -1)
        left = left.reshape(-1, core.shape[2])
    return left.reshape(mps.site_dims)


def _traced(gram: np.ndarray, d: int, rows: bool) -> np.ndarray:
    """``gram`` with its last left (``rows``) or first right site, of dimension ``d``, traced out.

    The trace of a k x k ``gram`` goes to its strictly lower block ``gram[k - k // d:, :k // d]`` and is
    returned as that view; only its upper triangle and diagonal are summed, from ``gram``'s, 64 rows at
    a time, with the summands and order, so the bits, of ``reshape(...).trace(...)``.
    """
    k = gram.shape[0]
    after = k // d
    if d == 1:
        return gram + 0.0  # the same Gram, which eigvalsh overwrites, so a copy; numpy's trace sums from +0.0 too
    traced = gram[k - after :, :after]
    for r0 in range(0, after, 64):
        r1 = min(r0 + 64, after)
        out = traced[r0:r1, r0:]
        out[...] = 0.0
        for s in range(d):  # entry (a, b) of site s is gram[a d + s, b d + s] (rows), else gram[s k/d + a, s k/d + b]
            first, step = (s, d) if rows else (s * after, 1)
            out += gram[first + r0 * step : first + r1 * step : step, first + r0 * step : first + after * step : step]
    if after == 1:  # numpy sums a whole trace pairwise
        traced[0, 0] = gram.trace()
    return traced


def _walk(g: np.ndarray, dims: tuple[int, ...], cuts, rows: bool, spectra: dict) -> int | None:
    """Descending Schmidt values at ``cuts`` into ``spectra``; the first cut it cannot read, else None.

    ``g`` is the unfolding at ``cuts[0]`` of a tensor of shape ``dims``, its
    rows the left (``rows``) or right side.  It is probed there
    (:func:`_probe_resolves`) and multiplied once (:func:`_gram`).  ``cuts``
    go toward that end of the chain one site at a time; each later cut's
    Gram matrix is the last one's with the site between traced out, into
    the last one's strictly lower block (:func:`_traced`), before
    :func:`_eigvalsh` overwrites its upper triangle, so the apex Gram's
    buffer holds every Gram matrix of the walk; only a site of dimension 1
    takes a copy.  Each cut must pass :func:`_resolved`.
    """
    if not _probe_resolves(g):
        return cuts[0]
    size = math.prod(dims)
    sides = [math.prod(dims[:cut]) if rows else size // math.prod(dims[:cut]) for cut in cuts]
    gram = _gram(g)
    for cut, k, after in zip(cuts, sides, sides[1:] + [None]):
        traced = None if after is None else _traced(gram, k // after, rows)
        lam = _eigvalsh(gram)
        if not _resolved(lam, k):
            return cut
        spectra[cut] = np.sqrt(lam[::-1])
        gram = traced
    return None


def _ladder(arr: np.ndarray) -> tuple[list[np.ndarray] | None, int | None]:
    """(Schmidt values at every cut, None) from two Gram products, else (None, the first unresolved cut).

    The left apex is the last cut whose left side is the smaller (m @ m^T),
    the right apex the next one (m^T @ m).  Each side in turn, the left
    first, is walked outward from its apex (:func:`_walk`), so the left apex
    Gram is freed before the right one is formed.  A failed probe reports
    its apex; a walked left cut that fails is returned whatever the right
    apex would give.  By the condition bound, a walked cut below a resolved
    apex essentially never fails the test.
    """
    dims = arr.shape
    lefts = [math.prod(dims[:cut]) for cut in range(1, len(dims))]
    apex = sum(left * left <= arr.size for left in lefts)
    spectra: dict[int, np.ndarray] = {}
    for cut, rows in ((apex, True), (apex + 1, False)):
        if not 1 <= cut < len(dims):
            continue
        m = arr.reshape(lefts[cut - 1], -1)
        unresolved = _walk(m if rows else m.T, dims, range(cut, 0, -1) if rows else range(cut, len(dims)), rows, spectra)
        if unresolved is not None:
            return None, unresolved
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


def schmidt_values(tensor, *, scale_back: bool = True) -> list[np.ndarray]:
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
    ``scale_back`` is :func:`decompose`'s.
    """
    arr, exponent = _rescaled(tensor)
    exponent = exponent if scale_back else 0
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
    return [_scaled_back(sigmas, exponent) for sigmas in spectra]
