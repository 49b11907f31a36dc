"""Low-rank and tensor-factored adapter updates, and the valley check.

A LoRA update is B A.  The tensor-factored variant replaces the
(r, d_in) factor by two cores contracted over a bond of size chi, with the
input dimension split as d_in = d1 * d2.  Entanglement across the
row-column cut of either update is capped at log r because the update has
matrix rank at most r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import _log_base
from .errors import InvalidArgumentError, ShapeMismatchError
from .mps import SIGMA_FLOOR, _rescaled, _resolved
from .tensorize import prime_factorize

#: Each valid adapter kind -> the fields its command-line spec lists after
#: ``KIND:``, in order; ``mps`` is short for ``mps_adapt``.
_SPEC_FIELDS = {
    "full": ("d_out", "d_in"),
    "lora": ("d_out", "d_in", "r"),
    "mps_adapt": ("d_out", "d_in", "r", "d1", "d2", "chi"),
}


@dataclass(frozen=True)
class AdapterSpec:
    """Shape bookkeeping for one adapter configuration."""

    kind: str
    d_out: int
    d_in: int
    r: int | None = None
    d1: int | None = None
    d2: int | None = None
    chi: int | None = None

    def __post_init__(self):
        if self.kind not in _SPEC_FIELDS:
            raise InvalidArgumentError(f"unknown adapter kind {self.kind!r}")
        if self.d_out < 1 or self.d_in < 1:
            raise InvalidArgumentError("adapter dims must be >= 1")
        if self.kind == "full":
            return
        if self.r is None or self.r < 1:
            raise InvalidArgumentError(f"rank must be >= 1, got {self.r}")
        if self.r > min(self.d_out, self.d_in):
            raise InvalidArgumentError(
                f"rank {self.r} exceeds min(d_out, d_in) = {min(self.d_out, self.d_in)}"
            )
        if self.kind == "mps_adapt":
            if self.d1 is None or self.d2 is None or self.chi is None:
                raise InvalidArgumentError("mps_adapt needs d1, d2 and chi")
            if self.d1 * self.d2 != self.d_in:
                raise InvalidArgumentError(
                    f"d1 * d2 must equal d_in, got {self.d1} * {self.d2} != {self.d_in}"
                )
            if self.chi < 1:
                raise InvalidArgumentError(f"chi must be >= 1, got {self.chi}")

    @property
    def text(self) -> str:
        """The spec in command-line syntax, e.g. ``lora:8,8,2`` or ``mps:16,16,4,4,4,2``."""
        kind = "mps" if self.kind == "mps_adapt" else self.kind
        return f"{kind}:" + ",".join(str(getattr(self, name)) for name in _SPEC_FIELDS[self.kind])


def param_count(spec: AdapterSpec) -> int:
    """Trainable parameter count of the given adapter configuration."""
    if spec.kind == "full":
        return spec.d_out * spec.d_in
    if spec.kind == "lora":
        return spec.d_out * spec.r + spec.r * spec.d_in
    return spec.d_out * spec.r + spec.r * spec.chi * spec.d1 + spec.chi * spec.d2


def mps_adapter_materialize(core1, core2) -> np.ndarray:
    """Contract cores (r, chi, d1) and (chi, 1, d2) into an (r, d1*d2) matrix.

    The output column index pairs (i1, i2) row-major, consistent with the
    prime-site tensorization of the input dimension.
    """
    core1 = np.asarray(core1, dtype=np.float64)
    core2 = np.asarray(core2, dtype=np.float64)
    if core1.ndim != 3 or core2.ndim != 3 or core2.shape[1] != 1:
        raise ShapeMismatchError(
            f"expected cores (r, chi, d1) and (chi, 1, d2), got {core1.shape} and {core2.shape}"
        )
    if core1.shape[1] != core2.shape[0]:
        raise ShapeMismatchError(
            f"bond dims differ: {core1.shape[1]} vs {core2.shape[0]}"
        )
    r, _, d1 = core1.shape
    d2 = core2.shape[2]
    contracted = np.einsum("aci,cj->aij", core1, core2[:, 0, :])
    return contracted.reshape(r, d1 * d2)


@dataclass(frozen=True)
class ValleyCheck:
    """Row-column-cut entropy against the log r bound, plus the interior (nan if it has no cuts).

    Per-update fields have the stack's shape, numpy scalars for a single
    update; ``entropies`` adds an axis of every cut's entropy.
    """

    s_rowcol: float | np.ndarray
    bound: float
    interior_cuts: tuple[int, ...]
    interior_max: float | np.ndarray
    interior_mean: float | np.ndarray
    passes: bool | np.ndarray
    entropies: np.ndarray


def valley_check(b, a, base: float = 2.0) -> ValleyCheck:
    """Every cut of B A, B (..., d_out, r) and A (..., r, d_in), tested against log r.

    r is B's width; leading axes stack updates.  Each factor of each update
    is scaled by an exact power of two (:func:`mps._rescaled`, which also
    refuses it, by name and index, if zero or non-finite), and B A is
    never formed: with
    A A^T = R_A^T R_A (R_A from a QR of A^T), each row cut of B A has the
    Schmidt values of the same cut of C = B R_A^T, and with B^T B = R_B^T R_B
    each column cut those of D = R_B A.  A cut is one stacked Gram product
    and eigvalsh, with an SVD for an instance that fails :func:`mps._resolved`.
    Spectra are normalized as by :func:`normalize_spectrum`.
    """
    log_base = _log_base(base)
    b, a = np.asarray(b, dtype=np.float64), np.asarray(a, dtype=np.float64)
    if b.ndim < 2 or b.shape[:-2] != a.shape[:-2] or b.shape[-1:] != a.shape[-2:-1] or 0 in b.shape[:-2]:
        raise ShapeMismatchError(f"expected B (..., d_out, r), A (..., r, d_in), >= 1 update; got {b.shape}, {a.shape}")
    lead, (d_out, r), d_in = b.shape[:-2], b.shape[-2:], a.shape[-1]
    if r < 1:
        raise InvalidArgumentError(f"rank must be >= 1, got {r}")
    if d_out < 2 or d_in < 2:
        raise InvalidArgumentError(f"a {d_out}x{d_in} update has no row-column cut; need d_out, d_in >= 2")
    b = _rescaled(b, len(lead), "factor B")[0].reshape(-1, d_out, r)
    a = _rescaled(a, len(lead), "factor A")[0].reshape(-1, r, d_in)
    stack = len(b)
    out_sites, in_sites = prime_factorize(d_out), prime_factorize(d_in)
    c = b @ np.linalg.qr(a.transpose(0, 2, 1), mode="r").transpose(0, 2, 1)
    d = np.linalg.qr(b, mode="r") @ a
    unfoldings = [c.reshape(stack, math.prod(out_sites[:k]), -1) for k in range(1, len(out_sites) + 1)]
    unfoldings += [d.reshape(stack, d.shape[1] * math.prod(in_sites[:k]), -1) for k in range(1, len(in_sites))]
    entropies = np.empty((stack, len(unfoldings)))
    for cut, m in enumerate(unfoldings):
        g = m if m.shape[1] <= m.shape[2] else m.transpose(0, 2, 1)
        lam = np.linalg.eigvalsh(g @ g.transpose(0, 2, 1))
        sigmas = np.sqrt(np.maximum(lam[:, ::-1], 0.0))
        for i in np.flatnonzero(~_resolved(lam, g.shape[1])):
            sigmas[i] = np.linalg.svd(m[i], compute_uv=False)
        top = sigmas[:, :1]
        kept = np.where(sigmas > SIGMA_FLOOR * top, sigmas / top, 0.0) ** 2
        w = kept / kept.sum(axis=1, keepdims=True)
        s = -(w * np.log(w, out=np.zeros_like(w), where=w > 0.0)).sum(axis=1) / log_base
        entropies[:, cut] = np.where(s > 0.0, s, 0.0)
    entropies = entropies.reshape(*lead, -1)
    n = len(out_sites)
    s_rowcol = entropies[..., n - 1][()]
    bound = math.log(r) / log_base
    # interior: ceil(log2 r) + 2 <= k <= n - 1, clear of the rank bottleneck's log-scale footprint
    cuts = tuple(range(math.ceil(math.log2(r)) + 2, n))
    interior = entropies[..., cuts[0] - 1 : n - 1] if cuts else np.full((*lead, 1), math.nan)
    return ValleyCheck(
        s_rowcol=s_rowcol,
        bound=bound,
        interior_cuts=cuts,
        interior_max=interior.max(axis=-1),
        interior_mean=interior.mean(axis=-1),
        passes=s_rowcol <= bound + 1e-9,
        entropies=entropies,
    )
