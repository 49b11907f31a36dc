"""Low-rank and tensor-factored adapter updates, and the valley check.

A LoRA update is (alpha/r) B A.  The tensor-factored variant replaces the
(r, d_in) factor by two cores contracted over a bond of size chi, with the
input dimension split as d_in = d1 * d2.  Entanglement across the
row-column cut of either update is capped at log r because the update has
matrix rank at most r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import EntanglementProfile, _log_base, profile
from .errors import InvalidArgumentError, ShapeMismatchError
from .mps import SIGMA_FLOOR, _resolved
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


def lora_update(b, a, alpha: float) -> np.ndarray:
    """Delta W = (alpha / r) B A with B (d_out, r) and A (r, d_in); r is read from B."""
    b = np.asarray(b, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    if b.ndim != 2 or a.ndim != 2 or b.shape[1] != a.shape[0]:
        raise ShapeMismatchError(f"expected B (d_out, r) and A (r, d_in), got {b.shape} and {a.shape}")
    r = b.shape[1]
    if r < 1:
        raise InvalidArgumentError(f"rank must be >= 1, got {r}")
    return (alpha / r) * (b @ a)


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


def mps_adapter_update(b, core1, core2, alpha: float) -> np.ndarray:
    """Delta W = (alpha / r) B A_mps with A_mps from the two cores; r is read from B."""
    return lora_update(b, mps_adapter_materialize(core1, core2), alpha)


def _lora_cut_entropies(b: np.ndarray, a: np.ndarray, base: float = 2.0) -> np.ndarray:
    """Entropy at every cut of each B[s] A[s] of stacks B (S, d_out, r) and A (S, r, d_in), shape (S, cuts).

    The product is never formed.  With A A^T = R_A^T R_A (R_A from a QR of
    A^T), each row cut of B A has the Schmidt values of the same cut of
    C = B R_A^T, of shape (d_out, min(r, d_in)); with B^T B = R_B^T R_B,
    each column cut those of D = R_B A.  A cut is one stacked Gram product
    and eigvalsh; an instance whose spectrum fails :func:`mps._resolved`
    takes an SVD.  Spectra are normalized as by :func:`normalize_spectrum`.
    """
    log_base = _log_base(base)
    stack, d_out, _ = b.shape
    out_sites, in_sites = prime_factorize(d_out), prime_factorize(a.shape[2])
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
    return entropies


@dataclass(frozen=True)
class ValleyCheck:
    """Row-column-cut entropy against the log r bound, plus the interior."""

    s_rowcol: float
    bound: float
    interior_cuts: tuple[int, ...]
    interior_max: float
    passes: bool
    profile: EntanglementProfile


def interior_cut_range(r: int, n: int) -> tuple[int, ...]:
    """Row cuts treated as interior: ceil(log2 r) + 2 <= k <= n - 1.

    The lower margin keeps the cut clear of the rank bottleneck's
    log-scale footprint; the upper end stops short of the row-column cut
    itself.  May be empty when r is large relative to 2^n.
    """
    lo = math.ceil(math.log2(r)) + 2
    return tuple(range(lo, n))


def valley_check(delta_w, r: int, base: float = 2.0) -> ValleyCheck:
    """Profile an adapter update and test the rank bound at the matrix cut."""
    if r < 1:
        raise InvalidArgumentError(f"rank must be >= 1, got {r}")
    prof = profile(delta_w, base=base)
    delta_w = np.asarray(delta_w)
    n = len(prime_factorize(delta_w.shape[0]))
    s_rowcol = prof.record_at(n).entropy
    bound = math.log(r) / math.log(base)
    cuts = interior_cut_range(r, n)
    interior = [prof.record_at(k).entropy for k in cuts]
    return ValleyCheck(
        s_rowcol=s_rowcol,
        bound=bound,
        interior_cuts=cuts,
        interior_max=max(interior) if interior else math.nan,
        passes=s_rowcol <= bound + 1e-9,
        profile=prof,
    )
