"""Synthetic single-layer softmax attention at isotropic initialization.

Every scene and cardy sample comes from one seeded draw
(:func:`_seeded_logits`): Q, then K, each (T, T) with i.i.d. N(0, qk_std^2)
entries, optionally rotated by RoPE, give the logits Q K^T / sqrt(T).  A
scene then draws V, entries of std 1/sqrt(T), from the same generator.
This is the exact law of X @ W for any context X with orthonormal rows
and Gaussian weights W, so no context is simulated.
Query/key entries default to std 0.65, which puts the logit std near
0.42 after the 1/sqrt(T) scaling and the off-mean-field Frobenius
mass near 0.2: strong enough that the entanglement log-scaling is
measurable, weak enough that the profile stays in the area-law regime.
The head width d_qk is T itself, so the rescaled bulk spectrum of
A - (1/T) 11^T is the same law at every sequence length; with a fixed
head width the per-row softmax temperatures spread as T grows and the
bulk moments drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import EntanglementProfile, profile
from .errors import InvalidArgumentError
from .rmt import _seeded_rng
from .tensorize import _finite

#: Default per-entry standard deviation of Q and K.
DEFAULT_QK_STD = 0.65


def _qk_rows(rng: np.random.Generator, rows: int, d_qk: int, qk_std: float) -> np.ndarray:
    """(rows, d_qk) i.i.d. N(0, qk_std^2) entries from ``rng``, scaled in place.

    ``rows`` is T, or a block of K's rows: blocks drawn in turn are K drawn
    whole, bit for bit.  Rejects T < 1, a qk_std not finite and >= 0, and
    a draw that overflows float64.
    """
    if rows < 1:
        raise InvalidArgumentError(f"T must be >= 1, got {rows}")
    if not (math.isfinite(qk_std) and qk_std >= 0.0):
        raise InvalidArgumentError(f"qk_std must be finite and >= 0, got {qk_std}")
    with np.errstate(over="ignore"):
        m = rng.standard_normal((rows, d_qk))
        m *= qk_std
    if not _finite(m):
        raise InvalidArgumentError(f"qk_std = {qk_std} overflows float64 in the query/key draw")
    return m


def _softmax_rows(logits: np.ndarray, causal: bool) -> np.ndarray:
    """Row-wise softmax of float64 ``logits``, written over them and returned.

    A caller that still needs its logits passes a copy.
    """
    if causal:
        t = logits.shape[0]
        logits[np.arange(t)[:, None] < np.arange(t)] = -np.inf
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    return logits


def _rotated(arr: np.ndarray, lo: int, theta_base: float) -> np.ndarray:
    """Rotary position embedding of the float64 rows ``arr`` at positions lo, lo + 1, ...

    Split-half pairing: coordinate j in the first half is rotated against
    coordinate j + d/2 by angle pos * theta_base^(-2j/d), so norms are kept
    up to rounding.  A block of rows comes out bit for bit as it does in
    the whole.
    """
    t, d = arr.shape
    if d % 2 != 0:
        raise InvalidArgumentError(f"rotary embedding needs an even dim, got {d}")
    half = d // 2
    freqs = theta_base ** (-2.0 * np.arange(half) / d)
    angles = np.arange(lo, lo + t)[:, None] * freqs[None, :]
    cos, sin = np.cos(angles), np.sin(angles)
    first, second = arr[:, :half], arr[:, half:]
    out = np.empty_like(arr)
    out[:, :half] = first * cos - second * sin
    out[:, half:] = first * sin + second * cos
    return out


def _seeded_logits(rng: np.random.Generator, t: int, qk_std: float, rope_theta: float | None = None) -> np.ndarray:
    """The logits Q K^T / sqrt(T) of the module's one draw, Q and then K from ``rng``, rejected if not finite.

    K is drawn in at most 4 row blocks, each multiplied into its columns of
    the logits, and Q is freed on return.  Blocks are whole 32-column
    tiles, since BLAS rounds edge tiles differently, so a T that is not a
    multiple of 32 takes K whole: the logits are those of Q and K drawn
    whole, bit for bit.  With ``rope_theta`` Q and each block of K are
    rotated at their own positions (:func:`_rotated`).
    """
    q = _qk_rows(rng, t, t, qk_std)
    if rope_theta is not None:
        q = _rotated(q, 0, rope_theta)
    logits = np.empty((t, t))
    tiles = t // 32 if t % 32 == 0 else 1
    blocks = min(4, tiles)
    edges = [32 * (i * tiles // blocks) for i in range(blocks)] + [t]
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi in zip(edges, edges[1:]):
            k = _qk_rows(rng, hi - lo, t, qk_std)
            if rope_theta is not None:
                k = _rotated(k, lo, rope_theta)
            np.matmul(q, k.T, out=logits[:, lo:hi])
            del k  # one block of K is held at a time
        logits /= math.sqrt(t)
    if not _finite(logits):
        raise InvalidArgumentError(
            "attention logits Q K^T / sqrt(T) are not finite (float64 overflow); reduce qk_std"
        )
    return logits


def output_operator(x) -> np.ndarray:
    """Sigma = X X^T, exactly symmetric: for a C-contiguous X numpy forms it by a symmetric rank-k update."""
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise InvalidArgumentError("output_operator expects a (T, d_v) matrix")
    return arr @ arr.T


@dataclass
class AttentionScene:
    """One single-head attention draw and everything derived from it.

    ``logits`` are Q K^T / sqrt(T) of the module's one draw, ``a`` their
    row softmax under the mask ``causal``, and ``x`` = A V.
    """

    logits: np.ndarray
    a: np.ndarray
    x: np.ndarray
    causal: bool

    @classmethod
    def build(
        cls,
        t: int,
        seed=0,
        causal: bool = False,
        rope: bool = False,
        rope_theta: float = 10000.0,
        qk_std: float = DEFAULT_QK_STD,
    ) -> AttentionScene:
        """The draw's logits (:func:`_seeded_logits`), then V, after a ``rope_theta`` check."""
        if not (math.isfinite(rope_theta) and rope_theta > 0.0):
            raise InvalidArgumentError(f"RoPE base theta_base must be finite and > 0, got {rope_theta}")
        rng = _seeded_rng(seed)
        logits = _seeded_logits(rng, t, qk_std, rope_theta if rope else None)
        v = (1.0 / math.sqrt(t)) * rng.standard_normal((t, t))
        a = _softmax_rows(logits.copy(), causal=causal)
        return cls(logits=logits, a=a, x=a @ v, causal=causal)


@dataclass
class MaskAblation:
    """The scene's attention with and without the causal mask."""

    a_masked: np.ndarray
    a_unmasked: np.ndarray
    profile_masked: EntanglementProfile
    profile_unmasked: EntanglementProfile


def mask_ablation(scene: AttentionScene, chi_max: int | None = None, base: float = 2.0) -> MaskAblation:
    """Profile the scene's attention with the causal mask on and off.

    The branch with the scene's own mask is ``scene.a`` itself; the other
    is the softmax of a copy of ``scene.logits`` under the other mask, so
    no second Q K^T or rotation is formed.
    """
    other = _softmax_rows(scene.logits.copy(), causal=not scene.causal)
    a_masked, a_unmasked = (scene.a, other) if scene.causal else (other, scene.a)
    return MaskAblation(
        a_masked=a_masked,
        a_unmasked=a_unmasked,
        profile_masked=profile(a_masked, chi_max=chi_max, base=base),
        profile_unmasked=profile(a_unmasked, chi_max=chi_max, base=base),
    )
