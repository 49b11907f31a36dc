"""Synthetic single-layer softmax attention at isotropic initialization.

Queries, keys and values are drawn directly as i.i.d. Gaussian matrices
of shape (T, T): Q and K with entry std ``qk_std``, V with entry std
1/sqrt(T).  This is the exact law of X @ W for any context X with
orthonormal rows and Gaussian weights W, so no context is simulated.
Query/key entries default to std 0.65, which puts the logit std near
0.42 after the 1/sqrt(d_qk) scaling and the off-mean-field Frobenius
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
from .errors import InvalidArgumentError, ShapeMismatchError
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


def attention_matrix(q: np.ndarray, k: np.ndarray, causal: bool = False) -> np.ndarray:
    """Row-wise softmax of Q K^T / sqrt(d_qk), optionally causally masked.

    Masking sets logits above the diagonal to -inf before the softmax, so
    masked entries come out exactly zero.  ``q`` and ``k`` are not written;
    the logits are formed as one product, divided and pushed through the
    softmax in one T x T array, which is returned.
    """
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    if q.ndim != 2 or k.ndim != 2 or q.shape != k.shape:
        raise ShapeMismatchError(
            f"Q and K must share shape (T, d_qk), got {q.shape} and {k.shape}"
        )
    if q.size == 0:
        raise InvalidArgumentError(f"Q and K need T >= 1 and d_qk >= 1, got {q.shape} and {k.shape}")
    return _softmax_rows(_logits(q, lambda lo, hi: k), causal=causal)


def _logits(q: np.ndarray, k_rows, blocks: int = 1) -> np.ndarray:
    """Q K^T / sqrt(d_qk), rejected if not finite; ``k_rows(lo, hi)`` returns K[lo:hi], called in order.

    K comes in at most ``blocks`` row blocks, each multiplied into its
    columns of the logits.  Each block repacks Q for BLAS, so only a caller
    that draws K block by block asks for more than one.  Blocks are whole
    32-column tiles, since BLAS rounds edge tiles differently, so a T that
    is not a multiple of 32 takes K whole: the logits are Q K^T bit for bit.
    """
    t, d_qk = q.shape
    logits = np.empty((t, t))
    tiles = t // 32 if t % 32 == 0 else 1
    blocks = min(blocks, tiles)
    edges = [32 * (i * tiles // blocks) for i in range(blocks)] + [t]
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi in zip(edges, edges[1:]):
            np.matmul(q, k_rows(lo, hi).T, out=logits[:, lo:hi])
        logits /= math.sqrt(d_qk)
    if not _finite(logits):
        raise InvalidArgumentError(
            "attention logits Q K^T / sqrt(d_qk) are not finite (float64 overflow); reduce qk_std"
        )
    return logits


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


def _check_rope_theta(theta_base: float) -> None:
    if not (math.isfinite(theta_base) and theta_base > 0.0):
        raise InvalidArgumentError(f"RoPE base theta_base must be finite and > 0, got {theta_base}")


def apply_rope(m: np.ndarray, theta_base: float = 10000.0) -> np.ndarray:
    """Rotary position embedding with split-half dimension pairing.

    Row index is the position.  Coordinate j in the first half is rotated
    against coordinate j + d/2 by angle pos * theta_base^(-2j/d).  Norms
    are preserved exactly up to rounding.
    """
    _check_rope_theta(theta_base)
    arr = np.asarray(m, dtype=np.float64)
    if arr.ndim != 2:
        raise InvalidArgumentError("apply_rope expects a (T, d_qk) matrix")
    t, d = arr.shape
    if d % 2 != 0:
        raise InvalidArgumentError(f"rotary embedding needs an even dim, got {d}")
    half = d // 2
    freqs = theta_base ** (-2.0 * np.arange(half) / d)
    angles = np.arange(t)[:, None] * freqs[None, :]
    cos, sin = np.cos(angles), np.sin(angles)
    first, second = arr[:, :half], arr[:, half:]
    out = np.empty_like(arr)
    out[:, :half] = first * cos - second * sin
    out[:, half:] = first * sin + second * cos
    return out


def output_operator(x) -> np.ndarray:
    """Sigma = X X^T, exactly symmetric: for a C-contiguous X numpy forms it by a symmetric rank-k update."""
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise InvalidArgumentError("output_operator expects a (T, d_v) matrix")
    return arr @ arr.T


@dataclass
class AttentionScene:
    """One single-head attention draw and everything derived from it.

    ``causal`` is the mask ``a`` was formed with.
    """

    q: np.ndarray
    k: np.ndarray
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
        """Q, K and V of shape (T, T), drawn in that order after a ``rope_theta`` check; V entries have std 1/sqrt(T)."""
        _check_rope_theta(rope_theta)
        rng = _seeded_rng(seed)
        q = _qk_rows(rng, t, t, qk_std)
        k = _qk_rows(rng, t, t, qk_std)
        v = (1.0 / math.sqrt(t)) * rng.standard_normal((t, t))
        if rope:
            q = apply_rope(q, rope_theta)
            k = apply_rope(k, rope_theta)
        a = attention_matrix(q, k, causal=causal)
        x = a @ v
        return cls(q=q, k=k, a=a, x=x, causal=causal)


@dataclass
class MaskAblation:
    """The scene's attention with and without the causal mask."""

    a_masked: np.ndarray
    a_unmasked: np.ndarray
    profile_masked: EntanglementProfile
    profile_unmasked: EntanglementProfile


def mask_ablation(scene: AttentionScene, chi_max: int | None = None, base: float = 2.0) -> MaskAblation:
    """Profile the scene's attention with the causal mask on and off.

    The branch with the scene's own mask is ``scene.a`` itself; only the
    other branch is formed.
    """
    other = attention_matrix(scene.q, scene.k, causal=not scene.causal)
    a_masked, a_unmasked = (scene.a, other) if scene.causal else (other, scene.a)
    return MaskAblation(
        a_masked=a_masked,
        a_unmasked=a_unmasked,
        profile_masked=profile(a_masked, chi_max=chi_max, base=base),
        profile_unmasked=profile(a_unmasked, chi_max=chi_max, base=base),
    )
