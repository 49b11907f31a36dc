"""Synthetic single-layer softmax attention at isotropic initialization.

Queries, keys and values are drawn directly as i.i.d. Gaussian matrices:
Q and K of shape (T, d_qk) with entry std ``qk_std``, V of shape
(T, d_v) with entry std ``v_std``.  This is the exact law of X @ W for
any context X with orthonormal rows and Gaussian weights W, so no
context is simulated.  Query/key entries default to std 0.65, which
puts the logit std near 0.42 after the 1/sqrt(d_qk) scaling and the
off-mean-field Frobenius mass near 0.2: strong enough that the
entanglement log-scaling is measurable, weak enough that the profile
stays in the area-law regime.  The head width defaults to T itself so
the rescaled bulk spectrum of A - (1/T) 11^T is the same law at every
sequence length; with a fixed head width the per-row softmax
temperatures spread as T grows and the bulk moments drift.  Value
entries default to variance 1/d so that V V^T approximates the identity
when d_v = d is large.  All scales are recorded in the scene because the
bulk spread depends on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import EntanglementProfile, profile
from .errors import InvalidArgumentError, ShapeMismatchError
from .rmt import _seeded_rng, check_row_stochastic

#: Default per-entry standard deviation of Q and K.
DEFAULT_QK_STD = 0.65


def _gaussian_qk(rng: np.random.Generator, t: int, d_qk: int, qk_std: float) -> tuple[np.ndarray, np.ndarray]:
    """Independent (T, d_qk) query and key matrices with i.i.d. N(0, qk_std^2) entries.

    Q is drawn from ``rng`` before K.
    """
    if t < 1:
        raise InvalidArgumentError(f"T must be >= 1, got {t}")
    if not (math.isfinite(qk_std) and qk_std >= 0.0):
        raise InvalidArgumentError(f"qk_std must be finite and >= 0, got {qk_std}")
    with np.errstate(over="ignore"):
        q = qk_std * rng.standard_normal((t, d_qk))
        k = qk_std * rng.standard_normal((t, d_qk))
    if not (np.isfinite(q).all() and np.isfinite(k).all()):
        raise InvalidArgumentError(f"qk_std = {qk_std} overflows float64 in the query/key draw")
    return q, k


def attention_matrix(q: np.ndarray, k: np.ndarray, causal: bool = False) -> np.ndarray:
    """Row-wise softmax of Q K^T / sqrt(d_qk), optionally causally masked.

    Masking sets logits above the diagonal to -inf before the softmax, so
    masked entries come out exactly zero.
    """
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    if q.ndim != 2 or k.ndim != 2 or q.shape != k.shape:
        raise ShapeMismatchError(
            f"Q and K must share shape (T, d_qk), got {q.shape} and {k.shape}"
        )
    return _softmax_rows(_logits(q, k), causal=causal)


def _logits(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Q K^T / sqrt(d_qk), rejected if any entry overflows float64."""
    with np.errstate(over="ignore", invalid="ignore"):
        logits = q @ k.T / math.sqrt(q.shape[1])
    if not np.isfinite(logits).all():
        raise InvalidArgumentError(
            "attention logits Q K^T / sqrt(d_qk) are not finite (float64 overflow); reduce qk_std"
        )
    return logits


def _softmax_rows(logits: np.ndarray, causal: bool) -> np.ndarray:
    work = np.array(logits, dtype=np.float64)
    if causal:
        t = work.shape[0]
        work[np.triu_indices(t, k=1)] = -np.inf
    work -= work.max(axis=1, keepdims=True)
    np.exp(work, out=work)
    work /= work.sum(axis=1, keepdims=True)
    return work


def apply_rope(m: np.ndarray, theta_base: float = 10000.0) -> np.ndarray:
    """Rotary position embedding with split-half dimension pairing.

    Row index is the position.  Coordinate j in the first half is rotated
    against coordinate j + d/2 by angle pos * theta_base^(-2j/d).  Norms
    are preserved exactly up to rounding.
    """
    if not (math.isfinite(theta_base) and theta_base > 0.0):
        raise InvalidArgumentError(f"RoPE base theta_base must be finite and > 0, got {theta_base}")
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


def outlier_bulk_split(a) -> tuple[np.ndarray, np.ndarray]:
    """Split a row-stochastic A into the rank-1 mean field and the bulk.

    The mean field is (1/T) 11^T; the bulk A - mean_field has zero row
    sums and is Frobenius-orthogonal to the mean field.
    """
    arr = check_row_stochastic(a)
    t = arr.shape[0]
    mean_field = np.full((t, t), 1.0 / t)
    return mean_field, arr - mean_field


def output_operator(x) -> np.ndarray:
    """Sigma = X X^T, symmetrized against rounding."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise InvalidArgumentError("output_operator expects a (T, d_v) matrix")
    sigma = arr @ arr.T
    return (sigma + sigma.T) / 2.0


@dataclass
class AttentionScene:
    """One single-head attention draw and everything derived from it.

    ``d`` is the model width; it sets only the defaults d_v = d and
    v_std = 1/sqrt(d).
    """

    t: int
    d: int
    d_qk: int
    d_v: int
    seed: object
    causal: bool
    rope: bool
    rope_theta: float
    qk_std: float
    v_std: float
    q: np.ndarray
    k: np.ndarray
    a: np.ndarray
    x: np.ndarray

    @classmethod
    def build(
        cls,
        t: int,
        d: int | None = None,
        d_qk: int | None = None,
        d_v: int | None = None,
        seed=0,
        causal: bool = False,
        rope: bool = False,
        rope_theta: float = 10000.0,
        qk_std: float = DEFAULT_QK_STD,
        v_std: float | None = None,
    ) -> AttentionScene:
        d = t if d is None else d
        d_qk = t if d_qk is None else d_qk
        d_v = d if d_v is None else d_v
        if v_std is None:
            v_std = 1.0 / math.sqrt(d)
        rng = _seeded_rng(seed)
        q, k = _gaussian_qk(rng, t, d_qk, qk_std)
        v = v_std * rng.standard_normal((t, d_v))
        if rope:
            q = apply_rope(q, rope_theta)
            k = apply_rope(k, rope_theta)
        a = attention_matrix(q, k, causal=causal)
        x = a @ v
        return cls(
            t=t,
            d=d,
            d_qk=d_qk,
            d_v=d_v,
            seed=seed,
            causal=causal,
            rope=rope,
            rope_theta=rope_theta,
            qk_std=qk_std,
            v_std=v_std,
            q=q,
            k=k,
            a=a,
            x=x,
        )


@dataclass
class MaskAblation:
    """The same logits pushed through softmax with and without the mask."""

    a_masked: np.ndarray
    a_unmasked: np.ndarray
    profile_masked: EntanglementProfile
    profile_unmasked: EntanglementProfile


def mask_ablation(scene: AttentionScene, chi_max: int | None = None, base: float = 2.0) -> MaskAblation:
    """Profile the scene's attention with the causal mask on and off."""
    logits = _logits(scene.q, scene.k)
    a_masked = _softmax_rows(logits, causal=True)
    a_unmasked = _softmax_rows(logits, causal=False)
    return MaskAblation(
        a_masked=a_masked,
        a_unmasked=a_unmasked,
        profile_masked=profile(a_masked, chi_max=chi_max, base=base),
        profile_unmasked=profile(a_unmasked, chi_max=chi_max, base=base),
    )
