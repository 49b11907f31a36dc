"""Whole-draw reference for the attention logits that ``aent`` forms block by block.

``aent.attention._seeded_logits`` streams K in row blocks and rotates each
block at its own positions.  This module draws Q and K whole from the same
generator, rotates each whole, and forms Q K^T / sqrt(T) as one product.
``complex_rotation`` is RoPE written as a complex multiplication, sharing
no code with ``aent``.
"""

import math

import numpy as np

from aent.attention import _qk_rows, _rotated, _softmax_rows
from aent.rmt import _seeded_rng


def whole_logits(t: int, seed, qk_std: float = 0.65, rope_theta: float | None = None) -> np.ndarray:
    """Q K^T / sqrt(T) as one product, Q and K (T, T) drawn whole from ``seed``.

    With ``rope_theta`` each is rotated whole, from position 0.
    """
    rng = _seeded_rng(seed)
    q, k = _qk_rows(rng, t, t, qk_std), _qk_rows(rng, t, t, qk_std)
    if rope_theta is not None:
        q, k = _rotated(q, 0, rope_theta), _rotated(k, 0, rope_theta)
    return q @ k.T / math.sqrt(t)


def whole_attention(t: int, seed, qk_std: float = 0.65, rope_theta: float | None = None, causal: bool = False):
    """The row softmax of :func:`whole_logits`, causally masked if ``causal``."""
    return _softmax_rows(whole_logits(t, seed, qk_std, rope_theta), causal=causal)


def complex_rotation(m: np.ndarray, lo: int = 0, theta_base: float = 10000.0) -> np.ndarray:
    """RoPE of the rows of ``m`` at positions lo, lo + 1, ... by complex multiplication.

    Coordinates j and j + d/2 form z_j = m_j + i m_{j+d/2}, which is
    multiplied by exp(i pos theta_base^(-2j/d)).
    """
    t, d = m.shape
    half = d // 2
    z = m[:, :half] + 1j * m[:, half:]
    pos = np.arange(lo, lo + t)[:, None]
    z = z * np.exp(1j * pos * theta_base ** (-2.0 * np.arange(half) / d))
    return np.concatenate([z.real, z.imag], axis=1)
